"""Structure tensors derived from (P, g, nabla).

Covers the fundamental tensor F = g((nabla P)., .), the potential Phi of
the twin connection, the Lee forms theta/theta*, the 1-forms f/f* with the
dual vector f#, both Nijenhuis tensors, and the square norm of nabla P.
Every quantity that admits two derivations is computed both ways and the
results must agree exactly; a mismatch raises ConsistencyError.  The
connection nabla is its (1,2) coefficient tensor, as connection.koszul
returns it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .connection import covariant_derivative, koszul
from .errors import require
from .manifold import WManifold
from .scalar import Q
from .tensor import TensorDense, lincomb, vanishes

#: a (0,3) tensor with P substituted into some arguments, keyed by those
#: arguments: "z" is t(x,y,Pz), "yz" is t(x,Py,Pz), see p_substitutions
PSubs = dict[str, TensorDense]

#: the product spec that substitutes P, its first operand, into argument
#: x, y or z of a (0,3) tensor
_SUBSTITUTE = {"x": "mx,myz->xyz", "y": "my,xmz->xyz", "z": "mz,xym->xyz"}

#: the product specs that raise slot 0, 1 or 2 of a three-slot tensor
#: with g^-1, their first operand; the slot keeps its position
_RAISE = ("ia,ajk->ijk", "ja,iak->ijk", "ka,ija->ijk")


@dataclass(frozen=True)
class StructurePack:
    F: TensorDense            # (0,3)
    F_P: PSubs                # keys "x", "y", "z", "yz"
    Phi: TensorDense          # (0,3), Phi(x,y,z) = g(Phi(x,y), z)
    Phi_P: PSubs              # keys "y", "z", "yz", "xy"
    Phi_vec: TensorDense      # (1,2), [k,i,j]
    theta: TensorDense        # (0,1)
    theta_star: TensorDense   # (0,1)
    f: TensorDense            # (0,1)
    f_star: TensorDense       # (0,1)
    f_sharp: TensorDense      # (1,0)
    N_vec: TensorDense        # (1,2)
    Nhat_vec: TensorDense     # (1,2)
    N: TensorDense            # (0,3)
    Nhat: TensorDense         # (0,3)
    snorm: Fraction


def p_substitutions(t: TensorDense, P: TensorDense, *keys: str) -> PSubs:
    """The (0,3) tensor t with P substituted into the arguments each key names.

    A key of two letters is built on the key of its second letter, which
    must come earlier, so each substitution is formed once.
    """
    out: PSubs = {}
    for key in keys:
        base = out[key[1:]] if len(key) > 1 else t
        out[key] = lincomb((1, _SUBSTITUTE[key[0]], P, base))
    return out


def fundamental_F(m: WManifold, conn: TensorDense) -> tuple[TensorDense, PSubs]:
    """F(x,y,z) = g((nabla_x P) y, z), post-checked against its symmetries.

    Returns F and its P-substitutions "x", "y", "z" and "yz".
    """
    nabla_p = covariant_derivative(conn, m.P)       # [a, j, i]: (nabla_{X_i} P)^a_j
    F = lincomb((1, "aji,ka->ijk", nabla_p, m.g))
    F_P = p_substitutions(F, m.P, "x", "y", "z", "yz")

    # F(x,y,z) = F(x,z,y) = -F(x,Py,Pz) and F(x,Py,z) = -F(x,y,Pz)
    require(vanishes((1, F), (-1, F, (0, 2, 1))),
            "F is not symmetric in its last two arguments")
    require(vanishes((1, F), (1, F_P["yz"])), "F(x,Py,Pz) != -F(x,y,z)")
    require(vanishes((1, F_P["y"]), (1, F_P["z"])), "F(x,Py,z) != -F(x,y,Pz)")
    return F, F_P


def lee_forms(m: WManifold, F: TensorDense, F_P: PSubs) -> tuple[TensorDense, TensorDense]:
    """Lee forms theta(z) = g^{ij} F(e_i,e_j,z), theta*(z) = g^{ij} F(e_i,Pe_j,z)."""
    theta = lincomb((1, "ij,ijz->z", m.g_inv, F))
    theta_star = lincomb((1, "ij,ijz->z", m.g_inv, F_P["y"]))
    require(vanishes((1, theta_star), (1, "mz,m->z", m.P, theta)), "theta* != -theta o P")
    return theta, theta_star


def potential_phi(m: WManifold, F: TensorDense, F_P: PSubs, conn: TensorDense,
                  theta: TensorDense, theta_star: TensorDense):
    """Potential of the twin connection, from F.

    Phi(x,y,z) = (1/2){F(x,y,Pz) + F(y,x,Pz) - F(Pz,x,y)}, together with
    its vector form and associated 1-forms.  Cross-checked against the
    independent route Phi = (Levi-Civita of g~) - (Levi-Civita of g), and
    its 1-forms against the Lee forms theta, theta* of F.
    Returns (Phi, Phi_P, Phi_vec, f, f_star, f_sharp), with Phi_P the
    P-substitutions "y", "z", "yz" and "xy" of Phi.
    """
    half = Q(1, 2)
    # F(x,y,Pz) + F(y,x,Pz) - F(Pz,x,y), the last moved to slots (x,y,z)
    Phi = lincomb((half, F_P["z"]), (half, F_P["z"], (1, 0, 2)),
                  (-half, F_P["x"], (1, 2, 0)))
    Phi_P = p_substitutions(Phi, m.P, "y", "z", "yz", "xy")

    # reconstruction: F(x,y,z) = Phi(x,y,Pz) + Phi(x,z,Py)
    require(vanishes((1, Phi_P["z"]), (1, Phi_P["z"], (0, 2, 1)), (-1, F)),
            "F reconstruction from Phi failed")
    # Phi(x,y,z) + Phi(x,z,y) + Phi(x,Py,Pz) + Phi(x,Pz,Py) = 0
    PhiPP = Phi_P["yz"]
    require(vanishes((1, Phi), (1, Phi, (0, 2, 1)), (1, PhiPP), (1, PhiPP, (0, 2, 1))),
            "four-term Phi identity failed")

    # vector form: Phi^k_{ij} = g^{kl} Phi_{ijl}
    Phi_vec = lincomb((1, "kl,ijl->kij", m.g_inv, Phi))
    require(vanishes((1, Phi_vec), (-1, Phi_vec, (0, 2, 1))), "Phi is not symmetric")

    # independent route: Phi = nabla~ - nabla, on [k, i, j]
    conn_twin = koszul(m.algebra, m.g_twin, m.g_twin_inv)
    require(vanishes((1, Phi_vec), (-1, conn_twin), (1, conn)),
            "Phi from F disagrees with (nabla~ - nabla)")

    f = lincomb((1, "ij,ijz->z", m.g_inv, Phi))
    f_star = lincomb((1, "ij,ijz->z", m.g_inv, Phi_P["y"]))
    require(vanishes((1, f), (1, "mz,m->z", m.P, f_star)), "f != -f* o P")
    require(vanishes((1, f), (1, theta_star)) and vanishes((1, f_star), (1, theta)),
            "f = -theta*, f* = -theta failed")

    f_sharp = lincomb((1, "km,m->k", m.g_inv, f))
    return Phi, Phi_P, Phi_vec, f, f_star, f_sharp


def _nijenhuis_form(T: TensorDense, P: TensorDense, parity: int) -> TensorDense:
    """T(Px,Py) + T(x,y) - P T(Px,y) - P T(x,Py) for a (1,2) tensor T with
    T(x,y) = parity * T(y,x), so that P T(x,Py) = parity * P T(Py,x)."""
    TP = lincomb((1, "mi,kmj->kij", P, T))          # T(Px, y)
    PTP = lincomb((1, "km,mij->kij", P, TP))        # P T(Px, y)
    # the first term is T(Px, Py), the last P T(Py, x)
    return lincomb((1, "mj,kim->kij", P, TP), (1, T), (-1, PTP), (-parity, PTP, (0, 2, 1)))


def nijenhuis(m: WManifold, conn: TensorDense, Phi: TensorDense, Phi_P: PSubs):
    """Nijenhuis tensor N and associated tensor N^ of P.

    N uses Lie brackets, N^ the symmetric braces {x,y} = nabla_x y +
    nabla_y x of the Levi-Civita connection of g.  Both are cross-checked
    against their expressions through the potential Phi and its
    P-substitutions Phi_P.
    Returns (N_vec, Nhat_vec, N, Nhat).
    """
    braces = lincomb((1, conn), (1, conn, (0, 2, 1)))     # {X_i, X_j}^k
    N_vec = _nijenhuis_form(m.algebra.c, m.P, -1)
    Nhat_vec = _nijenhuis_form(braces, m.P, 1)

    N = lincomb((1, "lm,mij->ijl", m.g, N_vec))
    Nhat = lincomb((1, "lm,mij->ijl", m.g, Nhat_vec))

    # cross-checks through Phi:
    #   N(x,y,z)  =  2 Phi(z,x,y) + 2 Phi(z,Px,Py)
    #   N^(x,y,z) = -2 Phi(x,y,z) - 2 Phi(Px,Py,z)
    require(vanishes((1, N), (-2, Phi, (1, 2, 0)), (-2, Phi_P["yz"], (1, 2, 0))),
            "N disagrees with its Phi expression")
    require(vanishes((1, Nhat), (2, Phi), (2, Phi_P["xy"])),
            "N^ disagrees with its Phi expression")
    return N_vec, Nhat_vec, N, Nhat


def square_norm(m: WManifold, F: TensorDense) -> Fraction:
    """||nabla P|| = g^{ij} g^{kl} g^{st} F_{iks} F_{jlt}."""
    raised = F
    for spec in _RAISE:
        raised = lincomb((1, spec, m.g_inv, raised))
    return lincomb((1, "ijk,ijk->", F, raised)).item()


def build_structure_pack(m: WManifold, conn: TensorDense) -> StructurePack:
    """Compute every structure tensor of (m, conn) with all cross-checks."""
    F, F_P = fundamental_F(m, conn)
    theta, theta_star = lee_forms(m, F, F_P)
    Phi, Phi_P, Phi_vec, f, f_star, f_sharp = potential_phi(m, F, F_P, conn,
                                                             theta, theta_star)
    N_vec, Nhat_vec, N, Nhat = nijenhuis(m, conn, Phi, Phi_P)
    snorm = square_norm(m, F)
    return StructurePack(F=F, F_P=F_P, Phi=Phi, Phi_P=Phi_P, Phi_vec=Phi_vec,
                         theta=theta, theta_star=theta_star,
                         f=f, f_star=f_star, f_sharp=f_sharp,
                         N_vec=N_vec, Nhat_vec=Nhat_vec, N=N, Nhat=Nhat,
                         snorm=snorm)
