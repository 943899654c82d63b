"""Structure tensors derived from (P, g, nabla).

Covers the fundamental tensor F = g((nabla P)., .), the potential Phi of
the twin connection, the Lee forms theta/theta*, the 1-forms f/f* with the
dual vector f#, both Nijenhuis tensors, and the square norm of nabla P.
Every quantity that admits two derivations is computed both ways and the
results must agree exactly; a mismatch raises ConsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .connection import Connection, covariant_derivative, koszul
from .errors import ConsistencyError
from .manifold import WManifold
from .scalar import ZERO, Q
from .tensor import (DOWN, TensorDense, apply_endo, contract, lower_index,
                     raise_index, tensor_equal, transpose)


@dataclass(frozen=True)
class StructurePack:
    F: TensorDense            # (0,3)
    Phi: TensorDense          # (0,3), Phi(x,y,z) = g(Phi(x,y), z)
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


def fundamental_F(m: WManifold, conn: Connection) -> TensorDense:
    """F(x,y,z) = g((nabla_x P) y, z), post-checked against its symmetries."""
    nabla_p = covariant_derivative(conn, m.P)       # [a, j, i]: (nabla_{X_i} P)^a_j
    n = m.dim
    gm = m.g.matrix()
    out = [ZERO] * n ** 3
    for p, v in enumerate(nabla_p.data):
        if v is ZERO:
            continue
        a, ji = divmod(p, n * n)
        j, i = divmod(ji, n)
        for k in range(n):
            w = gm[k][a]
            if w:
                pos = (i * n + j) * n + k
                o = out[pos]
                out[pos] = w * v if o is ZERO else o + w * v or ZERO
    F = TensorDense(n, (DOWN, DOWN, DOWN), out)

    # F(x,y,z) = F(x,z,y) = -F(x,Py,Pz) and F(x,Py,z) = -F(x,y,Pz)
    if not tensor_equal(F, transpose(F, (0, 2, 1))):
        raise ConsistencyError("F is not symmetric in its last two arguments")
    FPP = apply_endo(apply_endo(F, 1, m.P), 2, m.P)
    if not tensor_equal(F, -FPP):
        raise ConsistencyError("F(x,Py,Pz) != -F(x,y,z)")
    if not tensor_equal(apply_endo(F, 1, m.P), -apply_endo(F, 2, m.P)):
        raise ConsistencyError("F(x,Py,z) != -F(x,y,Pz)")
    return F


def _metric_trace(t: TensorDense, metric_inv: TensorDense) -> TensorDense:
    """g^{ij} t(e_i, e_j, z) for a (0,3) tensor."""
    raised = raise_index(t, 0, metric_inv)
    return contract(raised, 0, 1)


def lee_forms(m: WManifold, F: TensorDense,
              metric_inv: TensorDense | None = None) -> tuple[TensorDense, TensorDense]:
    """Lee forms theta(z) = g^{ij} F(e_i,e_j,z), theta*(z) = g^{ij} F(e_i,Pe_j,z)."""
    ginv = metric_inv if metric_inv is not None else m.g_inv
    theta = _metric_trace(F, ginv)
    theta_star = _metric_trace(apply_endo(F, 1, m.P), ginv)
    if not tensor_equal(theta_star, -apply_endo(theta, 0, m.P)):
        raise ConsistencyError("theta* != -theta o P")
    return theta, theta_star


def potential_phi(m: WManifold, F: TensorDense, conn: Connection):
    """Potential of the twin connection, from F.

    Phi(x,y,z) = (1/2){F(x,y,Pz) + F(y,x,Pz) - F(Pz,x,y)}, together with
    its vector form and associated 1-forms.  Cross-checked against the
    independent route Phi = (Levi-Civita of g~) - (Levi-Civita of g).
    Returns (Phi, Phi_vec, f, f_star, f_sharp).
    """
    F_last_P = apply_endo(F, 2, m.P)                        # F(x,y,Pz)
    term1 = F_last_P
    term2 = transpose(F_last_P, (1, 0, 2))                  # F(y,x,Pz)
    term3 = transpose(apply_endo(F, 0, m.P), (1, 2, 0))     # F(Pz,x,y) -> slots (x,y,z)
    Phi = (term1 + term2 - term3).scale(Q(1, 2))

    # reconstruction: F(x,y,z) = Phi(x,y,Pz) + Phi(x,z,Py)
    rebuilt = apply_endo(Phi, 2, m.P) + transpose(apply_endo(Phi, 2, m.P), (0, 2, 1))
    if not tensor_equal(rebuilt, F):
        raise ConsistencyError("F reconstruction from Phi failed")
    # Phi(x,y,z) + Phi(x,z,y) + Phi(x,Py,Pz) + Phi(x,Pz,Py) = 0
    PhiPP = apply_endo(apply_endo(Phi, 1, m.P), 2, m.P)
    total = Phi + transpose(Phi, (0, 2, 1)) + PhiPP + transpose(PhiPP, (0, 2, 1))
    if not total.is_zero():
        raise ConsistencyError("four-term Phi identity failed")

    # vector form: Phi^k_{ij} = g^{kl} Phi_{ijl}
    Phi_vec = transpose(raise_index(Phi, 2, m.g_inv), (2, 0, 1))
    if not tensor_equal(Phi_vec, transpose(Phi_vec, (0, 2, 1))):
        raise ConsistencyError("Phi is not symmetric")

    # independent route: Phi = nabla~ - nabla
    conn_twin = koszul(m.algebra, m.g_twin, m.g_twin_inv)
    diff = conn_twin.gamma - conn.gamma                     # [k, i, j]
    if not tensor_equal(Phi_vec, diff):
        raise ConsistencyError("Phi from F disagrees with (nabla~ - nabla)")

    f = _metric_trace(Phi, m.g_inv)
    f_star = _metric_trace(apply_endo(Phi, 1, m.P), m.g_inv)
    if not tensor_equal(f, -apply_endo(f_star, 0, m.P)):
        raise ConsistencyError("f != -f* o P")

    theta, theta_star = lee_forms(m, F)
    if not tensor_equal(f, -theta_star) or not tensor_equal(f_star, -theta):
        raise ConsistencyError("f = -theta*, f* = -theta failed")

    f_sharp = raise_index(f, 0, m.g_inv)
    return Phi, Phi_vec, f, f_star, f_sharp


def _nijenhuis_form(T: TensorDense, P: TensorDense, parity: int) -> TensorDense:
    """T(Px,Py) + T(x,y) - P T(Px,y) - P T(x,Py) for a (1,2) tensor T with
    T(x,y) = parity * T(y,x), so that P T(x,Py) = parity * P T(Py,x)."""
    TP = apply_endo(T, 1, P)                    # T(Px, y)
    PTP = apply_endo(TP, 0, P)                  # P T(Px, y)
    swapped = transpose(PTP, (0, 2, 1))         # P T(Py, x)
    rest = apply_endo(TP, 2, P) + T - PTP
    return rest - swapped if parity > 0 else rest + swapped


def nijenhuis(m: WManifold, conn: Connection, Phi: TensorDense):
    """Nijenhuis tensor N and associated tensor N^ of P.

    N uses Lie brackets, N^ the symmetric braces {x,y} = nabla_x y +
    nabla_y x of the Levi-Civita connection of g.  Both are cross-checked
    against their expressions through the potential Phi.
    Returns (N_vec, Nhat_vec, N, Nhat).
    """
    braces = conn.gamma + transpose(conn.gamma, (0, 2, 1))     # {X_i, X_j}^k
    N_vec = _nijenhuis_form(m.algebra.c, m.P, -1)
    Nhat_vec = _nijenhuis_form(braces, m.P, 1)

    N = transpose(lower_index(N_vec, 0, m.g), (1, 2, 0))
    Nhat = transpose(lower_index(Nhat_vec, 0, m.g), (1, 2, 0))

    # cross-checks through Phi:
    #   N(x,y,z)  =  2 Phi(z,x,y) + 2 Phi(z,Px,Py)
    #   N^(x,y,z) = -2 Phi(x,y,z) - 2 Phi(Px,Py,z)
    PhiPP12 = apply_endo(apply_endo(Phi, 1, m.P), 2, m.P)
    expect_N = (transpose(Phi, (1, 2, 0)) + transpose(PhiPP12, (1, 2, 0))).scale(2)
    if not tensor_equal(N, expect_N):
        raise ConsistencyError("N disagrees with its Phi expression")
    PhiPP01 = apply_endo(apply_endo(Phi, 0, m.P), 1, m.P)
    expect_Nhat = (Phi + PhiPP01).scale(-2)
    if not tensor_equal(Nhat, expect_Nhat):
        raise ConsistencyError("N^ disagrees with its Phi expression")
    return N_vec, Nhat_vec, N, Nhat


def square_norm(m: WManifold, F: TensorDense,
                metric_inv: TensorDense | None = None) -> Fraction:
    """||nabla P|| = g^{ij} g^{kl} g^{st} F_{iks} F_{jlt}."""
    ginv = metric_inv if metric_inv is not None else m.g_inv
    raised = raise_index(raise_index(raise_index(F, 0, ginv), 1, ginv), 2, ginv)
    total = ZERO
    for v, r in zip(F.data, raised.data):
        if v is not ZERO:
            total += v * r
    return total


def build_structure_pack(m: WManifold, conn: Connection) -> StructurePack:
    """Compute every structure tensor of (m, conn) with all cross-checks."""
    F = fundamental_F(m, conn)
    theta, theta_star = lee_forms(m, F)
    Phi, Phi_vec, f, f_star, f_sharp = potential_phi(m, F, conn)
    N_vec, Nhat_vec, N, Nhat = nijenhuis(m, conn, Phi)
    snorm = square_norm(m, F)
    return StructurePack(F=F, Phi=Phi, Phi_vec=Phi_vec,
                         theta=theta, theta_star=theta_star,
                         f=f, f_star=f_star, f_sharp=f_sharp,
                         N_vec=N_vec, Nhat_vec=Nhat_vec, N=N, Nhat=Nhat,
                         snorm=snorm)
