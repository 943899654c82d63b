"""Twin interchange: tilde-side objects and the invariant tensors D, Q, B, A, K.

The twin interchange swaps g with g~ together with their Levi-Civita
connections.  This module builds every tilde-side object twice (directly
and through the identities relating it to the untilde side), the average
connection D, the curvature correction Q, its quadratic part B, the
average curvature A and the curvature K of D, and runs the full
invariance / anti-invariance verification suite.  Each quantity is
computed once per route and reused by every comparison that needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import ClassificationResult, ClassLabel, classify, classify_phi
from .connection import covariant_derivative, curvature_operator, koszul
from .curvature import CurvaturePack, riemann
from .errors import ValidationError, recording, require
from .manifold import CheckItem, ValidationReport, WManifold
from .scalar import Q
from .structure import StructurePack, build_structure_pack
from .tensor import TensorDense, lincomb, vanishes

HALF = Q(1, 2)
QUARTER = Q(1, 4)


@dataclass(frozen=True)
class TwinPack:
    conn: TensorDense           # (1,2), Levi-Civita coefficients of g, [k, i, j]
    conn_twin: TensorDense      # (1,2), the same for g~
    sp: StructurePack           # structure tensors of (P, g)
    sp_twin: StructurePack      # structure tensors of (P, g~)
    curv: CurvaturePack
    curv_twin: CurvaturePack
    D: TensorDense              # (1,2), (conn + conn_twin)/2
    curl: TensorDense           # (1,3), (nabla_x Phi)(y,z) - (nabla_y Phi)(x,z)
    Q_vec: TensorDense          # (1,3), curl + B
    B_vec: TensorDense          # (1,3)
    A_vec: TensorDense          # (1,3)
    K_vec: TensorDense          # (1,3), curvature of D
    cls: ClassificationResult   # classify(m, sp)
    checks: tuple[str, ...]     # every route cross-check run while building, in order


def twin_connection(m: WManifold, conn: TensorDense, Phi_vec: TensorDense) -> TensorDense:
    """nabla~ = nabla + Phi; must equal the Koszul connection of g~ exactly.

    Once the two agree, the Koszul connection is returned: it is nabla + Phi.
    """
    if not vanishes((1, Phi_vec), (-1, Phi_vec, (0, 2, 1))):
        raise ValidationError("potential is not symmetric")
    independent = koszul(m.algebra, m.g_twin, m.g_twin_inv)
    require(vanishes((1, conn), (1, Phi_vec), (-1, independent)),
            "nabla + Phi disagrees with the Koszul connection of g~")
    return independent


def tensor_B(Phi_vec: TensorDense) -> TensorDense:
    """B(x,y)z = Phi(x, Phi(y,z)) - Phi(y, Phi(x,z))."""
    return lincomb((1, "kxm,myz->kxyz", Phi_vec, Phi_vec),
                   (-1, "kym,mxz->kxyz", Phi_vec, Phi_vec))


def tensor_Q(conn: TensorDense, Phi_vec: TensorDense):
    """Q(x,y)z = (nabla_x Phi)(y,z) - (nabla_y Phi)(x,z) + B(x,y)z.

    Returns (curl, B, Q), with curl the antisymmetrised gradient of Phi.
    """
    dPhi = covariant_derivative(conn, Phi_vec)     # [k, y, z, x]
    # the gradient [k, x, y, z] is dPhi transposed by (0, 3, 1, 2), and with
    # x and y swapped by (0, 1, 3, 2)
    curl = lincomb((1, dPhi, (0, 3, 1, 2)), (-1, dPhi, (0, 1, 3, 2)))
    B = tensor_B(Phi_vec)
    return curl, B, lincomb((1, curl), (1, B))


def tensor_A(R_vec: TensorDense, Q_vec: TensorDense) -> TensorDense:
    """A = R + Q/2, the average of R and R~."""
    return lincomb((1, R_vec), (HALF, Q_vec))


def tensor_K(K_vec: TensorDense, R_vec: TensorDense, Q_vec: TensorDense,
             A_vec: TensorDense, B_vec: TensorDense) -> TensorDense:
    """Check K, the curvature of an average connection, against its formulas.

    Route (a) is the curvature of D itself, K_vec; route (b) is R + Q/2 -
    B/4.  The two must agree exactly, and K must equal A - B/4.
    """
    require(vanishes((1, K_vec), (-1, R_vec), (-HALF, Q_vec), (QUARTER, B_vec)),
            "curvature of D disagrees with R + Q/2 - B/4")
    require(vanishes((1, K_vec), (-1, A_vec), (QUARTER, B_vec)), "K != A - B/4")
    return K_vec


def build_twin_pack(m: WManifold) -> TwinPack:
    """Compute both sides of the twin interchange with all route checks."""
    with recording() as checks:
        conn = koszul(m.algebra, m.g, m.g_inv)
        sp = build_structure_pack(m, conn)
        conn_twin = twin_connection(m, conn, sp.Phi_vec)
        mt = m.twin_view()
        sp_twin = build_structure_pack(mt, conn_twin)

        curv = riemann(m, conn)
        curv_twin = riemann(mt, conn_twin)

        D = lincomb((HALF, conn), (HALF, conn_twin))
        # rebuilding D from the tilde side must give the same coefficients
        require(vanishes((1, D), (-1, conn_twin), (-HALF, sp_twin.Phi_vec)),
                "average connection is not twin-invariant")

        curl, B_vec, Q_vec = tensor_Q(conn, sp.Phi_vec)
        require(vanishes((1, curv_twin.R_vec), (-1, curv.R_vec), (-1, Q_vec)), "R~ != R + Q")
        A_vec = tensor_A(curv.R_vec, Q_vec)
        require(vanishes((1, A_vec), (-HALF, curv.R_vec), (-HALF, curv_twin.R_vec)),
                "A != (R + R~)/2")
        K_vec = tensor_K(curvature_operator(D, m.algebra), curv.R_vec, Q_vec, A_vec, B_vec)
        cls = classify(m, sp)
    return TwinPack(conn=conn, conn_twin=conn_twin, sp=sp, sp_twin=sp_twin,
                    curv=curv, curv_twin=curv_twin, D=D, curl=curl,
                    Q_vec=Q_vec, B_vec=B_vec, A_vec=A_vec, K_vec=K_vec,
                    cls=cls, checks=tuple(checks))


def w1_closed_forms(m: WManifold, tp: TwinPack):
    """Closed-form Q and B of a W1-manifold through S, S* and H.

        Hx  = f(x) f# - f(Px) Pf#
        Sx  = nabla_x f#  + (1/2n) Hx
        S*x = nabla_x Pf# + (1/2n) HPx

    On a W1-manifold Phi(x,y) = (1/2n){g(x,y) f# - g~(x,y) Pf#}, so
    differentiating and antisymmetrizing gives

        Q(x,y)z = (1/2n){ g(y,z) Sx - g(x,z) Sy - g~(y,z) S*x + g~(x,z) S*y
                          - [F(x,z,y) - F(y,z,x)] Pf# },
        B(x,y)z = (1/4n^2){ g(y,z) Hx - g(x,z) Hy - g~(y,z) HPx + g~(x,z) HPy },

    where the F term comes from nabla g~ (g~ is not parallel for nabla;
    (nabla_x g~)(y,z) = F(x,z,y)).

    tp is the twin pack of m.  Returns (S, S_star, H, Q_rebuilt,
    B_rebuilt); both rebuilt tensors must equal the pack's Q and B exactly.
    """
    if ClassLabel.W1 not in tp.cls.satisfied:
        raise ValidationError("closed forms apply only to W1-manifolds")
    conn, sp, P = tp.conn, tp.sp, m.P
    h = Q(1, m.dim)                                     # 1/2n
    Pfs = lincomb((1, "km,m->k", P, sp.f_sharp))
    H = lincomb((1, "k,x->kx", sp.f_sharp, sp.f),
                (-1, "k,x->kx", Pfs, lincomb((1, "mx,m->x", P, sp.f))))
    HP = lincomb((1, "mx,km->kx", P, H))
    S = lincomb((1, covariant_derivative(conn, sp.f_sharp)), (h, H))
    S_star = lincomb((1, covariant_derivative(conn, Pfs)), (h, HP))

    Q_rebuilt, B_rebuilt = _w1_assemble(m.g, m.g_twin, S, S_star, H, HP, sp.F, Pfs)
    require(vanishes((1, Q_rebuilt), (-1, tp.Q_vec)),
            "W1 closed-form Q disagrees with the direct Q")
    require(vanishes((1, B_rebuilt), (-1, tp.B_vec)),
            "W1 closed-form B disagrees with the direct B")
    return S, S_star, H, Q_rebuilt, B_rebuilt


def _w1_assemble(g, g_twin, S, S_star, H, HP, F, Pfs) -> tuple[TensorDense, TensorDense]:
    """The closed-form Q and B of w1_closed_forms from g, g~, the (1,1)
    tensors S, S*, H and HP, F and Pf#, as outer products."""
    h = Q(1, g.dim)                                     # 1/2n

    def antisymmetrized(c, form, E):
        """c form(y,z) E(x) - c form(x,z) E(y), indexed [k, x, y, z]."""
        return (c, "yz,kx->kxyz", form, E), (-c, "xz,ky->kxyz", form, E)

    Q_rebuilt = lincomb(*antisymmetrized(h, g, S), *antisymmetrized(-h, g_twin, S_star),
                        (-h, "xzy,k->kxyz", F, Pfs), (h, "yzx,k->kxyz", F, Pfs))
    B_rebuilt = lincomb(*antisymmetrized(h * h, g, H), *antisymmetrized(-h * h, g_twin, HP))
    return Q_rebuilt, B_rebuilt


def invariance_suite(m: WManifold, pack: TwinPack | None = None) -> ValidationReport:
    """Run every (anti-)invariance check of the twin interchange on m.

    Each check is an exact tensor equality; failures become report entries
    rather than exceptions, so the whole suite always runs.  A prebuilt
    twin pack for m may be passed to avoid recomputing it.
    """
    tp = pack if pack is not None else build_twin_pack(m)
    sp, spt = tp.sp, tp.sp_twin
    # tilde-side tensors built from the twin manifold's own data
    curl_t, B_t, Q_t = tensor_Q(tp.conn_twin, spt.Phi_vec)
    A_t = tensor_A(tp.curv_twin.R_vec, Q_t)
    # the twin of nabla~, which twin_connection checks against nabla~ + Phi~
    mt = m.twin_view()
    conn_tt = twin_connection(mt, tp.conn_twin, spt.Phi_vec)
    # D~ is nabla~ + Phi~/2, which build_twin_pack requires to equal D, so
    # its curvature is K; tensor_K checks it against the tilde-side formulas
    K_t = tensor_K(tp.K_vec, tp.curv_twin.R_vec, Q_t, A_t, B_t)

    def same(a: TensorDense, b: TensorDense):
        return vanishes((1, a), (-1, b))

    def opposite(a: TensorDense, b: TensorDense):
        return vanishes((1, a), (1, b))

    results = [
        ("Phi~ = -Phi (vector-valued)", opposite(spt.Phi_vec, sp.Phi_vec)),
        ("f~ = f", same(spt.f, sp.f)),
        ("f*~ = f*", same(spt.f_star, sp.f_star)),
        ("theta~ = theta", same(spt.theta, sp.theta)),
        ("theta*~ = theta*", same(spt.theta_star, sp.theta_star)),

        ("class set invariant", frozenset(classify_phi(mt, spt)) == tp.cls.satisfied),
        ("classify_f = classify_phi", tp.cls.agreement),

        # D~ = (nabla~ + twin of nabla~)/2
        ("D~ = D", vanishes((HALF, tp.conn_twin), (HALF, conn_tt), (-1, tp.D))),
        ("N~ = N (vector-valued)", same(spt.N_vec, sp.N_vec)),
        ("N^~ = -N^ (vector-valued)", opposite(spt.Nhat_vec, sp.Nhat_vec)),
        ("N~(x,y,z) = N(x,y,Pz)", vanishes((1, spt.N), (-1, "mz,xym->xyz", m.P, sp.N))),
        ("N^~(x,y,z) = -N^(x,y,Pz)",
         vanishes((1, spt.Nhat), (1, "mz,xym->xyz", m.P, sp.Nhat))),

        ("Q~ = -Q", opposite(Q_t, tp.Q_vec)),
        ("B~ = B", same(B_t, tp.B_vec)),
        ("A~ = A", same(A_t, tp.A_vec)),
        ("K~ = K", same(K_t, tp.K_vec)),
        ("K = A - B/4", vanishes((1, tp.K_vec), (-1, tp.A_vec), (QUARTER, tp.B_vec))),
        ("R~ = R + Q",
         vanishes((1, tp.curv_twin.R_vec), (-1, tp.curv.R_vec), (-1, tp.Q_vec))),

        # antisymmetrized covariant derivative relation with the -2B term
        ("(nabla~ Phi~) antisymmetrized = -(nabla Phi) antisymmetrized - 2B",
         vanishes((1, curl_t), (1, tp.curl), (2, tp.B_vec))),
    ]
    for alpha, beta in ((Q(2), Q(-3)), (Q(1, 2), Q(5, 7))):
        results.append((f"{alpha}A + {beta}K invariant",
                        vanishes((alpha, tp.A_vec), (beta, tp.K_vec), (-alpha, A_t),
                                 (-beta, K_t))))
    return ValidationReport(tuple(CheckItem.of(name, ok) for name, ok in results))
