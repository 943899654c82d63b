"""Twin interchange: tilde-side objects and the invariant tensors D, Q, B, A, K.

The twin interchange swaps g with g~ together with their Levi-Civita
connections.  This module builds every tilde-side object twice (directly
and through the identities relating it to the untilde side), the average
connection D, the curvature correction Q, its quadratic part B, the
average curvature A and the curvature K of D, and runs the full
invariance / anti-invariance verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .classify import ClassLabel, classify_f, classify_phi
from .connection import (Connection, covariant_derivative, curvature_operator,
                         koszul)
from .curvature import CurvaturePack, riemann_metric, riemann_twin
from .errors import ConsistencyError, ValidationError
from .manifold import CheckItem, ValidationReport, WManifold
from .scalar import ZERO, Q
from .structure import StructurePack, build_structure_pack
from .tensor import (DOWN, UP, TensorDense, apply_endo, tensor_equal,
                     transpose)


@dataclass(frozen=True)
class TwinPack:
    conn: Connection
    conn_twin: Connection
    sp: StructurePack           # structure tensors of (P, g)
    sp_twin: StructurePack      # structure tensors of (P, g~)
    curv: CurvaturePack
    curv_twin: CurvaturePack
    D: Connection
    Q_vec: TensorDense          # (1,3)
    B_vec: TensorDense          # (1,3)
    A_vec: TensorDense          # (1,3)
    K_vec: TensorDense          # (1,3)


def twin_connection(m: WManifold, conn: Connection, Phi_vec: TensorDense) -> Connection:
    """nabla~ = nabla + Phi; must equal the Koszul connection of g~ exactly."""
    if not tensor_equal(Phi_vec, transpose(Phi_vec, (0, 2, 1))):
        raise ValidationError("potential is not symmetric")
    candidate = Connection(m.dim, conn.gamma + Phi_vec)
    independent = koszul(m.algebra, m.g_twin, m.g_twin_inv)
    if not tensor_equal(candidate.gamma, independent.gamma):
        raise ConsistencyError("nabla + Phi disagrees with the Koszul connection of g~")
    return candidate


def twin_F(m: WManifold, F: TensorDense, conn_twin: Connection) -> TensorDense:
    """F~ from the interchange formula

        F~(x,y,z) = (1/2){F(Py,z,x) - F(y,Pz,x) + F(Pz,y,x) - F(z,Py,x)},

    cross-checked against the definition F~(x,y,z) = g~((nabla~_x P)y, z).
    """
    FP1 = apply_endo(F, 0, m.P)         # F(P., ., .)
    FP2 = apply_endo(F, 1, m.P)         # F(., P., .)
    # slot order of each summand brought to (x, y, z)
    t1 = transpose(FP1, (2, 0, 1))      # F(Py,z,x)
    t2 = transpose(FP2, (2, 0, 1))      # F(y,Pz,x)
    t3 = transpose(FP1, (2, 1, 0))      # F(Pz,y,x)
    t4 = transpose(FP2, (2, 1, 0))      # F(z,Py,x)
    Ftw = (t1 - t2 + t3 - t4).scale(Q(1, 2))

    from .structure import fundamental_F
    direct = fundamental_F(m.twin_view(), conn_twin)
    if not tensor_equal(Ftw, direct):
        raise ConsistencyError("F~ interchange formula disagrees with its definition")
    return Ftw


def twin_phi(m: WManifold, Phi: TensorDense, Phi_vec: TensorDense) -> tuple[TensorDense, TensorDense]:
    """Phi~ from Phi~(x,y,z) = -Phi(x,y,Pz); vector form must be -Phi_vec.

    The (0,3) form is the g~-lowering of the vector form, matching the
    definition Phi~(x,y,z) = g~(Phi~(x,y), z).
    """
    Phi_tilde = -apply_endo(Phi, 2, m.P)
    vec = -Phi_vec
    # g~(vec(x,y), z) must reproduce Phi_tilde
    from .tensor import lower_index
    lowered = transpose(lower_index(vec, 0, m.g_twin), (1, 2, 0))
    if not tensor_equal(lowered, Phi_tilde):
        raise ConsistencyError("Phi~ lowering is inconsistent")
    return Phi_tilde, vec


def average_connection(conn: Connection, conn_twin: Connection) -> Connection:
    """D = (nabla + nabla~)/2, the invariant connection."""
    if conn.dim != conn_twin.dim:
        raise ValidationError("connection dimensions differ")
    return conn.average(conn_twin)


def _phi_compose(Phi_vec: TensorDense) -> TensorDense:
    """(1,3) tensor C[k,x,y,z] = Phi(x, Phi(y,z))^k."""
    n = Phi_vec.dim
    n2 = n * n
    data = Phi_vec.data
    # inner[m] lists the nonzero (y n + z, Phi^m_{yz})
    inner = [[(yz, v) for yz, v in enumerate(data[m * n2:(m + 1) * n2]) if v is not ZERO]
             for m in range(n)]
    out = [ZERO] * n ** 4
    for p, outer in enumerate(data):
        if outer is ZERO:
            continue
        kx, m = divmod(p, n)
        base = kx * n2
        for yz, v in inner[m]:
            x = outer * v
            o = out[base + yz]
            out[base + yz] = x if o is ZERO else o + x or ZERO
    return TensorDense(n, (UP, DOWN, DOWN, DOWN), out)


def tensor_B(Phi_vec: TensorDense) -> TensorDense:
    """B(x,y)z = Phi(x, Phi(y,z)) - Phi(y, Phi(x,z))."""
    C = _phi_compose(Phi_vec)
    return C - transpose(C, (0, 2, 1, 3))


def tensor_Q(conn: Connection, Phi_vec: TensorDense) -> TensorDense:
    """Q(x,y)z = (nabla_x Phi)(y,z) - (nabla_y Phi)(x,z) + B(x,y)z."""
    dPhi = covariant_derivative(conn, Phi_vec)     # [k, y, z, x]
    grad = transpose(dPhi, (0, 3, 1, 2))           # [k, x, y, z]
    return grad - transpose(grad, (0, 2, 1, 3)) + tensor_B(Phi_vec)


def tensor_A(R_vec: TensorDense, Q_vec: TensorDense) -> TensorDense:
    """A = R + Q/2, the average of R and R~."""
    return R_vec + Q_vec.scale(Q(1, 2))


def tensor_K(conn_D: Connection, alg, R_vec: TensorDense, Q_vec: TensorDense,
             B_vec: TensorDense) -> TensorDense:
    """Curvature of the average connection D, computed two ways.

    Route (a): curvature of D directly; route (b): R + Q/2 - B/4.  The two
    must agree exactly, and K must equal A - B/4.
    """
    direct = curvature_operator(conn_D, alg)
    formula = R_vec + Q_vec.scale(Q(1, 2)) - B_vec.scale(Q(1, 4))
    if not tensor_equal(direct, formula):
        raise ConsistencyError("curvature of D disagrees with R + Q/2 - B/4")
    if not tensor_equal(direct, tensor_A(R_vec, Q_vec) - B_vec.scale(Q(1, 4))):
        raise ConsistencyError("K != A - B/4")
    return direct


def build_twin_pack(m: WManifold) -> TwinPack:
    """Compute both sides of the twin interchange with all route checks."""
    conn = koszul(m.algebra, m.g, m.g_inv)
    sp = build_structure_pack(m, conn)
    conn_twin = twin_connection(m, conn, sp.Phi_vec)
    sp_twin = build_structure_pack(m.twin_view(), conn_twin)

    curv = riemann_metric(m, conn)
    curv_twin = riemann_twin(m, conn_twin)

    D = average_connection(conn, conn_twin)
    # rebuilding D from the tilde side must give the same coefficients
    D_tilde = Connection(m.dim, conn_twin.gamma + sp_twin.Phi_vec.scale(Q(1, 2)))
    if not tensor_equal(D.gamma, D_tilde.gamma):
        raise ConsistencyError("average connection is not twin-invariant")

    Q_vec = tensor_Q(conn, sp.Phi_vec)
    if not tensor_equal(curv_twin.R_vec, curv.R_vec + Q_vec):
        raise ConsistencyError("R~ != R + Q")
    B_vec = tensor_B(sp.Phi_vec)
    A_vec = tensor_A(curv.R_vec, Q_vec)
    if not tensor_equal(A_vec, (curv.R_vec + curv_twin.R_vec).scale(Q(1, 2))):
        raise ConsistencyError("A != (R + R~)/2")
    K_vec = tensor_K(D, m.algebra, curv.R_vec, Q_vec, B_vec)
    return TwinPack(conn=conn, conn_twin=conn_twin, sp=sp, sp_twin=sp_twin,
                    curv=curv, curv_twin=curv_twin, D=D,
                    Q_vec=Q_vec, B_vec=B_vec, A_vec=A_vec, K_vec=K_vec)


def w1_closed_forms(m: WManifold, conn: Connection, sp: StructurePack,
                    expect_Q: TensorDense | None = None,
                    expect_B: TensorDense | None = None):
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

    Returns (S, S_star, H, Q_rebuilt, B_rebuilt); both rebuilt tensors must
    equal the direct tensor_Q / tensor_B outputs exactly.  Precomputed
    direct tensors may be passed to skip recomputing them.
    """
    if ClassLabel.W1 not in classify_phi(m, sp):
        raise ValidationError("closed forms apply only to W1-manifolds")
    n = m.dim
    n2 = Q(n)                   # 2n
    fs = list(sp.f_sharp.data)
    Pfs = m.apply_P(fs)
    fP = apply_endo(sp.f, 0, m.P)      # f(Px)

    def endo(columns) -> TensorDense:
        return TensorDense.from_function(n, (UP, DOWN), lambda k, x: columns[x][k])

    H = endo([[sp.f[x] * fs[k] - fP[x] * Pfs[k] for k in range(n)] for x in range(n)])
    Hm = H.matrix()
    HP = [[sum(Hm[k][a] * m.P[a, x] for a in range(n)) for x in range(n)] for k in range(n)]
    S = endo([[d + Hm[k][x] / n2
               for k, d in enumerate(conn.derive_vector(x, fs))] for x in range(n)])
    S_star = endo([[d + HP[k][x] / n2
                    for k, d in enumerate(conn.derive_vector(x, Pfs))] for x in range(n)])

    gm = m.g.matrix()
    tm = m.g_twin.matrix()
    Sm, Ssm = S.matrix(), S_star.matrix()
    F = sp.F

    shape = TensorDense.zeros(n, (UP, DOWN, DOWN, DOWN))
    q_out = [ZERO] * n ** 4
    b_out = [ZERO] * n ** 4
    for k, x, y, z in product(range(n), repeat=4):
        q = (gm[y][z] * Sm[k][x] - gm[x][z] * Sm[k][y]
             - tm[y][z] * Ssm[k][x] + tm[x][z] * Ssm[k][y]
             - (F[x, z, y] - F[y, z, x]) * Pfs[k]) / n2
        b = (gm[y][z] * Hm[k][x] - gm[x][z] * Hm[k][y]
             - tm[y][z] * HP[k][x] + tm[x][z] * HP[k][y]) / (n2 * n2)
        if q:
            q_out[shape.flat((k, x, y, z))] = q
        if b:
            b_out[shape.flat((k, x, y, z))] = b
    Q_rebuilt = TensorDense(n, (UP, DOWN, DOWN, DOWN), q_out)
    B_rebuilt = TensorDense(n, (UP, DOWN, DOWN, DOWN), b_out)

    direct_Q = expect_Q if expect_Q is not None else tensor_Q(conn, sp.Phi_vec)
    direct_B = expect_B if expect_B is not None else tensor_B(sp.Phi_vec)
    if not tensor_equal(Q_rebuilt, direct_Q):
        raise ConsistencyError("W1 closed-form Q disagrees with the direct Q")
    if not tensor_equal(B_rebuilt, direct_B):
        raise ConsistencyError("W1 closed-form B disagrees with the direct B")
    return S, S_star, H, Q_rebuilt, B_rebuilt


def invariance_suite(m: WManifold, pack: TwinPack | None = None) -> ValidationReport:
    """Run every (anti-)invariance check of the twin interchange on m.

    Each check is an exact tensor equality; failures become report entries
    rather than exceptions, so the whole suite always runs.  A prebuilt
    twin pack for m may be passed to avoid recomputing it.
    """
    tp = pack if pack is not None else build_twin_pack(m)
    mt = m.twin_view()
    # tilde-side tensors built from the twin manifold's own data
    tpt_Q = tensor_Q(tp.conn_twin, tp.sp_twin.Phi_vec)
    tpt_B = tensor_B(tp.sp_twin.Phi_vec)
    tpt_A = tensor_A(tp.curv_twin.R_vec, tpt_Q)
    D_tilde = average_connection(tp.conn_twin,
                                 twin_connection(mt, tp.conn_twin, tp.sp_twin.Phi_vec))
    K_tilde = tensor_K(D_tilde, m.algebra, tp.curv_twin.R_vec, tpt_Q, tpt_B)

    checks: list[CheckItem] = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append(CheckItem(name, ok, detail if not ok else ""))

    check("Phi~ = -Phi (vector-valued)",
          tensor_equal(tp.sp_twin.Phi_vec, -tp.sp.Phi_vec))
    check("f~ = f", tensor_equal(tp.sp_twin.f, tp.sp.f))
    check("f*~ = f*", tensor_equal(tp.sp_twin.f_star, tp.sp.f_star))
    check("theta~ = theta", tensor_equal(tp.sp_twin.theta, tp.sp.theta))
    check("theta*~ = theta*", tensor_equal(tp.sp_twin.theta_star, tp.sp.theta_star))

    try:
        same_classes = classify_phi(mt, tp.sp_twin) == classify_phi(m, tp.sp)
    except ConsistencyError:
        same_classes = False
    check("class set invariant", same_classes)
    try:
        check("classify_f = classify_phi",
              classify_f(m, tp.sp) == classify_phi(m, tp.sp))
    except ConsistencyError as exc:
        check("classify_f = classify_phi", False, str(exc))

    check("D~ = D", tensor_equal(D_tilde.gamma, tp.D.gamma))
    check("N~ = N (vector-valued)", tensor_equal(tp.sp_twin.N_vec, tp.sp.N_vec))
    check("N^~ = -N^ (vector-valued)", tensor_equal(tp.sp_twin.Nhat_vec, -tp.sp.Nhat_vec))
    check("N~(x,y,z) = N(x,y,Pz)",
          tensor_equal(tp.sp_twin.N, apply_endo(tp.sp.N, 2, m.P)))
    check("N^~(x,y,z) = -N^(x,y,Pz)",
          tensor_equal(tp.sp_twin.Nhat, -apply_endo(tp.sp.Nhat, 2, m.P)))

    check("Q~ = -Q", tensor_equal(tpt_Q, -tp.Q_vec))
    check("B~ = B", tensor_equal(tpt_B, tp.B_vec))
    check("A~ = A", tensor_equal(tpt_A, tp.A_vec))
    check("K~ = K", tensor_equal(K_tilde, tp.K_vec))
    check("K = A - B/4",
          tensor_equal(tp.K_vec, tp.A_vec - tp.B_vec.scale(Q(1, 4))))
    check("R~ = R + Q", tensor_equal(tp.curv_twin.R_vec, tp.curv.R_vec + tp.Q_vec))

    # antisymmetrized covariant derivative relation with the -2B term
    dPhi = transpose(covariant_derivative(tp.conn, tp.sp.Phi_vec), (0, 3, 1, 2))
    dPhi_t = transpose(covariant_derivative(tp.conn_twin, tp.sp_twin.Phi_vec), (0, 3, 1, 2))
    lhs = dPhi_t - transpose(dPhi_t, (0, 2, 1, 3))
    rhs = -(dPhi - transpose(dPhi, (0, 2, 1, 3))) - tp.B_vec.scale(2)
    check("(nabla~ Phi~) antisymmetrized = -(nabla Phi) antisymmetrized - 2B",
          tensor_equal(lhs, rhs))

    for alpha, beta in ((Q(2), Q(-3)), (Q(1, 2), Q(5, 7))):
        combo = tp.A_vec.scale(alpha) + tp.K_vec.scale(beta)
        combo_t = tpt_A.scale(alpha) + K_tilde.scale(beta)
        check(f"{alpha}A + {beta}K invariant", tensor_equal(combo, combo_t))

    return ValidationReport(tuple(checks))
