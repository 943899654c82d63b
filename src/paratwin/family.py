"""The two-parameter 4-dimensional Lie-group example.

A connected Lie group whose Lie algebra has the nonzero commutators

    [X1,X4] = [X3,X2] =  l1 X1 + e l1 X2 + l2 X3 + e l2 X4
    [X1,X3] = [X4,X2] = -e l1 X1 - l1 X2 + e l2 X3 + l2 X4
    [X1,X2] = 2 l2 X1 + 2 e l2 X2
    [X3,X4] = 2 l1 X3 + 2 e l1 X4

with P the pair swap X1<->X2, X3<->X4 and g = diag(1,1,-1,-1), for
rational parameters l1, l2 and e in {+1,-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import tables
from .classify import ClassLabel, lee_forms_closed
from .errors import ValidationError, failure_detail
from .manifold import (CheckItem, LieAlgebraModel, ValidationReport, WManifold,
                       build_manifold)
from .scalar import ZERO, Q, format_rational, rational
from .tensor import DOWN, UP, TensorDense, lower_index, transpose, vanishes
from .twin import build_twin_pack, w1_closed_forms


@dataclass(frozen=True)
class FamilyParams:
    lambda1: Fraction
    lambda2: Fraction
    epsilon: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lambda1", rational(self.lambda1))
        object.__setattr__(self, "lambda2", rational(self.lambda2))
        object.__setattr__(self, "epsilon", rational(self.epsilon))
        if self.epsilon not in (Q(1), Q(-1)):
            raise ValidationError(f"epsilon must be +1 or -1, got {self.epsilon}")

    def label(self) -> str:
        return (f"family(l1={format_rational(self.lambda1)}, "
                f"l2={format_rational(self.lambda2)}, e={format_rational(self.epsilon)})")


#: grid on which "for arbitrary l1, l2" claims are verified; every table
#: entry is polynomial of degree <= 2 in each parameter, so agreement on a
#: 7-point grid per parameter proves the identity.
DEFAULT_GRID = (Q(-3), Q(-1), Q(-1, 2), Q(0), Q(1, 2), Q(1), Q(2))


def grid_points(values=DEFAULT_GRID):
    for l1 in values:
        for l2 in values:
            for eps in (Q(1), Q(-1)):
                yield FamilyParams(l1, l2, eps)


def family_brackets(p: FamilyParams) -> dict[tuple[int, int], list[Fraction]]:
    """Nonzero commutators [X_i, X_j] (0-based index pairs, i < j is not assumed)."""
    l1, l2, e = p.lambda1, p.lambda2, p.epsilon
    v14 = [l1, e * l1, l2, e * l2]
    v13 = [-e * l1, -l1, e * l2, l2]
    return {
        (0, 3): v14, (2, 1): v14,
        (0, 2): v13, (3, 1): v13,
        (0, 1): [2 * l2, 2 * e * l2, ZERO, ZERO],
        (2, 3): [ZERO, ZERO, 2 * l1, 2 * e * l1],
    }


def build_family(p: FamilyParams) -> WManifold:
    """Build the family manifold; passes every structural validation."""
    n = 4
    shape = TensorDense.zeros(n, (UP, DOWN, DOWN))
    data = [ZERO] * n ** 3
    for (i, j), vec in family_brackets(p).items():
        for k in range(n):
            if vec[k]:
                data[shape.flat((k, i, j))] = vec[k]
                data[shape.flat((k, j, i))] = -vec[k]
    alg = LieAlgebraModel(n, ("X1", "X2", "X3", "X4"),
                          TensorDense(n, (UP, DOWN, DOWN), data))
    P = TensorDense.from_matrix([[0, 1, 0, 0],
                                 [1, 0, 0, 0],
                                 [0, 0, 0, 1],
                                 [0, 0, 1, 0]], (UP, DOWN))
    g = TensorDense.from_matrix([[1, 0, 0, 0],
                                 [0, 1, 0, 0],
                                 [0, 0, -1, 0],
                                 [0, 0, 0, -1]], (DOWN, DOWN))
    return build_manifold(alg, P, g, name=p.label())


@lru_cache(maxsize=512)
def family_pack(p: FamilyParams):
    """(manifold, twin pack) at p, cached across grid sweeps."""
    m = build_family(p)
    return m, build_twin_pack(m)


def _vec_of(t: TensorDense, *fixed) -> tuple:
    """Column of a (1,k) tensor at the given covariant indices."""
    return tuple(t[(a,) + fixed] for a in range(t.dim))


def _zero_vec(n: int) -> tuple:
    return (ZERO,) * n


def theorem_checks(p: FamilyParams, perturb_curvature: bool = False) -> ValidationReport:
    """Verify the five structural claims and every component table at p.

    Failures become report entries.  perturb_curvature flips the sign of
    one expected curvature component; it exists as a self-test that a wrong
    expectation is actually detected.
    """
    m, tp = family_pack(p)
    sp, spt = tp.sp, tp.sp_twin
    n = m.dim
    l1, l2, e = p.lambda1, p.lambda2, p.epsilon
    on_diagonal = l1 == l2 or l1 == -l2
    checks: list[CheckItem] = []

    def check(name: str, ok, detail: str = ""):
        checks.append(CheckItem(name, bool(ok), "" if ok else detail or failure_detail(ok)))

    def first_mismatch(pairs):
        for label, got, want in pairs:
            if got != want:
                return f"{label}: got {got}, expected {want}"
        return ""

    # structural claims
    cls = tp.cls
    want_min = ClassLabel.W0 if (not l1 and not l2) else ClassLabel.W1
    check("claim: minimal class", cls.minimal == want_min,
          f"got {cls.minimal}, expected {want_min}")
    check("claim: Lee forms closed",
          lee_forms_closed(m.algebra, sp.theta, sp.theta_star)
          and lee_forms_closed(m.algebra, spt.theta, spt.theta_star))
    check("claim: isotropic iff l1 = +-l2", (sp.snorm == ZERO) == on_diagonal,
          f"snorm = {sp.snorm}")
    check("claim: scalar flat iff l1 = +-l2",
          ((tp.curv.tau == ZERO) and (tp.curv_twin.tau == ZERO)) == on_diagonal,
          f"tau = {tp.curv.tau}, twin tau = {tp.curv_twin.tau}")
    check("claim: W0 iff l1 = l2 = 0",
          (cls.minimal == ClassLabel.W0) == (not l1 and not l2))

    # abelian structure property of P
    abelian_P = all(
        m.algebra.bracket_of(
            m.apply_P([Q(a == i) for a in range(n)]),
            m.apply_P([Q(a == j) for a in range(n)])) ==
        [-c for c in m.algebra.bracket(i, j)]
        for i, j in product(range(n), repeat=2))
    check("P is an Abelian structure", abelian_P)

    # connection components
    nabla_t, nabla_twin_t = tables.connection_tables(p)
    zero = _zero_vec(n)
    detail = first_mismatch(
        (f"nabla_{i + 1},{j + 1}", tuple(tp.conn.derive(i, j)), nabla_t.get((i, j), zero))
        for i, j in product(range(n), repeat=2))
    check("table: connection", detail == "", detail)
    detail = first_mismatch(
        (f"twin nabla_{i + 1},{j + 1}", tuple(tp.conn_twin.derive(i, j)),
         nabla_twin_t.get((i, j), zero))
        for i, j in product(range(n), repeat=2))
    check("table: twin connection", detail == "", detail)

    # potential and its 1-forms
    phi_t, f_t, f_star_t, f_sharp_t = tables.potential_table(p)
    detail = first_mismatch(
        [(f"Phi_{i + 1},{j + 1}", _vec_of(sp.Phi_vec, i, j), phi_t.get((i, j), zero))
         for i, j in product(range(n), repeat=2)]
        + [("f", tuple(sp.f.data), f_t), ("f*", tuple(sp.f_star.data), f_star_t),
           ("f#", tuple(sp.f_sharp.data), f_sharp_t)])
    check("table: potential", detail == "", detail)

    # fundamental tensor and its twin proportionality
    F_t = tables.fundamental_table(p)
    detail = first_mismatch(
        (f"F_{i + 1}{j + 1}{k + 1}", sp.F[i, j, k], F_t.get((i, j, k), ZERO))
        for i, j, k in product(range(n), repeat=3))
    check("table: fundamental tensor", detail == "", detail)
    check("identity: twin F = eps F", vanishes((1, spt.F), (-e, sp.F)))
    check("identity: twin F(x,y,z) = F(Px,y,z)", vanishes((1, spt.F), (-1, sp.F_P["x"])))

    # square norms
    snorm_t, snorm_twin_t = tables.square_norm_table(p)
    detail = first_mismatch([("|nabla P|^2", sp.snorm, snorm_t),
                             ("twin |nabla P|^2", spt.snorm, snorm_twin_t)])
    check("table: square norm", detail == "", detail)

    # Lee forms
    theta_t, theta_star_t = tables.lee_form_table(p)
    detail = first_mismatch([
        ("theta", tuple(sp.theta.data), theta_t),
        ("theta*", tuple(sp.theta_star.data), theta_star_t),
        ("twin theta", tuple(spt.theta.data), theta_t),
        ("twin theta*", tuple(spt.theta_star.data), theta_star_t)])
    check("table: Lee forms", detail == "", detail)

    # curvature tables
    R_t = tables.curvature_table(p)
    if perturb_curvature:
        idx = (0, 1, 1, 0)
        R_t = dict(R_t)
        R_t[idx] = -R_t.get(idx, ZERO)
    detail = first_mismatch(
        (f"R_{i + 1}{j + 1}{k + 1}{l + 1}", tp.curv.R[i, j, k, l], R_t.get((i, j, k, l), ZERO))
        for i, j, k, l in product(range(n), repeat=4))
    check("table: curvature", detail == "", detail)

    Rt_t = tables.twin_curvature_table(p)
    detail = first_mismatch(
        (f"twin R_{i + 1}{j + 1}{k + 1}{l + 1}", tp.curv_twin.R[i, j, k, l],
         Rt_t.get((i, j, k, l), ZERO))
        for i, j, k, l in product(range(n), repeat=4))
    check("table: twin curvature", detail == "", detail)

    rho_t, tau_t, rho_twin_t, tau_twin_t = tables.ricci_table(p)
    detail = first_mismatch(
        [(f"rho_{i + 1}{j + 1}", tp.curv.ricci[i, j], rho_t[i][j])
         for i, j in product(range(n), repeat=2)]
        + [(f"twin rho_{i + 1}{j + 1}", tp.curv_twin.ricci[i, j], rho_twin_t[i][j])
           for i, j in product(range(n), repeat=2)]
        + [("tau", tp.curv.tau, tau_t), ("twin tau", tp.curv_twin.tau, tau_twin_t)])
    check("table: Ricci and scalar curvature", detail == "", detail)

    # twin interchange tensors
    Q_t = tables.q_table(p)
    detail = first_mismatch(
        (f"Q_{i + 1}{j + 1}{k + 1}", _vec_of(tp.Q_vec, i, j, k), Q_t.get((i, j, k), zero))
        for i, j, k in product(range(n), repeat=3))
    check("table: twin difference tensor", detail == "", detail)

    A_t = tables.a_table(p)
    A_low = transpose(lower_index(tp.A_vec, 0, m.g), (1, 2, 3, 0))
    detail = first_mismatch(
        (f"A_{i + 1}{j + 1}{k + 1}{l + 1}", A_low[i, j, k, l], A_t.get((i, j, k, l), ZERO))
        for i, j, k, l in product(range(n), repeat=4))
    check("table: average curvature", detail == "", detail)

    D_t = tables.average_connection_table(p)
    detail = first_mismatch(
        (f"D_{i + 1},{j + 1}", tuple(tp.D.derive(i, j)), D_t.get((i, j), zero))
        for i, j in product(range(n), repeat=2))
    check("table: average connection", detail == "", detail)

    # family identities
    check("identity: B = 0", vanishes((1, tp.B_vec)))
    check("identity: K = A", vanishes((1, tp.K_vec), (-1, tp.A_vec)))
    check("identity: N = 0", vanishes((1, sp.N_vec)))
    check("identity: Nhat = -4 Phi (vector-valued)",
          vanishes((1, sp.Nhat_vec), (4, sp.Phi_vec)))
    try:
        _, _, H, _, _ = w1_closed_forms(m, tp)
        check("identity: H = 0 and closed-form Q, B reconstruction", H.is_zero())
    except Exception as exc:                         # noqa: BLE001
        check("identity: H = 0 and closed-form Q, B reconstruction", False, str(exc))

    return ValidationReport(tuple(checks))


def grid_verification(points=None, perturb_curvature: bool = False) -> ValidationReport:
    """Aggregate theorem_checks over a parameter grid.

    Each check appears once; the detail distinguishes a mismatch at some
    points from one at every point.
    """
    pts = list(points) if points is not None else list(grid_points())
    failures: dict[str, list[str]] = {}
    order: list[str] = []
    details: dict[str, str] = {}
    for p in pts:
        report = theorem_checks(p, perturb_curvature=perturb_curvature)
        for item in report.checks:
            if item.name not in order:
                order.append(item.name)
            if not item.passed:
                failures.setdefault(item.name, []).append(p.label())
                details.setdefault(item.name, item.detail)
    out = []
    for name in order:
        failed = failures.get(name, [])
        if not failed:
            out.append(CheckItem(name, True))
        elif len(failed) == len(pts):
            out.append(CheckItem(name, False,
                                 f"fails at every sampled point; first: {details[name]}"))
        else:
            out.append(CheckItem(
                name, False,
                f"fails at {len(failed)} of {len(pts)} points "
                f"(e.g. {failed[0]}); first: {details[name]}"))
    return ValidationReport(tuple(out))
