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

from collections.abc import Container
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import lcm
from operator import mul

from . import tables
from .classify import ClassificationResult, ClassLabel, classify, lee_forms_closed
from .errors import ValidationError, require
from .manifold import (CheckItem, LieAlgebraModel, ValidationReport, WManifold,
                       require_lie_algebra, validated_frame)
from .scalar import ZERO, Q, format_rational, rational
from .tensor import DOWN, UP, TensorDense, lincomb, vanishes
from .twin import TwinPack, build_twin_pack, w1_closed_forms


DIM = 4


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

    def integer_parameters(self) -> tuple[int, int, int, int]:
        """(D, D l1, D l2, e) with D the lcm of the denominators of l1 and
        l2: the point as the reference tables take it."""
        l1, l2 = self.lambda1, self.lambda2
        d = lcm(l1.denominator, l2.denominator)
        return (d, l1.numerator * (d // l1.denominator), l2.numerator * (d // l2.denominator),
                int(self.epsilon))


#: grid on which "for arbitrary l1, l2" claims are verified; every table
#: entry is polynomial of degree <= 2 in each parameter, so agreement on a
#: 7-point grid per parameter proves the identity.
DEFAULT_GRID = (Q(-3), Q(-1), Q(-1, 2), Q(0), Q(1, 2), Q(1), Q(2))


def grid_points(values=DEFAULT_GRID):
    for l1 in values:
        for l2 in values:
            for eps in (Q(1), Q(-1)):
                yield FamilyParams(l1, l2, eps)


def _brackets(l1, l2, e) -> dict[tuple[int, int], list]:
    """The nonzero commutators at parameters l1, l2, e of any number type."""
    v14 = [l1, e * l1, l2, e * l2]
    v13 = [-e * l1, -l1, e * l2, l2]
    return {
        (0, 3): v14, (2, 1): v14,
        (0, 2): v13, (3, 1): v13,
        (0, 1): [2 * l2, 2 * e * l2, 0, 0],
        (2, 3): [0, 0, 2 * l1, 2 * e * l1],
    }


_P = TensorDense.from_matrix([[0, 1, 0, 0],
                              [1, 0, 0, 0],
                              [0, 0, 0, 1],
                              [0, 0, 1, 0]], (UP, DOWN))
_G = TensorDense.from_matrix([[1, 0, 0, 0],
                              [0, 1, 0, 0],
                              [0, 0, -1, 0],
                              [0, 0, 0, -1]], (DOWN, DOWN))


#: the WManifold fields after the algebra, validated once: P and g are the
#: same at every point of the family
_FRAME = validated_frame(DIM, _P, _G)


def build_family(p: FamilyParams) -> WManifold:
    """Build the family manifold on _FRAME, its Lie algebra validated.

    The structure constants are built in integers at the integer
    parameters D l1, D l2 and divided by D once.
    """
    d, a1, a2, e = p.integer_parameters()
    entries = {}
    for (i, j), v in _brackets(a1, a2, e).items():
        for k, x in enumerate(v):
            if x:
                entries[(k * DIM + i) * DIM + j] = x
                entries[(k * DIM + j) * DIM + i] = -x
    c = lincomb((Q(1, d), TensorDense.from_entries(DIM, (UP, DOWN, DOWN), entries)))
    alg = LieAlgebraModel(DIM, ("X1", "X2", "X3", "X4"), c)
    require_lie_algebra(alg)
    return WManifold(alg, *_FRAME, name=p.label())


@lru_cache(maxsize=512)
def family_pack(p: FamilyParams):
    """(manifold, twin pack) at p, cached across grid sweeps."""
    m = build_family(p)
    return m, build_twin_pack(m)


# -- the pack as binary forms ----------------------------------------------------
#
# At fixed e every field T of the twin pack is a binary form in (l1, l2), of
# the degree PACK_DEGREES gives: c is linear in (l1, l2) and g, P are
# constant.  With T10, T01 and T11 its values at the nodes (l1, l2) = (1, 0),
# (0, 1) and (1, 1) of that sign,
#
#     T = l1 T10 + l2 T01                                  (degree 1)
#     T = l1^2 T10 + l2^2 T01 + l1 l2 (T11 - T10 - T01)    (degree 2)

#: the nodes (l1, l2) of each sign, in the order of the weights
NODES = ((1, 0), (0, 1), (1, 1))

#: degree in (l1, l2), at fixed e, of each field of a family twin pack
#: (twin.TwinPack and the structure and curvature packs in it), by field
#: name; the P-substitutions F_P and Phi_P have the degree of F and Phi.
#: Degree 0 marks what is the same at every point of a sign: the names of
#: the route checks.  The classes, cls, are decided anew at each point,
#: not blended, so they have no entry.
PACK_DEGREES = {
    "checks": 0,
    **dict.fromkeys(("conn", "conn_twin", "D", "F", "F_P", "Phi", "Phi_P", "Phi_vec",
                     "theta", "theta_star", "f", "f_star", "f_sharp", "N_vec", "Nhat_vec",
                     "N", "Nhat"), 1),
    **dict.fromkeys(("snorm", "R_vec", "R", "ricci", "tau", "curl", "Q_vec", "B_vec",
                     "A_vec", "K_vec"), 2),
}


def _blend(values: list, weights: dict, name: str):
    """sum_k w_k values[k] for one pack field named name, from its values
    at the nodes, by the weights of its degree; a pack or P-substitution
    dict becomes a _Blend, and a field of degree 0 is the first node's."""
    first = values[0]
    if is_dataclass(first) or isinstance(first, dict):
        return _Blend(values, weights, name)
    degree = PACK_DEGREES[name]
    if degree == 0:
        return first
    if isinstance(first, TensorDense):
        return lincomb(*zip(weights[degree], values))
    return sum(map(mul, weights[degree], values))


class _Blend:
    """A pack, or a P-substitution dict in one, at one point: each field or
    key is blended from its values at the nodes when it is first read, and
    kept, so a point pays only for the fields its checks read."""

    def __init__(self, values: list, weights: dict, name: str = ""):
        self._values, self._weights, self._name, self._keys = values, weights, name, {}

    def __getattr__(self, field: str):          # a field not read before
        if field.startswith("_"):
            raise AttributeError(field)
        value = self.__dict__[field] = _blend([getattr(v, field) for v in self._values],
                                             self._weights, field)
        return value

    def __getitem__(self, key: str):
        if key not in self._keys:
            self._keys[key] = _blend([v[key] for v in self._values], self._weights, self._name)
        return self._keys[key]


class _BlendedTwinPack(_Blend):
    """The twin pack of the family manifold m at p, blended from the node
    packs of p's sign; its classes are decided on m and the blended
    structure pack, as build_twin_pack decides them."""

    def __init__(self, m: WManifold, p: FamilyParams, packs: list):
        l1, l2 = p.lambda1, p.lambda2
        cross = l1 * l2
        super().__init__(packs, {1: (l1, l2, 0), 2: (l1 * l1 - cross, l2 * l2 - cross, cross)})
        self._m = m

    @cached_property
    def cls(self) -> ClassificationResult:
        return classify(self._m, self.sp)


def _require_interpolation(p: FamilyParams, packs: list) -> None:
    """The check that the twin pack blended at p from the node packs equals
    p's direct pack; a failure names the first field that differs."""
    m, tp = family_pack(p)
    diff = _difference(_BlendedTwinPack(m, p, packs), tp)
    require(diff is None, "interpolated family pack = direct pack"
            + ("" if diff is None else f" at {p.label()}: {diff}"))


#: the TwinPack field that classify decides from sp on the same manifold:
#: _difference compares sp first, so once it agrees cls does too, and it
#: is not decided again just to compare it
_DECIDED = "cls"


def _difference(a, b, path: str = "pack") -> str | None:
    """Where a, a pack or a _Blend of one, first differs from the pack b,
    field by field, and how, the _DECIDED field aside; None if they are
    equal."""
    if is_dataclass(b):
        parts = ((getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
                 for f in fields(b) if f.name != _DECIDED)
    elif isinstance(b, dict):
        parts = ((a[key], b[key], f"{path}[{key}]") for key in b)
    elif a == b:
        return None
    elif isinstance(b, TensorDense):
        return f"{path}: {vanishes((1, a), (-1, b))}"
    else:
        return f"{path}: {a} != {b}"
    return next(filter(None, (_difference(*part) for part in parts)), None)


def _grid_packs(points: list[FamilyParams]):
    """(manifold, twin pack) at each point, in order.

    Per sign, the first generic grid point, with a1, a2 != 0, a1 != +-a2
    and a1 + a2 != D in the integer parameters, is the check point.  It
    and the nodes get the direct family_pack, with all its route checks.
    Every other point of that sign gets its manifold built and validated
    as usual, and a _BlendedTwinPack of the node packs.  A sign with no
    generic point gets direct packs only.

    Before the sweep, the direct pack must equal its blend at the check
    point, and at the node (1, 1), where the blend is T10 + T01 in every
    degree-1 field, so that a wrong degree fails:
    - a quadratic form with an l1 l2 term taken for a linear one fails at
      (1, 1);
    - k (l1^2 - l2^2), as the square norm and tau are, taken for a linear
      form is exact where l1 = l2 or l1 + l2 = 1, and vanishes where
      l1 = -l2;
    - a linear form taken for a quadratic one is exact where l1 and l2
      are each 0 or 1;
    - a form in l1 alone, or l2 alone, vanishes where that parameter does.
    """
    nodes: dict[Fraction, tuple] = {}           # sign -> (check point, node packs)
    for p in points:
        d, a1, a2, e = p.integer_parameters()
        if p.epsilon not in nodes and a1 and a2 and a1 not in (a2, -a2) and a1 + a2 != d:
            packs = [family_pack(FamilyParams(*node, e))[1] for node in NODES]
            _require_interpolation(FamilyParams(1, 1, e), packs)
            _require_interpolation(p, packs)
            nodes[p.epsilon] = p, packs
    for p in points:
        check, packs = nodes.get(p.epsilon, (p, None))    # no check point: p is direct
        if p == check or (p.lambda1, p.lambda2) in NODES:
            yield family_pack(p)
        else:
            m = build_family(p)
            yield m, _BlendedTwinPack(m, p, packs)


@lru_cache(maxsize=None)
def _positions(rank: int) -> dict[tuple[int, ...], int]:
    """The flat position of each index tuple of a rank-slot tensor."""
    return {idx: p for p, idx in enumerate(product(range(DIM), repeat=rank))}


def _tensor_mismatch(label: str, sep: str, t: TensorDense, table: dict, factor: int,
                     vector: bool = False):
    """None if t and a table of its nonzero components, each factor times
    its value, agree; else a function giving (label, engine value, table
    value) at the first index where they disagree.  With vector, t is a
    (1,k) tensor and each table value is the vector t[:, *idx], which
    disagrees with it if it has another length than DIM.  The table must
    match t's nonzero count and each nums[p] / den, by
    cross-multiplication; the label (its 1-based index joined by sep) and
    the rationals are formed only when that function is called.
    """
    nums, den, rank = t.nums, t.den, t.nslots - vector
    size, at = DIM ** rank, _positions(rank)
    if vector:
        ragged = [at[idx] for idx, v in table.items() if len(v) != DIM]
        wanted = [(p, w) for idx, v in table.items()
                  for p, w in zip(range(at[idx], len(nums), size), v) if w]
    else:
        ragged = []
        wanted = [(at[idx], w) for idx, w in table.items() if w]
    if (not ragged and len(wanted) == len(t.support)
            and all(nums[p] * factor == w * den for p, w in wanted)):
        return None

    def mismatch():
        want = [0] * len(nums)
        for p, w in wanted:
            want[p] = w
        first = min([p % size for p, (n, w) in enumerate(zip(nums, want))
                     if n * factor != w * den] + ragged)
        idx = tuple(first // DIM ** k % DIM for k in reversed(range(rank)))
        where = f"{label}_{sep.join(str(i + 1) for i in idx)}"
        if vector:
            return where, tuple(t.column(*idx)), tuple(Q(w, factor)
                                                       for w in table.get(idx, (0,) * DIM))
        return where, t[idx], Q(want[first], factor)
    return mismatch


def _value_mismatch(label: str, got, want, factor: int):
    """None if an engine scalar or 1-form got equals the table's integers
    want, factor times its value, a 1-form component by component and of
    the same length; else a function giving (label, got, table value)."""
    if isinstance(got, TensorDense):
        if len(want) == len(got.nums) and all(n * factor == w * got.den
                                                for n, w in zip(got.nums, want)):
            return None
        return lambda: (label, got.data, tuple(Q(w, factor) for w in want))
    if got.numerator * factor == want * got.denominator:
        return None
    return lambda: (label, got, Q(want, factor))


def _nonzero(rows) -> dict:
    """The nonzero entries of a matrix given by its rows, by index pair."""
    return {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}


def _show(value) -> str:
    if isinstance(value, tuple):
        return f"({', '.join(map(format_rational, value))})"
    return format_rational(value)


def _detail(mismatch) -> str:
    """What a failed table check says: the label, engine value and table
    value that the mismatch function of its first failing part gives."""
    label, got, want = mismatch()
    return f"{label}: got {_show(got)}, expected {_show(want)}"


def theorem_checks(p: FamilyParams, perturb_curvature: bool = False,
                   pack: tuple[WManifold, TwinPack] | None = None,
                   explained: Container[str] = ()) -> ValidationReport:
    """Verify the five structural claims and every component table at p.

    Failures become report entries.  perturb_curvature flips the sign of
    one expected curvature component; it exists as a self-test that a wrong
    expectation is actually detected.  pack is p's (manifold, twin pack),
    family_pack(p) by default.  A check named in explained is decided
    without forming its detail, which a failure of it then lacks.
    """
    m, tp = family_pack(p) if pack is None else pack
    sp, spt = tp.sp, tp.sp_twin
    l1, l2, e = p.lambda1, p.lambda2, p.epsilon
    on_diagonal = l1 == l2 or l1 == -l2
    checks: list[CheckItem] = []

    def check(name: str, ok, detail: str = "") -> None:
        checks.append(CheckItem(name, bool(ok)) if name in explained
                      else CheckItem.of(name, ok, detail))

    def table(name: str, *mismatches) -> None:
        """The check that every part of a table agrees with the engine,
        each part's _tensor_mismatch or _value_mismatch given in order; a
        failure names the first mismatch."""
        first = next(filter(None, mismatches), None)
        if first is None or name in explained:
            checks.append(CheckItem(name, first is None))
        else:
            checks.append(CheckItem(name, False, _detail(first)))

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
    check("claim: W0 iff l1 = l2 = 0", (cls.minimal == ClassLabel.W0) == (not l1 and not l2))
    # abelian structure property of P: [Px, Py] = -[x, y]
    cP = lincomb((1, "mi,kmj->kij", m.P, m.algebra.c))         # [Px, y]
    check("P is an Abelian structure",
          vanishes((1, "mj,kim->kij", m.P, cP), (1, m.algebra.c)))

    # the tables at the point's integer parameters: degree-1 entries are
    # d times their value, degree-2 entries d^2 times
    d, a1, a2, e_int = p.integer_parameters()
    at, d2 = (a1, a2, e_int), d * d

    # connection components
    nabla_t, nabla_twin_t = tables.connection_tables(*at)
    table("table: connection", _tensor_mismatch("nabla", ",", tp.conn, nabla_t, d, True))
    table("table: twin connection", _tensor_mismatch(
        "twin nabla", ",", tp.conn_twin, nabla_twin_t, d, True))

    # potential and its 1-forms
    phi_t, f_t, f_star_t, f_sharp_t = tables.potential_table(*at)
    table("table: potential",
          _tensor_mismatch("Phi", ",", sp.Phi_vec, phi_t, d, True),
          _value_mismatch("f", sp.f, f_t, d), _value_mismatch("f*", sp.f_star, f_star_t, d),
          _value_mismatch("f#", sp.f_sharp, f_sharp_t, d))

    # fundamental tensor and its twin proportionality
    table("table: fundamental tensor",
          _tensor_mismatch("F", "", sp.F, tables.fundamental_table(*at), d))
    check("identity: twin F = eps F", vanishes((1, spt.F), (-e, sp.F)))
    check("identity: twin F(x,y,z) = F(Px,y,z)", vanishes((1, spt.F), (-1, sp.F_P["x"])))

    # square norms
    snorm_t, snorm_twin_t = tables.square_norm_table(*at)
    table("table: square norm",
          _value_mismatch("|nabla P|^2", sp.snorm, snorm_t, d2),
          _value_mismatch("twin |nabla P|^2", spt.snorm, snorm_twin_t, d2))

    # Lee forms
    theta_t, theta_star_t = tables.lee_form_table(*at)
    table("table: Lee forms",
          _value_mismatch("theta", sp.theta, theta_t, d),
          _value_mismatch("theta*", sp.theta_star, theta_star_t, d),
          _value_mismatch("twin theta", spt.theta, theta_t, d),
          _value_mismatch("twin theta*", spt.theta_star, theta_star_t, d))

    # curvature tables; the twin table is built from the unperturbed one
    R_t = tables.curvature_table(*at)
    twin_R_t = tables.twin_curvature_table(e_int, R_t)
    if perturb_curvature:
        idx = (0, 1, 1, 0)
        R_t = {**R_t, idx: -R_t.get(idx, 0)}
    table("table: curvature", _tensor_mismatch("R", "", tp.curv.R, R_t, d2))
    table("table: twin curvature", _tensor_mismatch("twin R", "", tp.curv_twin.R, twin_R_t, d2))

    rho_t, tau_t, rho_twin_t, tau_twin_t = tables.ricci_table(*at)
    table("table: Ricci and scalar curvature",
          _tensor_mismatch("rho", "", tp.curv.ricci, _nonzero(rho_t), d2),
          _tensor_mismatch("twin rho", "", tp.curv_twin.ricci, _nonzero(rho_twin_t), d2),
          _value_mismatch("tau", tp.curv.tau, tau_t, d2),
          _value_mismatch("twin tau", tp.curv_twin.tau, tau_twin_t, d2))

    # twin interchange tensors
    table("table: twin difference tensor", _tensor_mismatch(
        "Q", "", tp.Q_vec, tables.q_table(*at, f_sharp_t), d2, True))
    # A_{ijkl} = g_{lm} A^m_{ijk}
    A_low = lincomb((1, "lm,mijk->ijkl", m.g, tp.A_vec))
    table("table: average curvature", _tensor_mismatch("A", "", A_low, tables.a_table(*at), d2))
    table("table: average connection", _tensor_mismatch(
        "D", ",", tp.D, tables.average_connection_table(*at), d, True))

    # family identities
    check("identity: B = 0", vanishes((1, tp.B_vec)))
    check("identity: K = A", vanishes((1, tp.K_vec), (-1, tp.A_vec)))
    check("identity: N = 0", vanishes((1, sp.N_vec)))
    check("identity: Nhat = -4 Phi (vector-valued)", vanishes((1, sp.Nhat_vec), (4, sp.Phi_vec)))
    try:
        _, _, H, _, _ = w1_closed_forms(m, tp)
        check("identity: H = 0 and closed-form Q, B reconstruction", H.is_zero())
    except Exception as exc:                         # noqa: BLE001
        check("identity: H = 0 and closed-form Q, B reconstruction", False, str(exc))

    return ValidationReport(tuple(checks))


def grid_verification(points=None, perturb_curvature: bool = False) -> ValidationReport:
    """Aggregate theorem_checks over a parameter grid.

    The twin pack is built directly at a few points per sign and
    interpolated exactly at the others (_grid_packs).  Each check appears
    once; the detail distinguishes a mismatch at some points from one at
    every point.  A failing check's detail, and the label of its point,
    are formed at its first failing point only.
    """
    pts = list(points) if points is not None else list(grid_points())
    names: dict[str, None] = {}                 # every check, in order
    failed: dict[str, list] = {}                # check -> [failures, first point, detail]
    for p, pack in zip(pts, _grid_packs(pts)):
        report = theorem_checks(p, perturb_curvature=perturb_curvature, pack=pack,
                                explained=failed)
        for item in report.checks:
            names.setdefault(item.name)
            if item.passed:
                continue
            if item.name in failed:
                failed[item.name][0] += 1
            else:
                failed[item.name] = [1, p.label(), item.detail]
    out = []
    for name in names:
        if name not in failed:
            out.append(CheckItem(name, True))
            continue
        count, first, detail = failed[name]
        if count == len(pts):
            out.append(CheckItem(name, False, f"fails at every sampled point; first: {detail}"))
        else:
            out.append(CheckItem(
                name, False,
                f"fails at {count} of {len(pts)} points (e.g. {first}); first: {detail}"))
    return ValidationReport(tuple(out))
