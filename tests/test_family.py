"""The two-parameter family: brackets, theorem checks, grid sweeps.

Four of the bundled reference tables (twin curvature, Ricci block, twin
difference tensor, average curvature) are internally inconsistent with the
connection components they are derived from; theorem_checks reports those
mismatches, and these tests pin the failure set to exactly that list.
"""

import cProfile
import dataclasses
import io
from itertools import product
from pathlib import Path

import pytest

from paratwin import classify, cli, family, tables
from paratwin.curvature import CurvaturePack
from paratwin.errors import ValidationError
from paratwin.family import (DEFAULT_GRID, FamilyParams, build_family, family_pack,
                             grid_points, grid_verification, theorem_checks)
from paratwin.manifold import LieAlgebraModel, build_manifold, validate_lie_algebra
from paratwin.scalar import Q, format_rational
from paratwin.structure import StructurePack
from paratwin.tensor import DOWN, UP, TensorDense
from paratwin.twin import TwinPack

from manifolds import (family_brackets, fraction_calls, from_function, lower_index, rows_of,
                       transpose)

#: stdout of `paratwin theorem --grid=1,-2/3,3/2`, then "[exit <code>]"
GOLDEN = Path(__file__).parent / "fixtures" / "theorem-golden.txt"

#: table checks that disagree with the engine on generic parameters; the
#: discrepancies are documented in the project notes
KNOWN_TABLE_FAILURES = {
    "table: twin curvature",
    "table: Ricci and scalar curvature",
    "table: twin difference tensor",
    "table: average curvature",
}


@pytest.mark.parametrize("params", [(1, 2, 1), (Q(1, 2), Q(-2, 3), -1), (Q(3, 4), 0, 1)])
def test_family_brackets_are_divided_by_d_once(params):
    """build_family makes the same few calls into fractions however many of
    its 40 bracket entries are nonzero: the brackets are integers at the
    integer parameters, divided by D in one term, and the rest reads the
    parameters and the label.  Building each entry as a rational took 93."""
    p = FamilyParams(*params)
    build_family(p)
    assert fraction_calls(build_family, p) <= 20


def test_epsilon_is_validated():
    with pytest.raises(ValidationError):
        FamilyParams(Q(1), Q(1), Q(2))


def test_params_accept_strings():
    p = FamilyParams("1/2", "-3", "-1")
    assert p.lambda1 == Q(1, 2) and p.epsilon == Q(-1)


def test_brackets_satisfy_jacobi():
    for params in ((1, 2, 1), (-3, Q(1, 2), -1)):
        m = build_family(FamilyParams(*map(Q, params)))
        assert validate_lie_algebra(m.algebra).valid


def test_bracket_table():
    p = FamilyParams(Q(1), Q(2), Q(1))
    b = family_brackets(p)
    assert b[(0, 3)] == [Q(1), Q(1), Q(2), Q(2)]
    assert b[(0, 1)] == [Q(4), Q(4), Q(0), Q(0)]
    assert b[(2, 3)] == [Q(0), Q(0), Q(2), Q(2)]


def test_grid_covers_both_signs():
    pts = list(grid_points())
    assert len(pts) == 2 * len(DEFAULT_GRID) ** 2
    assert any(p.epsilon == Q(-1) for p in pts)


@pytest.mark.parametrize("point", [(1, 2, 1), (0, 0, 1), (0, 0, -1), (1, -1, -1),
                                   ("-1/2", 3, -1), ("2/3", "-5/7", 1), (-3, "1/2", -1)])
def test_family_frame_matches_the_reference_route(point):
    """build_family, on the frame validated once at import and with c built
    from its integer bracket entries, equals build_manifold on the rational
    brackets and P, g, field by field: at the origin, on l1 = +-l2, at
    D = 1 and at D = 2 and 21, with both signs."""
    p = FamilyParams(*point)
    brackets = family_brackets(p)

    def c(k, i, j):
        if (i, j) in brackets:
            return brackets[i, j][k]
        return -brackets[j, i][k] if (j, i) in brackets else Q(0)

    alg = LieAlgebraModel(4, ("X1", "X2", "X3", "X4"),
                          from_function(4, (UP, DOWN, DOWN), c))
    reference = build_manifold(alg, family._P, family._G, name=p.label())
    m = build_family(p)
    for f in dataclasses.fields(reference):
        assert getattr(m, f.name) == getattr(reference, f.name), f.name


def test_theorem_checks_at_reference_point():
    report = theorem_checks(FamilyParams(Q(1), Q(2), Q(1)))
    failed = {c.name for c in report.failures()}
    assert failed == KNOWN_TABLE_FAILURES


def test_theorem_checks_at_origin():
    report = theorem_checks(FamilyParams(Q(0), Q(0), Q(1)))
    assert report.valid, [c.name for c in report.failures()]


def test_claims_hold_on_a_small_grid():
    points = list(grid_points((Q(-1), Q(0), Q(1))))
    report = grid_verification(points)
    failed = {c.name for c in report.failures()}
    assert failed <= KNOWN_TABLE_FAILURES
    for c in report.checks:
        if c.name.startswith("claim:") or c.name.startswith("identity:"):
            assert c.passed, c.name


def test_self_test_detects_perturbed_expectation():
    points = [FamilyParams(Q(1), Q(2), Q(1))]
    report = grid_verification(points, perturb_curvature=True)
    failed = {c.name for c in report.failures()}
    assert "table: curvature" in failed


def test_family_pack_is_cached():
    p = FamilyParams(Q(1), Q(2), Q(1))
    assert family_pack(p) is family_pack(p)


def grid(*values):
    return list(grid_points(tuple(map(Q, values))))


def materialised(view, like):
    """The pack view with every field read, as a dataclass of the type of
    the pack like, through its nested packs and P-substitution dicts."""
    if dataclasses.is_dataclass(like):
        return type(like)(**{f.name: materialised(getattr(view, f.name), getattr(like, f.name))
                             for f in dataclasses.fields(like)})
    if isinstance(like, dict):
        return {key: materialised(view[key], like[key]) for key in like}
    return view


@pytest.mark.parametrize("values", [(1, "-2/3", "3/2"), (1, 0, -1, 2)])
def test_interpolated_packs_equal_direct_packs(values):
    """Per sign only the three nodes and the check point get a direct
    pack; every other point's interpolated pack, its classes included,
    equals the one family_pack builds there, field by field.  (1, 0, -1, 2)
    interpolates at l1 = l2 = 0 and at points proportional to a node."""
    points = grid(*values)
    family_pack.cache_clear()
    packs = list(family._grid_packs(points))
    assert family_pack.cache_info().misses == 8
    for p, (m, tp) in zip(points, packs):
        m_direct, direct = family_pack(p)
        assert m == m_direct
        assert materialised(tp, direct) == direct, p.label()


@pytest.mark.parametrize("points, misses", [
    (list(grid_points()), 8), (grid(1, "-2/3", "3/2"), 8), (grid(2), 2), (grid(1, -1), 8)])
def test_pack_budget(points, misses):
    """A cold grid_verification builds direct packs at the three nodes and
    the check point of each sign only; the grids 2 and 1,-1 have no
    generic point, so every point of them is direct."""
    family_pack.cache_clear()
    grid_verification(points)
    assert family_pack.cache_info().misses == misses
    packs = list(family._grid_packs(points))
    all_direct = all(tp is family_pack(p)[1] for p, (_, tp) in zip(points, packs))
    assert all_direct == (misses == len(points))


@pytest.mark.parametrize("values", [(0, 2, 3), (2, 0, 3)])
def test_check_point_has_both_parameters_nonzero(values, monkeypatch):
    """Each sign's check point is (2, 3), not the earlier (0, 2) or (2, 0):
    a form in l1 alone, or l2 alone, vanishes where that parameter does,
    so a check point there could not catch such a form of a wrong degree."""
    direct, calls = family.family_pack, []

    def pack(p):
        calls.append(p)
        return direct(p)

    monkeypatch.setattr(family, "family_pack", pack)
    grid_verification(grid(*values))
    checked = {(p.lambda1, p.lambda2, p.epsilon) for p in calls
               if (p.lambda1, p.lambda2) not in family.NODES}
    assert checked == {(2, 3, 1), (2, 3, -1)}


def perturbed_pack(tp, part, name):
    """tp with component 1 of the tensor tp.<part>.<name> raised by 1."""
    t = getattr(getattr(tp, part), name)
    data = list(t.data)
    data[1] += 1
    bad = dataclasses.replace(getattr(tp, part), **{name: TensorDense(4, t.variance, data)})
    return dataclasses.replace(tp, **{part: bad})


@pytest.mark.parametrize("node, part, name, where", [
    pytest.param((1, 0), "curv", "R_vec", "1, l2=-2/3", id="curv-R_vec-1, l2=-2/3"),
    pytest.param((1, 0), "sp", "Phi_vec", "1, l2=1", id="sp-Phi_vec-1, l2=1"),
    pytest.param((1, 1), "curv", "R_vec", "1, l2=-2/3", id="node11-curv-R_vec-1, l2=-2/3"),
    pytest.param((1, 1), "sp", "Phi_vec", "1, l2=1", id="node11-sp-Phi_vec-1, l2=1")])
def test_wrong_node_fails_the_interpolation_check(node, part, name, where, monkeypatch):
    """A node (1, 0) or (1, 1) wrong in one field makes an interpolation
    differ from the direct pack: theorem exits 4 and names the check, the
    point and the field.  A degree-1 field is caught at the node (1, 1); a
    degree-2 field, which (1, 1) gives back as it is, at the check point
    (1, -2/3)."""
    node = FamilyParams(*node, 1)
    direct = family.family_pack

    def pack(p):
        m, tp = direct(p)
        return (m, perturbed_pack(tp, part, name)) if p == node else (m, tp)

    monkeypatch.setattr(family, "family_pack", pack)
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(["theorem", "--grid=1,-2/3,3/2"], out=out, err=err) == 4
    assert out.getvalue() == ""
    assert err.getvalue().startswith(
        f"error: interpolated family pack = direct pack at family(l1={where}, e=1): "
        f"pack.{part}.{name}: first nonzero residual at ")


def test_interpolation_check_blends_nothing(monkeypatch):
    """The interpolation checks decide each field as one residual against
    the direct pack: no _Blend field or key is read inside them, while the
    sweep after them still blends.  A scalar field of the wrong degree
    still names both values."""
    inside, blended = [], []
    for name in ("__getattr__", "__getitem__"):
        def counted(view, key, _fn=getattr(family._Blend, name)):
            blended.append(bool(inside))
            return _fn(view, key)
        monkeypatch.setattr(family._Blend, name, counted)
    interpolation = family._require_interpolation

    def checked(p, packs):
        inside.append(p)
        try:
            interpolation(p, packs)
        finally:
            inside.pop()

    monkeypatch.setattr(family, "_require_interpolation", checked)
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(["theorem", "--grid=1,-2/3,3/2"], out=out, err=err) == 4
    assert blended and not any(blended)
    monkeypatch.setitem(family.PACK_DEGREES, "snorm", 1)
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(["theorem", "--grid=1,-2/3,3/2"], out=out, err=err) == 4
    assert out.getvalue() == ""
    assert err.getvalue() == ("error: interpolated family pack = direct pack at "
                              "family(l1=1, l2=-2/3, e=1): pack.sp.snorm: -640/3 != -640/9\n")


def test_lie_algebra_is_validated_at_direct_points_only(monkeypatch):
    """On the golden grid the Lie algebra is validated once per direct
    pack, at the three nodes and the check point of each sign; a blended
    point's algebra is not validated again, and is a Lie algebra.  The
    direct points, family_pack and report --family still validate."""
    validated = []

    def counted(alg, _fn=family.require_lie_algebra):
        validated.append(alg)
        return _fn(alg)

    monkeypatch.setattr(family, "require_lie_algebra", counted)
    family_pack.cache_clear()
    points = grid(1, "-2/3", "3/2")
    grid_verification(points)
    assert len(validated) == family_pack.cache_info().misses == 8
    blended = [m for m, tp in family._grid_packs(points)
               if isinstance(tp, family._BlendedTwinPack)]
    assert len(blended) == 14 and len(validated) == 8
    assert all(validate_lie_algebra(m.algebra).valid for m in blended)

    def broken(alg):
        raise ValidationError("invalid Lie algebra: broken")

    monkeypatch.setattr(family, "require_lie_algebra", broken)
    family_pack.cache_clear()
    with pytest.raises(ValidationError, match="broken"):
        family_pack(FamilyParams(1, 2, 1))
    for argv in (["report", "--family", "1", "2", "1"], ["theorem", "--grid=1,-2/3,3/2"],
                 ["theorem", "--grid=2"]):
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(argv, out=out, err=err) == 3, argv
        assert "invalid Lie algebra: broken" in err.getvalue(), argv
    family_pack.cache_clear()


#: the pack fields that vanish on the whole family, so that their values
#: at every point are right whatever degree they are given
VANISHING = ("N_vec", "N", "B_vec")


def test_vanishing_fields_vanish_on_the_family():
    """N_vec, N (both sides) and B_vec are zero at the nodes of both signs,
    hence, as forms of degree at most 2, at every (l1, l2), and at every
    point of a grid with direct packs."""
    nodes = [FamilyParams(*node, e) for node in family.NODES for e in (1, -1)]
    for p in nodes + grid(1, "-2/3", "3/2"):
        _, tp = family_pack(p)
        assert tp.sp.N_vec.is_zero() and tp.sp_twin.N_vec.is_zero(), p
        assert tp.sp.N.is_zero() and tp.sp_twin.N.is_zero(), p
        assert tp.B_vec.is_zero(), p


@pytest.mark.parametrize("spec", ["1,-2/3,3/2", None, "-7/4,5/3,9/2", "2,-1,3"])
def test_wrong_degree_fails_the_interpolation_check(spec, monkeypatch):
    """A degree-1 field read as degree 2, or the other way round, makes
    theorem exit 4 with nothing on stdout.  The grids are the golden grid,
    the default grid, one without 0 or 1, and 2,-1,3, whose first point
    off l1 = +-l2, (2, -1), has l1 + l2 = 1, where the square norm and tau
    read as linear would come out right.  Only the fields that vanish on
    the family go unnoticed."""
    argv = ["theorem"] + ([f"--grid={spec}"] if spec else [])
    flipped = [name for name, degree in family.PACK_DEGREES.items() if degree]
    assert set(VANISHING) <= set(flipped) and len(flipped) == 27
    caught = set()
    for name in flipped:
        with monkeypatch.context() as mp:
            mp.setitem(family.PACK_DEGREES, name, 3 - family.PACK_DEGREES[name])
            out, err = io.StringIO(), io.StringIO()
            code = cli.main(argv, out=out, err=err)
        if code == 4 and out.getvalue() == "":
            assert err.getvalue().startswith(
                "error: interpolated family pack = direct pack at "), (name, err.getvalue())
            caught.add(name)
    assert caught == set(flipped) - set(VANISHING)


def test_every_pack_field_has_a_degree():
    """PACK_DEGREES names exactly the leaf fields of the twin pack and the
    structure and curvature packs in it: the classes, cls, are decided at
    each point, and the nested packs are blended field by field."""
    nested = {"sp", "sp_twin", "curv", "curv_twin"}
    leaves = {f.name for pack in (TwinPack, StructurePack, CurvaturePack)
              for f in dataclasses.fields(pack)} - nested - {"cls"}
    assert {f.name for f in dataclasses.fields(TwinPack)} >= nested | {"cls"}
    assert set(family.PACK_DEGREES) == leaves


@pytest.mark.parametrize("values, all_direct", [((2,), True), ((0, 1), True),
                                                ((1, "-2/3", "3/2"), False)])
def test_interpolation_changes_no_output(values, all_direct, monkeypatch):
    """theorem prints the same as with a direct pack at every point; the
    grids 2 and 0,1 have no check point, so every point is direct."""
    def theorem():
        out = io.StringIO()
        spec = ",".join(map(str, values))
        return cli.main(["theorem", f"--grid={spec}"], out=out, err=out), out.getvalue()

    points = grid(*values)
    packs = family._grid_packs(points)
    assert all(pack[1] is family_pack(p)[1] for p, pack in zip(points, packs)) == all_direct
    interpolated = theorem()
    monkeypatch.setattr(family, "_grid_packs", lambda pts: map(family_pack, pts))
    assert interpolated == theorem()


def test_grid_forms_one_detail_per_failing_check(monkeypatch):
    """On the golden grid each failing check formats its detail once, at
    its first failing point, and the output stays byte-identical; the
    interpolation checks, which compare the blended structure packs that
    classify reads, decide no class (two checks per sign): neither
    family.classify nor the classify_phi that classify calls through its
    module runs inside them.  The details are counted by cProfile as the
    benchmark counts calls."""
    classified, inside, interpolated = [], [], []
    for module, name in ((family, "classify"), (classify, "classify_phi")):
        def counted(*args, _fn=getattr(module, name)):
            if inside:
                classified.append(_fn.__name__)
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    interpolation = family._require_interpolation

    def checked(p, packs):
        interpolated.append(p)
        inside.append(p)
        try:
            interpolation(p, packs)
        finally:
            inside.pop()

    monkeypatch.setattr(family, "_require_interpolation", checked)
    profile = cProfile.Profile()
    out, err = io.StringIO(), io.StringIO()
    profile.enable()
    try:
        code = cli.main(["theorem", "--grid=1,-2/3,3/2"], out=out, err=err)
    finally:
        profile.disable()
    golden = GOLDEN.read_bytes()
    assert (out.getvalue() + f"[exit {code}]\n").encode() == golden
    details = sum(entry.callcount for entry in profile.getstats()
                  if entry.code is family._detail.__code__)
    failing = golden.decode().count("[FAIL]")
    assert failing == len(KNOWN_TABLE_FAILURES) and details <= failing
    assert len(interpolated) == 4 and classified == []


@pytest.mark.parametrize("fn_name, part, name, label", [
    ("lee_form_table", 0, "table: Lee forms", "theta"),
    ("potential_table", 3, "table: potential", "f#")])
def test_a_table_1_form_of_the_wrong_length_fails(fn_name, part, name, label, monkeypatch):
    """A table 1-form with its last component dropped fails its check,
    and only that check, with a detail naming the form."""
    p = FamilyParams(1, 2, 1)
    before = {c.name: c for c in theorem_checks(p).checks}
    full = getattr(tables, fn_name)(*p.integer_parameters()[1:])[part]

    def truncated(*args, _fn=getattr(tables, fn_name)):
        result = _fn(*args)
        return result[:part] + (result[part][:-1],) + result[part + 1:]

    monkeypatch.setattr(tables, fn_name, truncated)
    after = {c.name: c for c in theorem_checks(p).checks}
    assert {n for n in before if before[n].passed != after[n].passed} == {name}
    show = lambda v: f"({', '.join(map(str, v))})"
    assert after[name].detail == f"{label}: got {show(full)}, expected {show(full[:-1])}"


@pytest.mark.parametrize("change", [lambda v: v + (0,), lambda v: v + (7,),
                                    lambda v: v[:-1]], ids=["zero", "nonzero", "short"])
@pytest.mark.parametrize("part, name, label", [
    (0, "table: connection", "nabla"), (1, "table: twin connection", "twin nabla")])
def test_a_table_connection_vector_of_the_wrong_length_fails(change, part, name, label,
                                                             monkeypatch):
    """A connection table vector with one component more or less fails its
    check, and only that check, with a detail that shows the engine column
    against the table vector, even when the other components agree."""
    p = FamilyParams(1, 2, 1)
    before = {c.name: c for c in theorem_checks(p).checks}
    full = tables.connection_tables(*p.integer_parameters()[1:])[part][(0, 0)]

    def changed(*args, _fn=tables.connection_tables):
        result = list(_fn(*args))
        result[part] = {**result[part], (0, 0): change(tuple(result[part][(0, 0)]))}
        return tuple(result)

    monkeypatch.setattr(tables, "connection_tables", changed)
    after = {c.name: c for c in theorem_checks(p).checks}
    assert before[name].passed
    assert {n for n in before if before[n].passed != after[n].passed} == {name}
    show = lambda v: f"({', '.join(map(str, v))})"
    assert after[name].detail == (
        f"{label}_1,1: got {show(full)}, expected {show(change(tuple(full)))}")


def test_failed_identity_names_the_component_that_differs(monkeypatch):
    p = FamilyParams(Q(1), Q(2), Q(1))
    m, tp = family_pack(p)
    data = list(tp.K_vec.data)
    data[tp.K_vec.flat((0, 0, 1, 1))] += Q(2)
    bad = dataclasses.replace(tp, K_vec=TensorDense(4, tp.K_vec.variance, data))
    monkeypatch.setattr(family, "family_pack", lambda q: (m, bad))
    items = {c.name: c for c in theorem_checks(p).checks}
    assert not items["identity: K = A"].passed
    assert items["identity: K = A"].detail == (
        "first nonzero residual at (1, 1, 2, 2) is 2; 1 of 256 components differ")


#: every table check: the tables function it reads, which part of that
#: function's result it compares first (None: the whole result), the label
#: and index separator that part's entries carry in a detail, and the
#: degree k of its entries, which are D^k times their value
TABLE_CHECKS = {
    "table: connection": ("connection_tables", 0, "nabla", ",", 1),
    "table: twin connection": ("connection_tables", 1, "twin nabla", ",", 1),
    "table: potential": ("potential_table", 0, "Phi", ",", 1),
    "table: fundamental tensor": ("fundamental_table", None, "F", "", 1),
    "table: square norm": ("square_norm_table", 0, "|nabla P|^2", "", 2),
    "table: Lee forms": ("lee_form_table", 0, "theta", "", 1),
    "table: curvature": ("curvature_table", None, "R", "", 2),
    "table: twin curvature": ("twin_curvature_table", None, "twin R", "", 2),
    "table: Ricci and scalar curvature": ("ricci_table", 0, "rho", "", 2),
    "table: twin difference tensor": ("q_table", None, "Q", "", 2),
    "table: average curvature": ("a_table", None, "A", "", 2),
    "table: average connection": ("average_connection_table", None, "D", ",", 1),
}


def engine_tables(m, tp, d) -> dict:
    """The engine's own values in the shape and integer convention of the
    four tables of KNOWN_TABLE_FAILURES, whose entries all have degree 2,
    so that those checks pass and can flip too."""
    def scaled(v):
        w = v * d * d
        assert w.denominator == 1
        return w.numerator

    def nonzero(t, vector=False):
        values = {idx: tuple(map(scaled, t.column(*idx))) if vector else scaled(t[idx])
                  for idx in product(range(4), repeat=t.nslots - vector)}
        return {idx: v for idx, v in values.items() if (any(v) if vector else v)}

    def matrix(t):
        return tuple(tuple(map(scaled, row)) for row in rows_of(t))

    return {
        "twin_curvature_table": nonzero(tp.curv_twin.R),
        "ricci_table": (matrix(tp.curv.ricci), scaled(tp.curv.tau),
                        matrix(tp.curv_twin.ricci), scaled(tp.curv_twin.tau)),
        "q_table": nonzero(tp.Q_vec, vector=True),
        "a_table": nonzero(transpose(lower_index(tp.A_vec, 0, m.g), (1, 2, 3, 0))),
    }


def perturbed_value(v, kind):
    """An integer, or a vector's first nonzero component, plus 1 or dropped."""
    if isinstance(v, tuple):
        a = next(a for a, x in enumerate(v) if x)
        return v[:a] + (perturbed_value(v[a], kind),) + v[a + 1:]
    return v + 1 if kind == "changed" else 0


def perturbed(part, kind):
    """(part with one nonzero component changed or dropped, or one added
    where it is zero, the index of that component, its new value), or None
    when part is a bare value and so has no index to add at."""
    if isinstance(part, tuple) and isinstance(part[0], tuple):      # a matrix
        change = perturbed({(i, j): v for i, row in enumerate(part)
                            for j, v in enumerate(row) if v}, kind)
        if change is None:
            return None
        new, idx, value = change
        return tuple(tuple(new.get((i, j), 0) for j in range(4)) for i in range(4)), idx, value
    if not isinstance(part, dict):
        if kind == "added":
            return None
        value = perturbed_value(part, kind)
        return value, (), value
    if kind != "added":
        idx = min(part)
        value = perturbed_value(part[idx], kind)
        return {**part, idx: value}, idx, value
    vector = isinstance(next(iter(part.values())), tuple)
    for idx in product(range(4), repeat=len(next(iter(part)))):
        v = part.get(idx, (0,) * 4 if vector else 0)
        if vector and not all(v):
            a = v.index(0)
            value = v[:a] + (1,) + v[a + 1:]
            return {**part, idx: value}, idx, value
        if not vector and not v:
            return {**part, idx: 1}, idx, 1
    return None


def shown(value, scale):
    """How a detail prints the table value: the integer value / scale."""
    if isinstance(value, tuple):
        return f"({', '.join(shown(w, scale) for w in value)})"
    return format_rational(Q(value, scale))


@pytest.mark.parametrize("point", [(1, 2, 1), ("-1/2", 3, -1)])
def test_every_table_check_is_falsifiable(point, monkeypatch):
    """One table component changed, dropped, or added where the engine is
    zero flips exactly its check, whose detail names that component and its
    table value.  The four tables that already fail here are first replaced
    by the engine's values.  A dropped component is caught only because a
    check also counts the engine's nonzero components.  At (-1/2, 3, -1)
    the tables are evaluated at D = 2, so a wrong power of D shows."""
    p = FamilyParams(*point)
    m, tp = family_pack(p)
    d, *at = p.integer_parameters()
    assert d == (2 if point[0] == "-1/2" else 1)
    engine = engine_tables(m, tp, d)
    added = set()
    for name, (fn_name, part, label, sep, degree) in TABLE_CHECKS.items():
        base = engine[fn_name] if fn_name in engine else getattr(tables, fn_name)(*at)

        def checks(result):
            with monkeypatch.context() as mp:
                mp.setattr(tables, fn_name, lambda *args: result)
                return {c.name: c for c in theorem_checks(p).checks}

        before = checks(base)
        assert before[name].passed, name
        for kind in ("changed", "dropped", "added"):
            change = perturbed(base if part is None else base[part], kind)
            if change is None:
                continue
            new, idx, value = change
            after = checks(new if part is None else base[:part] + (new,) + base[part + 1:])
            flipped = {n for n in before if before[n].passed != after[n].passed}
            assert flipped == {name}, (name, kind, flipped)
            where = f"{label}_{sep.join(str(i + 1) for i in idx)}" if idx else label
            assert after[name].detail.startswith(f"{where}: got "), (after[name].detail, where)
            assert after[name].detail.endswith(f", expected {shown(value, d ** degree)}"), (
                after[name].detail, value)
            if kind == "added":
                added.add(name)
    # the square norms, the Lee forms and the Ricci matrices have no zero
    # component at these points
    assert added == set(TABLE_CHECKS) - {"table: square norm", "table: Lee forms",
                                         "table: Ricci and scalar curvature"}
