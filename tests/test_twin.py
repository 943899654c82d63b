"""Twin interchange: tilde objects, D, Q, B, A, K, and the invariance suite."""

import dataclasses
import inspect
import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paratwin.cli import build_report, parse_document
from paratwin.connection import koszul
from paratwin.errors import ConsistencyError, recording
from paratwin.family import FamilyParams, build_family, family_pack
from paratwin.manifold import build_manifold
from paratwin.scalar import Q, ZERO
from paratwin.structure import StructurePack
from paratwin.tensor import DOWN, UP, TensorDense, lincomb
from paratwin.twin import (TwinPack, _w1_assemble, build_twin_pack, invariance_suite,
                           tensor_B, tensor_K, tensor_Q, w1_closed_forms)

from manifolds import (DENSE_BASIS, add, derive_vector, direct_sum, document_of, neg,
                       nonabelian2, pulled_back, rows_of, scale, sub, tensor_equal,
                       transpose)
from strategies import V3, V4, any_tensors, dense_tensors, mixed_rationals, rationals

#: every route cross-check that one report runs; taken from the version
#: before require() existed, by recording each guarded ConsistencyError
#: site as its comparison ran during build_report
REPORT_CHECKS = frozenset({
    "A != (R + R~)/2",
    "F is not symmetric in its last two arguments",
    "F reconstruction from Phi failed",
    "F(x,Py,Pz) != -F(x,y,z)",
    "F(x,Py,z) != -F(x,y,Pz)",
    "F-based and Phi-based classifications disagree",
    "K != A - B/4",
    "Koszul output has torsion",
    "Koszul output is not metric-compatible",
    "N disagrees with its Phi expression",
    "N^ disagrees with its Phi expression",
    "Phi from F disagrees with (nabla~ - nabla)",
    "Phi is not symmetric",
    "R~ != R + Q",
    "average connection is not twin-invariant",
    "curvature of D disagrees with R + Q/2 - B/4",
    "curvature tensor is not antisymmetric in (x, y)",
    "curvature tensor is not antisymmetric in (z, w)",
    "f != -f* o P",
    "f = -theta*, f* = -theta failed",
    "first Bianchi identity fails",
    "four-term Phi identity failed",
    "nabla + Phi disagrees with the Koszul connection of g~",
    "theta* != -theta o P",
})


def test_twin_connection_is_koszul_of_twin_metric(family121):
    m, tp = family121
    independent = koszul(m.algebra, m.g_twin, m.g_twin_inv)
    assert tensor_equal(tp.conn_twin, independent)
    assert tensor_equal(sub(tp.conn_twin, tp.conn), tp.sp.Phi_vec)


def test_curvature_correction(family121):
    _, tp = family121
    assert tensor_equal(tp.curv_twin.R_vec, add(tp.curv.R_vec, tp.Q_vec))
    assert tensor_equal(tp.A_vec, scale(add(tp.curv.R_vec, tp.curv_twin.R_vec), Q(1, 2)))
    assert tensor_equal(tp.K_vec, sub(tp.A_vec, scale(tp.B_vec, Q(1, 4))))


def test_Q_antisymmetry(family121):
    _, tp = family121
    assert tensor_equal(tp.Q_vec, neg(transpose(tp.Q_vec, (0, 2, 1, 3))))
    assert tensor_equal(tp.B_vec, neg(transpose(tp.B_vec, (0, 2, 1, 3))))


def test_suite_on_family_points():
    for params in ((1, 2, 1), (1, 1, 1), (0, 0, -1), (-3, Q(1, 2), -1)):
        m, tp = family_pack(FamilyParams(*map(Q, params)))
        report = invariance_suite(m, tp)
        assert report.valid, [c.name for c in report.failures()]


def test_suite_on_abelian(abelian4):
    assert invariance_suite(abelian4).valid


def test_suite_on_direct_sums(dsum8):
    for m in dsum8:
        report = invariance_suite(m)
        assert report.valid, [c.name for c in report.failures()]


def test_suite_accepts_prebuilt_pack(family121):
    m, tp = family121
    assert invariance_suite(m, tp).valid


def test_class_set_check_reads_the_twin_structure_pack(family121, abelian4):
    """"class set invariant" classifies the twin structure pack it is
    given: abelian4's pack, whose Phi = 0 puts it in every class, fails it.
    Phi_vec is kept, since the suite rebuilds the tilde side from it."""
    m, tp = family121
    flat = build_twin_pack(abelian4).sp
    sp_twin = dataclasses.replace(flat, Phi_vec=tp.sp_twin.Phi_vec)
    failures = {c.name for c in invariance_suite(m, tp).failures()}
    swapped = {c.name for c in invariance_suite(
        m, dataclasses.replace(tp, sp_twin=sp_twin)).failures()}
    assert "class set invariant" not in failures and "class set invariant" in swapped


def test_w1_closed_forms(family121):
    m, tp = family121
    S, S_star, H, Q_rebuilt, B_rebuilt = w1_closed_forms(m, tp)
    assert H.is_zero()
    assert tensor_equal(Q_rebuilt, tp.Q_vec)
    assert tensor_equal(B_rebuilt, tp.B_vec)
    # with H = 0 the forms S, S* reduce to plain covariant derivatives
    n = m.dim
    fs = list(tp.sp.f_sharp.data)
    for x in range(n):
        assert [S[k, x] for k in range(n)] == derive_vector(tp.conn, x, fs)


def test_direct_Q_and_B_on_twin_side(family121):
    m, tp = family121
    _, _, tQ = tensor_Q(tp.conn_twin, tp.sp_twin.Phi_vec)
    tB = tensor_B(tp.sp_twin.Phi_vec)
    assert tensor_equal(tQ, neg(tp.Q_vec))
    assert tensor_equal(tB, tp.B_vec)


def test_pack_of_twin_view(family121):
    m, tp = family121
    tp2 = build_twin_pack(m.twin_view())
    assert tensor_equal(tp2.conn, tp.conn_twin)
    assert tensor_equal(tp2.curv.R_vec, tp.curv_twin.R_vec)
    assert tensor_equal(tp2.Q_vec, neg(tp.Q_vec))
    assert tensor_equal(tp2.D, tp.D)


def stated_variances(cls) -> dict:
    """{field: variance} from the "# (r,s)" comment on each tensor field of
    a pack dataclass; a PSubs field's comment names its keys, each a (0,3)
    tensor.  Every tensor field must have such a comment."""
    stated = {}
    for line in inspect.getsource(cls).splitlines():
        match = re.match(r"\s+(\w+): (TensorDense|PSubs)\s+# (.*)", line)
        if match is None:
            continue
        name, kind, comment = match.groups()
        if kind == "PSubs":
            stated[name] = {key: (DOWN,) * 3 for key in re.findall(r'"(\w+)"', comment)}
        else:
            r, s = map(int, re.match(r"\((\d),(\d)\)", comment).groups())
            stated[name] = (UP,) * r + (DOWN,) * s
    tensor_fields = {f.name for f in dataclasses.fields(cls) if f.type in ("TensorDense", "PSubs")}
    assert set(stated) == tensor_fields, cls
    return stated


def assert_stated_variances(pack) -> None:
    """Each tensor field of pack, and of the packs it holds, has the
    variance its dataclass comment states."""
    for name, want in stated_variances(type(pack)).items():
        value = getattr(pack, name)
        if isinstance(want, dict):
            assert {key: t.variance for key, t in value.items()} == want, name
        else:
            assert value.variance == want, name
    for f in dataclasses.fields(pack):
        if f.type in ("StructurePack", "CurvaturePack"):
            assert_stated_variances(getattr(pack, f.name))


def test_pack_fields_have_their_stated_variance(family121, dense_and_b_nonzero):
    """The slot maps carry no variance check of their own: P's (u, d) and
    g^-1's (u, u) give each result its flags, and this pins them, e.g.
    F_P["x"] (d, d, d), f_sharp (u,) and Q_vec (u, d, d, d)."""
    stated = stated_variances(StructurePack)
    assert stated["F_P"]["x"] == (DOWN,) * 3 and set(stated["Phi_P"]) == {"y", "z", "yz", "xy"}
    assert stated["f_sharp"] == (UP,)
    assert stated_variances(TwinPack)["Q_vec"] == (UP, DOWN, DOWN, DOWN)
    for _, tp in [family121, *dense_and_b_nonzero]:
        assert_stated_variances(tp)


def test_report_runs_every_route_check(family121, dsum8):
    for m, tp in (family121, (dsum8[0], None)):
        with recording() as ran:
            build_report(m)
        assert set(ran) == REPORT_CHECKS
        pack = tp if tp is not None else build_twin_pack(m)
        assert set(pack.checks) == REPORT_CHECKS


def test_route_checks_with_B_nonzero(family121):
    small = nonabelian2()
    for m in (small, direct_sum(small, family121[0])):
        tp = build_twin_pack(m)                 # K = R + Q/2 - B/4 = A - B/4
        assert not tp.B_vec.is_zero()
        report = invariance_suite(m, tp)        # the curl relation carries -2B
        assert report.valid, [c.name for c in report.failures()]
    w1_closed_forms(small, build_twin_pack(small))     # rebuilds Q and B


def perturbed(t: TensorDense, idx, delta) -> TensorDense:
    """t with delta added to its component at idx."""
    data = list(t.data)
    data[t.flat(idx)] += delta
    return TensorDense(t.dim, t.variance, data)


def test_suite_names_the_component_that_differs(family121):
    m, tp = family121
    bad = dataclasses.replace(tp, Q_vec=perturbed(tp.Q_vec, (1, 0, 2, 3), Q(1, 3)))
    items = {c.name: c for c in invariance_suite(m, bad).checks}
    detail = "first nonzero residual at (2, 1, 3, 4) is {}; 1 of 256 components differ"
    assert not items["Q~ = -Q"].passed
    assert items["Q~ = -Q"].detail == detail.format("1/3")
    assert not items["R~ = R + Q"].passed
    assert items["R~ = R + Q"].detail == detail.format("-1/3")
    assert all(c.passed and not c.detail for name, c in items.items()
               if name not in ("Q~ = -Q", "R~ = R + Q"))


def test_failed_route_check_names_the_component_that_differs(family121):
    m, tp = family121
    K = perturbed(tp.K_vec, (0, 0, 1, 1), Q(2))
    with pytest.raises(ConsistencyError) as err:
        tensor_K(K, tp.curv.R_vec, tp.Q_vec, tp.A_vec, tp.B_vec)
    assert str(err.value) == ("curvature of D disagrees with R + Q/2 - B/4: first nonzero "
                              "residual at (1, 1, 2, 2) is 2; 1 of 256 components differ")


def test_report_forms_no_intermediate_tensors(family121, monkeypatch):
    """The report path builds every relation in one integer pass: it
    converts no list of rationals into a tensor, and tensors have no
    Fraction operators; add, sub, neg and scale are the tests' reference
    in manifolds.py."""
    assert not any(hasattr(TensorDense, name)
                   for name in ("__add__", "__sub__", "__neg__", "scale"))
    calls = []
    original = TensorDense.__init__

    def counted(self, *args):
        calls.append(args[:2])
        original(self, *args)

    dense = document_of(pulled_back(family121[0], DENSE_BASIS))
    alg, P, g, name = parse_document(dense)
    assert all(P.data) and all(g.data)
    monkeypatch.setattr(TensorDense, "__init__", counted)
    for m in (family121[0], build_manifold(alg, P, g, name=name)):
        build_report(m)
    TensorDense(2, V3, [ZERO] * 8)      # the counter works
    assert calls == [(2, V3)]


def reference_w1_qb(gm, tm, Sm, Ssm, Hm, HP, F, Pfs):
    """The closed-form Q and B of w1_closed_forms, evaluated at every index."""
    n = len(gm)
    n2 = Q(n)
    q_out, b_out = [], []
    for k, x, y, z in product(range(n), repeat=4):
        q_out.append((gm[y][z] * Sm[k][x] - gm[x][z] * Sm[k][y]
                      - tm[y][z] * Ssm[k][x] + tm[x][z] * Ssm[k][y]
                      - (F[x, z, y] - F[y, z, x]) * Pfs[k]) / n2)
        b_out.append((gm[y][z] * Hm[k][x] - gm[x][z] * Hm[k][y]
                      - tm[y][z] * HP[k][x] + tm[x][z] * HP[k][y]) / (n2 * n2))
    return TensorDense(n, V4, q_out), TensorDense(n, V4, b_out)


def reference_w1_closed_forms(m, gamma, sp):
    """(S, S*, H, Q, B) of w1_closed_forms from plain per-index loops."""
    n = m.dim
    n2 = Q(n)
    Pm = rows_of(m.P)
    fs = list(sp.f_sharp.data)
    f = list(sp.f.data)
    Pfs = [sum(Pm[k][a] * fs[a] for a in range(n)) for k in range(n)]
    fP = [sum(f[a] * Pm[a][x] for a in range(n)) for x in range(n)]
    Hm = [[f[x] * fs[k] - fP[x] * Pfs[k] for x in range(n)] for k in range(n)]
    HP = [[sum(Hm[k][a] * Pm[a][x] for a in range(n)) for x in range(n)] for k in range(n)]

    def nabla(x, y):                    # nabla_{X_x} y for a constant vector y
        return [sum(gamma[k, x, j] * y[j] for j in range(n)) for k in range(n)]

    Sm = [[nabla(x, fs)[k] + Hm[k][x] / n2 for x in range(n)] for k in range(n)]
    Ssm = [[nabla(x, Pfs)[k] + HP[k][x] / n2 for x in range(n)] for k in range(n)]
    Q_ref, B_ref = reference_w1_qb(rows_of(m.g), rows_of(m.g_twin), Sm, Ssm, Hm, HP,
                                   sp.F, Pfs)
    as_endo = lambda rows: TensorDense.from_matrix(rows, (UP, DOWN))   # noqa: E731
    return as_endo(Sm), as_endo(Ssm), as_endo(Hm), Q_ref, B_ref


def test_w1_closed_forms_in_a_dense_basis():
    for params in ((1, 2, 1), (-3, Q(1, 2), -1)):
        m = pulled_back(build_family(FamilyParams(*map(Q, params))), DENSE_BASIS)
        assert all(m.g.data) and all(m.P.data)
        tp = build_twin_pack(m)
        got = w1_closed_forms(m, tp)
        want = reference_w1_closed_forms(m, tp.conn, tp.sp)
        for a, b in zip(got, want):
            assert tensor_equal(a, b)
        assert sum(1 for v in got[3].data if v) > 128       # Q is mostly nonzero here


@st.composite
def w1_inputs(draw):
    """Dense rational inputs of the closed-form assembly, H included."""
    n = draw(st.sampled_from((2, 4)))
    matrix = st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)
    mats = [draw(matrix) for _ in range(6)]
    F = draw(dense_tensors(n, (DOWN, DOWN, DOWN)))
    Pfs = draw(st.lists(rationals, min_size=n, max_size=n))
    return (*mats, F, Pfs)


@given(w1_inputs())
@settings(max_examples=40, deadline=None)
def test_w1_assembly_matches_reference(inputs):
    gm, tm, Sm, Ssm, Hm, HP, F, Pfs = inputs
    forms = (TensorDense.from_matrix(a, (DOWN, DOWN)) for a in (gm, tm))
    endos = (TensorDense.from_matrix(a, (UP, DOWN)) for a in (Sm, Ssm, Hm, HP))
    tensors = (*forms, *endos, F, TensorDense(len(Pfs), (UP,), Pfs))
    for got, want in zip(_w1_assemble(*tensors), reference_w1_qb(*inputs)):
        assert got.data == want.data
        assert all(v is ZERO for v in got.data if not v)


def naive_phi_compose(phi):
    """Phi(x, Phi(y,z))^k = Phi^k_{xm} Phi^m_{yz}, summed over m at every index."""
    n = phi.dim
    return [sum((phi[k, x, m] * phi[m, y, z] for m in range(n)), Q(0))
            for k, x, y, z in product(range(n), repeat=4)]


@given(st.one_of(any_tensors(V3),
                 st.sampled_from((2, 4)).flatmap(lambda n: dense_tensors(n, V3, mixed_rationals))))
@settings(max_examples=40, deadline=None)
def test_phi_compose_and_B_match_reference(phi):
    n = phi.dim
    C = naive_phi_compose(phi)
    at = lambda k, x, y, z: C[((k * n + x) * n + y) * n + z]      # noqa: E731
    got_C, got_B = lincomb((1, "kxm,myz->kxyz", phi, phi)), tensor_B(phi)
    assert list(got_C.data) == C
    assert list(got_B.data) == [at(k, x, y, z) - at(k, y, x, z)
                                for k, x, y, z in product(range(n), repeat=4)]
    for t in (got_C, got_B):
        assert all(v is ZERO for v in t.data if not v)
