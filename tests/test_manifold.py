"""Structural validation of algebras, P, metrics, and combinators."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paratwin import manifold
from paratwin import tensor as tensor_module
from paratwin.errors import ConsistencyError, ValidationError
from paratwin.family import FamilyParams, build_family
from paratwin.manifold import (LISTED_FAILURES, LieAlgebraModel, build_manifold, check_inverse,
                               validate_lie_algebra)
from paratwin.scalar import Q, ZERO
from paratwin.tensor import DOWN, UP, TensorDense, inverse, lincomb

from manifolds import (abelian_manifold, change_basis_bilinear, change_basis_endo,
                       eigenbasis, from_function, identity, matrix_inverse, metric_signature,
                       rows_of, tensor_equal, zeros)
from strategies import V3, any_tensors

P4 = TensorDense.from_matrix([[0, 1, 0, 0], [1, 0, 0, 0],
                              [0, 0, 0, 1], [0, 0, 1, 0]], (UP, DOWN))
G4 = TensorDense.from_matrix([[1, 0, 0, 0], [0, 1, 0, 0],
                              [0, 0, -1, 0], [0, 0, 0, -1]], (DOWN, DOWN))


def _abelian_algebra(n=4):
    return LieAlgebraModel(n, tuple(f"X{i+1}" for i in range(n)),
                           zeros(n, (UP, DOWN, DOWN)))


def test_family_algebra_is_valid():
    m = build_family(FamilyParams(Q(1), Q(2), Q(1)))
    report = validate_lie_algebra(m.algebra)
    assert report.valid


def test_broken_jacobi_is_named():
    c = zeros(4, (UP, DOWN, DOWN)).data
    data = list(c)
    shape = zeros(4, (UP, DOWN, DOWN))
    # [X1,X2] = X3, [X1,X3] = X1: fails Jacobi on (X1, X2, X3)
    data[shape.flat((2, 0, 1))], data[shape.flat((2, 1, 0))] = Q(1), Q(-1)
    data[shape.flat((0, 0, 2))], data[shape.flat((0, 2, 0))] = Q(1), Q(-1)
    alg = LieAlgebraModel(4, ("X1", "X2", "X3", "X4"),
                          TensorDense(4, (UP, DOWN, DOWN), data))
    report = validate_lie_algebra(alg)
    assert not report.valid
    assert any("jacobi" == f.name and "X_1" in f.detail for f in report.failures())


def test_odd_dimension_rejected():
    with pytest.raises(ValidationError):
        zeros(3, (UP, DOWN, DOWN))


@pytest.mark.parametrize("P, g, message", [
    (TensorDense.from_matrix([[0, 2, 0, 0], [1, 0, 0, 0],
                              [0, 0, 0, 1], [0, 0, 1, 0]], (UP, DOWN)), G4, "identity"),
    (identity(4), G4, "trace"),
    (P4, TensorDense.from_matrix([[1, 1, 0, 0], [0, 1, 0, 0],
                                  [0, 0, -1, 0], [0, 0, 0, -1]], (DOWN, DOWN)), "symmetric"),
    (P4, zeros(4, (DOWN, DOWN)), "degenerate"),
    (P4, TensorDense.from_matrix([[1, 0, 0, 0], [0, 2, 0, 0],
                                  [0, 0, -1, 0], [0, 0, 0, -1]], (DOWN, DOWN)), "compatible"),
])
def test_axiom_violations_rejected(P, g, message):
    with pytest.raises(ValidationError, match=message):
        build_manifold(_abelian_algebra(), P, g)


def _matrix(rows, variance=(DOWN, DOWN)):
    return TensorDense.from_matrix(rows, variance)


NOT_INVOLUTION = _matrix([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], (UP, DOWN))
NOT_SYMMETRIC = _matrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
SINGULAR_NOT_SYMMETRIC = _matrix([[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
SINGULAR_NOT_COMPATIBLE = _matrix([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
HALF = Q(1, 2)
OFF_DIAGONAL = _matrix([[1, 0, 0, 0], [0, 1, 0, HALF], [0, 0, -1, 0], [0, HALF, 0, -1]])
DIAGONAL = _matrix([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])


@pytest.mark.parametrize("P, g, message", [
    (NOT_INVOLUTION, NOT_SYMMETRIC, "P^2 is not the identity"),
    (NOT_INVOLUTION, zeros(4, (DOWN, DOWN)), "P^2 is not the identity"),
    (identity(4), NOT_SYMMETRIC, "trace of P is not zero"),
    (identity(4), zeros(4, (DOWN, DOWN)), "trace of P is not zero"),
    (P4, SINGULAR_NOT_SYMMETRIC, "metric is not symmetric"),
    (P4, SINGULAR_NOT_COMPATIBLE, "metric is degenerate"),
    (P4, OFF_DIAGONAL, "metric is not P-compatible: g(PX_1,PX_3) != g(X_1,X_3)"),
    (P4, DIAGONAL, "metric is not P-compatible: g(PX_1,PX_1) != g(X_1,X_1)"),
])
def test_first_violated_axiom_is_named(P, g, message):
    """An input violating several axioms gets the whole message of the
    first in the order P^2, trace, symmetry, degeneracy, P-compatibility;
    the P-compatibility message names the first failing pair in row-major
    order."""
    with pytest.raises(ValidationError) as exc:
        build_manifold(_abelian_algebra(), P, g)
    assert str(exc.value) == message


def _bumped(t, idx):
    """t with 1 added at idx."""
    data = list(t.data)
    data[t.flat(idx)] += 1
    return TensorDense(t.dim, t.variance, data)


def test_inverse_metric_checks_catch_a_wrong_inverse(family121, monkeypatch):
    """Both inverses are checked exactly: a perturbed g^-1 stops the
    assembly, and a perturbed g~^-1 fails its check."""
    m, _ = family121
    check_inverse(m.g, m.g_inv, "g")
    check_inverse(m.g_twin, m.g_twin_inv, "g~")
    with pytest.raises(ConsistencyError, match=r"^g~: first nonzero residual at \(1, 1\) is 1;"):
        check_inverse(m.g_twin, _bumped(m.g_twin_inv, (0, 1)), "g~")
    monkeypatch.setattr(manifold, "inverse", lambda g: _bumped(inverse(g), (1, 0)))
    with pytest.raises(ConsistencyError, match=r"^inverse metric: g\^-1 g = I: first nonzero"):
        build_manifold(m.algebra, m.P, m.g)


def test_twin_inverse_is_P_times_the_inverse(dsum8):
    """g~^-1 = P g^-1 is the inverse of g~ = g P, as the reference
    elimination finds it."""
    for m in dsum8:
        rows = matrix_inverse(rows_of(m.g_twin))
        assert rows_of(m.g_twin_inv) == rows
        assert tensor_equal(m.g_twin_inv, lincomb((1, "im,mj->ij", m.P, m.g_inv)))


def test_twin_metric_definition(family121):
    m, _ = family121
    n = m.dim
    Pm = rows_of(m.P)
    for i in range(n):
        for j in range(n):
            assert m.g_twin[i, j] == sum(m.g[i, a] * Pm[a][j] for a in range(n))


def test_metric_signatures_are_neutral(family121):
    m, _ = family121
    assert metric_signature(m.g) == (2, 2)
    assert metric_signature(m.g_twin) == (2, 2)


def test_eigenbasis_diagonalizes_P(family121):
    m, _ = family121
    basis = eigenbasis(m)
    D = change_basis_endo(m.P, basis)
    n = m.dim
    for i in range(n):
        for j in range(n):
            want = (Q(-1) if i % 2 == 0 else Q(1)) if i == j else ZERO
            assert D[i, j] == want
    # the pulled-back metric stays symmetric and non-degenerate
    g2 = change_basis_bilinear(m.g, basis)
    assert metric_signature(g2) == (2, 2)


def test_abelian_manifold_is_flat_reference():
    m = abelian_manifold(4)
    assert m.algebra.c.is_zero()
    assert metric_signature(m.g) == (2, 2)


def test_direct_sum_blocks(family121, dsum8):
    m, _ = family121
    d8, _ = dsum8
    assert d8.dim == 8
    # first block reproduces the family brackets
    for i in range(4):
        for j in range(4):
            assert d8.algebra.c.column(i, j)[:4] == m.algebra.c.column(i, j)
            assert all(v == ZERO for v in d8.algebra.c.column(i, j)[4:])
    # cross brackets vanish
    for i in range(4):
        for j in range(4, 8):
            assert all(v == ZERO for v in d8.algebra.c.column(i, j))


def test_twin_view_swaps_metrics(family121):
    m, _ = family121
    mt = m.twin_view()
    assert tensor_equal(mt.g, m.g_twin) and tensor_equal(mt.g_twin, m.g)
    assert tensor_equal(mt.twin_view().g, m.g)


def listed(name, details, limit):
    """The items of one axiom: a failure for each of the first limit
    details (all if limit is None), then one counting the rest."""
    items = [(name, False, d) for d in details[:limit]]
    if limit is not None and len(details) > limit:
        items.append((name, False, f"and {len(details) - limit} more failing components"))
    return items or [(name, True, "")]


def reference_validation(alg, limit=LISTED_FAILURES):
    """validate_lie_algebra's items by the full loops over every index."""
    n, c = alg.dim, alg.c
    anti = []
    for i, j, k in product(range(n), repeat=3):
        if c[k, i, j] != -c[k, j, i]:
            anti.append(f"c^{k + 1}_{{{i + 1},{j + 1}}} != -c^{k + 1}_{{{j + 1},{i + 1}}}")
    jacobi = []
    for i, j, l in product(range(n), repeat=3):
        for m in range(n):
            total = sum((c[s, a, b] * c[m, s, e]
                         for a, b, e in ((i, j, l), (j, l, i), (l, i, j))
                         for s in range(n)), Q(0))
            if total:
                jacobi.append(f"cyclic sum for (X_{i + 1}, X_{j + 1}, X_{l + 1}) has "
                              f"nonzero X_{m + 1} component {total}")
    return listed("antisymmetry", anti, limit) + listed("jacobi", jacobi, limit)


def _antisymmetrized(t):
    n = t.dim
    return TensorDense(n, V3, [t[k, i, j] - t[k, j, i]
                               for k, i, j in product(range(n), repeat=3)])


@given(any_tensors(V3), st.booleans())
@settings(max_examples=40)
def test_validation_items_match_reference(c, antisymmetrize):
    """A broken algebra gets the reference's items, in the reference's order."""
    if antisymmetrize:
        c = _antisymmetrized(c)          # only Jacobi can fail
    alg = LieAlgebraModel(c.dim, tuple(f"X{i + 1}" for i in range(c.dim)), c)
    report = validate_lie_algebra(alg)
    assert [(it.name, it.passed, it.detail) for it in report.checks] == \
        reference_validation(alg)


def _algebra_of(n, constants):
    """The algebra whose c^k_{ij} is constants[k, i, j] (0-based), zero
    elsewhere; built directly, since a document always gives both halves
    of a bracket."""
    c = from_function(n, V3, lambda k, i, j: constants.get((k, i, j), ZERO))
    return LieAlgebraModel(n, tuple(f"X{i + 1}" for i in range(n)), c)


@pytest.mark.parametrize("n, constants, broken", [
    # a diagonal c^1_{22} beside an antisymmetric pair
    (4, {(0, 1, 1): Q(3), (0, 0, 1): Q(1), (0, 1, 0): Q(-1)}, 1),
    # a one-sided c^3_{12}, and a pair c^2_{34} = c^2_{43} that does not cancel
    (4, {(2, 0, 1): Q(2, 3), (1, 2, 3): Q(1), (1, 3, 2): Q(1)}, 4),
    # a one-sided c^k_{ij} for every i < j and even k: 90 broken components
    (6, {(k, i, j): Q(k + 1, j + 1) for k in range(0, 6, 2)
         for i in range(6) for j in range(i + 1, 6)}, 90),
])
def test_antisymmetry_from_the_support_matches_the_full_scan(n, constants, broken):
    """The antisymmetry residual lists what the scan over all n^3 triples
    lists, in its order, and counts the rest."""
    alg = _algebra_of(n, constants)
    items = [(it.name, it.passed, it.detail) for it in validate_lie_algebra(alg).checks]
    assert items == reference_validation(alg)
    anti = [it for it in items if it[0] == "antisymmetry"]
    if broken > LISTED_FAILURES:
        assert len(anti) == LISTED_FAILURES + 1
        assert anti[-1][2] == f"and {broken - LISTED_FAILURES} more failing components"
    else:
        assert len(anti) == broken and not any(passed for _, passed, _ in anti)


def test_validation_items_match_reference_in_dim_6():
    """Every Jacobi triple of a dense antisymmetric dim-6 algebra fails, in
    the reference's order and with its values; the first LISTED_FAILURES
    are listed and the rest counted."""
    n = 6
    vals = [Q((7 * p) % 11 - 5, 1 + p % 3) for p in range(n ** 3)]
    c = _antisymmetrized(TensorDense(n, V3, vals))
    alg = LieAlgebraModel(n, tuple(f"X{i + 1}" for i in range(n)), c)
    items = [(it.name, it.passed, it.detail) for it in validate_lie_algebra(alg).checks]
    assert items == reference_validation(alg)
    full = reference_validation(alg, limit=None)
    assert len(full) > n ** 3
    assert items[-1][2] == f"and {len(full) - 1 - LISTED_FAILURES} more failing components"


def test_sparse_dim_8_validation_matches_reference(monkeypatch):
    """A sparse dim-8 algebra breaking both axioms gets the reference's
    items, in its order and with its values.  Its cyclic sums have 8^4 =
    4,096 components and few nonzeros, so they accumulate in a dict."""
    constants = {}
    for i, j, k, v, mirrored in [(1, 2, 3, 1, True), (1, 3, 1, 1, True),
                                 (7, 8, 8, Q(2, 3), True), (7, 8, 2, -2, True),
                                 (2, 8, 4, 1, True), (3, 8, 6, Q(5, 7), True),
                                 (2, 7, 5, 1, True), (4, 5, 6, 3, False),
                                 (6, 6, 4, Q(1, 2), False)]:
        constants[k - 1, i - 1, j - 1] = Q(v)
        if mirrored:
            constants[k - 1, j - 1, i - 1] = -Q(v)
    alg = _algebra_of(8, constants)
    kinds = []

    def recorded(terms, _real=tensor_module._accumulate):
        out = _real(terms)
        kinds.append((out[0] ** len(out[1]), type(out[3])))
        return out

    monkeypatch.setattr(tensor_module, "_accumulate", recorded)
    items = [(it.name, it.passed, it.detail) for it in validate_lie_algebra(alg).checks]
    assert kinds[-1] == (8 ** 4, dict)
    assert items == reference_validation(alg)
    assert [it[0] for it in items].count("antisymmetry") == 3
    assert items[-1] == ("jacobi", False, "and 28 more failing components")
