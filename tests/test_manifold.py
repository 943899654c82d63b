"""Structural validation of algebras, P, metrics, and combinators."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paratwin.errors import ValidationError
from paratwin.family import FamilyParams, build_family
from paratwin.manifold import LieAlgebraModel, build_manifold, validate_lie_algebra
from paratwin.scalar import Q, ZERO
from paratwin.tensor import DOWN, UP, TensorDense, tensor_equal

from manifolds import (abelian_manifold, change_basis_bilinear, change_basis_endo,
                       eigenbasis, identity, metric_signature, zeros)
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


def test_twin_metric_definition(family121):
    m, _ = family121
    n = m.dim
    Pm = m.P.matrix()
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


def reference_validation(alg):
    """validate_lie_algebra's items by the full loops over every index."""
    n, c = alg.dim, alg.c
    items = []
    for i, j, k in product(range(n), repeat=3):
        if c[k, i, j] != -c[k, j, i]:
            items.append(("antisymmetry", False,
                          f"c^{k + 1}_{{{i + 1},{j + 1}}} != -c^{k + 1}_{{{j + 1},{i + 1}}}"))
    if not items:
        items.append(("antisymmetry", True, ""))
    jacobi = []
    for i, j, l in product(range(n), repeat=3):
        for m in range(n):
            total = sum((c[s, a, b] * c[m, s, e]
                         for a, b, e in ((i, j, l), (j, l, i), (l, i, j))
                         for s in range(n)), Q(0))
            if total:
                jacobi.append(("jacobi", False,
                               f"cyclic sum for (X_{i + 1}, X_{j + 1}, X_{l + 1}) has "
                               f"nonzero X_{m + 1} component {total}"))
    return items + (jacobi or [("jacobi", True, "")])


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


def test_validation_items_match_reference_in_dim_6():
    """Every Jacobi triple of a dense antisymmetric dim-6 algebra fails, in
    the reference's order and with its values, through the i < j < l path."""
    n = 6
    vals = [Q((7 * p) % 11 - 5, 1 + p % 3) for p in range(n ** 3)]
    c = _antisymmetrized(TensorDense(n, V3, vals))
    alg = LieAlgebraModel(n, tuple(f"X{i + 1}" for i in range(n)), c)
    items = [(it.name, it.passed, it.detail) for it in validate_lie_algebra(alg).checks]
    assert items == reference_validation(alg)
    assert len(items) > n ** 3
