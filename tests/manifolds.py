"""Manifolds, documents and diagnostics that only the tests use.

The Abelian reference manifold, block direct sums, family points pulled
back to a dense basis and a small algebra with B != 0 grow the test
corpus beyond the family; basis changes, the eigenbasis of P and Sylvester
signatures check invariance under a change of frame; document_of writes a
manifold back as a CLI document; family_brackets gives the family's
commutators as rationals, for the Besse route; zeros, identity,
derive_vector, rows_of and matrix_inverse are small references;
fraction_calls counts calls into fractions for the call budgets.  The
rational reference algebra at the end (from_function, add, sub, neg,
scale, tensor_equal, transpose, slot_map, raise_index, lower_index and
torsion) works componentwise on Fractions, the second route for the
engine's lincomb and vanishes terms.  The engine itself needs none of
them.
"""

import cProfile
import fractions
from itertools import product

from paratwin.errors import ValidationError
from paratwin.family import FamilyParams, _brackets
from paratwin.manifold import LieAlgebraModel, WManifold, build_manifold
from paratwin.scalar import Q, ZERO, format_rational, rational
from paratwin.tensor import DOWN, UP, TensorDense, lincomb


def family_brackets(p: FamilyParams) -> dict[tuple[int, int], list]:
    """Nonzero commutators [X_i, X_j] of the family at p, as rationals
    (0-based index pairs, i < j is not assumed)."""
    return _brackets(p.lambda1, p.lambda2, p.epsilon)


def zeros(dim: int, variance) -> TensorDense:
    """The zero tensor of the given dimension and variance."""
    return TensorDense(dim, variance, [ZERO] * dim ** len(variance))


def identity(dim: int) -> TensorDense:
    """Kronecker delta as a (1,1) tensor."""
    return from_function(dim, (UP, DOWN), lambda i, j: Q(i == j))


def rows_of(t: TensorDense) -> list[list]:
    """A two-slot tensor as a nested list of rationals, first slot indexing rows."""
    return [[t[i, j] for j in range(t.dim)] for i in range(t.dim)]


def matrix_inverse(rows):
    """Gauss-Jordan inverse over the rationals; None if singular.  The
    reference route for tensor.inverse."""
    n = len(rows)
    a = [list(r) for r in rows]
    inv = [[Q(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def derive_vector(gamma: TensorDense, i: int, y: list) -> list:
    """nabla_{X_i} y for a constant coefficient vector y, by plain sums,
    with gamma the connection's coefficients."""
    n = gamma.dim
    return [sum((gamma[k, i, j] * y[j] for j in range(n)), ZERO) for k in range(n)]


def abelian_manifold(dim: int = 4, name: str = "abelian") -> WManifold:
    """Flat reference manifold: Abelian algebra, pair-swap P, g = diag(1,..,-1,..)."""
    labels = tuple(f"X{i + 1}" for i in range(dim))
    alg = LieAlgebraModel(dim, labels, zeros(dim, (UP, DOWN, DOWN)))
    P = from_function(dim, (UP, DOWN),
                                  lambda i, j: Q(i == j + 1 and j % 2 == 0 or j == i + 1 and i % 2 == 0))
    half = dim // 2
    g = from_function(dim, (DOWN, DOWN),
                                  lambda i, j: Q(0) if i != j else (Q(1) if i < half else Q(-1)))
    return build_manifold(alg, P, g, name=name)


def direct_sum(m1: WManifold, m2: WManifold, name: str | None = None) -> WManifold:
    """Blockwise direct sum of two manifolds.

    Structure constants, P and g are block-diagonal, so Jacobi and every
    structural axiom hold automatically.
    """
    n1, n2 = m1.dim, m2.dim
    n = n1 + n2
    labels = tuple(f"A{i + 1}" for i in range(n1)) + tuple(f"B{i + 1}" for i in range(n2))

    def block(t1: TensorDense, t2: TensorDense):
        def fn(*idx):
            if all(i < n1 for i in idx):
                return t1[idx]
            if all(i >= n1 for i in idx):
                return t2[tuple(i - n1 for i in idx)]
            return ZERO
        return from_function(n, t1.variance, fn)

    alg = LieAlgebraModel(n, labels, block(m1.algebra.c, m2.algebra.c))
    return build_manifold(alg, block(m1.P, m2.P), block(m1.g, m2.g),
                          name=name or f"{m1.name}(+){m2.name}")


def change_basis_bilinear(form: TensorDense, basis: TensorDense) -> TensorDense:
    """Pull a (0,2) form back along a basis-change matrix: M^T form M."""
    n = form.dim
    fm = rows_of(form)
    bm = rows_of(basis)
    out = [[sum(bm[a][i] * fm[a][b] * bm[b][j] for a in range(n) for b in range(n))
            for j in range(n)] for i in range(n)]
    return TensorDense.from_matrix(out, (DOWN, DOWN))


def change_basis_endo(endo: TensorDense, basis: TensorDense) -> TensorDense:
    """Conjugate a (1,1) tensor by a basis-change matrix: M^-1 endo M."""
    n = endo.dim
    em = rows_of(endo)
    bm = rows_of(basis)
    binv = matrix_inverse(bm)
    if binv is None:
        raise ValidationError("basis-change matrix is singular")
    tmp = [[sum(em[i][a] * bm[a][j] for a in range(n)) for j in range(n)] for i in range(n)]
    out = [[sum(binv[i][a] * tmp[a][j] for a in range(n)) for j in range(n)] for i in range(n)]
    return TensorDense.from_matrix(out, (UP, DOWN))


def eigenbasis(m: WManifold) -> TensorDense:
    """Change of basis diagonalizing P when P swaps basis vectors in pairs.

    Returns the matrix whose columns are the unnormalized eigenvectors
    a_{2k-1} = X_{2k-1} - X_{2k}, a_{2k} = X_{2k-1} + X_{2k} (the 1/sqrt(2)
    normalization is dropped to stay rational).  In the new basis P is
    diagonal with entries alternating -1, +1.
    """
    n = m.dim
    Pm = rows_of(m.P)
    for k in range(0, n, 2):
        expected = {(k, k + 1): Q(1), (k + 1, k): Q(1)}
        for i in range(n):
            for j in (k, k + 1):
                if Pm[i][j] != expected.get((i, j), ZERO):
                    raise ValidationError(
                        "P is not in adapted pair-swap form; the eigenbasis "
                        "diagnostic does not apply to this basis")
    cols = [[ZERO] * n for _ in range(n)]
    for k in range(0, n, 2):
        cols[k][k] = Q(1)
        cols[k + 1][k] = Q(-1)
        cols[k][k + 1] = Q(1)
        cols[k + 1][k + 1] = Q(1)
    return TensorDense.from_matrix(cols, (UP, DOWN))


def symmetric_signature(rows) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric rational matrix.

    Symmetric Gaussian diagonalization: congruence transformations only, so
    the pivot signs give the signature exactly (Sylvester's law).
    """
    n = len(rows)
    a = [list(r) for r in rows]
    pos = neg = zero = 0
    for k in range(n):
        if not a[k][k]:
            # find a nonzero diagonal below, else create one from an
            # off-diagonal entry by a congruence row+column addition
            swap = next((r for r in range(k + 1, n) if a[r][r]), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j]), None)
                if j is None:
                    zero += 1
                    continue
                for col in range(n):
                    a[k][col] += a[j][col]
                for row in a:
                    row[k] += row[j]
        p = a[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for r in range(k + 1, n):
            if a[r][k]:
                f = a[r][k] / p
                for col in range(n):
                    a[r][col] -= f * a[k][col]
                for i in range(n):
                    a[i][r] -= f * a[i][k]
    return pos, neg, zero


def metric_signature(g: TensorDense) -> tuple[int, int]:
    """(positive, negative) inertia of a non-degenerate symmetric form."""
    pos, neg, zero = symmetric_signature(rows_of(g))
    if zero:
        raise ValidationError("form is degenerate")
    return pos, neg


def document_of(m: WManifold) -> dict:
    """Manifold document for m; re-ingesting yields an identical manifold."""
    n = m.dim
    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            vec = m.algebra.c.column(i, j)
            coeffs = {str(k + 1): format_rational(vec[k]) for k in range(n) if vec[k]}
            if coeffs:
                brackets.append({"i": i + 1, "j": j + 1, "coeffs": coeffs})
    matrix_of = lambda t: [[format_rational(t[i, j]) for j in range(n)] for i in range(n)]  # noqa: E731
    return {
        "dim": n,
        "basis": list(m.algebra.basis_labels),
        "brackets": brackets,
        "metric": matrix_of(m.g),
        "P": matrix_of(m.P),
    }


def nonabelian2() -> WManifold:
    """[X1, X2] = X1 + 2 X2, with P the swap of X1 and X2 and g = [[2, 1], [1, 2]].

    Unlike the family, its B = Phi(x, Phi(y, .)) - Phi(y, Phi(x, .)) is nonzero.
    """
    c = from_function(2, (UP, DOWN, DOWN),
                                  lambda k, i, j: Q((1, 2)[k] * ((i, j) == (0, 1))
                                                    - (1, 2)[k] * ((i, j) == (1, 0))))
    return build_manifold(LieAlgebraModel(2, ("X1", "X2"), c),
                          TensorDense.from_matrix([[0, 1], [1, 0]], (UP, DOWN)),
                          TensorDense.from_matrix([[2, 1], [1, 2]], (DOWN, DOWN)))


def pulled_back(m: WManifold, basis: TensorDense) -> WManifold:
    """m in the basis e'_i = sum_a basis[a][i] e_a."""
    n = m.dim
    M = rows_of(basis)
    Minv = matrix_inverse(M)
    c = m.algebra.c
    alg = LieAlgebraModel(n, m.algebra.basis_labels, from_function(
        n, (UP, DOWN, DOWN),
        lambda k, i, j: sum(Minv[k][s] * c[s, a, b] * M[a][i] * M[b][j]
                            for s, a, b in product(range(n), repeat=3))))
    return build_manifold(alg, change_basis_endo(m.P, basis),
                          change_basis_bilinear(m.g, basis))


#: a basis change in which P, g and every bracket of a family point are dense
DENSE_BASIS = TensorDense.from_matrix([[1, 2, -1, Q(1, 2)],
                                       [Q(-1, 3), 1, 3, 1],
                                       [2, -1, 1, 1],
                                       [1, 1, Q(2, 5), -2]], (UP, DOWN))


def fraction_calls(fn, *args):
    """Python-level calls into the fractions module while fn(*args) runs,
    counted by cProfile as the benchmark's scalar.fraction_calls is."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn(*args)
    finally:
        profile.disable()
    return sum(entry.callcount for entry in profile.getstats()
               if getattr(entry.code, "co_filename", None) == fractions.__file__)


# -- the rational reference algebra ------------------------------------------
#
# The engine forms every sum as lincomb or vanishes terms over integer
# numerators.  These operations read each component through t[...] and
# compute with Fractions, one component at a time.

def from_function(dim: int, variance, fn) -> TensorDense:
    """The tensor whose component at each index tuple idx is fn(*idx)."""
    return TensorDense(dim, variance,
                       [fn(*idx) for idx in product(range(dim), repeat=len(variance))])


def _same_shape(a: TensorDense, b: TensorDense) -> None:
    if a.dim != b.dim or a.variance != b.variance:
        raise ValidationError(
            f"shape mismatch: dim {a.dim} {a.variance} vs dim {b.dim} {b.variance}")


def add(a: TensorDense, b: TensorDense) -> TensorDense:
    _same_shape(a, b)
    return TensorDense(a.dim, a.variance, [x + y for x, y in zip(a.data, b.data)])


def sub(a: TensorDense, b: TensorDense) -> TensorDense:
    _same_shape(a, b)
    return TensorDense(a.dim, a.variance, [x - y for x, y in zip(a.data, b.data)])


def neg(t: TensorDense) -> TensorDense:
    return TensorDense(t.dim, t.variance, [-x for x in t.data])


def scale(t: TensorDense, s) -> TensorDense:
    """s t, for any s that rational() takes."""
    s = rational(s)
    return TensorDense(t.dim, t.variance, [s * x for x in t.data])


def tensor_equal(a: TensorDense, b: TensorDense) -> bool:
    """Exact componentwise equality of the rationals; rank or dimension
    mismatch is False."""
    return a.dim == b.dim and a.variance == b.variance and a.data == b.data


def transpose(t: TensorDense, perm) -> TensorDense:
    """Reorder slots by perm: new slot k reads old slot perm[k]."""
    def component(*idx):
        old = [0] * t.nslots
        for k, p in enumerate(perm):
            old[p] = idx[k]
        return t[tuple(old)]
    return from_function(t.dim, tuple(t.variance[p] for p in perm), component)


def slot_map(t: TensorDense, slot: int, mat: TensorDense, transposed: bool = False,
             flag: str | None = None) -> TensorDense:
    """t with mat on one slot: out[.., i, ..] = sum_j mat[i, j] t[.., j, ..],
    or mat[j, i] when transposed.  The slot gets the variance flag, by
    default the one it had.  P substituted into a covariant slot,
    t(.., Px, ..), is slot_map(t, slot, P, True); P applied to a
    contravariant one is slot_map(t, slot, P)."""
    weight = (lambda i, j: mat[j, i]) if transposed else (lambda i, j: mat[i, j])

    def component(*idx):
        return sum((weight(idx[slot], j) * t[idx[:slot] + (j,) + idx[slot + 1:]]
                    for j in range(t.dim)), ZERO)
    variance = list(t.variance)
    variance[slot] = flag or variance[slot]
    return from_function(t.dim, variance, component)


def raise_index(t: TensorDense, slot: int, inverse_metric: TensorDense) -> TensorDense:
    """Raise a slot with the inverse metric; the slot keeps its position."""
    return slot_map(t, slot, inverse_metric, flag=UP)


def lower_index(t: TensorDense, slot: int, metric: TensorDense) -> TensorDense:
    """Lower a slot with the metric; the slot keeps its position."""
    return slot_map(t, slot, metric, flag=DOWN)


def torsion(gamma: TensorDense, alg: LieAlgebraModel) -> TensorDense:
    """T^k_{ij} = Gamma^k_{ij} - Gamma^k_{ji} - c^k_{ij}."""
    return lincomb((1, gamma), (-1, gamma, (0, 2, 1)), (-1, alg.c))
