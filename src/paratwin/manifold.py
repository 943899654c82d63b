"""Left-invariant almost paracomplex pseudo-Riemannian structures.

Everything lives at the Lie-algebra level: a basis X_1..X_2n, structure
constants c^k_{ij} with [X_i, X_j] = c^k_{ij} X_k, an endomorphism P with
P^2 = id and tr P = 0, and a compatible metric g(Px, Py) = g(x, y).  The
associated twin metric is g~(x, y) = g(x, Py).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .errors import ValidationError
from .scalar import ZERO, Q
from .tensor import (DOWN, UP, TensorDense, _as_ints, matrix_determinant,
                     matrix_inverse, symmetric_signature)


@dataclass(frozen=True)
class LieAlgebraModel:
    """Lie algebra given by structure constants over a fixed basis.

    c is a (1,2) tensor with c[k, i, j] = c^k_{ij}.
    """
    dim: int
    basis_labels: tuple[str, ...]
    c: TensorDense

    def __post_init__(self):
        if self.dim <= 0 or self.dim % 2 != 0:
            raise ValidationError(f"algebra dimension must be even and positive, got {self.dim}")
        if len(self.basis_labels) != self.dim:
            raise ValidationError("basis label count does not match dimension")
        if self.c.dim != self.dim or self.c.variance != (UP, DOWN, DOWN):
            raise ValidationError("structure constants must form a (1,2) tensor of matching dimension")

    def bracket(self, i: int, j: int) -> list[Fraction]:
        """Components of [X_i, X_j] in the basis."""
        n = self.dim
        return list(self.c.data[i * n + j::n * n])

    def bracket_of(self, x: list[Fraction], y: list[Fraction]) -> list[Fraction]:
        """[x, y] for arbitrary coefficient vectors x, y."""
        n = self.dim
        out = [ZERO] * n
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                if not y[j]:
                    continue
                s = x[i] * y[j]
                for k, v in enumerate(self.bracket(i, j)):
                    if v:
                        out[k] += s * v
        return out


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckItem, ...]

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckItem]:
        return [c for c in self.checks if not c.passed]


def validate_lie_algebra(alg: LieAlgebraModel) -> ValidationReport:
    """Check antisymmetry and the Jacobi identity over all basis triples.

    Violations become report entries, not exceptions, so a caller can show
    every offending index combination at once.
    """
    n = alg.dim
    n2 = n * n
    den, cd = _as_ints(alg.c.data)
    items: list[CheckItem] = []
    anti_ok = True
    for i, j, k in product(range(n), repeat=3):
        a, b = cd[k * n2 + i * n + j], cd[k * n2 + j * n + i]
        if (a or b) and a != -b:
            anti_ok = False
            items.append(CheckItem(
                "antisymmetry", False,
                f"c^{k + 1}_{{{i + 1},{j + 1}}} != -c^{k + 1}_{{{j + 1},{i + 1}}}"))
    if anti_ok:
        items.append(CheckItem("antisymmetry", True))

    # pairs[a][b] lists the nonzero (s, c^s_{ab} * den)
    pairs = [[[(s, v) for s, v in enumerate(cd[a * n + b::n2]) if v] for b in range(n)]
             for a in range(n)]

    def cyclic_sum(i: int, j: int, l: int) -> list[tuple[int, int]]:
        """Nonzero components, by index and times den^2, of [[X_i,X_j],X_l]
        + [[X_j,X_l],X_i] + [[X_l,X_i],X_j]."""
        total: dict[int, int] = {}
        for a, b, c_ in ((i, j, l), (j, l, i), (l, i, j)):
            for s, v in pairs[a][b]:
                for m, w in pairs[s][c_]:
                    total[m] = total.get(m, 0) + v * w
        return [(m, total[m]) for m in sorted(total) if total[m]]

    if anti_ok:
        # the cyclic sum is then alternating in (i, j, l): it vanishes on a
        # repeated index and changes sign under a transposition, so it is
        # computed on i < j < l only
        sums = {t: comps for t in combinations(range(n), 3) if (comps := cyclic_sum(*t))}
        triples = product(range(n), repeat=3) if sums else ()

        def failing(i: int, j: int, l: int) -> list[tuple[int, int]]:
            comps = sums.get(tuple(sorted((i, j, l))), [])
            if (i < j) + (j < l) + (l < i) == 2:     # an even permutation
                return comps
            return [(m, -v) for m, v in comps]
    else:
        triples, failing = product(range(n), repeat=3), cyclic_sum

    jacobi_ok = True
    for i, j, l in triples:
        for m, v in failing(i, j, l):
            jacobi_ok = False
            items.append(CheckItem(
                "jacobi", False,
                f"cyclic sum for (X_{i + 1}, X_{j + 1}, X_{l + 1}) has nonzero "
                f"X_{m + 1} component {Q(v, den * den)}"))
    if jacobi_ok:
        items.append(CheckItem("jacobi", True))
    return ValidationReport(tuple(items))


@dataclass(frozen=True)
class WManifold:
    """Lie algebra + paracomplex structure P + compatible metric g,
    with the twin metric and both inverses precomputed."""
    algebra: LieAlgebraModel
    P: TensorDense
    g: TensorDense
    g_inv: TensorDense
    g_twin: TensorDense
    g_twin_inv: TensorDense
    name: str = "manifold"

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def apply_P(self, x: list[Fraction]) -> list[Fraction]:
        n = self.dim
        rows = self.P.matrix()
        return [sum((rows[k][i] * x[i] for i in range(n) if x[i] and rows[k][i]), ZERO)
                for k in range(n)]

    def twin_view(self) -> "WManifold":
        """The same algebra and P with g and g~ swapped."""
        return WManifold(self.algebra, self.P,
                         self.g_twin, self.g_twin_inv, self.g, self.g_inv,
                         name=self.name + "~")


def build_manifold(alg: LieAlgebraModel, P: TensorDense, g: TensorDense,
                   name: str = "manifold") -> WManifold:
    """Assemble and fully validate a WManifold.

    Raises ValidationError naming the first violated axiom: the Lie algebra
    axioms, then those checked by assemble_manifold.
    """
    report = validate_lie_algebra(alg)
    if not report.valid:
        first = report.failures()[0]
        raise ValidationError(f"invalid Lie algebra: {first.name}: {first.detail}")
    return assemble_manifold(alg, P, g, name=name)


def assemble_manifold(alg: LieAlgebraModel, P: TensorDense, g: TensorDense,
                      name: str = "manifold") -> WManifold:
    """The part of build_manifold after the Lie algebra is validated.

    Raises ValidationError naming the first violated axiom: P^2 != id,
    tr P != 0, g not symmetric, g degenerate, or g not P-compatible.
    """
    n = alg.dim
    if P.dim != n or P.variance != (UP, DOWN):
        raise ValidationError("P must be a (1,1) tensor of matching dimension")
    if g.dim != n or g.variance != (DOWN, DOWN):
        raise ValidationError("g must be a (0,2) tensor of matching dimension")

    Pm = P.matrix()
    gm = g.matrix()

    Pcols = [[(a, Pm[a][j]) for a in range(n) if Pm[a][j]] for j in range(n)]
    p2 = [[sum((Pm[i][k] * v for k, v in Pcols[j] if Pm[i][k]), ZERO) for j in range(n)]
          for i in range(n)]
    if any(p2[i][j] != Q(i == j) for i in range(n) for j in range(n)):
        raise ValidationError("P^2 is not the identity")
    if sum(Pm[i][i] for i in range(n)):
        raise ValidationError("trace of P is not zero")
    if any(gm[i][j] != gm[j][i] for i in range(n) for j in range(n)):
        raise ValidationError("metric is not symmetric")
    if not matrix_determinant(gm):
        raise ValidationError("metric is degenerate")
    # g(Px, Py) = g(x, y) on basis pairs: P^T g P = g
    for i, j in product(range(n), repeat=2):
        lhs = sum((pa * gm[a][b] * pb for a, pa in Pcols[i] for b, pb in Pcols[j]), ZERO)
        if lhs != gm[i][j]:
            raise ValidationError(
                f"metric is not P-compatible: g(PX_{i + 1},PX_{j + 1}) != g(X_{i + 1},X_{j + 1})")

    # twin metric g~(x, y) = g(x, Py)
    twin = [[sum((gm[i][a] * v for a, v in Pcols[j]), ZERO) for j in range(n)]
            for i in range(n)]
    g_twin = TensorDense.from_matrix(twin, (DOWN, DOWN))
    g_inv = TensorDense.from_matrix(matrix_inverse(gm), (UP, UP))
    twin_inv = matrix_inverse(twin)
    if twin_inv is None:
        raise ValidationError("twin metric is degenerate")
    g_twin_inv = TensorDense.from_matrix(twin_inv, (UP, UP))
    return WManifold(alg, P, g, g_inv, g_twin, g_twin_inv, name=name)


def eigenbasis(m: WManifold) -> TensorDense:
    """Change of basis diagonalizing P when P swaps basis vectors in pairs.

    Returns the matrix whose columns are the unnormalized eigenvectors
    a_{2k-1} = X_{2k-1} - X_{2k}, a_{2k} = X_{2k-1} + X_{2k} (the 1/sqrt(2)
    normalization is dropped to stay rational).  In the new basis P is
    diagonal with entries alternating -1, +1.
    """
    n = m.dim
    Pm = m.P.matrix()
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


def change_basis_bilinear(form: TensorDense, basis: TensorDense) -> TensorDense:
    """Pull a (0,2) form back along a basis-change matrix: M^T form M."""
    n = form.dim
    fm = form.matrix()
    bm = basis.matrix()
    out = [[sum(bm[a][i] * fm[a][b] * bm[b][j]
                for a in range(n) for b in range(n) if bm[a][i] and bm[b][j])
            for j in range(n)] for i in range(n)]
    return TensorDense.from_matrix(out, (DOWN, DOWN))


def change_basis_endo(endo: TensorDense, basis: TensorDense) -> TensorDense:
    """Conjugate a (1,1) tensor by a basis-change matrix: M^-1 endo M."""
    n = endo.dim
    em = endo.matrix()
    bm = basis.matrix()
    binv = matrix_inverse(bm)
    if binv is None:
        raise ValidationError("basis-change matrix is singular")
    tmp = [[sum(em[i][a] * bm[a][j] for a in range(n)) for j in range(n)] for i in range(n)]
    out = [[sum(binv[i][a] * tmp[a][j] for a in range(n)) for j in range(n)] for i in range(n)]
    return TensorDense.from_matrix(out, (UP, DOWN))


def metric_signature(g: TensorDense) -> tuple[int, int]:
    """(positive, negative) inertia of a non-degenerate symmetric form."""
    pos, neg, zero = symmetric_signature(g.matrix())
    if zero:
        raise ValidationError("form is degenerate")
    return pos, neg


def abelian_manifold(dim: int = 4, name: str = "abelian") -> WManifold:
    """Flat reference manifold: Abelian algebra, pair-swap P, g = diag(1,..,-1,..)."""
    labels = tuple(f"X{i + 1}" for i in range(dim))
    alg = LieAlgebraModel(dim, labels, TensorDense.zeros(dim, (UP, DOWN, DOWN)))
    P = TensorDense.from_function(dim, (UP, DOWN),
                                  lambda i, j: Q(i == j + 1 and j % 2 == 0 or j == i + 1 and i % 2 == 0))
    half = dim // 2
    g = TensorDense.from_function(dim, (DOWN, DOWN),
                                  lambda i, j: Q(0) if i != j else (Q(1) if i < half else Q(-1)))
    return build_manifold(alg, P, g, name=name)


def direct_sum(m1: WManifold, m2: WManifold, name: str | None = None) -> WManifold:
    """Blockwise direct sum of two manifolds.

    Structure constants, P and g are block-diagonal, so Jacobi and every
    structural axiom hold automatically; used to grow the test corpus
    beyond dimension 4.
    """
    n1, n2 = m1.dim, m2.dim
    n = n1 + n2
    labels = tuple(f"A{i + 1}" for i in range(n1)) + tuple(f"B{i + 1}" for i in range(n2))

    def block3(t1: TensorDense, t2: TensorDense):
        def fn(k, i, j):
            if k < n1 and i < n1 and j < n1:
                return t1[k, i, j]
            if k >= n1 and i >= n1 and j >= n1:
                return t2[k - n1, i - n1, j - n1]
            return ZERO
        return TensorDense.from_function(n, (UP, DOWN, DOWN), fn)

    def block2(t1: TensorDense, t2: TensorDense, variance):
        def fn(i, j):
            if i < n1 and j < n1:
                return t1[i, j]
            if i >= n1 and j >= n1:
                return t2[i - n1, j - n1]
            return ZERO
        return TensorDense.from_function(n, variance, fn)

    alg = LieAlgebraModel(n, labels, block3(m1.algebra.c, m2.algebra.c))
    P = block2(m1.P, m2.P, (UP, DOWN))
    g = block2(m1.g, m2.g, (DOWN, DOWN))
    return build_manifold(alg, P, g, name=name or f"{m1.name}(+){m2.name}")
