"""Left-invariant almost paracomplex pseudo-Riemannian structures.

Everything lives at the Lie-algebra level: a basis X_1..X_2n, structure
constants c^k_{ij} with [X_i, X_j] = c^k_{ij} X_k, an endomorphism P with
P^2 = id and tr P = 0, and a compatible metric g(Px, Py) = g(x, y).  The
associated twin metric is g~(x, y) = g(x, Py).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice, product
from typing import Iterator

from .errors import ValidationError, failure_detail, require
from .scalar import Q
from .tensor import DOWN, UP, TensorDense, inverse, lincomb, vanishes


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


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    detail: str = ""

    @classmethod
    def of(cls, name: str, ok, detail: str = "") -> "CheckItem":
        """The item for a check result ok, a bool or a tensor.vanishes()
        residual; a failure carries detail, else what the residual says."""
        return cls(name, bool(ok), "" if ok else detail or failure_detail(ok))


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckItem, ...]

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckItem]:
        return [c for c in self.checks if not c.passed]


#: failing components that validate_lie_algebra formats per axiom; one more
#: item counts the rest, so a dense invalid document is rejected quickly
LISTED_FAILURES = 20


def _failure_items(name: str, failures: Iterator[tuple], describe) -> list[CheckItem]:
    """A failed CheckItem for each of the first LISTED_FAILURES failures,
    with describe(*failure) as its detail, and one counting the rest; a
    passed one if there are none."""
    items = [CheckItem(name, False, describe(*f)) for f in islice(failures, LISTED_FAILURES)]
    rest = sum(1 for _ in failures)
    if rest:
        items.append(CheckItem(name, False, f"and {rest} more failing components"))
    return items or [CheckItem(name, True)]


def validate_lie_algebra(alg: LieAlgebraModel) -> ValidationReport:
    """Check antisymmetry and the Jacobi identity over all basis triples.

    Violations become report entries, not exceptions, so a caller can show
    the first LISTED_FAILURES offending index combinations of each at once.
    """
    n = alg.dim
    den, cd = alg.c.den, alg.c.nums

    # pairs[a][b] lists the nonzero (s, c^s_{ab} * den); a nonzero c^k_{ij}
    # not cancelled by c^k_{ji} breaks antisymmetry at (i, j, k) and (j, i, k)
    pairs = [[[] for _ in range(n)] for _ in range(n)]
    broken = set()
    for p in alg.c.support:
        k, i, j = p // (n * n), p // n % n, p % n
        pairs[i][j].append((k, cd[p]))
        if cd[p] != -cd[(k * n + j) * n + i]:
            broken |= {(i, j, k), (j, i, k)}
    items = _failure_items(
        "antisymmetry", iter(sorted(broken)),
        lambda i, j, k: f"c^{k + 1}_{{{i + 1},{j + 1}}} != -c^{k + 1}_{{{j + 1},{i + 1}}}")
    anti_ok = items[0].passed

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

    jacobi_failures = ((i, j, l, m, v) for i, j, l in triples for m, v in failing(i, j, l))
    items += _failure_items(
        "jacobi", jacobi_failures,
        lambda i, j, l, m, v: f"cyclic sum for (X_{i + 1}, X_{j + 1}, X_{l + 1}) has nonzero "
                              f"X_{m + 1} component {Q(v, den * den)}")
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
    require_lie_algebra(alg)
    return assemble_manifold(alg, P, g, name=name)


def require_lie_algebra(alg: LieAlgebraModel) -> None:
    """Raise ValidationError naming the first failure of
    validate_lie_algebra, if any."""
    report = validate_lie_algebra(alg)
    if not report.valid:
        first = report.failures()[0]
        raise ValidationError(f"invalid Lie algebra: {first.name}: {first.detail}")


@lru_cache(maxsize=None)
def _identity(n: int) -> TensorDense:
    return TensorDense.from_entries(n, (UP, DOWN), {i * (n + 1): 1 for i in range(n)})


def check_inverse(metric: TensorDense, metric_inv: TensorDense, what: str) -> None:
    """Raise ConsistencyError(what) unless metric_inv is the inverse of
    metric, exactly."""
    require(vanishes((1, "im,mj->ij", metric_inv, metric), (-1, _identity(metric.dim))), what)


def assemble_manifold(alg: LieAlgebraModel, P: TensorDense, g: TensorDense,
                      name: str = "manifold") -> WManifold:
    """The part of build_manifold after the Lie algebra is validated:
    the WManifold on alg and the validated_frame(alg.dim, P, g)."""
    return WManifold(alg, *validated_frame(alg.dim, P, g), name=name)


def validated_frame(n: int, P: TensorDense, g: TensorDense) -> tuple[TensorDense, ...]:
    """(P, g, g^-1, g~, g~^-1) for a structure P and metric g on an
    n-dimensional algebra, the fields of a WManifold after its algebra.

    Raises ValidationError naming the first violated axiom: P^2 != id,
    tr P != 0, g not symmetric, g degenerate, or g not P-compatible.
    Every axiom is decided in integers.  g^-1 comes from the fraction-free
    inverse, and g~^-1 = P g^-1 because P^2 = id; both are checked exactly.
    """
    if P.dim != n or P.variance != (UP, DOWN):
        raise ValidationError("P must be a (1,1) tensor of matching dimension")
    if g.dim != n or g.variance != (DOWN, DOWN):
        raise ValidationError("g must be a (0,2) tensor of matching dimension")

    if not vanishes((1, "im,mj->ij", P, P), (-1, _identity(n))):
        raise ValidationError("P^2 is not the identity")
    if sum(P.nums[::n + 1]):
        raise ValidationError("trace of P is not zero")
    if not vanishes((1, g), (-1, g, (1, 0))):
        raise ValidationError("metric is not symmetric")
    g_inv = inverse(g)
    if g_inv is None:
        raise ValidationError("metric is degenerate")
    # twin metric g~(x, y) = g(x, Py); g(Px, Py) = g(x, y) is P^T g~ = g
    g_twin = lincomb((1, "im,mj->ij", g, P))
    compatible = vanishes((1, "ai,aj->ij", P, g_twin), (-1, g))
    if not compatible:
        i, j = divmod(compatible.first_nonzero()[0], n)
        raise ValidationError(
            f"metric is not P-compatible: g(PX_{i + 1},PX_{j + 1}) != g(X_{i + 1},X_{j + 1})")
    g_twin_inv = lincomb((1, "im,mj->ij", P, g_inv))
    check_inverse(g, g_inv, "inverse metric: g^-1 g = I")
    check_inverse(g_twin, g_twin_inv, "inverse twin metric: g~^-1 g~ = I")
    return P, g, g_inv, g_twin, g_twin_inv
