"""Left-invariant almost paracomplex pseudo-Riemannian structures.

Everything lives at the Lie-algebra level: a basis X_1..X_2n, structure
constants c^k_{ij} with [X_i, X_j] = c^k_{ij} X_k, an endomorphism P with
P^2 = id and tr P = 0, and a compatible metric g(Px, Py) = g(x, y).  The
associated twin metric is g~(x, y) = g(x, Py).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ValidationError, failure_detail, require
from .tensor import DOWN, UP, Residual, TensorDense, inverse, lincomb, vanishes


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


def _failure_items(name: str, residual: Residual, describe) -> list[CheckItem]:
    """A failed CheckItem for each of the first LISTED_FAILURES nonzero
    components of residual, with describe(*index, value) as its detail, and
    one counting the rest; a passed one if there are none."""
    nonzero = residual.nonzero()
    items = []
    for p in nonzero[:LISTED_FAILURES]:
        index, value = residual.component(p)
        items.append(CheckItem(name, False, describe(*index, value)))
    if len(nonzero) > LISTED_FAILURES:
        items.append(CheckItem(
            name, False, f"and {len(nonzero) - LISTED_FAILURES} more failing components"))
    return items or [CheckItem(name, True)]


def validate_lie_algebra(alg: LieAlgebraModel) -> ValidationReport:
    """Check antisymmetry and the Jacobi identity over all basis triples.

    Violations become report entries, not exceptions, so a caller can show
    the first LISTED_FAILURES offending index combinations of each at once,
    in row-major order of the residual's indices.
    """
    c = alg.c
    # c^k_{ij} + c^k_{ji} at [i, j, k]
    anti = vanishes((1, c, (1, 2, 0)), (1, c, (2, 1, 0)))
    # [[X_i, X_j], X_l] at [i, j, l, m], and its cyclic sum over (i, j, l)
    cc = lincomb((1, "sij,msl->ijlm", c, c))
    jacobi = vanishes((1, cc), (1, cc, (2, 0, 1, 3)), (1, cc, (1, 2, 0, 3)))
    return ValidationReport(tuple(
        _failure_items("antisymmetry", anti,
                       lambda i, j, k, _: f"c^{k + 1}_{{{i + 1},{j + 1}}} != "
                                          f"-c^{k + 1}_{{{j + 1},{i + 1}}}")
        + _failure_items("jacobi", jacobi,
                         lambda i, j, l, m, v: f"cyclic sum for (X_{i + 1}, X_{j + 1}, "
                                               f"X_{l + 1}) has nonzero X_{m + 1} component {v}")))


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
    if not vanishes((1, "ij,ji->", P, _identity(n))):
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
        (i, j), _ = compatible.component(compatible.nonzero()[0])
        raise ValidationError(
            f"metric is not P-compatible: g(PX_{i + 1},PX_{j + 1}) != g(X_{i + 1},X_{j + 1})")
    g_twin_inv = lincomb((1, "im,mj->ij", P, g_inv))
    check_inverse(g, g_inv, "inverse metric: g^-1 g = I")
    check_inverse(g_twin, g_twin_inv, "inverse twin metric: g~^-1 g~ = I")
    return P, g, g_inv, g_twin, g_twin_inv
