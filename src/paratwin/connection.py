"""Affine connections on a Lie algebra with invariant metrics.

For left-invariant vector fields every scalar derivative term vanishes, so
the Koszul formula collapses to the three bracket terms:

    2 g(nabla_{X_i} X_j, X_k) = g([X_i,X_j],X_k) + g([X_k,X_i],X_j) + g([X_k,X_j],X_i)

and connection coefficients are constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError, require
from .manifold import LieAlgebraModel
from .scalar import ZERO, Q
from .tensor import (DOWN, UP, TensorDense, _as_ints, _from_ints, lincomb,
                     vanishes)


@dataclass(frozen=True)
class Connection:
    """Connection coefficients: nabla_{X_i} X_j = Gamma^k_{ij} X_k.

    gamma is a (1,2) tensor indexed [k, i, j].
    """
    dim: int
    gamma: TensorDense

    def __post_init__(self):
        if self.gamma.dim != self.dim or self.gamma.variance != (UP, DOWN, DOWN):
            raise ValidationError("connection coefficients must form a (1,2) tensor")

    def derive(self, i: int, j: int) -> list[Fraction]:
        """Components of nabla_{X_i} X_j."""
        n = self.dim
        return list(self.gamma.data[i * n + j::n * n])

    def derive_vector(self, i: int, y: list[Fraction]) -> list[Fraction]:
        """nabla_{X_i} y for a constant coefficient vector y."""
        n = self.dim
        out = [ZERO] * n
        for j in range(n):
            if not y[j]:
                continue
            for k, v in enumerate(self.derive(i, j)):
                if v:
                    out[k] += y[j] * v
        return out

    def average(self, other: "Connection") -> "Connection":
        half = Q(1, 2)
        return Connection(self.dim, lincomb((half, self.gamma), (half, other.gamma)))


def koszul(alg: LieAlgebraModel, metric: TensorDense, metric_inv: TensorDense) -> Connection:
    """Levi-Civita connection of an invariant metric via the Koszul formula.

    Post-checks zero torsion and nabla(metric) = 0 exactly; a failure here
    means the inputs are inconsistent and raises ConsistencyError.
    """
    n = alg.dim
    n2 = n * n
    cden, cd = _as_ints(alg.c.data)
    gden, gm = _as_ints(metric.data)
    hden, ginv = _as_ints(metric_inv.data)

    # lowered brackets C[(i, j)][k] = g([X_i, X_j], X_k) * cden * gden,
    # nonzero entries only
    lowered: dict[tuple[int, int], dict[int, int]] = {}
    for p, v in enumerate(cd):
        if v:
            a, ij = divmod(p, n2)
            row = lowered.setdefault(divmod(ij, n), {})
            for k in range(n):
                if w := gm[a * n + k]:
                    row[k] = row.get(k, 0) + v * w
    # rhs[(i, j)][k] = g([X_i,X_j],X_k) + g([X_k,X_i],X_j) + g([X_k,X_j],X_i)
    rhs: dict[tuple[int, int], dict[int, int]] = {}
    for (a, b), row in lowered.items():
        for c, v in row.items():
            for key, k in (((a, b), c), ((b, c), a), ((c, b), a)):
                out = rhs.setdefault(key, {})
                out[k] = out.get(k, 0) + v
    nums = [0] * n ** 3
    for (i, j), row in rhs.items():
        for l in range(n):
            nums[l * n2 + i * n + j] = sum(ginv[l * n + k] * w for k, w in row.items())
    data = _from_ints(nums, 2 * cden * gden * hden)
    conn = Connection(n, TensorDense(n, (UP, DOWN, DOWN), data))

    require(vanishes(*_torsion_terms(conn, alg)), "Koszul output has torsion")
    require(vanishes((1, covariant_derivative(conn, metric))),
            "Koszul output is not metric-compatible")
    return conn


def _torsion_terms(conn: Connection, alg: LieAlgebraModel) -> tuple:
    if conn.dim != alg.dim:
        raise ValidationError("connection and algebra dimensions differ")
    return (1, conn.gamma), (-1, conn.gamma, (0, 2, 1)), (-1, alg.c)


def torsion(conn: Connection, alg: LieAlgebraModel) -> TensorDense:
    """T^k_{ij} = Gamma^k_{ij} - Gamma^k_{ji} - c^k_{ij}."""
    return lincomb(*_torsion_terms(conn, alg))


def covariant_derivative(conn: Connection, t: TensorDense) -> TensorDense:
    """Covariant derivative of an invariant tensor; differentiation slot last.

    On left-invariant components the scalar derivative term is zero, so
    only the connection action on each slot remains.
    """
    if t.nslots == 0:
        raise ValidationError("covariant derivative of a scalar is not defined here")
    if t.dim != conn.dim:
        raise ValidationError("connection and tensor dimensions differ")
    n = t.dim
    n2 = n * n
    nslots = t.nslots
    gden, g = _as_ints(conn.gamma.data)
    tden, nums = _as_ints(t.data)
    # terms[a] lists the nonzero (b, i, w): a component with value a in one
    # slot adds w times itself to the output with b in that slot and the
    # derivative index i; w = Gamma^b_{ia} on a contravariant slot and
    # w = -Gamma^a_{ib} on a covariant one
    up_terms = [[(b, i, w) for b in range(n) for i in range(n)
                 if (w := g[b * n2 + i * n + a])] for a in range(n)]
    down_terms = [[(b, i, -w) for b in range(n) for i in range(n)
                   if (w := g[a * n2 + i * n + b])] for a in range(n)]
    in_strides = [n ** (nslots - 1 - k) for k in range(nslots)]
    out = [0] * n ** (nslots + 1)
    for p, v in enumerate(nums):
        if not v:
            continue
        base = p * n                    # output index (.., i) with i last
        for var, s in zip(t.variance, in_strides):
            a = p // s % n
            root = base - s * n * a
            for b, i, w in (up_terms if var == UP else down_terms)[a]:
                out[root + s * n * b + i] += w * v
    return TensorDense(n, tuple(t.variance) + (DOWN,), _from_ints(out, gden * tden))


def curvature_operator(conn: Connection, alg: LieAlgebraModel) -> TensorDense:
    """(1,3) curvature of an invariant connection, indexed [l, i, j, k]:

        R(X_i, X_j) X_k = R^l_{ijk} X_l
                        = nabla_i nabla_j X_k - nabla_j nabla_i X_k - nabla_{[X_i,X_j]} X_k.
    """
    n = conn.dim
    n2, n3 = n * n, n ** 3
    # Gamma and c over one common denominator, so every product below has
    # denominator den^2
    size = len(conn.gamma.data)
    den, nums = _as_ints(conn.gamma.data + alg.c.data)
    g, c = nums[:size], nums[size:]
    # by_pair[i][m] lists the nonzero (l n^3, Gamma^l_{im})
    by_pair = [[[(l * n3, w) for l in range(n) if (w := g[l * n2 + i * n + m])]
                for m in range(n)] for i in range(n)]
    out = [0] * n ** 4
    for p, w in enumerate(g):
        if not w:
            continue
        m, jk = divmod(p, n2)
        j, k = divmod(jk, n)
        for i in range(n):
            if i == j:
                continue
            # Gamma^m_{jk} Gamma^l_{im} enters R^l_{ijk} with + and, with i
            # and j swapped, R^l_{jik} with -
            for lpos, v in by_pair[i][m]:
                x = w * v
                out[lpos + i * n2 + jk] += x
                out[lpos + j * n2 + i * n + k] -= x
    for p, w in enumerate(c):
        if not w:
            continue
        m, ij = divmod(p, n2)
        i, j = divmod(ij, n)
        if i == j:
            continue
        # -c^m_{ij} Gamma^l_{mk}
        for k in range(n):
            for lpos, v in by_pair[m][k]:
                out[lpos + ij * n + k] -= w * v
    return TensorDense(n, (UP, DOWN, DOWN, DOWN), _from_ints(out, den * den))
