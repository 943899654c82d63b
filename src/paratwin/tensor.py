"""Dense tensors with exact rational components.

A tensor is stored as a flat tuple of rationals, row-major over its index
tuple.  Each slot carries a variance flag, "u" (contravariant) or "d"
(covariant); tensors are built with all contravariant slots first, and
raising or lowering flips the flag of a slot in place, so a raise followed
by a lower of the same slot is the exact identity.

All values are immutable after construction and safe to share.

Sums of products do their arithmetic in Python ints: each operand is
converted once to (den, nums) over the lcm of its denominators
(_as_ints), products and sums accumulate as ints, and one rational is
formed per nonzero output component (_from_ints).  Linear
relations and route formulas take one integer pass too: lincomb builds
sum c T, each term optionally transposed, and vanishes decides sum c T = 0
without forming a rational, describing the first nonzero component when
it is not.  Both visit only the nonzero components of each operand
(_nonzero_ratios).  Every zero output is the shared ZERO, which rational()
also returns for every zero.

The elementwise operators +, -, negation and scale and tensor_equal stay
on rationals.  The engine no longer uses them; the tests keep them as the
reference route.  They skip structural zeros, recognised by identity with
ZERO; identity is only a fast path, and a zero that is another object goes
through the rational arithmetic and still gives the exact result.
transpose only reorders components.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count, product, repeat
from math import lcm
from operator import is_not
from typing import Callable, Iterable, Sequence

from .errors import ValidationError
from .scalar import ZERO, Q, format_rational, rational

UP = "u"
DOWN = "d"


class TensorDense:
    """Dense type-(r,s) tensor over a fixed basis of an even-dimensional space."""

    __slots__ = ("dim", "variance", "data")

    def __init__(self, dim: int, variance: Sequence[str], data: Iterable[Fraction]):
        if dim <= 0 or dim % 2 != 0:
            raise ValidationError(f"tensor dimension must be a positive even integer, got {dim}")
        variance = tuple(variance)
        if any(v not in (UP, DOWN) for v in variance):
            raise ValidationError(f"bad variance mask {variance!r}")
        data = tuple(data)
        if len(data) != dim ** len(variance):
            raise ValidationError(
                f"component count {len(data)} != {dim}^{len(variance)}"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("TensorDense is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def nslots(self) -> int:
        return len(self.variance)

    @property
    def contra_rank(self) -> int:
        return sum(1 for v in self.variance if v == UP)

    @property
    def cov_rank(self) -> int:
        return sum(1 for v in self.variance if v == DOWN)

    def flat(self, idx: Sequence[int]) -> int:
        pos = 0
        for i in idx:
            pos = pos * self.dim + i
        return pos

    def __getitem__(self, idx) -> Fraction:
        if isinstance(idx, int):
            idx = (idx,)
        return self.data[self.flat(idx)]

    def item(self) -> Fraction:
        """The single component of a rank-(0,0) tensor."""
        if self.nslots != 0:
            raise ValidationError("item() requires a rank-(0,0) tensor")
        return self.data[0]

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, dim: int, variance: Sequence[str]) -> "TensorDense":
        return cls(dim, variance, [ZERO] * (dim ** len(variance)))

    @classmethod
    def from_function(cls, dim: int, variance: Sequence[str],
                      fn: Callable[..., Fraction]) -> "TensorDense":
        return cls(dim, variance,
                   [rational(fn(*idx)) for idx in product(range(dim), repeat=len(variance))])

    @classmethod
    def identity(cls, dim: int) -> "TensorDense":
        """Kronecker delta as a (1,1) tensor."""
        return cls.from_function(dim, (UP, DOWN), lambda i, j: Q(i == j))

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence], variance: Sequence[str]) -> "TensorDense":
        dim = len(rows)
        if len(variance) != 2 or any(len(r) != dim for r in rows):
            raise ValidationError("from_matrix needs a square matrix and two slots")
        return cls(dim, variance, [rational(x) for row in rows for x in row])

    def matrix(self) -> list[list[Fraction]]:
        """Two-slot tensor as a nested list, first slot indexing rows."""
        if self.nslots != 2:
            raise ValidationError("matrix() requires exactly two slots")
        n = self.dim
        return [list(self.data[i * n:(i + 1) * n]) for i in range(n)]

    # -- algebra -----------------------------------------------------------

    def _check_same_shape(self, other: "TensorDense"):
        if self.dim != other.dim or self.variance != other.variance:
            raise ValidationError(
                f"shape mismatch: dim {self.dim} {self.variance} vs dim {other.dim} {other.variance}")

    # A structural zero passes through instead of entering rational
    # arithmetic: on sparse tensors most components are 0 + 0 or s * 0.

    def __add__(self, other: "TensorDense") -> "TensorDense":
        self._check_same_shape(other)
        return TensorDense(self.dim, self.variance,
                           [b if a is ZERO else a if b is ZERO else a + b or ZERO
                            for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "TensorDense") -> "TensorDense":
        self._check_same_shape(other)
        return TensorDense(self.dim, self.variance,
                           [a if b is ZERO else -b if a is ZERO else a - b or ZERO
                            for a, b in zip(self.data, other.data)])

    def __neg__(self) -> "TensorDense":
        return TensorDense(self.dim, self.variance,
                           [a if a is ZERO else -a for a in self.data])

    def scale(self, s) -> "TensorDense":
        s = rational(s)
        if s is ZERO:
            return TensorDense.zeros(self.dim, self.variance)
        return TensorDense(self.dim, self.variance,
                           [a if a is ZERO else s * a for a in self.data])

    def is_zero(self) -> bool:
        return all(a is ZERO or not a for a in self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorDense):
            return NotImplemented
        return (self.dim == other.dim and self.variance == other.variance
                and self.data == other.data)

    def __hash__(self):
        return hash((self.dim, self.variance, self.data))

    def __repr__(self):
        return f"TensorDense(dim={self.dim}, variance={''.join(self.variance)})"


def tensor_equal(a: TensorDense, b: TensorDense) -> bool:
    """Exact componentwise equality; rank or dimension mismatch is False."""
    if a.dim != b.dim or a.variance != b.variance:
        return False
    return a.data == b.data


def contract(t: TensorDense, slot_a: int, slot_b: int) -> TensorDense:
    """Einstein summation over a contravariant/covariant slot pair.

    slot_a must be contravariant and slot_b covariant; pairing two slots of
    the same variance has no basis-independent meaning and is rejected.
    """
    n = t.nslots
    if not (0 <= slot_a < n and 0 <= slot_b < n):
        raise ValidationError(f"contraction slots ({slot_a}, {slot_b}) out of range for {n} slots")
    if slot_a == slot_b:
        raise ValidationError("contraction slots must be distinct")
    if t.variance[slot_a] != UP or t.variance[slot_b] != DOWN:
        raise ValidationError(
            "contract pairs one contravariant and one covariant slot "
            f"(got {t.variance[slot_a]!r} at {slot_a}, {t.variance[slot_b]!r} at {slot_b})")
    keep = [k for k in range(n) if k not in (slot_a, slot_b)]
    variance = tuple(t.variance[k] for k in keep)
    data = t.data
    out = [ZERO] * t.dim ** len(keep)
    for src, dst in _diagonal_map(t.dim, n, slot_a, slot_b):
        v = data[src]
        if v is not ZERO:
            o = out[dst]
            out[dst] = v if o is ZERO else o + v or ZERO
    return TensorDense(t.dim, variance, out)


_DIAGONAL_MAPS: dict[tuple, tuple] = {}


def _diagonal_map(dim: int, nslots: int, slot_a: int, slot_b: int) -> tuple:
    """(flat source, flat target) for each index whose slot_a and slot_b
    entries agree; the target position drops both slots.  Cached."""
    key = (dim, nslots, slot_a, slot_b)
    cached = _DIAGONAL_MAPS.get(key)
    if cached is None:
        pairs = []
        for src, idx in enumerate(product(range(dim), repeat=nslots)):
            if idx[slot_a] == idx[slot_b]:
                dst = 0
                for k, i in enumerate(idx):
                    if k != slot_a and k != slot_b:
                        dst = dst * dim + i
                pairs.append((src, dst))
        cached = _DIAGONAL_MAPS[key] = tuple(pairs)
    return cached


def _nonzero_ratios(data: Sequence[Fraction]) -> tuple[int, list[tuple[int, int]]]:
    """(den, entries): entries lists (p, num) for each nonzero data[p], with
    data[p] == num / den and den the lcm of their denominators.  Positions
    holding the shared ZERO are skipped without a Python-level step."""
    ratios = [(p, data[p].as_integer_ratio())
              for p in compress(count(), map(is_not, data, repeat(ZERO)))]
    den = lcm(*{d for _, (_, d) in ratios})
    return den, [(p, a * (den // d)) for p, (a, d) in ratios if a]


def _as_ints(data: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(den, nums) with data[p] == nums[p] / den, den the lcm of the
    denominators; every zero, the shared ZERO or not, becomes 0."""
    den, entries = _nonzero_ratios(data)
    nums = [0] * len(data)
    for p, a in entries:
        nums[p] = a
    return den, nums


def _from_ints(nums: Sequence[int], den: int) -> list[Fraction]:
    """The rationals nums[p] / den, with the shared ZERO for each 0."""
    out = [ZERO] * len(nums)
    for p in compress(count(), nums):
        out[p] = Q(nums[p], den)
    return out


def _slot_map(t: TensorDense, slot: int, mat: TensorDense, transposed: bool) -> list:
    """Components of t after a linear map acts on one slot.

    Each t[.., j, ..] adds mat[i, j] * t[.., j, ..] (mat[j, i] when
    transposed) to out[.., i, ..].  Only the nonzero components of t and
    of mat are visited.
    """
    n = t.dim
    stride = n ** (t.nslots - 1 - slot)
    mden, m = _as_ints(mat.data)
    cols = [[(i * stride, w) for i in range(n)
             if (w := m[j * n + i] if transposed else m[i * n + j])] for j in range(n)]
    den, entries = _nonzero_ratios(t.data)
    out = [0] * len(t.data)
    for p, v in entries:
        j = p // stride % n
        base = p - j * stride
        for shift, w in cols[j]:
            out[base + shift] += w * v
    return _from_ints(out, den * mden)


# -- linear combinations -----------------------------------------------------
#
# A term is (c, T) for c T or (c, T, perm) for c transpose(T, perm); c is an
# int or a rational.  Every term must have the shape of the first.

def _accumulate(terms) -> tuple[int, tuple, int, list[int]]:
    """(dim, variance, den, acc) with sum c T == acc[p] / den at each p.

    Each distinct tensor is read once, and terms naming the same tensor and
    permutation add their coefficients first.
    """
    shape = None
    coefs: dict[tuple, list] = {}       # (id(T), perm) -> [T, perm, sum of c]
    for c, t, *perm in terms:
        variance = t.variance
        if perm:
            perm = tuple(perm[0])
            if sorted(perm) != list(range(t.nslots)):
                raise ValidationError(f"{perm!r} is not a permutation of the slots")
            variance = tuple(variance[k] for k in perm)
        else:
            perm = None
        if shape is None:
            shape = (t.dim, variance)
        elif shape != (t.dim, variance):
            raise ValidationError(
                f"shape mismatch: dim {shape[0]} {shape[1]} vs dim {t.dim} {variance}")
        c = rational(c)
        entry = coefs.get((id(t), perm))
        if entry is None:
            coefs[id(t), perm] = [t, perm, c]
        else:
            entry[2] += c
    if shape is None:
        raise ValidationError("a linear combination needs at least one term")
    ratios: dict[int, tuple] = {}       # id(T) -> _nonzero_ratios(T.data)
    parts = []
    for t, perm, c in coefs.values():
        if not c:
            continue
        if id(t) not in ratios:
            ratios[id(t)] = _nonzero_ratios(t.data)
        tden, entries = ratios[id(t)]
        if entries:
            cn, cd = c.as_integer_ratio()
            # the flat target position of each flat source position, from the
            # map of the inverse permutation
            where = None if perm is None else _transpose_map(
                t.dim, t.nslots, tuple(perm.index(k) for k in range(len(perm))))
            parts.append((cn, cd * tden, entries, where))
    dim, variance = shape
    den = lcm(*{d for _, d, _, _ in parts})
    acc = [0] * dim ** len(variance)
    for cn, d, entries, where in parts:
        s = cn * (den // d)
        if where is None:
            for p, a in entries:
                acc[p] += s * a
        else:
            for p, a in entries:
                acc[where[p]] += s * a
    return dim, variance, den, acc


def lincomb(*terms) -> TensorDense:
    """The tensor sum c T over terms (c, T) or (c, T, perm), in one integer
    pass; a term with perm contributes c transpose(T, perm)."""
    dim, variance, den, acc = _accumulate(terms)
    return TensorDense(dim, variance, _from_ints(acc, den))


class Residual:
    """What vanishes() found: true exactly when the combination is zero.

    str() of a nonzero residual names its first nonzero component by
    1-based index tuple, gives its value and counts the nonzero
    components; nothing is formatted until it is asked for.
    """

    __slots__ = ("dim", "nslots", "den", "acc")

    def __init__(self, dim: int, nslots: int, den: int, acc: list[int]):
        self.dim, self.nslots, self.den, self.acc = dim, nslots, den, acc

    def __bool__(self) -> bool:
        return self.acc.count(0) == len(self.acc)

    def __str__(self) -> str:
        nonzero = list(compress(count(), self.acc))
        p = nonzero[0]
        index = ", ".join(str(p // self.dim ** k % self.dim + 1)
                          for k in reversed(range(self.nslots)))
        return (f"first nonzero residual at ({index}) is "
                f"{format_rational(Q(self.acc[p], self.den))}; "
                f"{len(nonzero)} of {len(self.acc)} components differ")


def vanishes(*terms) -> Residual:
    """Decide sum c T = 0 over terms as for lincomb, without forming a
    rational; the Residual is true when the sum is zero."""
    dim, variance, den, acc = _accumulate(terms)
    return Residual(dim, len(variance), den, acc)


def _metric_apply(t: TensorDense, slot: int, mat: TensorDense, want: str) -> TensorDense:
    if not (0 <= slot < t.nslots):
        raise ValidationError(f"slot {slot} out of range")
    if mat.dim != t.dim or mat.nslots != 2:
        raise ValidationError("metric tensor must be a two-slot tensor of matching dimension")
    variance = list(t.variance)
    variance[slot] = want
    return TensorDense(t.dim, variance, _slot_map(t, slot, mat, False))


def raise_index(t: TensorDense, slot: int, inverse_metric: TensorDense) -> TensorDense:
    """Raise a covariant slot with the inverse metric; the slot keeps its position."""
    if t.variance[slot] != DOWN:
        raise ValidationError(f"slot {slot} is not covariant")
    return _metric_apply(t, slot, inverse_metric, UP)


def lower_index(t: TensorDense, slot: int, metric: TensorDense) -> TensorDense:
    """Lower a contravariant slot with the metric; the slot keeps its position."""
    if t.variance[slot] != UP:
        raise ValidationError(f"slot {slot} is not contravariant")
    return _metric_apply(t, slot, metric, DOWN)


_TRANSPOSE_MAPS: dict[tuple, tuple] = {}


def _transpose_map(dim: int, nslots: int, perm: tuple) -> tuple:
    """Flat source position for each flat target position, cached."""
    key = (dim, nslots, perm)
    cached = _TRANSPOSE_MAPS.get(key)
    if cached is None:
        strides = [dim ** (nslots - 1 - k) for k in range(nslots)]
        cached = tuple(
            sum(strides[p] * i for p, i in zip(perm, idx))
            for idx in product(range(dim), repeat=nslots))
        _TRANSPOSE_MAPS[key] = cached
    return cached


def transpose(t: TensorDense, perm: Sequence[int]) -> TensorDense:
    """Reorder slots by perm: new slot k reads old slot perm[k]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(t.nslots)):
        raise ValidationError(f"{perm!r} is not a permutation of the slots")
    variance = tuple(t.variance[p] for p in perm)
    data = t.data
    out = [data[i] for i in _transpose_map(t.dim, t.nslots, perm)]
    return TensorDense(t.dim, variance, out)


def apply_endo(t: TensorDense, slot: int, endo: TensorDense) -> TensorDense:
    """Plug an endomorphism into one slot of a tensor.

    For a covariant slot this substitutes the argument, t'(.., x, ..) =
    t(.., Ex, ..); for a contravariant slot it post-composes the output
    with E.  Variance is unchanged.
    """
    if not (0 <= slot < t.nslots):
        raise ValidationError(f"slot {slot} out of range")
    if endo.dim != t.dim or endo.variance != (UP, DOWN):
        raise ValidationError("endomorphism must be a (1,1) tensor of matching dimension")
    return TensorDense(t.dim, t.variance, _slot_map(t, slot, endo, t.variance[slot] == DOWN))


# -- exact matrix helpers --------------------------------------------------

def matrix_inverse(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]] | None:
    """Gauss-Jordan inverse over the rationals; None if singular."""
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


def matrix_determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    n = len(rows)
    a = [list(r) for r in rows]
    det = Q(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        p = a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] / p
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def symmetric_signature(rows: Sequence[Sequence[Fraction]]) -> tuple[int, int, int]:
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
