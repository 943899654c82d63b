"""Dense tensors with exact rational components, stored as integers.

A tensor holds one positive denominator den and a list nums of integer
numerators, row-major over its index tuple: component p is nums[p] / den.
The pair is reduced, gcd(den, *nums) == 1, so equal tensors have equal
storage however they were built; the zero tensor has den 1.  Each slot
carries a variance flag, "u" (contravariant) or "d" (covariant); tensors
are built with all contravariant slots first.  All values are immutable
after construction and safe to share; nums is never mutated.  support lists
the positions of the nonzero numerators, found once at construction, so
the kernels visit only those.  A tensor that lincomb accumulated in a
dict (see below) takes the dict's sorted nonzero keys.  Any other is
read off one module-level tuple of positions 0, 1, 2, ... by compress,
which stops at the shorter input, so one tuple serves every tensor; it
is rebuilt only when a longer tensor arrives and is as long as the
longest tensor scanned (about 0.74 MB at dimension 12, rank 4).
Iterating a fresh range instead would create a new int object for
every position above 256.

Rationals appear only at the edges.  TensorDense(dim, variance, data),
from_matrix and from_entries take rationals and convert them once;
t[idx], item(), column() and data give rationals back, with the shared
ZERO for each zero.  Everything in between is integer arithmetic.

Every sum of products is a term of lincomb (which builds it) or vanishes
(which decides that it is zero without forming a rational):

    (c, T)                  c T
    (c, T, perm)            c T with old slot perm[k] moved to slot k
    (c, spec, A, B)         c times the product of A and B by an einsum
                            spec such as "kxm,myz->kxyz"

A product sums over every letter shared by the two operands, none, one
or several; its output letters are the other letters in any order, and
each output slot keeps the variance its letter has in its operand.  All
terms accumulate into one integer accumulator over the lcm of their
denominators, and only the nonzero components of each operand are
visited.  The accumulator is a list of every output component, or a
dict from flat position to value when the output has at least 1024
components and the terms' nonzero work is small beside that; then
lincomb takes its support from the dict's keys and vanishes decides
from its values, so neither allocates or scans a list of dim^rank
components.  The rule and its measured costs are at _accumulate; every
output of a dimension-4 tensor (at most 256 components) takes the
list.  Each coefficient is read once, as an integer ratio.  Where a
component of a permuted tensor or of a product operand lands, and which
summed indices it has, is one lookup in a flat table per placement (see
_placement).

A map on one slot is a product term written where it is used: P
substituted into a covariant slot is "mx,myz->xyz" (P, T), P applied to
a contravariant slot "km,m->k" (P, v), and an index raised with g^-1
"km,m->k" (g^-1, w).  Each output slot keeps its operand's flag, so P's
(u, d) and g^-1's (u, u) give each result its variance.  Metric traces,
the Koszul formula, covariant derivatives and curvature are such terms
too.

inverse() inverts a metric by fraction-free elimination on its numerators.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import ValidationError
from .scalar import ZERO, Q, format_rational, rational

UP = "u"
DOWN = "d"


class TensorDense:
    """Dense type-(r,s) tensor over a fixed basis of an even-dimensional space."""

    __slots__ = ("dim", "variance", "den", "nums", "support")

    def __init__(self, dim: int, variance: Sequence[str], data: Iterable[Fraction]):
        variance = _checked_shape(dim, variance)
        ratios = [x.as_integer_ratio() if isinstance(x, (int, Fraction)) else
                  rational(x).as_integer_ratio() for x in data]
        if len(ratios) != dim ** len(variance):
            raise ValidationError(
                f"component count {len(ratios)} != {dim}^{len(variance)}")
        den = lcm(*{d for _, d in ratios})
        _store(self, dim, variance, den, [a * (den // d) for a, d in ratios])

    @classmethod
    def _of(cls, dim: int, variance: tuple, den: int, nums: list[int],
            support: list[int] | None = None) -> "TensorDense":
        """The tensor nums / den (den > 0), reduced; the shape is trusted,
        and so is support, the nonzero positions of nums, when given."""
        t = object.__new__(cls)
        _store(t, dim, variance, den, nums, support)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("TensorDense is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def nslots(self) -> int:
        return len(self.variance)

    def flat(self, idx: Sequence[int]) -> int:
        pos = 0
        for i in idx:
            pos = pos * self.dim + i
        return pos

    # -- rationals at the edges ----------------------------------------------

    def _ratio(self, num: int) -> Fraction:
        return Q(num, self.den) if num else ZERO

    @property
    def data(self) -> tuple[Fraction, ...]:
        """All components as rationals, row-major."""
        return tuple(map(self._ratio, self.nums))

    def __getitem__(self, idx) -> Fraction:
        if isinstance(idx, int):
            idx = (idx,)
        return self._ratio(self.nums[self.flat(idx)])

    def column(self, *fixed: int) -> list[Fraction]:
        """The components t[a, *fixed] for a = 0..dim-1, e.g. [X_i, X_j]
        from the structure constants."""
        step = self.dim ** len(fixed)
        return list(map(self._ratio, self.nums[self.flat(fixed)::step]))

    def item(self) -> Fraction:
        """The single component of a rank-(0,0) tensor."""
        if self.nslots != 0:
            raise ValidationError("item() requires a rank-(0,0) tensor")
        return self._ratio(self.nums[0])

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_entries(cls, dim: int, variance: Sequence[str], entries: dict) -> "TensorDense":
        """The tensor with the rational entries[p] at each flat position p
        in entries, zero elsewhere."""
        variance = _checked_shape(dim, variance)
        ratios = {p: v.as_integer_ratio() for p, v in entries.items()}
        den = lcm(*{d for _, d in ratios.values()})
        nums = [0] * dim ** len(variance)
        for p, (a, d) in ratios.items():
            nums[p] = a * (den // d)
        return cls._of(dim, variance, den, nums)

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence], variance: Sequence[str]) -> "TensorDense":
        dim = len(rows)
        if len(variance) != 2 or any(len(r) != dim for r in rows):
            raise ValidationError("from_matrix needs a square matrix and two slots")
        return cls(dim, variance, [x for row in rows for x in row])

    # -- comparison ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.support

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorDense):
            return NotImplemented
        return (self.dim == other.dim and self.variance == other.variance
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.dim, self.variance, self.den, tuple(self.nums)))

    def __repr__(self):
        return f"TensorDense(dim={self.dim}, variance={''.join(self.variance)})"


def _checked_shape(dim: int, variance: Sequence[str]) -> tuple:
    if dim <= 0 or dim % 2 != 0:
        raise ValidationError(f"tensor dimension must be a positive even integer, got {dim}")
    variance = tuple(variance)
    if any(v not in (UP, DOWN) for v in variance):
        raise ValidationError(f"bad variance mask {variance!r}")
    return variance


#: (0, 1, 2, ...), as long as the longest list _nonzero_positions has seen
_POSITIONS: tuple[int, ...] = ()


def _nonzero_positions(values: list[int]) -> list[int]:
    """The positions of the nonzero entries of values, in order, taken from
    the one stored tuple of positions, which grows to len(values) first."""
    global _POSITIONS
    if len(_POSITIONS) < len(values):
        _POSITIONS = tuple(range(len(values)))
    return list(compress(_POSITIONS, values))


def _store(t: TensorDense, dim: int, variance: tuple, den: int, nums: list[int],
           support: list[int] | None = None) -> None:
    """Set the fields of t to nums / den reduced by their gcd, skipped when
    den is 1 or coprime to the first nonzero numerator, and its support:
    the one given, or else found by _nonzero_positions without making an
    int per component."""
    if support is None:
        support = _nonzero_positions(nums)
    if den != 1 and (not support or gcd(den, nums[support[0]]) != 1):
        g = gcd(den, *map(nums.__getitem__, support))
        if g != 1:
            den //= g
            for p in support:
                nums[p] //= g
    put = object.__setattr__
    put(t, "dim", dim)
    put(t, "variance", variance)
    put(t, "den", den)
    put(t, "nums", nums)
    put(t, "support", support)


# -- placements ----------------------------------------------------------------
#
# Where a component lands in an output is linear in its index digits: the
# flat source position p = sum_k digit_k dim^(nslots-1-k) goes to sum_k
# digit_k weights[k].  One flat table per (dim, weights) holds that target
# for every source position, as 4-byte unsigned ints, so a term reads it
# with one lookup.  A table has dim^nslots items: 84 KB at dimension 12,
# rank 4, and 279 KB at dimension 16 (by sys.getsizeof).  Each
# permutation, and each operand of a product, has its own table, cached
# for the life of the process: a report on a dimension-12 document builds
# 43 of them, 0.92 MB in all, and one on a dimension-16 document 2.9 MB.

_PLACEMENTS: dict[tuple, array] = {}


def _placement(dim: int, weights: tuple[int, ...]) -> array:
    """The table of targets sum_k digit_k weights[k], indexed by source
    position.  Cached."""
    key = (dim, weights)
    table = _PLACEMENTS.get(key)
    if table is None:
        table = array("I", [0])
        for w in weights:
            steps = [w * i for i in range(dim)]
            longer = array("I")
            for t in table:     # dim ints at a time, never a list of all of them
                longer.fromlist([t + s for s in steps])
            table = longer
        _PLACEMENTS[key] = table
    return table


def _strides(dim: int, nslots: int) -> list[int]:
    return [dim ** (nslots - 1 - k) for k in range(nslots)]


_PERM_PLANS: dict[tuple, tuple] = {}


def _perm_plan(t: TensorDense, perm) -> tuple:
    """(variance, target) of the term (c, t, perm), where old slot perm[k]
    moves to slot k: its variance and placement.  Validated and cached per
    (dim, variance, perm)."""
    perm = tuple(perm)
    key = (t.dim, t.variance, perm)
    plan = _PERM_PLANS.get(key)
    if plan is None:
        if sorted(perm) != list(range(t.nslots)):
            raise ValidationError(f"{perm!r} is not a permutation of the slots")
        out = _strides(t.dim, t.nslots)
        weights = [0] * t.nslots
        for k, old in enumerate(perm):
            weights[old] = out[k]
        plan = _PERM_PLANS[key] = (tuple(t.variance[k] for k in perm),
                                   _placement(t.dim, tuple(weights)))
    return plan


# -- products --------------------------------------------------------------------

_PRODUCT_PLANS: dict[tuple, tuple] = {}


def _product_plan(spec: str, a: TensorDense, b: TensorDense) -> tuple:
    """(variance, rows, operand plans) of a product term; each operand plan
    is a pair of placements (key, out): a source position p has the summed
    indices key[p], one of rows keys, and lands at out[p] of the output,
    summed over them.  Validated and cached per (spec, dims, variances)."""
    cache_key = (spec, a.dim, b.dim, a.variance, b.variance)
    plan = _PRODUCT_PLANS.get(cache_key)
    if plan is not None:
        return plan
    if a.dim != b.dim:
        raise ValidationError(f"product operands differ in dimension: {a.dim} vs {b.dim}")
    inputs, arrow, out = spec.partition("->")
    la, comma, lb = inputs.partition(",")
    if not (arrow and comma) or len(la) != a.nslots or len(lb) != b.nslots:
        raise ValidationError(f"product spec {spec!r} does not fit operands with "
                              f"{a.nslots} and {b.nslots} slots")
    summed = sorted(set(la) & set(lb))
    free = (set(la) | set(lb)) - set(summed)
    if (len(set(la)) != len(la) or len(set(lb)) != len(lb)
            or len(out) != len(set(out)) or set(out) != free):
        raise ValidationError(f"product spec {spec!r} must sum only over letters shared "
                              "by both operands and list every other letter once")
    variance_of = dict(zip(la + lb, a.variance + b.variance))
    n = a.dim
    stride = dict(zip(out, _strides(n, len(out))))
    key_stride = dict(zip(summed, _strides(n, len(summed))))
    operands = [(_placement(n, tuple(key_stride.get(ch, 0) for ch in letters)),
                 _placement(n, tuple(stride.get(ch, 0) for ch in letters)))
                for letters in (la, lb)]
    plan = (tuple(variance_of[ch] for ch in out), n ** len(summed), operands)
    _PRODUCT_PLANS[cache_key] = plan
    return plan


# -- linear combinations -----------------------------------------------------
#
# A term is (c, T), (c, T, perm) or (c, spec, A, B), see the module
# docstring.  c is an int (a bool too), a Fraction, or anything that
# rational() takes, such as a "p/q" string; an int or a Fraction is used as
# it is, and its integer ratio is read once.  Every term must have the
# shape of the first.
#
# The terms accumulate into a list of every output component, or into a
# dict from flat position to value.  A list costs per component: it is
# allocated, and then scanned for its nonzeros (lincomb) or counted
# (vanishes).  A dict costs nothing per component but more per
# multiply-add.  The work of the terms is the nonzero count of each
# plain or permuted operand, plus for each product the nonzero counts of
# its operands multiplied and divided by its number of rows of summed
# indices.  A dict is taken when the output has at least _SPARSE_MIN_SIZE
# components and work * _DICT_WORK_NS < size * _LIST_SLOT_NS.  Both
# constants are least-squares fits of (list time - dict time) = a size -
# b work over every call of at least 1024 components in two dimension-12
# block reports, each call timed on both accumulators (Python 3.11):
# a = 2.75 ns and b = 51 ns there, 2.2 ns and 35 ns in a dimension-16
# one.  The threshold work < size / 17.6 sits in the flat optimum of a
# sweep over size / 10 to size / 26 on dimension-12 reports.

_EXACT = (int, Fraction)

#: outputs with fewer components than this always accumulate into a list
_SPARSE_MIN_SIZE = 1024
#: ns a list costs per output component, and ns more a dict costs per unit
#: of work
_LIST_SLOT_NS = 2.5
_DICT_WORK_NS = 44


def _work(singles: list, products: list) -> int:
    """The multiply-adds that _accumulate expects for its singles and
    products: each operand's nonzero count, and for a product the nonzero
    counts of both operands over its number of rows."""
    return (sum(len(t.support) for _, _, t, _ in singles)
            + sum(len(a.support) * len(b.support) // rows
                  for _, _, rows, _, a, b in products))


def _sparse_nonzero(acc: dict[int, int]) -> list[int]:
    """The sorted positions of a dict accumulator that hold a nonzero value."""
    return sorted(p for p, v in acc.items() if v)


def _accumulate(terms) -> tuple[int, tuple, int, list[int] | dict[int, int]]:
    """(dim, variance, den, acc) with sum c T == acc[p] / den at each p, acc
    a list, or a dict of the positions it touched when the output is
    large and the expected work small beside it.

    Terms naming the same tensor and permutation add their coefficients
    first.  Terms with a zero coefficient or a zero operand are dropped.
    """
    shape = None
    singles: dict[tuple, list] = {}     # (id(T), id(target)) -> [num, den of c, T, target]
    products = []                       # (num of c, den of c A B, rows, operand plans, A, B)
    for term in terms:
        c, t = term[0], term[1]
        num, den = (c if isinstance(c, _EXACT) else rational(c)).as_integer_ratio()
        if isinstance(t, str):
            a, b = term[2], term[3]
            variance, rows, operands = _product_plan(t, a, b)
            dim = a.dim
            if num and a.support and b.support:
                products.append((num, den * a.den * b.den, rows, operands, a, b))
        else:
            dim = t.dim
            if len(term) == 3:
                variance, target = _perm_plan(t, term[2])
            else:
                variance, target = t.variance, None
            if num and t.support:
                key = (id(t), id(target))
                entry = singles.get(key)
                if entry is None:
                    singles[key] = [num, den, t, target]
                else:
                    num, den = entry[0] * den + num * entry[1], entry[1] * den
                    g = gcd(num, den)
                    entry[0], entry[1] = num // g, den // g
        if shape is None:
            shape = (dim, variance)
        elif shape[0] != dim or shape[1] != variance:
            raise ValidationError(
                f"shape mismatch: dim {shape[0]} {shape[1]} vs dim {dim} {variance}")
    if shape is None:
        raise ValidationError("a linear combination needs at least one term")
    dim, variance = shape
    singles = [(num, den * t.den, t, target)
               for num, den, t, target in singles.values() if num]
    den = lcm(*{term[1] for term in singles}, *{term[1] for term in products})
    size = dim ** len(variance)
    sparse = (size >= _SPARSE_MIN_SIZE
              and _work(singles, products) * _DICT_WORK_NS < size * _LIST_SLOT_NS)
    acc = {} if sparse else [0] * size
    for num, d, t, target in singles:
        s, nums = num * (den // d), t.nums
        if sparse:
            get = acc.get
            for p in t.support:
                q = p if target is None else target[p]
                acc[q] = get(q, 0) + s * nums[p]
        elif target is None:
            for p in t.support:
                acc[p] += s * nums[p]
        else:
            for p in t.support:
                acc[target[p]] += s * nums[p]
    for num, d, rows, operands, a, b in products:
        _add_product(acc, num * (den // d), rows, operands, a, b)
    return dim, variance, den, acc


def _add_product(acc: list[int] | dict[int, int], s: int, nrows: int, operands,
                 a: TensorDense, b: TensorDense) -> None:
    """acc += s times the product of the numerators of a and b."""
    (akey, aout), (bkey, bout) = operands
    bnums = b.nums
    # a list only for each row b occupies: a product summed over several
    # letters, as "ijk,ijk->" is, has dim^3 rows, nearly all empty
    rows: list[list[tuple[int, int]] | None] = [None] * nrows
    for p in b.support:
        k = bkey[p]
        if rows[k] is None:
            rows[k] = []
        rows[k].append((bout[p], bnums[p]))
    anums = a.nums
    if type(acc) is dict:
        get = acc.get
        for p in a.support:
            row = rows[akey[p]]
            if row:
                x = s * anums[p]
                base = aout[p]
                for q, y in row:
                    q += base
                    acc[q] = get(q, 0) + x * y
        return
    for p in a.support:
        row = rows[akey[p]]
        if row:
            x = s * anums[p]
            base = aout[p]
            for q, y in row:
                acc[base + q] += x * y


def lincomb(*terms) -> TensorDense:
    """The tensor sum c T over terms (c, T), (c, T, perm) and (c, spec, A,
    B), in one integer pass."""
    dim, variance, den, acc = _accumulate(terms)
    if type(acc) is list:
        return TensorDense._of(dim, variance, den, acc)
    support = _sparse_nonzero(acc)
    nums = [0] * dim ** len(variance)
    for p in support:
        nums[p] = acc[p]
    return TensorDense._of(dim, variance, den, nums, support)


class Residual:
    """What vanishes() found: true exactly when the combination is zero.

    nonzero() lists the nonzero components by row-major flat position and
    component(p) gives one's index tuple and value, whichever accumulator
    the residual holds.  str() of a nonzero residual names its first
    nonzero component by 1-based index tuple, gives its value and counts
    the nonzero components; nothing is formatted until it is asked for.
    """

    __slots__ = ("dim", "nslots", "den", "acc")

    def __init__(self, dim: int, nslots: int, den: int, acc: list[int] | dict[int, int]):
        self.dim, self.nslots, self.den, self.acc = dim, nslots, den, acc

    def __bool__(self) -> bool:
        if type(self.acc) is dict:
            return not any(self.acc.values())
        # count() beats any() on the all-zero acc of every passing check
        return self.acc.count(0) == len(self.acc)

    def nonzero(self) -> list[int]:
        """The row-major flat positions of the nonzero components."""
        acc = self.acc
        return _sparse_nonzero(acc) if type(acc) is dict else _nonzero_positions(acc)

    def component(self, p: int) -> tuple[tuple[int, ...], Fraction]:
        """(index, value) of a position p from nonzero(): its 0-based
        index tuple and the rational component there."""
        n = self.dim
        return (tuple(p // n ** k % n for k in reversed(range(self.nslots))),
                Q(self.acc[p], self.den))

    def __str__(self) -> str:
        nonzero = self.nonzero()
        index, value = self.component(nonzero[0])
        return (f"first nonzero residual at ({', '.join(str(i + 1) for i in index)}) is "
                f"{format_rational(value)}; "
                f"{len(nonzero)} of {self.dim ** self.nslots} components differ")


def vanishes(*terms) -> Residual:
    """Decide sum c T = 0 over terms as for lincomb, without forming a
    rational; the Residual is true when the sum is zero."""
    dim, variance, den, acc = _accumulate(terms)
    return Residual(dim, len(variance), den, acc)


# -- exact matrix inverse ----------------------------------------------------

def inverse(t: TensorDense) -> TensorDense | None:
    """The inverse matrix of a two-slot tensor, both slots' variance
    flipped; None if t is singular.

    Fraction-free Gauss-Jordan elimination (Bareiss) on the numerators N
    of t: every division is exact, and it ends with d I beside d N^-1,
    where d = +-det N, so the inverse is den d N^-1 / d.
    """
    n, nums = t.dim, t.nums
    rows = [nums[i * n:(i + 1) * n] + [int(i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        d = top[k]
        for r, row in enumerate(rows):
            if r != k:
                f = row[k]
                rows[r] = [(d * x - f * y) // prev for x, y in zip(row, top)]
        prev = d
    sign = 1 if prev > 0 else -1
    return TensorDense._of(n, tuple(DOWN if v == UP else UP for v in t.variance),
                           sign * prev, [sign * t.den * x for row in rows for x in row[n:]])
