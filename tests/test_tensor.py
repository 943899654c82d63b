"""Dense rational tensors: algebra, products and traces, raising and lowering."""

import io
import json
import random
from contextlib import contextmanager
from itertools import permutations, product
from math import gcd, inf
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paratwin import cli, family, structure
from paratwin import tensor as tensor_module
from paratwin.errors import ConsistencyError, ValidationError, require
from paratwin.scalar import Q, ZERO, format_rational, rational
from paratwin.tensor import DOWN, UP, TensorDense, inverse, lincomb, vanishes

from manifolds import (DENSE_BASIS, abelian_manifold, add, direct_sum, document_of,
                       fraction_calls, identity, lower_index, matrix_inverse, neg,
                       pulled_back, raise_index, rows_of, scale, slot_map, sub,
                       symmetric_signature, tensor_equal, transpose, zeros)
from strategies import (V3, V4, any_tensors, block_tensors, dense_tensors,
                        mixed_rationals, rationals, tensor_pairs)



def tensors(dim=2, nslots=3):
    return st.builds(
        lambda vals: TensorDense(dim, (UP,) + (DOWN,) * (nslots - 1), vals),
        st.lists(rationals, min_size=dim ** nslots, max_size=dim ** nslots))


#: a fixed non-degenerate indefinite metric in dimension 2
G2 = TensorDense.from_matrix([[1, 2], [2, -1]], (DOWN, DOWN))
G2_INV = TensorDense.from_matrix(matrix_inverse(rows_of(G2)), (UP, UP))

SRC = Path(tensor_module.__file__).parent


def test_shape_validation():
    with pytest.raises(ValidationError):
        TensorDense(3, (UP,), [ZERO] * 3)          # odd dimension
    with pytest.raises(ValidationError):
        TensorDense(2, (UP, DOWN), [ZERO] * 3)     # wrong component count
    with pytest.raises(ValidationError):
        TensorDense(2, ("x",), [ZERO] * 2)         # bad variance flag


def test_immutability():
    t = zeros(2, (UP, DOWN))
    with pytest.raises(AttributeError):
        t.dim = 4


@given(tensors(), tensors())
def test_addition_componentwise(a, b):
    s = lincomb((1, a), (1, b))
    assert all(s.data[i] == a.data[i] + b.data[i] for i in range(len(s.data)))
    assert tensor_equal(lincomb((1, s), (-1, b)), a)


@given(tensors(), rationals, rationals)
def test_scale_is_linear(t, r, s):
    assert tensor_equal(lincomb((r, t), (s, t)), scale(t, r + s))


@given(tensors())
@settings(max_examples=30)
def test_raise_lower_round_trip(t):
    """Raising slot 1 or 2 of a (1,2) tensor with the square norm's spec,
    then lowering it with the reference, gives the tensor back."""
    for slot in range(1, t.nslots):
        up = lincomb((1, structure._RAISE[slot], G2_INV, t))
        assert up.variance[slot] == UP
        assert tensor_equal(lower_index(up, slot, G2), t)


@given(tensors())
@settings(max_examples=30)
def test_transpose_composition(t):
    """Two permuted terms in a row are the term of the composed permutation."""
    for p in permutations(range(t.nslots)):
        for q in permutations(range(t.nslots)):
            once = lincomb((1, lincomb((1, t, p)), q))
            composed = tuple(p[k] for k in q)
            assert tensor_equal(once, lincomb((1, t, composed)))
            assert tensor_equal(once, transpose(t, composed))


@given(tensors())
def test_transpose_semantics(t):
    p = (1, 2, 0)
    tt = lincomb((1, t, p))
    for idx in product(range(t.dim), repeat=3):
        old = [0] * 3
        for k in range(3):
            old[p[k]] = idx[k]
        assert tt[idx] == t[tuple(old)]


def trace(t, slot_a, slot_b):
    """The trace of t over slots slot_a and slot_b: its product with the
    identity, summed over both of the identity's letters."""
    letters = list("pqrs"[:t.nslots])
    letters[slot_a], letters[slot_b] = "i", "j"
    out = "".join(ch for ch in letters if ch not in "ij")
    return lincomb((1, f"ij,{''.join(letters)}->{out}", identity(t.dim), t))


def test_contract_identity_gives_dimension():
    for n in (2, 4, 6):
        assert trace(identity(n), 0, 1).item() == Q(n)


@given(tensors(), tensors())
@settings(max_examples=30)
def test_contract_is_additive(a, b):
    assert tensor_equal(trace(lincomb((1, a), (1, b)), 0, 1), add(trace(a, 0, 1), trace(b, 0, 1)))


def test_matrix_inverse_and_determinant():
    m = [[Q(2), Q(1)], [Q(7), Q(4)]]
    inv = matrix_inverse(m)
    assert inv == [[Q(4), Q(-1)], [Q(-7), Q(2)]]
    assert matrix_inverse([[Q(1), Q(2)], [Q(2), Q(4)]]) is None
    t = inverse(TensorDense.from_matrix(m, (DOWN, DOWN)))
    assert t.variance == (UP, UP) and rows_of(t) == inv
    assert inverse(TensorDense.from_matrix([[1, 2], [2, 4]], (UP, DOWN))) is None


def test_inverse_matches_rational_elimination():
    """The fraction-free inverse equals Gauss-Jordan over the rationals on
    seeded random sparse rational matrices of dims 2 to 16, and both find
    the same singular ones: a zero row, two proportional rows, or a rank
    deficit that no single row shows."""
    rng = random.Random(13)
    singular = 0
    for trial in range(60):
        n = 2 * rng.randint(1, 8)
        rows = [[Q(rng.randint(-4, 4), rng.randint(1, 5)) if rng.random() < 0.5 else ZERO
                 for _ in range(n)] for _ in range(n)]
        kind = trial % 4
        if kind == 1:
            rows[n - 1] = [ZERO] * n
        elif kind == 2:
            rows[0] = [Q(-3, 2) * x for x in rows[n - 1]]
        elif kind == 3:
            rows[n // 2] = [x + y for x, y in zip(rows[0], rows[n - 1])]
        ref = matrix_inverse(rows)
        t = inverse(TensorDense.from_matrix(rows, (DOWN, UP)))
        if ref is None:
            singular += 1
            assert t is None, (n, kind)
        else:
            assert t.variance == (UP, DOWN) and rows_of(t) == ref, (n, kind)
    assert singular >= 45


def test_signature_neutral_metric():
    g = [[Q(1), ZERO, ZERO, ZERO],
         [ZERO, Q(1), ZERO, ZERO],
         [ZERO, ZERO, Q(-1), ZERO],
         [ZERO, ZERO, ZERO, Q(-1)]]
    assert symmetric_signature(g) == (2, 2, 0)
    # twin metric of the family basis: off-diagonal blocks
    gt = [[ZERO, Q(1), ZERO, ZERO],
          [Q(1), ZERO, ZERO, ZERO],
          [ZERO, ZERO, ZERO, Q(-1)],
          [ZERO, ZERO, Q(-1), ZERO]]
    assert symmetric_signature(gt) == (2, 2, 0)


# -- zero-aware kernels against naive loops ----------------------------------
#
# The kernels skip structural zeros and recognise them by identity with the
# shared ZERO.  The references below walk every index with product(range(n))
# and do the full arithmetic; the strategies mix ZERO with other zero
# objects, so the identity fast path and its fallback both run.

def naive_elementwise(a, b, op):
    return [op(x, y) for x, y in zip(a.data, b.data)]


def naive_contract(t, slot_a, slot_b):
    n = t.dim
    keep = [k for k in range(t.nslots) if k not in (slot_a, slot_b)]
    out = []
    for idx in product(range(n), repeat=len(keep)):
        total = Q(0)
        for m in range(n):
            full = [0] * t.nslots
            for k, i in zip(keep, idx):
                full[k] = i
            full[slot_a] = full[slot_b] = m
            total += t[tuple(full)]
        out.append(total)
    return out


@given(tensor_pairs(V3, V3), rationals)
@settings(max_examples=60)
def test_elementwise_ops_match_naive(pair, s):
    """Sums, differences, negation and scaling as lincomb terms, and the
    tests' Fraction reference for each."""
    a, b = pair
    for plus, minus, negated, scaled in [
            (lincomb((1, a), (1, b)), lincomb((1, a), (-1, b)), lincomb((-1, a)), lincomb((s, a))),
            (add(a, b), sub(a, b), neg(a), scale(a, s))]:
        assert list(plus.data) == naive_elementwise(a, b, lambda x, y: x + y)
        assert list(minus.data) == naive_elementwise(a, b, lambda x, y: x - y)
        assert list(negated.data) == [-x for x in a.data]
        assert list(scaled.data) == [s * x for x in a.data]
    assert lincomb((1, a), (-1, a)).is_zero() and lincomb((0, a)).is_zero()
    assert sub(a, a).is_zero() and scale(a, 0).is_zero()


# -- one-slot maps: the product terms src writes, against plain sums ----------
#
# src writes each map on one slot as a product term with the matrix first:
# (variance of the tensor, slot, spec, variance of the matrix).  P keeps
# the slot's variance; g^-1 raises it.

P_VARIANCE = (UP, DOWN)
#: P substituted into or applied to one slot
ENDOMORPHISM_MAPS = [
    *(((DOWN,) * 3, "xyz".index(key), spec, P_VARIANCE)
      for key, spec in structure._SUBSTITUTE.items()),  # p_substitutions, N(x, y, Pz)
    (V3, 1, "mi,kmj->kij", P_VARIANCE),         # T(Px, y) in _nijenhuis_form, [Px, y]
    (V3, 0, "km,mij->kij", P_VARIANCE),         # P T(Px, y)
    (V3, 2, "mj,kim->kij", P_VARIANCE),         # T(Px, Py), [Px, Py]
    ((DOWN,), 0, "mz,m->z", P_VARIANCE),        # theta o P, f* o P
    ((DOWN,), 0, "mx,m->x", P_VARIANCE),        # f o P in w1_closed_forms
    ((UP,), 0, "km,m->k", P_VARIANCE),          # P f#
    ((UP, DOWN), 1, "mx,km->kx", P_VARIANCE),   # H P
]
#: an index raised with g^-1
RAISES = [
    *(((UP,) * slot + (DOWN,) * (3 - slot), slot, spec, (UP, UP))
      for slot, spec in enumerate(structure._RAISE)),  # square_norm
    ((DOWN,), 0, "km,m->k", (UP, UP)),          # f# = g^-1 f
]
#: an index lowered with g and moved last: (variance, spec, permutation)
LOWERS = [(V3, "lm,mij->ijl", (1, 2, 0)),          # N, N^
          (V4, "lm,mijk->ijkl", (1, 2, 3, 0))]     # R, and A in theorem_checks


def is_transposed(spec):
    """Whether a product reads its first operand, the matrix, transposed:
    its summed letter comes first."""
    matrix, operand = spec.split("->")[0].split(",")
    return matrix[0] in operand


@st.composite
def slot_map_cases(draw, maps):
    variance, slot, spec, matrix_variance = draw(st.sampled_from(maps))
    t, e = draw(tensor_pairs(variance, matrix_variance))
    return slot, spec, t, e


@given(slot_map_cases(ENDOMORPHISM_MAPS))
@settings(max_examples=60)
def test_endomorphism_terms_match_naive(case):
    """Values and variance: the slot keeps its own."""
    slot, spec, t, e = case
    assert lincomb((1, spec, e, t)) == slot_map(t, slot, e, is_transposed(spec))


@given(slot_map_cases(ENDOMORPHISM_MAPS))
@settings(max_examples=30)
def test_identity_endomorphism_terms_are_identity(case):
    slot, spec, t, _ = case
    assert lincomb((1, spec, identity(t.dim), t)) == t


@given(slot_map_cases(RAISES), st.sampled_from(LOWERS).flatmap(
    lambda case: st.tuples(st.just(case), tensor_pairs(case[0], (DOWN, DOWN)))))
@settings(max_examples=40)
def test_raise_lower_match_naive(raise_case, lower_case):
    slot, spec, t, ginv = raise_case
    raised = lincomb((1, spec, ginv, t))
    assert raised.variance[slot] == UP
    assert raised == raise_index(t, slot, ginv)
    (_, spec, perm), (t, g) = lower_case
    assert lincomb((1, spec, g, t)) == transpose(lower_index(t, 0, g), perm)


def test_slot_map_specs_are_the_ones_src_uses():
    """Each spec above is written in src, so the tests follow src's terms."""
    src = "".join(path.read_text() for path in SRC.glob("*.py"))
    specs = {case[2] for case in ENDOMORPHISM_MAPS + RAISES} | {spec for _, spec, _ in LOWERS}
    assert [spec for spec in sorted(specs) if f'"{spec}"' not in src] == []


#: up and down slots in several orders, so that the trace meets every
#: (up, down) slot pair of rank 2 to 4
MIXED_VARIANCES = [(UP, DOWN), V3, (DOWN, UP, DOWN), (DOWN, DOWN, UP), V4,
                   (DOWN, UP, DOWN, UP), (UP, UP, DOWN, DOWN)]


@st.composite
def sparse_tensors(draw, variance):
    """A few nonzero components in dimension 6 or 8, at least one of them
    at a position above 256, where positions are no longer cached ints."""
    dim = draw(st.sampled_from((8,) if len(variance) == 3 else (6, 8)))
    size = dim ** len(variance)
    positions = draw(st.sets(st.integers(0, size - 1), max_size=12))
    positions.add(draw(st.integers(257, size - 1)))
    data = [ZERO] * size
    for p in positions:
        data[p] = draw(rationals.filter(bool))
    return TensorDense(dim, variance, data)


def mixed_tensors(variance):
    if len(variance) == 2:
        return any_tensors(variance)
    return st.one_of(any_tensors(variance), sparse_tensors(variance))


@given(st.sampled_from(MIXED_VARIANCES).flatmap(mixed_tensors))
@settings(max_examples=80, deadline=None)
def test_contract_matches_naive(t):
    """Each (up, down) contraction, taken as a product with the identity,
    on dense tensors and on sparse ones with positions above 256."""
    pairs = [(a, b) for a, b in permutations(range(t.nslots), 2)
             if t.variance[a] == UP and t.variance[b] == DOWN]
    assert pairs
    for slot_a, slot_b in pairs:
        traced = trace(t, slot_a, slot_b)
        assert traced.variance == tuple(v for k, v in enumerate(t.variance)
                                        if k not in (slot_a, slot_b))
        assert list(traced.data) == naive_contract(t, slot_a, slot_b)


# -- one-pass linear combinations against the Fraction operators -------------
#
# lincomb and vanishes sum in ints over one common denominator; the
# reference composes the Fraction operations transpose, scale and add.

def reference_combination(terms):
    total = None
    for c, t, *perm in terms:
        x = scale(transpose(t, perm[0]) if perm else t, c)
        total = x if total is None else add(total, x)
    return total


#: "p/q" strings, reduced or not, with a sign or surrounding spaces
rational_strings = st.builds(lambda n, d, pad: f"{pad}{n}/{d}{pad}",
                             st.integers(-9, 9), st.integers(1, 6), st.sampled_from(("", " ")))

coefficients = st.one_of(st.just(0), st.integers(-3, 3), mixed_rationals, rational_strings)


@st.composite
def linear_terms(draw):
    """Terms (c, T[, perm]) of one shape: dense tensors with small, tall and
    mixed-zero components or block-sparse ones, all-covariant with any
    permutation (3-cycles included) or (1,k) with slot 0 held, and some
    tensors named twice so that equal terms merge or cancel."""
    nslots = draw(st.sampled_from((3, 4)))
    covariant = draw(st.booleans())
    variance = (DOWN,) * nslots if covariant else (UP,) + (DOWN,) * (nslots - 1)
    perms = [p for p in permutations(range(nslots)) if covariant or p[0] == 0]
    dims = (2, 4) if nslots == 3 else (2,)
    tensors = st.one_of(block_tensors(variance),
                        *(dense_tensors(n, variance, mixed_rationals) for n in dims))
    first = draw(tensors)
    drawn = [first]
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            t = draw(st.sampled_from(drawn))
        elif first.dim == 4:
            t = draw(block_tensors(variance))
        else:
            t = draw(dense_tensors(first.dim, variance, mixed_rationals))
        drawn.append(t)
        c = draw(coefficients)
        perm = draw(st.none() | st.sampled_from(perms))
        terms.append((c, t) if perm is None else (c, t, perm))
    if draw(st.booleans()):                     # an exact cancellation
        terms.append((-rational(terms[0][0]),) + terms[0][1:])
    return terms


@given(linear_terms())
@settings(max_examples=60, deadline=None)
def test_lincomb_and_vanishes_match_the_fraction_operators(terms):
    want = reference_combination(terms)
    got = lincomb(*terms)
    assert (got.dim, got.variance) == (want.dim, want.variance)
    assert list(got.data) == list(want.data)
    assert all(v is ZERO for v in got.data if not v)
    residual = vanishes(*terms)
    assert bool(residual) == want.is_zero()
    assert vanishes(*terms, (-1, want))
    if not residual:
        nonzero = [(idx, v) for idx, v in zip(product(range(want.dim), repeat=want.nslots),
                                             want.data) if v]
        idx, value = nonzero[0]
        index = "(" + ", ".join(str(i + 1) for i in idx) + ")"
        assert str(residual) == (f"first nonzero residual at {index} is {value}; "
                                 f"{len(nonzero)} of {len(want.data)} components differ")


def test_lincomb_rejects_mismatched_terms():
    t3 = zeros(2, V3)
    with pytest.raises(ValidationError):
        lincomb((1, t3), (1, zeros(4, V3)))                     # dimension
    with pytest.raises(ValidationError):
        vanishes((1, t3), (1, zeros(2, V4)))                    # slot count
    with pytest.raises(ValidationError):
        lincomb((1, t3), (1, zeros(2, (DOWN, DOWN, DOWN))))     # variance
    with pytest.raises(ValidationError):
        vanishes((1, t3), (1, t3, (1, 0, 2)))       # the transpose moves the up slot
    with pytest.raises(ValidationError):
        lincomb((1, t3, (0, 1, 1)))                 # not a permutation
    with pytest.raises(TypeError):
        lincomb((0.5, t3))                          # no floating point


def test_failed_require_names_the_first_differing_component():
    data = [ZERO] * 8
    data[2] = Q(5, 2)                               # index (0, 1, 0)
    t = TensorDense(2, V3, data)
    residual = vanishes((1, t), (-1, zeros(2, V3)))
    assert not residual
    detail = "first nonzero residual at (1, 2, 1) is 5/2; 1 of 8 components differ"
    assert str(residual) == detail
    with pytest.raises(ConsistencyError) as err:
        require(residual, "t != 0")
    assert str(err.value) == f"t != 0: {detail}"
    with pytest.raises(ConsistencyError) as err:
        require(False, "t != 0")
    assert str(err.value) == "t != 0"


# -- product terms against a naive Fraction einsum --------------------------
#
# A term (c, spec, A, B) sums over every letter shared by A and B; the
# reference evaluates the spec at every output index with Fractions.

def naive_product(spec, a, b):
    """The components of the product of a and b by spec, row-major."""
    inputs, out = spec.split("->")
    la, lb = inputs.split(",")
    summed = sorted(set(la) & set(lb))
    total = []
    for idx in product(range(a.dim), repeat=len(out)):
        s = Q(0)
        for m in product(range(a.dim), repeat=len(summed)):
            at = dict(zip(out, idx)) | dict(zip(summed, m))
            s += a[tuple(at[ch] for ch in la)] * b[tuple(at[ch] for ch in lb)]
        total.append(s)
    return total


@st.composite
def product_terms(draw):
    """Terms of one shape around a product (c, spec, A, B): A and B dense
    with small, tall or mixed-zero rationals, or block-sparse; sometimes
    one tensor as both operands; no summed letter (an outer product) or
    up to three, paired in any order, leaving at most four output letters;
    any output order; then more products with a reordered output and
    (permuted) tensors of the output's shape, with zero coefficients
    among them."""
    dim = draw(st.sampled_from((2, 4)))

    def tensor(variance):
        kinds = [dense_tensors(dim, variance, mixed_rationals)]
        if dim == 4:
            kinds.append(block_tensors(variance))
        return draw(st.one_of(*kinds))

    ka, kb = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    nsummed = draw(st.integers(max(0, ka + kb - 3) // 2, min(ka, kb)))
    va = tuple(draw(st.sampled_from((UP, DOWN))) for _ in range(ka))
    a = tensor(va)
    if kb == ka and draw(st.booleans()):
        b, vb = a, va
    else:
        vb = tuple(draw(st.sampled_from((UP, DOWN))) for _ in range(kb))
        b = tensor(vb)
    la, lb = list("pqr"[:ka]), list("stu"[:kb])
    slots_a = draw(st.permutations(range(ka)))[:nsummed]
    slots_b = draw(st.permutations(range(kb)))[:nsummed]
    for ch, i, j in zip("mno", slots_a, slots_b):
        la[i] = lb[j] = ch
    variance_of = {ch: v for ch, v in zip(la + lb, va + vb) if ch not in "mno"}
    out = draw(st.permutations(sorted(variance_of)))
    variance = tuple(variance_of[ch] for ch in out)
    inputs = f"{''.join(la)},{''.join(lb)}->"
    terms = [(draw(coefficients), inputs + "".join(out), a, b)]
    perms = [p for p in permutations(range(len(out)))
             if all(variance[i] == variance[k] for k, i in enumerate(p))]
    for _ in range(draw(st.integers(0, 3))):
        c, p = draw(coefficients), draw(st.sampled_from(perms))
        kind = draw(st.sampled_from(("product", "tensor", "permuted")))
        if kind == "product":
            terms.append((c, inputs + "".join(out[i] for i in p), a, b))
        elif kind == "tensor":
            terms.append((c, tensor(variance)))
        else:
            terms.append((c, tensor(variance), p))
    return dim, variance, terms


@given(product_terms())
@settings(max_examples=80, deadline=None)
def test_product_terms_match_a_naive_einsum(case):
    dim, variance, terms = case
    want = [Q(0)] * dim ** len(variance)
    for c, *rest in terms:
        if isinstance(rest[0], str):
            part = naive_product(*rest)
        elif len(rest) == 2:
            part = list(transpose(*rest).data)
        else:
            part = list(rest[0].data)
        want = [w + rational(c) * x for w, x in zip(want, part)]
    got = lincomb(*terms)
    assert (got.dim, got.variance) == (dim, variance)
    assert list(got.data) == want
    assert all(v is ZERO for v in got.data if not v)
    assert bool(vanishes(*terms)) == (not any(want))
    assert vanishes(*terms, (-1, TensorDense(dim, variance, want)))


def test_a_product_sums_over_every_shared_letter():
    """Two summed letters, in either order in the second operand, and all
    three: a total contraction to a rank-0 tensor."""
    rng = random.Random(24)
    a, b = (TensorDense(4, V3, [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(64)])
            for _ in range(2))
    for spec in ("kmn,mnz->kz", "kmn,nmz->zk", "kmn,kmn->"):
        got = lincomb((1, spec, a, b))
        assert list(got.data) == naive_product(spec, a, b), spec
    assert lincomb((1, "kmn,kmn->", a, b)).variance == ()


@pytest.mark.parametrize("spec", [
    "kxm,myz->kxymz",       # the summed letter in the output
    "kxm,myz->kxy",         # an output letter missing
    "kxm,myz->kxyzw",       # a letter of neither operand
    "kxm,myz->kxyy",        # a repeated output letter
    "kx,myz->kxyz",         # too few letters for the first operand
    "kxmm,myz->kxyz",       # too many
    "kxk,myz->xyz",         # a letter repeated within one operand
    "kxmmyz->kxyz",         # no comma
    "kxm,myz",              # no output
])
def test_invalid_product_specs_are_rejected(spec):
    t = zeros(2, V3)
    with pytest.raises(ValidationError):
        lincomb((1, spec, t, t))
    with pytest.raises(ValidationError):
        vanishes((0, spec, t, t))


def test_product_operands_must_share_a_dimension():
    """Also once the spec's plan is cached for operands of one dimension."""
    lincomb((1, "kxm,myz->kxyz", zeros(2, V3), zeros(2, V3)))
    with pytest.raises(ValidationError):
        lincomb((1, "kxm,myz->kxyz", zeros(2, V3), zeros(4, V3)))


def sparse_rank4(dim, rng):
    """A covariant rank-4 tensor with a few nonzeros, one at the last
    position, so its placements reach their largest targets."""
    size = dim ** 4
    data = [ZERO] * size
    for p in rng.sample(range(size - 1), 40) + [size - 1]:
        data[p] = Q(rng.choice((-7, -2, -1, 1, 3, 5)), rng.randint(1, 4))
    return TensorDense(dim, (DOWN,) * 4, data)


def nonzeros(t):
    """{index tuple: value} of the nonzero components of t."""
    return {idx: v for idx, v in zip(product(range(t.dim), repeat=t.nslots), t.data) if v}


def sparse_einsum(spec, a, b):
    """The nonzero components of the product of a and b by spec, summed
    over pairs of nonzero operand components."""
    inputs, out = spec.split("->")
    la, lb = inputs.split(",")
    total = {}
    for ia, x in nonzeros(a).items():
        for ib, y in nonzeros(b).items():
            at = dict(zip(la, ia))
            if all(at.setdefault(ch, i) == i for ch, i in zip(lb, ib)):
                idx = tuple(at[ch] for ch in out)
                total[idx] = total.get(idx, 0) + x * y
    return {idx: v for idx, v in total.items() if v}


@pytest.mark.parametrize("dim", [12, 16])
def test_placements_reach_the_last_position(dim):
    """Permuted terms and a one-letter product on sparse rank-4 tensors of
    dimension 12 and 16 (positions up to 65,535) land every nonzero where
    the naive routes put it."""
    rng = random.Random(dim)
    t, u = sparse_rank4(dim, rng), sparse_rank4(dim, rng)
    for perm in [(1, 2, 3, 0), (1, 0, 2, 3)]:               # a 4-cycle and a swap
        got = lincomb((Q(-2, 3), t, perm))
        assert got.data == transpose(lincomb((Q(-2, 3), t)), perm).data
        # two terms on one placement merge, and cancel against got
        assert vanishes((1, t, perm), (2, t, perm), (Q(9, 2), got))
    g = TensorDense(dim, (DOWN, DOWN), [Q(rng.randint(-3, 3)) if i % (dim + 1) == 0
                                        or rng.random() < 0.1 else ZERO
                                        for i in range(dim * dim)])
    spec = "lm,mijk->ijkl"
    got = lincomb((3, spec, g, t), (Q(1, 2), u))
    want = {idx: 3 * v for idx, v in sparse_einsum(spec, g, t).items()}
    for idx, v in nonzeros(u).items():
        want[idx] = want.get(idx, 0) + v / 2
    assert got.variance == (DOWN,) * 4
    assert nonzeros(got) == {idx: v for idx, v in want.items() if v}


def test_coefficients_are_ints_fractions_or_rationals():
    """An int (a bool too) or a Fraction is used as it is; anything else
    goes through rational(), which takes "p/q" strings and rejects floats
    and decimal strings."""
    t = TensorDense(2, (UP, DOWN), [1, Q(1, 2), 0, -3])
    for c, want in [(True, 1), (False, 0), (3, 3), (Q(-5, 6), Q(-5, 6)),
                    ("10/4", Q(5, 2)), (" -3/9 ", Q(-1, 3)), ("0", 0)]:
        assert lincomb((c, t)) == scale(t, want), c
        assert lincomb((c, "ij,jk->ik", t, t), (c, t, (0, 1))) == lincomb(
            (want, "ij,jk->ik", t, t), (want, t)), c
        assert vanishes((c, t), (-want, t))
    for c, error in [(0.5, TypeError), ("0.5", ValueError), ("1/0", ValueError)]:
        with pytest.raises(error):
            lincomb((c, t))


def test_fraction_coefficients_are_read_once_per_term():
    """A lincomb or vanishes over k distinct tensors with non-integer
    Fraction coefficients makes at most k calls into fractions: one
    as_integer_ratio() per coefficient, whether the term is plain,
    permuted or a product."""
    rng = random.Random(25)
    a, b, c = (TensorDense(4, V3, [Q(rng.randint(-5, 5), rng.randint(1, 3))
                                   for _ in range(64)]) for _ in range(3))
    m = TensorDense(4, (UP, DOWN), [Q(rng.randint(-5, 5), 2) for _ in range(16)])
    terms = [(Q(1, 2), a), (Q(-3, 4), b, (0, 2, 1)), (Q(5, 6), "kx,xyz->kyz", m, c)]
    total = lincomb(*terms)
    for fn, extra in [(lincomb, ()), (vanishes, ((-1, total),))]:
        k = len(terms) + len(extra)
        assert fraction_calls(fn, *terms, *extra) <= k


# -- the stored form ------------------------------------------------------------

@given(st.one_of(any_tensors(V3), any_tensors(V4)), mixed_rationals)
@settings(max_examples=60, deadline=None)
def test_storage_is_reduced_and_canonical(t, s):
    assert t.den > 0 and gcd(t.den, *t.nums) == 1
    assert t.support == [p for p, v in enumerate(t.nums) if v]
    assert t.is_zero() == (t.den == 1 and not any(t.nums))
    # the same values built in other ways give an equal tensor and hash
    swap = (0, 2, 1) + tuple(range(3, t.nslots))
    same = [TensorDense(t.dim, t.variance, [format_rational(v) for v in t.data]),
            lincomb((Q(1, 3), t), (Q(2, 3), t)),
            lincomb((1, t, tuple(range(t.nslots)))),
            lincomb((1, lincomb((1, t, swap)), swap))]
    if s:
        same.append(lincomb((1 / s, lincomb((s, t)))))
    for u in same:
        assert u == t and hash(u) == hash(t)
    # zeros come back as the shared ZERO, through [] and data alike
    zero = lincomb((1, t), (-1, t))
    assert zero.den == 1 and zero.is_zero() and set(map(id, zero.data)) == {id(ZERO)}
    for idx, v in zip(product(range(t.dim), repeat=t.nslots), t.data):
        assert t[idx] == v
        assert (t[idx] is ZERO) == (not v) and (v is ZERO) == (not v)


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=8, max_size=8),
       st.integers(1, 10 ** 6), st.integers(1, 10 ** 4))
@settings(max_examples=100)
def test_storing_reduces_a_common_factor(nums, den, factor):
    """Integers over a denominator that share a factor with it, whether
    the first nonzero numerator is coprime to it or not, are stored
    reduced, with their values and support."""
    t = TensorDense._of(2, V3, den * factor, [x * factor for x in nums])
    assert t.den > 0 and gcd(t.den, *t.nums) == 1
    assert t.data == tuple(Q(x, den) for x in nums)
    assert t.support == [p for p, x in enumerate(nums) if x]
    assert any(nums) or t.den == 1


def test_support_is_right_as_tensors_grow_shrink_and_grow_again():
    """support lists the nonzero positions in order whatever the sizes of
    the tensors built before: dim 4, then dim 12 and dim 4 again, then
    dim 16 (65,536 components), all rank 4."""
    rng = random.Random(2101)
    for dim in (4, 12, 4, 16):
        size = dim ** 4
        nums = [0] * size
        for p in rng.sample(range(size), size // 16):
            nums[p] = rng.choice((-3, -1, 1, 2, 5))
        nums[-1] = 7                                # the last position
        t = TensorDense(dim, V4, nums)
        assert t.support == [p for p, x in enumerate(nums) if x]
        assert TensorDense(dim, V4, [0] * size).support == []
        # u agrees with t except at positions divisible by 3, so t - u
        # cancels everywhere else
        u = TensorDense(dim, V4, [x if p % 3 else 0 for p, x in enumerate(nums)])
        diff = lincomb((1, t), (-1, u))
        want = [p for p, x in enumerate(nums) if x and p % 3 == 0]
        assert diff.support == want
        assert lincomb((1, t), (-1, t)).support == []
        # a failing vanishes names its first nonzero component and the count
        residual = vanishes((1, t), (-1, u))
        assert not residual
        first = want[0]
        index = ", ".join(str(first // dim ** k % dim + 1) for k in (3, 2, 1, 0))
        assert str(residual) == (f"first nonzero residual at ({index}) is {nums[first]}; "
                                 f"{len(want)} of {size} components differ")


# -- the two accumulators ----------------------------------------------------------

@contextmanager
def accumulators(monkeypatch):
    """A list that receives (output size, accumulator type) of every
    lincomb and vanishes run inside the block."""
    seen = []

    def recorded(terms, _real=tensor_module._accumulate):
        dim, variance, den, acc = out = _real(terms)
        seen.append((dim ** len(variance), type(acc)))
        return out

    with monkeypatch.context() as mp:
        mp.setattr(tensor_module, "_accumulate", recorded)
        yield seen


def sparse_tensor(dim, nslots, count, rng):
    """A covariant tensor with count seeded nonzero rationals, one at the
    last position."""
    size = dim ** nslots
    data = [ZERO] * size
    for p in rng.sample(range(size - 1), count - 1) + [size - 1]:
        data[p] = Q(rng.choice((-7, -2, -1, 1, 3, 5)), rng.randint(1, 4))
    return TensorDense(dim, (DOWN,) * nslots, data)


def accumulator_cases(dim, rng):
    """(lincomb or vanishes, terms) on sparse rank-3 and rank-4 tensors of
    dimension dim: plain, permuted and product terms, with few nonzeros
    (a dict by the size rule) or an eighth of the components (a list),
    summing to zero, to a few components or to many."""
    m = TensorDense(dim, (DOWN, DOWN), [Q(rng.randint(1, 3)) if i % (dim + 1) == 0
                                        or rng.random() < 0.05 else ZERO
                                        for i in range(dim * dim)])
    cases = []
    for nslots in (3, 4):
        perm = tuple(range(nslots - 2)) + (nslots - 1, nslots - 2)
        for count in (20, dim ** nslots // 8):
            a, b = (sparse_tensor(dim, nslots, count, rng) for _ in range(2))
            # b agrees with a except at a few of a's nonzeros
            near = TensorDense._of(dim, a.variance, a.den, [
                x if p not in a.support[::max(1, count // 3)] else 2 * x
                for p, x in enumerate(a.nums)])
            letters = "ijkl"[:nslots]
            cases += [
                (lincomb, [(Q(2, 3), a), (-1, b, perm), (Q(1, 5), a, perm)]),
                (lincomb, [(1, a), (-1, a)]),
                (lincomb, [(1, a), (-1, near)]),
                (lincomb, [(3, f"im,m{letters[1:]}->{letters}", m, a), (Q(-1, 2), b)]),
                (vanishes, [(1, a), (-1, a, tuple(range(nslots)))]),
                (vanishes, [(1, a), (-1, near)]),
                (vanishes, [(1, a, perm), (-1, b), (Q(1, 7), a)]),
                (vanishes, [(1, f"im,m{letters[1:]}->{letters}", m, a),
                            (-1, f"{letters[1:]}m,mi->i{letters[1:]}", a, m)]),
            ]
    t3, u3 = (sparse_tensor(dim, 3, 30, rng) for _ in range(2))
    cases += [(lincomb, [(1, "ijm,mkl->ijkl", t3, u3)]),
              (vanishes, [(1, "ijm,mkl->ijkl", t3, u3), (-1, "ijm,mkl->ijkl", t3, u3)])]
    return cases


@pytest.mark.parametrize("dim", [12, 16])
def test_list_and_dict_accumulators_agree(dim, monkeypatch):
    """Every case gives the same den, nums, support and variance, or the
    same truth and byte-identical str(), whether it takes the accumulator
    the size rule picks, a list, or a dict; the cases fall on both sides
    of the rule."""
    def run(fn, terms):
        r = fn(*terms)
        if isinstance(r, TensorDense):
            return r.den, r.nums, r.support, r.variance
        return bool(r), str(r) if not r else ""

    cases = accumulator_cases(dim, random.Random(dim))
    with accumulators(monkeypatch) as seen:
        natural = [run(fn, terms) for fn, terms in cases]
    assert {kind for size, kind in seen if size >= 1024} == {list, dict}
    forced = {"list": {"_SPARSE_MIN_SIZE": inf},
              "dict": {"_SPARSE_MIN_SIZE": 0, "_DICT_WORK_NS": 0}}
    for kind, overrides in forced.items():
        with monkeypatch.context() as mp, accumulators(monkeypatch) as seen:
            for name, value in overrides.items():
                mp.setattr(tensor_module, name, value)
            got = [run(fn, terms) for fn, terms in cases]
        assert {k.__name__ for _, k in seen} == {kind}
        for (fn, terms), want, have in zip(cases, natural, got):
            assert have == want, (kind, fn.__name__, terms)
    # some residuals are nonzero, so their strings are compared
    assert sum(1 for r in natural if len(r) == 2 and not r[0]) >= 4


@pytest.mark.parametrize("dim, nslots, count, kind", [(4, 3, 20, list), (12, 4, 40, dict)])
def test_residual_lists_its_nonzero_components(dim, nslots, count, kind, monkeypatch):
    """nonzero() and component() agree with the componentwise difference
    taken over every index tuple, from a list accumulator (64 components)
    and from a dict one (20,736)."""
    rng = random.Random(dim)
    a, b = (sparse_tensor(dim, nslots, count, rng) for _ in range(2))
    with accumulators(monkeypatch) as seen:
        residual = vanishes((1, a), (-1, b, tuple(reversed(range(nslots)))))
    assert seen == [(dim ** nslots, kind)]
    want = [(idx, a[idx] - b[idx[::-1]])
            for idx in product(range(dim), repeat=nslots) if a[idx] != b[idx[::-1]]]
    nonzero = residual.nonzero()
    assert [residual.component(p) for p in nonzero] == want and len(want) > count
    assert nonzero == [a.flat(idx) for idx, _ in want]
    assert not residual


def test_only_large_sparse_outputs_take_the_dict(tmp_path, monkeypatch):
    """A dense dimension-4 report and a theorem op accumulate every output
    in a list; a dimension-12 block report accumulates rank-4 outputs in
    a dict."""
    def report(m):
        path = tmp_path / f"{m.dim}.json"
        path.write_text(json.dumps(document_of(m)))
        return ["report", str(path), "--json"]

    f121 = family.build_family(family.FamilyParams(Q(1), Q(2), Q(1)))
    f2 = family.build_family(family.FamilyParams(Q(-1), Q(1, 2), Q(-1)))
    dense4 = report(pulled_back(f121, DENSE_BASIS))
    blocks12 = report(direct_sum(direct_sum(f121, abelian_manifold(4)), f2))
    for argv, dict_sizes in [(dense4, set()), (["theorem", "--grid=1,-2/3"], set()),
                             (blocks12, {12 ** 3, 12 ** 4})]:
        family.family_pack.cache_clear()
        with accumulators(monkeypatch) as seen:
            code = cli.main(argv, out=io.StringIO(), err=io.StringIO())
        assert code in (0, 4), argv
        assert {size for size, kind in seen if kind is dict} == dict_sizes, argv
    rank4 = [kind for size, kind in seen if size == 12 ** 4]
    assert rank4.count(dict) > len(rank4) // 2


def test_equal_values_from_different_inputs_are_equal():
    a = TensorDense(2, (UP,), ["2/4", 3])
    b = TensorDense(2, (UP,), [Q(1, 2), Q(6, 2)])
    assert (a.den, a.nums) == (b.den, b.nums) == (2, [1, 6])
    assert a == b and hash(a) == hash(b)
    assert TensorDense(2, (UP,), [Q(0), 0]).den == 1
