"""Hypothesis strategies for exact rational tensors, dense and block-sparse.

Block-sparse tensors are nonzero only where every index lies in one 2x2
block, like the components of a direct sum.  Their other components mix
the shared ZERO with zeros that are other objects (Q(0) makes a new one
each time), so kernels that recognise ZERO by identity meet both.
mixed_rationals adds tall numerators and denominators, so the integer
kernels meet operands whose common denominator is large.
"""

from itertools import product

from hypothesis import strategies as st

from paratwin.scalar import Q, ZERO
from paratwin.tensor import DOWN, UP, TensorDense

rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 5))

#: rationals with numerators and denominators of up to 20 digits
tall_rationals = st.builds(Q, st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 20))

#: small or tall rationals and, a third of the time, a zero that is either
#: the shared ZERO or another object
mixed_rationals = st.one_of(rationals, tall_rationals,
                            st.one_of(st.just(ZERO), st.builds(Q, st.just(0))))

V3 = (UP, DOWN, DOWN)
V4 = (UP, DOWN, DOWN, DOWN)


def _block_of(i):
    return i // 2                   # dimension-4 tensors in two 2x2 blocks


def dense_tensors(dim, variance, elements=rationals):
    size = dim ** len(variance)
    return st.builds(lambda vals: TensorDense(dim, variance, vals),
                     st.lists(elements, min_size=size, max_size=size))


def matrices(n, elements=rationals):
    """n x n matrices as lists of rows."""
    return st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n)


def antisymmetrized(t):
    """The (1,2) tensor t[k, i, j] - t[k, j, i]."""
    n = t.dim
    return TensorDense(n, V3, [t[k, i, j] - t[k, j, i]
                               for k, i, j in product(range(n), repeat=3)])


def block_tensors(variance, dim=4):
    size = dim ** len(variance)

    def build(vals, fresh):
        data = []
        for pos, idx in enumerate(product(range(dim), repeat=len(variance))):
            if len({_block_of(i) for i in idx}) == 1:
                data.append(vals[pos])
            else:
                data.append(Q(0) if fresh[pos] else ZERO)
        return TensorDense(dim, variance, data)

    return st.builds(build, st.lists(rationals, min_size=size, max_size=size),
                     st.lists(st.booleans(), min_size=size, max_size=size))


def tensors_of_dim(dim, variance):
    if dim == 4:
        return st.one_of(dense_tensors(4, variance), block_tensors(variance))
    return dense_tensors(dim, variance)


def any_tensors(variance):
    return st.sampled_from((2, 4)).flatmap(lambda n: tensors_of_dim(n, variance))


def tensor_pairs(variance, other_variance):
    """(t, u) of one dimension with the given variances."""
    return any_tensors(variance).flatmap(
        lambda t: st.tuples(st.just(t), tensors_of_dim(t.dim, other_variance)))
