"""Hypothesis strategies for exact rational tensors, dense and block-sparse.

Block-sparse tensors are nonzero only where every index lies in one 2x2
block, like the components of a direct sum.  Their other components mix
the shared ZERO with zeros that are other objects (Q(0) makes a new one
each time), so kernels that recognise ZERO by identity meet both.
"""

from itertools import product

from hypothesis import strategies as st

from paratwin.scalar import Q, ZERO
from paratwin.tensor import DOWN, UP, TensorDense

rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 5))

V3 = (UP, DOWN, DOWN)
V4 = (UP, DOWN, DOWN, DOWN)


def _block_of(i):
    return i // 2                   # dimension-4 tensors in two 2x2 blocks


def dense_tensors(dim, variance):
    size = dim ** len(variance)
    return st.builds(lambda vals: TensorDense(dim, variance, vals),
                     st.lists(rationals, min_size=size, max_size=size))


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
