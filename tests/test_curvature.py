"""Curvature packs: symmetries, traces, spot values, flat references."""

from itertools import product

import pytest

from paratwin.curvature import check_curvature_like, riemann
from paratwin.connection import koszul
from paratwin.errors import ConsistencyError
from paratwin.family import FamilyParams, family_pack
from paratwin.scalar import Q, ZERO

from manifolds import abelian_manifold, lower_index, rows_of, tensor_equal, transpose


def test_curvature_like_symmetries(family121):
    _, tp = family121
    check_curvature_like(tp.curv.R)
    check_curvature_like(tp.curv_twin.R)
    # pair symmetry R(x,y,z,w) = R(z,w,x,y) holds as well for both metrics
    assert tensor_equal(tp.curv.R, transpose(tp.curv.R, (2, 3, 0, 1)))
    assert tensor_equal(tp.curv_twin.R, transpose(tp.curv_twin.R, (2, 3, 0, 1)))


def test_perturbed_tensor_is_rejected(family121):
    _, tp = family121
    from paratwin.tensor import TensorDense
    data = list(tp.curv.R.data)
    data[tp.curv.R.flat((0, 1, 1, 0))] += Q(1)
    broken = TensorDense(4, tp.curv.R.variance, data)
    with pytest.raises(ConsistencyError):
        check_curvature_like(broken)


def test_spot_values_at_reference_point(family121):
    _, tp = family121
    assert tp.curv.tau == Q(-144)
    assert tp.curv.R[0, 1, 1, 0] == Q(-32)
    assert tp.curv_twin.tau == Q(144)


def test_ricci_is_symmetric(family121):
    _, tp = family121
    assert tensor_equal(tp.curv.ricci, transpose(tp.curv.ricci, (1, 0)))
    assert tensor_equal(tp.curv_twin.ricci, transpose(tp.curv_twin.ricci, (1, 0)))


def test_ricci_trace_gives_tau(family121):
    m, tp = family121
    n = m.dim
    ginv = rows_of(m.g_inv)
    rho = tp.curv.ricci
    total = sum(ginv[i][j] * rho[i, j] for i in range(n) for j in range(n))
    assert total == tp.curv.tau


def test_scalar_flat_locus():
    _, tp = family_pack(FamilyParams(Q(2), Q(-2), Q(-1)))
    assert tp.curv.tau == ZERO and tp.curv_twin.tau == ZERO
    _, tp = family_pack(FamilyParams(Q(2), Q(1), Q(-1)))
    assert tp.curv.tau != ZERO


def test_abelian_is_flat():
    m = abelian_manifold(4)
    conn = koszul(m.algebra, m.g, m.g_inv)
    pack = riemann(m, conn)
    assert pack.R.is_zero() and pack.ricci.is_zero() and pack.tau == ZERO
    conn_twin = koszul(m.algebra, m.g_twin, m.g_twin_inv)
    assert riemann(m.twin_view(), conn_twin).R.is_zero()


def test_fused_curvature_matches_the_two_step_forms(dense_and_b_nonzero):
    """R = g R_vec, built in its final slot order, is R_vec lowered and then
    transposed, and rho = g^{ij} R_{iyzj} is the trace R^i_{iyz} of R_vec,
    summed naively; on both sides of the twin interchange."""
    for m, tp in dense_and_b_nonzero:
        n = m.dim
        for curv, g in ((tp.curv, m.g), (tp.curv_twin, m.g_twin)):
            assert not curv.R.is_zero() and not curv.ricci.is_zero()
            assert tensor_equal(curv.R, transpose(lower_index(curv.R_vec, 0, g), (1, 2, 3, 0)))
            R_vec = curv.R_vec
            assert list(curv.ricci.data) == [sum(R_vec[i, i, y, z] for i in range(n))
                                             for y, z in product(range(n), repeat=2)]
