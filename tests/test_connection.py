"""Koszul connection, covariant derivatives, curvature operator."""

from itertools import product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paratwin.connection import covariant_derivative, curvature_operator, koszul
from paratwin.manifold import LieAlgebraModel
from paratwin.scalar import Q, ZERO
from paratwin.tensor import DOWN, UP, TensorDense

from manifolds import abelian_manifold, matrix_inverse, tensor_equal, torsion, transpose
from strategies import V3, antisymmetrized, dense_tensors, matrices, mixed_rationals, tensor_pairs


def test_koszul_is_torsion_free_and_metric(family121):
    m, tp = family121
    conn = koszul(m.algebra, m.g, m.g_inv)
    assert torsion(conn, m.algebra).is_zero()
    assert covariant_derivative(conn, m.g).is_zero()
    assert tensor_equal(conn, tp.conn)


def test_twin_metric_not_parallel_for_nabla(family121):
    """(nabla_x g~)(y, z) = F(x, z, y): g~ fails to be parallel by exactly F."""
    m, tp = family121
    dgt = covariant_derivative(tp.conn, m.g_twin)        # [y, z, x]
    expect = transpose(tp.sp.F, (2, 1, 0))               # F(x, z, y) at [y, z, x]
    assert tensor_equal(dgt, expect)


def test_koszul_against_hand_computation(family121):
    """nabla_{X1} X1 at (1,2,1) from the three-bracket Koszul sum by hand."""
    _, tp = family121
    assert tp.conn.column(0, 0) == [Q(0), Q(-4), Q(-1), Q(1)]
    assert tp.conn.column(0, 1) == [Q(4), Q(0), Q(-1), Q(1)]


def test_derive_vector_is_linear(family121):
    """nabla_{X_i} y of a constant vector y is Gamma^k_{ij} y^j."""
    _, tp = family121
    y = [Q(1), Q(-2), Q(3), Q(1, 2)]
    dy = covariant_derivative(tp.conn, TensorDense(4, (UP,), y))     # [k, i]
    for i in range(4):
        expect = [sum(tp.conn[k, i, j] * y[j] for j in range(4)) for k in range(4)]
        assert [dy[k, i] for k in range(4)] == expect


def test_covariant_derivative_slot_rule(family121):
    """For a (1,1) tensor: (nabla_i T)^a_b = Gamma^a_{im} T^m_b - Gamma^m_{ib} T^a_m."""
    m, tp = family121
    n = m.dim
    d = covariant_derivative(tp.conn, m.P)
    for a, b, i in product(range(n), repeat=3):
        want = sum(tp.conn[a, i, mm] * m.P[mm, b]
                   - tp.conn[mm, i, b] * m.P[a, mm] for mm in range(n))
        assert d[a, b, i] == want


def test_abelian_connection_is_flat():
    m = abelian_manifold(4)
    conn = koszul(m.algebra, m.g, m.g_inv)
    assert conn.is_zero()
    assert curvature_operator(conn, m.algebra).is_zero()


# -- zero-aware kernels against naive loops ----------------------------------

def naive_curvature(gamma, c):
    """R^l_{ijk} = Gamma^m_{jk} Gamma^l_{im} - Gamma^m_{ik} Gamma^l_{jm}
    - c^m_{ij} Gamma^l_{mk}, summed over m at every index."""
    n = gamma.dim
    return [sum((gamma[m, j, k] * gamma[l, i, m] - gamma[m, i, k] * gamma[l, j, m]
                 - c[m, i, j] * gamma[l, m, k] for m in range(n)), Q(0))
            for l, i, j, k in product(range(n), repeat=4)]


def naive_covariant_derivative(gamma, t):
    """(nabla_i t)[idx] with i last: +Gamma^a_{im} t[..m..] on a
    contravariant slot holding a, -Gamma^m_{ib} t[..m..] on a covariant
    slot holding b."""
    n = t.dim
    out = []
    for idx in product(range(n), repeat=t.nslots):
        for i in range(n):
            total = Q(0)
            for slot, var in enumerate(t.variance):
                a = idx[slot]
                for m in range(n):
                    src = idx[:slot] + (m,) + idx[slot + 1:]
                    if var == UP:
                        total += gamma[a, i, m] * t[src]
                    else:
                        total -= gamma[m, i, a] * t[src]
            out.append(total)
    return out


@given(tensor_pairs(V3, V3))
@settings(max_examples=40)
def test_curvature_operator_matches_naive(pair):
    gamma, raw = pair
    n = gamma.dim
    alg = LieAlgebraModel(n, tuple(f"X{i + 1}" for i in range(n)), antisymmetrized(raw))
    R = curvature_operator(gamma, alg)
    assert list(R.data) == naive_curvature(gamma, alg.c)


TENSOR_VARIANCES = st.sampled_from(((UP, DOWN), (DOWN, DOWN), V3, (DOWN, DOWN, DOWN)))


@given(TENSOR_VARIANCES.flatmap(lambda var: tensor_pairs(V3, var)))
@settings(max_examples=40)
def test_covariant_derivative_matches_naive(pair):
    gamma, t = pair
    d = covariant_derivative(gamma, t)
    assert d.variance == t.variance + (DOWN,)
    assert list(d.data) == naive_covariant_derivative(gamma, t)


def naive_koszul(c, g, ginv):
    """Gamma^l_{ij} = (1/2) g^{lk} {g([X_i,X_j],X_k) + g([X_k,X_i],X_j)
    + g([X_k,X_j],X_i)} at every index."""
    n = c.dim

    def lowered(i, j, k):               # g([X_i, X_j], X_k)
        return sum((c[s, i, j] * g[s][k] for s in range(n)), Q(0))

    return [sum((ginv[l][k] * (lowered(i, j, k) + lowered(k, i, j) + lowered(k, j, i))
                 for k in range(n)), Q(0)) / 2
            for l, i, j in product(range(n), repeat=3)]


@st.composite
def koszul_inputs(draw):
    """A random antisymmetric c and a random invertible symmetric g, with
    tall rationals and both kinds of zero."""
    n = draw(st.sampled_from((2, 4)))
    c = antisymmetrized(draw(dense_tensors(n, V3, mixed_rationals)))
    h = draw(matrices(n, mixed_rationals))
    g = [[h[i][j] + h[j][i] for j in range(n)] for i in range(n)]
    ginv = matrix_inverse(g)
    assume(ginv is not None)
    return c, g, ginv


@given(koszul_inputs())
@settings(max_examples=40, deadline=None)
def test_koszul_matches_reference(inputs):
    c, g, ginv = inputs
    n = c.dim
    alg = LieAlgebraModel(n, tuple(f"X{i + 1}" for i in range(n)), c)
    flat = lambda rows: [v for row in rows for v in row]      # noqa: E731
    conn = koszul(alg, TensorDense(n, (DOWN, DOWN), flat(g)),
                  TensorDense(n, (UP, UP), flat(ginv)))
    assert list(conn.data) == naive_koszul(c, g, ginv)
    assert all(v is ZERO for v in conn.data if not v)
