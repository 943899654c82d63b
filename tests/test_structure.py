"""Structure tensors: F, Phi, Lee forms, Nijenhuis tensors, square norm."""

from itertools import product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paratwin.connection import koszul
from paratwin.errors import ValidationError
from paratwin.manifold import LieAlgebraModel, assemble_manifold
from paratwin.scalar import Q, ZERO
from paratwin.structure import build_structure_pack, fundamental_F, square_norm
from paratwin.tensor import DOWN, UP, TensorDense

from manifolds import (add, lower_index, matrix_inverse, neg, raise_index, rows_of, scale,
                       slot_map, tensor_equal, transpose)
from strategies import V3, antisymmetrized, dense_tensors, matrices, mixed_rationals


def test_F_symmetries(family121):
    m, tp = family121
    F = tp.sp.F
    assert tensor_equal(F, transpose(F, (0, 2, 1)))
    assert tensor_equal(F, neg(slot_map(slot_map(F, 1, m.P, True), 2, m.P, True)))


def test_spot_values_at_reference_point(family121):
    _, tp = family121
    sp = tp.sp
    assert tuple(sp.theta.data) == (Q(16), Q(-16), Q(8), Q(-8))
    assert tuple(sp.f.data) == (Q(-16), Q(16), Q(-8), Q(8))
    assert tuple(sp.f_sharp.data) == (Q(-16), Q(16), Q(8), Q(-8))
    assert sp.snorm == Q(384)


def test_one_form_relations(family121):
    m, tp = family121
    sp = tp.sp
    assert tensor_equal(sp.theta_star, neg(slot_map(sp.theta, 0, m.P, True)))
    assert tensor_equal(sp.f, neg(sp.theta_star))
    assert tensor_equal(sp.f_star, neg(sp.theta))


def test_f_sharp_is_metric_dual(family121):
    m, tp = family121
    sp = tp.sp
    n = m.dim
    gm = rows_of(m.g)
    for i in range(n):
        assert sp.f[i] == sum(gm[i][j] * sp.f_sharp[j] for j in range(n))


def test_nijenhuis_vanishes_on_the_family(family121):
    _, tp = family121
    assert tp.sp.N_vec.is_zero()
    assert tensor_equal(tp.sp.Nhat_vec, scale(tp.sp.Phi_vec, -4))


def test_phi_reconstructs_F(family121):
    m, tp = family121
    sp = tp.sp
    phi_pz = slot_map(sp.Phi, 2, m.P, True)         # Phi(x, y, Pz)
    rebuilt = add(phi_pz, transpose(phi_pz, (0, 2, 1)))
    assert tensor_equal(rebuilt, sp.F)


def test_everything_vanishes_on_abelian(abelian4):
    conn = koszul(abelian4.algebra, abelian4.g, abelian4.g_inv)
    sp = build_structure_pack(abelian4, conn)
    assert sp.F.is_zero() and sp.Phi.is_zero()
    assert sp.theta.is_zero() and sp.f.is_zero()
    assert sp.N_vec.is_zero() and sp.Nhat_vec.is_zero()
    assert sp.snorm == ZERO


def test_isotropic_point_has_nonzero_nabla_P():
    """At l1 = l2 the square norm vanishes while nabla P does not."""
    from paratwin.family import FamilyParams, family_pack
    _, tp = family_pack(FamilyParams(Q(1), Q(1), Q(1)))
    assert tp.sp.snorm == ZERO
    assert not tp.sp.F.is_zero()


# -- integer kernels against plain rational loops ------------------------------

@st.composite
def structures(draw):
    """(m, Levi-Civita connection of g): P = M J M^-1 for the pair swap J
    and a random basis M, g = h + P^T h P for a random symmetric h, and a
    random antisymmetric c (Jacobi is not needed by these kernels) or the
    abelian c, whose zeros are not the shared ZERO."""
    n = draw(st.sampled_from((2, 4)))
    M = draw(matrices(n))
    Minv = matrix_inverse(M)
    assume(Minv is not None)
    swap = [i ^ 1 for i in range(n)]                # J e_i = e_{i xor 1}
    P = [[sum((M[i][a] * Minv[swap[a]][j] for a in range(n)), Q(0)) for j in range(n)]
         for i in range(n)]
    h = draw(matrices(n, mixed_rationals))
    h = [[h[i][j] + h[j][i] for j in range(n)] for i in range(n)]
    g = [[h[i][j] + sum((P[a][i] * h[a][b] * P[b][j]
                         for a in range(n) for b in range(n)), Q(0))
          for j in range(n)] for i in range(n)]
    c = antisymmetrized(draw(st.one_of(dense_tensors(n, V3, mixed_rationals),
                                       dense_tensors(n, V3, st.builds(Q, st.just(0))))))
    alg = LieAlgebraModel(n, tuple(f"X{i + 1}" for i in range(n)), c)
    try:
        m = assemble_manifold(alg, TensorDense.from_matrix(P, (UP, DOWN)),
                              TensorDense.from_matrix(g, (DOWN, DOWN)))
    except ValidationError:
        assume(False)
    return m, koszul(m.algebra, m.g, m.g_inv)


def naive_F(gamma, P, g):
    """F_{ijk} = g_{ka} (nabla_{X_i} P)^a_j, with (nabla_i P)^a_j =
    Gamma^a_{im} P^m_j - Gamma^m_{ij} P^a_m, at every index."""
    n = P.dim

    def nabla_P(i, a, j):
        return sum((gamma[a, i, mm] * P[mm, j] - gamma[mm, i, j] * P[a, mm]
                    for mm in range(n)), Q(0))

    return [sum((g[k, a] * nabla_P(i, a, j) for a in range(n)), Q(0))
            for i, j, k in product(range(n), repeat=3)]


def naive_square_norm(F, ginv):
    """g^{ij} g^{kl} g^{st} F_{iks} F_{jlt}, raising one slot of F at a time."""
    n = F.dim
    indices = list(product(range(n), repeat=3))
    raised = {idx: F[idx] for idx in indices}
    for slot in range(3):
        raised = {idx: sum((ginv[idx[slot], a] * raised[idx[:slot] + (a,) + idx[slot + 1:]]
                            for a in range(n)), Q(0))
                  for idx in indices}
    return sum((F[idx] * raised[idx] for idx in indices), Q(0))


@given(structures())
@settings(max_examples=30, deadline=None)
def test_fundamental_F_matches_reference(structure):
    m, conn = structure
    F, _ = fundamental_F(m, conn)
    assert list(F.data) == naive_F(conn, m.P, m.g)
    assert all(v is ZERO for v in F.data if not v)


@given(structures().flatmap(
    lambda s: st.tuples(st.just(s[0]), dense_tensors(s[0].dim, (DOWN,) * 3, mixed_rationals))))
@settings(max_examples=30, deadline=None)
def test_square_norm_matches_reference(pair):
    m, F = pair
    got, want = square_norm(m, F), naive_square_norm(F, m.g_inv)
    assert got == want
    if not want:
        assert got is ZERO
    zeros = TensorDense(m.dim, (DOWN,) * 3, [Q(0)] * m.dim ** 3)
    assert square_norm(m, zeros) is ZERO


# -- fused index moves against the two-step forms they replace ---------------

def assert_fused_forms(m, sp):
    """Phi_vec = g^-1 Phi, N = g N_vec and N^ = g N^_vec, each built in its
    final slot order, equal the raised or lowered tensor transposed."""
    assert tensor_equal(sp.Phi_vec, transpose(raise_index(sp.Phi, 2, m.g_inv), (2, 0, 1)))
    assert tensor_equal(sp.N, transpose(lower_index(sp.N_vec, 0, m.g), (1, 2, 0)))
    assert tensor_equal(sp.Nhat, transpose(lower_index(sp.Nhat_vec, 0, m.g), (1, 2, 0)))


def test_fused_structure_tensors_on_dense_and_b_nonzero_manifolds(dense_and_b_nonzero):
    for m, tp in dense_and_b_nonzero:
        assert not tp.sp.Phi_vec.is_zero() and not tp.sp.Nhat_vec.is_zero()
        assert_fused_forms(m, tp.sp)
        assert_fused_forms(m.twin_view(), tp.sp_twin)


@given(structures())
@settings(max_examples=30, deadline=None)
def test_fused_structure_tensors_on_random_structures(structure):
    """Random antisymmetric brackets, unlike the manifolds above, give N != 0."""
    m, conn = structure
    assert_fused_forms(m, build_structure_pack(m, conn))
