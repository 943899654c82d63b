"""Shared fixtures: the two-parameter family, flat references, direct-sum
manifolds in dimension 8, and family points in a dense basis beside
manifolds with B != 0."""

from __future__ import annotations

import pytest

from paratwin.family import FamilyParams, build_family, family_pack
from paratwin.scalar import Q
from paratwin.twin import build_twin_pack

from manifolds import DENSE_BASIS, abelian_manifold, direct_sum, nonabelian2, pulled_back


@pytest.fixture(scope="session")
def family121():
    """(manifold, twin pack) at the reference point (1, 2, 1)."""
    return family_pack(FamilyParams(Q(1), Q(2), Q(1)))


@pytest.fixture(scope="session")
def abelian4():
    return abelian_manifold(4)


@pytest.fixture(scope="session")
def dsum8():
    """Two dimension-8 direct sums with mixed parameters and signs."""
    a = direct_sum(family_pack(FamilyParams(Q(1), Q(2), Q(1)))[0],
                   family_pack(FamilyParams(Q(-1), Q(1, 2), Q(-1)))[0])
    b = direct_sum(family_pack(FamilyParams(Q(0), Q(3), Q(-1)))[0],
                   abelian_manifold(4))
    return a, b


@pytest.fixture(scope="session")
def dense_and_b_nonzero():
    """(manifold, twin pack) pairs: two family points pulled back to a basis
    in which every bracket, P and g are dense, and the B != 0 algebra of
    nonabelian2 alone and summed with the family at (1, 2, 1)."""
    family = [build_family(FamilyParams(*map(Q, params)))
              for params in ((1, 2, 1), (-3, Q(1, 2), -1))]
    small = nonabelian2()
    manifolds = [pulled_back(m, DENSE_BASIS) for m in family]
    manifolds += [small, direct_sum(small, family[0])]
    return [(m, build_twin_pack(m)) for m in manifolds]
