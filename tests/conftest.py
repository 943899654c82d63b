"""Shared fixtures: the two-parameter family, flat references, and
direct-sum manifolds in dimension 8."""

from __future__ import annotations

import pytest

from paratwin.family import FamilyParams, family_pack
from paratwin.scalar import Q

from manifolds import abelian_manifold, direct_sum


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
