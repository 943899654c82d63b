"""Eight-class classification and the class lattice."""

import pytest

from paratwin.classify import (ClassLabel, classify,
                               is_upward_closed, lattice_leq, lee_forms_closed,
                               minimal_class)
from paratwin.connection import koszul
from paratwin.errors import ValidationError
from paratwin.family import FamilyParams, family_pack
from paratwin.scalar import Q, ZERO
from paratwin.structure import build_structure_pack


def test_lattice_order():
    assert lattice_leq(ClassLabel.W0, ClassLabel.W1)
    assert lattice_leq(ClassLabel.W1, ClassLabel.W12)
    assert lattice_leq(ClassLabel.W1, ClassLabel.FULL)
    assert not lattice_leq(ClassLabel.W1, ClassLabel.W23)
    assert not lattice_leq(ClassLabel.W12, ClassLabel.W1)
    for a in ClassLabel:
        assert lattice_leq(a, a)
        assert lattice_leq(a, ClassLabel.FULL)
        assert lattice_leq(ClassLabel.W0, a)


def test_upward_closure():
    assert is_upward_closed({ClassLabel.FULL})
    assert is_upward_closed({ClassLabel.W1, ClassLabel.W12, ClassLabel.W13,
                             ClassLabel.FULL})
    assert not is_upward_closed({ClassLabel.W1})


def test_minimal_class_errors():
    with pytest.raises(ValidationError):
        minimal_class(set())
    with pytest.raises(ValidationError):
        minimal_class({ClassLabel.W1})          # not upward-closed


def test_family_is_main_class(family121):
    m, tp = family121
    cls = classify(m, tp.sp)
    assert cls.minimal == ClassLabel.W1
    assert cls.agreement
    assert ClassLabel.W0 not in cls.satisfied


def test_zero_parameters_give_w0():
    m, tp = family_pack(FamilyParams(Q(0), Q(0), Q(1)))
    cls = classify(m, tp.sp)
    assert cls.minimal == ClassLabel.W0
    assert cls.satisfied == frozenset(ClassLabel)


def test_abelian_is_w0(abelian4):
    conn = koszul(abelian4.algebra, abelian4.g, abelian4.g_inv)
    sp = build_structure_pack(abelian4, conn)
    assert classify(abelian4, sp).minimal == ClassLabel.W0


def test_isotropic_flag(family121):
    _, tp = family121
    assert tp.sp.snorm != ZERO
    _, tp = family_pack(FamilyParams(Q(1), Q(-1), Q(1)))      # l1 = -l2: isotropic
    assert tp.sp.snorm == ZERO


def test_lee_forms_closed_on_family(family121):
    m, tp = family121
    assert lee_forms_closed(m.algebra, tp.sp.theta, tp.sp.theta_star)
