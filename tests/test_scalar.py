"""Exact scalar parsing and formatting."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paratwin.scalar import ZERO, Q, format_rational, rational


def test_ints_and_fractions_coerce():
    assert rational(3) == Q(3)
    assert rational(Fraction(2, 6)) == Q(1, 3)
    assert rational(Q(-7, 2)) == Q(-7, 2)


def test_string_forms():
    assert rational("5") == Q(5)
    assert rational("-3/4") == Q(-3, 4)
    assert rational(" 12/8 ") == Q(3, 2)


@pytest.mark.parametrize("bad", ["1.5", "2e3", "1E2", "abc", "1/0", ""])
def test_rejected_strings(bad):
    with pytest.raises(ValueError):
        rational(bad)


def test_non_scalar_type_rejected():
    with pytest.raises(TypeError):
        rational([1, 2])


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_format_round_trip(p, q):
    x = Q(p, q)
    assert rational(format_rational(x)) == x


def test_constants():
    assert ZERO == Q(0)
    assert not ZERO
