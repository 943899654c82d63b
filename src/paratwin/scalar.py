"""Exact rational scalars.

Every quantity in the engine is an arbitrary-precision rational; there is
no floating point anywhere, so tensor equalities can be decided exactly.
Scalars are ``fractions.Fraction`` (exported as ``Q``).  Tensors store
integer numerators over one denominator instead (paratwin.tensor): they
take rationals in through rational() and give them back, with the shared
ZERO for every zero, only at their edges.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import clipped

Q = Fraction

ZERO = Q(0)


def rational(value) -> Fraction:
    """Coerce an int, rational or "p/q" string to an exact rational.

    Decimal strings are rejected: the file formats of this engine carry
    rationals as "p" or "p/q" only.
    """
    if isinstance(value, Q):
        q = value                       # immutable, so safe to share
    elif isinstance(value, int):
        q = Q(value)
    elif isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text or "E" in text:
            raise ValueError(f"decimal notation is not accepted: {clipped(repr(value))}")
        try:
            q = Q(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {clipped(repr(value))}") from exc
    else:
        raise TypeError(f"cannot interpret {clipped(repr(value))} as an exact rational")
    return q if q else ZERO             # one shared zero


def format_rational(value) -> str:
    """Render a rational as "p" or "p/q" (exact round-trip with rational())."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
