"""Exception types shared across the engine, the route cross-check, and
the clipping of input values echoed in error messages."""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator


class ParatwinError(Exception):
    """Base class for all engine errors."""


class ValidationError(ParatwinError):
    """A structural axiom of the input data is violated."""


class ConsistencyError(ParatwinError):
    """Two independent computation routes disagree; the engine is unsound
    for this input and results must not be trusted."""


#: the longest echo of an input value in an error message
ECHO_LIMIT = 80


def clipped(text: str) -> str:
    """text whole if it has at most ECHO_LIMIT characters, else its start
    and "...", ECHO_LIMIT characters in all: a hostile input value is not
    copied into its error message whole."""
    return text if len(text) <= ECHO_LIMIT else text[:ECHO_LIMIT - 3] + "..."


#: the records of the open recording() blocks, innermost last
_RECORDS: ContextVar[tuple[list[str], ...]] = ContextVar("paratwin_checks", default=())


def failure_detail(ok) -> str:
    """What a failed check result says about itself: a plain bool says
    nothing, a tensor.vanishes() residual names its first nonzero
    component and counts the differing ones."""
    return "" if isinstance(ok, bool) else str(ok)


def require(ok, what: str) -> None:
    """One route cross-check: raise ConsistencyError(what) unless ok.

    ok is a bool or a tensor.vanishes() residual; a failing residual's
    detail follows what in the message.  Inside recording(), what is
    also appended to every open record, passed or not, so the checks that
    ran can be listed and counted.
    """
    for record in _RECORDS.get():
        record.append(what)
    if not ok:
        detail = failure_detail(ok)
        raise ConsistencyError(f"{what}: {detail}" if detail else what)


@contextmanager
def recording() -> Iterator[list[str]]:
    """Collect the name of every require() call made inside the block,
    including those of nested blocks."""
    record: list[str] = []
    token = _RECORDS.set(_RECORDS.get() + (record,))
    try:
        yield record
    finally:
        _RECORDS.reset(token)
