"""Per-layer spans around paratwin's public functions.

The spans are installed from outside the package: each wrapped function
is rebound in every ``paratwin.*`` namespace that holds it (``koszul``
lives in ``connection`` but is also bound in ``structure`` and ``twin``),
so calls through any of those names are recorded.  A span's self time is
its duration minus the time of the spans it encloses.  Functions that a
later version of the package no longer defines report zero calls.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

#: module -> functions wrapped one span each; every public function of
#: ``tables`` is one span, ``tables.all``
SPANS = {
    "cli": ("parse_document", "build_report"),
    "manifold": ("build_manifold", "validate_lie_algebra"),
    "connection": ("koszul", "curvature_operator", "covariant_derivative"),
    "structure": ("build_structure_pack", "fundamental_F", "potential_phi", "nijenhuis"),
    "curvature": ("riemann",),
    "classify": ("classify", "classify_phi", "classify_f"),
    "twin": ("build_twin_pack", "twin_connection", "invariance_suite", "tensor_Q",
             "tensor_K", "w1_closed_forms"),
    "family": ("grid_verification", "theorem_checks", "family_pack"),
    "tensor": ("apply_endo", "transpose", "raise_index", "lower_index", "contract",
               "tensor_equal"),
}
TABLES_SPAN = "tables.all"
PACKAGE = "paratwin"


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns]
    return names + [TABLES_SPAN]


class Tracer:
    """Call counts and self time per span name."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self._stack: list[list[float]] = []     # child time of each open span

    def wrap(self, span: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                calls[span] += 1
                self_s[span] += duration - children[0]
                if stack:
                    stack[-1][0] += duration

        return traced

    def exclude(self, seconds: float):
        """Count time spent outside the program, inside the innermost open
        span, as that span's child so no span's self time includes it."""
        if self._stack:
            self._stack[-1][0] += seconds


def _targets() -> dict[int, tuple[str, object]]:
    """id(function) -> (span name, function) for every function to wrap."""
    targets = {}
    for mod_name, fns in SPANS.items():
        module = sys.modules.get(f"{PACKAGE}.{mod_name}")
        for fn_name in fns:
            fn = getattr(module, fn_name, None)
            if fn is not None:
                targets[id(fn)] = (f"{mod_name}.{fn_name}", fn)
    tables = sys.modules.get(f"{PACKAGE}.tables")
    if tables is not None:
        for name, fn in vars(tables).items():
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == tables.__name__):
                targets[id(fn)] = (TABLES_SPAN, fn)
    return targets


def install(tracer: Tracer):
    """Rebind every target in every loaded module of the package.

    Returns a function that restores the original bindings.
    """
    targets = _targets()        # holds every target, so no other object has its id
    wrappers = {key: tracer.wrap(span, fn) for key, (span, fn) in targets.items()}
    rebound = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
                rebound.append((module, attr, value))

    def restore():
        for module, attr, value in rebound:
            setattr(module, attr, value)

    return restore
