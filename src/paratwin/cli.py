"""Command-line interface.

Three commands on exact-rational manifold documents:

    paratwin validate <file>                 structural validation only
    paratwin report <file> | --family L1 L2 E [--json]
    paratwin theorem [--grid V1,V2,...] [--self-test]

A manifold document is a JSON object with fields dim, basis, brackets,
metric and P; indices are 1-based and every number is a rational string
"p" or "p/q" (decimals are rejected).  dim is at most MAX_DIM, and each
unordered pair {i, j} may appear in at most one bracket entry.  Exit
codes: 0 success, 2 parse error, 3 validation failure, 4 check failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter

from .errors import ParatwinError, ValidationError, clipped
from .family import (DEFAULT_GRID, FamilyParams, build_family, grid_points,
                     grid_verification)
from .manifold import (CheckItem, LieAlgebraModel, WManifold, assemble_manifold,
                       build_manifold, validate_lie_algebra)
from .scalar import ZERO, format_rational, rational
from .tensor import DOWN, UP, TensorDense
from .twin import build_twin_pack, invariance_suite

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_CHECK = 4

#: largest accepted document dimension, the size of the largest direct sums
#: the engine is checked on.  It is tested before the dim^3 bracket slots are
#: allocated, so a small document cannot ask for 10^9 of them; work and
#: memory grow as dim^4 to dim^5 beyond it.
MAX_DIM = 16


class DocumentError(ValueError):
    """The document is not well-formed (wrong shape, bad index, bad rational)."""


# ---------------------------------------------------------------------------
# document parsing

def _rational_field(value, where: str):
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected a rational string, got {clipped(repr(value))}")
    try:
        return rational(value)
    except (ValueError, TypeError) as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def _index_field(value, n: int, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= n:
        raise DocumentError(
            f"{where}: expected a 1-based index in 1..{n}, got {clipped(repr(value))}")
    return value - 1


def _matrix_field(doc: dict, key: str, n: int, variance: tuple) -> TensorDense:
    """The n x n matrix doc[key] as a two-slot tensor, built from its
    nonzero entries; an entry "0" is skipped unparsed."""
    rows = doc.get(key)
    if not isinstance(rows, list) or len(rows) != n or any(
            not isinstance(r, list) or len(r) != n for r in rows):
        raise DocumentError(f"{key}: expected a {n}x{n} array of rational strings")
    entries = {i * n + j: q for i, row in enumerate(rows) for j, v in enumerate(row)
               if v != "0" and (q := _rational_field(v, f"{key}[{i + 1}][{j + 1}]"))}
    return TensorDense.from_entries(n, variance, entries)


def parse_document(doc, name: str = "manifold") -> tuple[LieAlgebraModel, TensorDense, TensorDense, str]:
    """Decode a manifold document into (algebra, P, g, name).

    Raises DocumentError on malformed content; structural axioms are not
    checked here (that is build_manifold's job).
    """
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    n = doc.get("dim")
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise DocumentError(f"dim: expected a positive integer, got {clipped(repr(n))}")
    if n > MAX_DIM:
        raise DocumentError(f"dim: {clipped(repr(n))} exceeds the maximum dimension {MAX_DIM}")
    basis = doc.get("basis")
    if not isinstance(basis, list) or len(basis) != n or any(
            not isinstance(b, str) for b in basis):
        raise DocumentError(f"basis: expected a list of {n} names")

    entries = doc.get("brackets")
    if not isinstance(entries, list):
        raise DocumentError("brackets: expected a list of {i, j, coeffs} objects")
    c = {}                                      # flat position -> c^k_{ij}
    named: dict[frozenset, int] = {}            # unordered pair -> first entry
    for pos, entry in enumerate(entries):
        where = f"brackets[{pos}]"
        if not isinstance(entry, dict):
            raise DocumentError(f"{where}: expected an object")
        i = _index_field(entry.get("i"), n, f"{where}.i")
        j = _index_field(entry.get("j"), n, f"{where}.j")
        first = named.setdefault(frozenset((i, j)), pos)
        if first != pos:
            raise DocumentError(
                f"{where}: bracket of X_{i + 1} and X_{j + 1} is already "
                f"given by brackets[{first}]")
        coeffs = entry.get("coeffs")
        if not isinstance(coeffs, dict):
            raise DocumentError(f"{where}.coeffs: expected a map basis-index -> rational")
        spelled: dict[int, str] = {}            # basis index -> its key in coeffs
        for key, value in coeffs.items():
            try:
                k = _index_field(int(key), n, f"{where}.coeffs key")
            except (ValueError, TypeError) as exc:
                raise DocumentError(f"{where}.coeffs: bad key {clipped(repr(key))}") from exc
            other = spelled.setdefault(k, key)
            if other != key:
                raise DocumentError(f"{where}.coeffs: keys {clipped(repr(other))} and "
                                    f"{clipped(repr(key))} both name X_{k + 1}")
            v = _rational_field(value, f"{where}.coeffs[{clipped(key)}]")
            c[(k * n + i) * n + j] = v
            c[(k * n + j) * n + i] = -v
    alg = LieAlgebraModel(n, tuple(basis), TensorDense.from_entries(n, (UP, DOWN, DOWN), c))
    P = _matrix_field(doc, "P", n, (UP, DOWN))
    g = _matrix_field(doc, "metric", n, (DOWN, DOWN))
    return alg, P, g, name


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key, whose last value json
    would keep silently, is an error."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        count = Counter(key for key, _ in pairs)
        repeated = next(key for key, _ in pairs if count[key] > 1)
        raise DocumentError(f"key {clipped(repr(repeated))} is repeated in one object")
    return obj


def load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError(f"{path} is nested too deeply to read") from exc
    except ValueError as exc:
        # a JSONDecodeError, a DocumentError from _unique_keys, or the plain
        # ValueError of an integer literal beyond Python's digit limit
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# report assembly

def build_report(m: WManifold) -> dict:
    """All classification data, scalars and suite outcomes for one manifold."""
    tp = build_twin_pack(m)
    cls = tp.cls
    sp = tp.sp
    suite = invariance_suite(m, tp)
    return {
        "manifold": {"name": m.name, "dim": m.dim,
                     "basis": list(m.algebra.basis_labels)},
        "classification": {
            "class": str(cls.minimal),
            "satisfied": sorted(str(c) for c in cls.satisfied),
            "agreement": cls.agreement,
        },
        "scalars": {
            "tau": format_rational(tp.curv.tau),
            "tau_twin": format_rational(tp.curv_twin.tau),
            "snorm": format_rational(sp.snorm),
            "snorm_twin": format_rational(tp.sp_twin.snorm),
            "theta": [format_rational(v) for v in sp.theta.data],
            "theta_star": [format_rational(v) for v in sp.theta_star.data],
        },
        "isotropic_w0": sp.snorm == ZERO,
        "scalar_flat": tp.curv.tau == ZERO and tp.curv_twin.tau == ZERO,
        "checks": _check_records(suite.checks),
    }


def _check_records(items: tuple[CheckItem, ...]) -> list[dict]:
    """CheckItems as the report's JSON-ready check records."""
    return [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in items]


def _print_check_lines(checks, out):
    for c in checks:
        mark = "pass" if c["passed"] else "FAIL"
        line = f"  [{mark}] {c['name']}"
        if c["detail"]:
            line += f": {c['detail']}"
        print(line, file=out)


def render_report(report: dict, out) -> None:
    man = report["manifold"]
    print(f"manifold: {man['name']} (dim {man['dim']})", file=out)
    print(f"class: {report['classification']['class']}", file=out)
    print(f"satisfied classes: {', '.join(report['classification']['satisfied'])}", file=out)
    sc = report["scalars"]
    print(f"tau: {sc['tau']}", file=out)
    print(f"tau_twin: {sc['tau_twin']}", file=out)
    print(f"snorm: {sc['snorm']}", file=out)
    print(f"snorm_twin: {sc['snorm_twin']}", file=out)
    print(f"theta: ({', '.join(sc['theta'])})", file=out)
    print(f"theta_star: ({', '.join(sc['theta_star'])})", file=out)
    print(f"isotropic_w0: {str(report['isotropic_w0']).lower()}", file=out)
    print(f"scalar_flat: {str(report['scalar_flat']).lower()}", file=out)
    print("twin interchange checks:", file=out)
    _print_check_lines(report["checks"], out)


# ---------------------------------------------------------------------------
# commands

def cmd_validate(args, out, err) -> int:
    doc = load_document(args.file)
    alg, P, g, name = parse_document(doc)
    report = validate_lie_algebra(alg)
    _print_check_lines(_check_records(report.checks), out)
    if not report.valid:
        print("invalid: Lie algebra axioms violated", file=err)
        return EXIT_INVALID
    try:
        assemble_manifold(alg, P, g, name=name)
    except ValidationError as exc:
        print(f"invalid: {exc}", file=err)
        return EXIT_INVALID
    print("valid", file=out)
    return EXIT_OK


def _family_params(values) -> FamilyParams:
    try:
        l1, l2, eps = (rational(v) for v in values)
    except ValueError as exc:
        raise DocumentError(f"--family: {exc}") from exc
    return FamilyParams(l1, l2, eps)


def cmd_report(args, out, err) -> int:
    if args.family is not None:
        m = build_family(_family_params(args.family))
    else:
        alg, P, g, name = parse_document(load_document(args.file), name=args.file)
        m = build_manifold(alg, P, g, name=name)
    report = build_report(m)
    if args.json:
        json.dump(report, out, indent=2)
        print(file=out)
    else:
        render_report(report, out)
    return EXIT_OK if all(c["passed"] for c in report["checks"]) else EXIT_CHECK


def _parse_grid(spec: str):
    """Distinct rational grid values from "V1,V2,..."; an empty spec or a
    repeated value is a parse error, since it would run or count a grid
    point twice."""
    if not spec.strip():
        raise DocumentError("--grid: empty grid")
    try:
        values = tuple(rational(v) for v in spec.split(","))
    except ValueError as exc:
        raise DocumentError(f"--grid: {exc}") from exc
    seen = set()
    for v in values:
        if v in seen:
            raise DocumentError(f"--grid: value {format_rational(v)} is repeated")
        seen.add(v)
    return values


def cmd_theorem(args, out, err) -> int:
    values = DEFAULT_GRID if args.grid is None else _parse_grid(args.grid)
    points = list(grid_points(values))
    if args.self_test:
        report = grid_verification(points[:2], perturb_curvature=True)
        flagged = [c for c in report.failures() if c.name == "table: curvature"]
        if flagged:
            print("self-test: perturbed expectation detected "
                  f"({flagged[0].detail})", file=out)
            return EXIT_OK
        print("self-test FAILED: perturbed expectation went unnoticed", file=err)
        return EXIT_CHECK
    report = grid_verification(points)
    _print_check_lines(_check_records(report.checks), out)
    print(f"{len(points)} grid points, "
          f"{len(report.checks) - len(report.failures())} of {len(report.checks)} checks pass",
          file=out)
    return EXIT_OK if report.valid else EXIT_CHECK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads any argument starting with "-" and a
    digit as a value, so that a negative rational such as -2/3, or a grid
    starting with one, is not taken for an option.  Its subparsers are of
    the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="paratwin",
        description="Exact tensor engine for almost paracomplex pseudo-Riemannian Lie groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural validation of a manifold document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="classification, scalars and twin-interchange checks")
    p.add_argument("file", nargs="?")
    p.add_argument("--family", nargs=3, metavar=("L1", "L2", "E"),
                   help="build the two-parameter family manifold instead of reading a file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("theorem", help="verify all family claims and tables over a grid")
    p.add_argument("--grid", help="comma-separated rational values for both parameters")
    p.add_argument("--self-test", action="store_true",
                   help="verify that a deliberately wrong expectation is detected")
    p.set_defaults(func=cmd_theorem)
    return parser


_PARSER = make_parser()


def main(argv=None, out=None, err=None) -> int:
    """Run one command; out and err default to the current sys.stdout and
    sys.stderr, read at call time."""
    argv = sys.argv[1:] if argv is None else list(argv)
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    args = _PARSER.parse_args(argv)
    if args.command == "report" and (args.file is None) == (args.family is None):
        print("report: exactly one of <file> or --family is required", file=err)
        return EXIT_PARSE
    try:
        return args.func(args, out, err)
    except DocumentError as exc:
        print(f"parse error: {exc}", file=err)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"invalid: {exc}", file=err)
        return EXIT_INVALID
    except ParatwinError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
