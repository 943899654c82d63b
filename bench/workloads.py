"""Seeded inputs and their oracle for the paratwin benchmark.

Nothing here imports paratwin.  Documents are built from the paper's
structure constants of the two-parameter family and pulled back along
a change of basis in exact rational arithmetic; expected values come from
the family's closed forms, which do not depend on the basis:

    d = l1^2 - l2^2
    tau = 48 d,   tau~ = -48 e d,   |nabla P|^2 = -128 d,   twin |nabla P|^2 = 128 e d

For a block direct sum every one of these scalars is the sum over blocks.
Each op is the argv of one ``paratwin`` CLI call plus what the oracle
expects of its exit code and output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

N4 = 4
SUITE_CHECKS = 21        # invariance-suite checks in every report, at least
THEOREM_CHECKS = 25      # theorem_checks entries per grid, at least
#: the bundled twin-side tables that are inconsistent with the engine
THEOREM_FAILURES = frozenset({
    "table: twin curvature",
    "table: Ricci and scalar curvature",
    "table: twin difference tensor",
    "table: average curvature",
})
#: invalid variants of a dense document and the exit code each must give
INVALID_KINDS = (("jacobi", 3), ("p-square", 3), ("p-compat", 3),
                 ("decimal", 2), ("index", 2))
#: every INVALID_EVERY-th op of report-dense4 is an invalid document
INVALID_EVERY = 5
ADAPTED_P = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
ADAPTED_G = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]


@dataclass(frozen=True)
class Point:
    l1: Fraction
    l2: Fraction
    eps: int

    def scalars(self) -> dict[str, Fraction]:
        d = self.l1 ** 2 - self.l2 ** 2
        return {"tau": 48 * d, "tau_twin": -48 * self.eps * d,
                "snorm": -128 * d, "snorm_twin": 128 * self.eps * d}

    def minimal_class(self) -> str:
        return "W0" if not self.l1 and not self.l2 else "W1"


@dataclass
class Op:
    """One CLI call: argv, the document to write first (if any), and
    what the oracle expects."""
    kind: str                       # "report", "invalid", "conflict", "theorem"
    argv: list[str]
    document: str | None = None     # JSON text written to argv's file
    exit_code: int = 0
    scalars: dict[str, Fraction] = field(default_factory=dict)
    minimal_class: str | None = None


# ---------------------------------------------------------------------------
# exact rational linear algebra

def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def mat_mul(a, b):
    n, m, k = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(m)) for j in range(k)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def inverse(a):
    """Gauss-Jordan inverse over Q; None when singular."""
    n = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def jacobi_holds(c, n: int) -> bool:
    """Cyclic sum of [[X_i,X_j],X_l] vanishes for all basis triples."""
    for i, j, l, m in product(range(n), repeat=4):
        total = Fraction(0)
        for a, b, e in ((i, j, l), (j, l, i), (l, i, j)):
            for s in range(n):
                if c[s][a][b]:
                    total += c[s][a][b] * c[m][s][e]
        if total:
            return False
    return True


# ---------------------------------------------------------------------------
# the two-parameter family and its documents

def family_constants(p: Point):
    """c[k][i][j] = c^k_{ij} of the family in its adapted basis."""
    l1, l2, e = p.l1, p.l2, p.eps
    v14 = [l1, e * l1, l2, e * l2]
    v13 = [-e * l1, -l1, e * l2, l2]
    brackets = {(0, 3): v14, (2, 1): v14, (0, 2): v13, (3, 1): v13,
                (0, 1): [2 * l2, 2 * e * l2, 0, 0], (2, 3): [0, 0, 2 * l1, 2 * e * l1]}
    c = [[[Fraction(0)] * N4 for _ in range(N4)] for _ in range(N4)]
    for (i, j), vec in brackets.items():
        for k in range(N4):
            c[k][i][j] = Fraction(vec[k])
            c[k][j][i] = -Fraction(vec[k])
    return c


def pull_back(c, M, Minv):
    """Structure constants in the basis e'_a = sum_b M[b][a] e_b."""
    n = len(M)
    c2 = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j in product(range(n), repeat=2):
        if j <= i:
            continue
        v = [sum((M[a][i] * M[b][j] * c[l][a][b]
                  for a in range(n) for b in range(n) if c[l][a][b]), Fraction(0))
             for l in range(n)]
        for k in range(n):
            w = sum((Minv[k][l] * v[l] for l in range(n)), Fraction(0))
            c2[k][i][j], c2[k][j][i] = w, -w
    return c2


def document(c, P, g, labels) -> dict:
    n = len(labels)
    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = {str(k + 1): fmt(c[k][i][j]) for k in range(n) if c[k][i][j]}
            if coeffs:
                brackets.append({"i": i + 1, "j": j + 1, "coeffs": coeffs})
    matrix = lambda a: [[fmt(Fraction(x)) for x in row] for row in a]
    return {"dim": n, "basis": list(labels), "brackets": brackets,
            "metric": matrix(g), "P": matrix(P)}


def _small_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if q or not nonzero:
            return q


def random_point(rng: random.Random, abelian_ok: bool = True) -> Point:
    """A family point; the Abelian point l1 = l2 = 0 is redrawn unless
    abelian_ok, for variants that need a bracket to alter."""
    while True:
        p = Point(_small_rational(rng), _small_rational(rng), rng.choice((1, -1)))
        if abelian_ok or p.l1 or p.l2:
            return p


def random_basis(rng: random.Random, n: int = N4):
    """Unimodular integer matrix L U and its integer inverse, both without
    zero entries, so every component in the new basis is generically nonzero."""
    steps = (-2, -1, 1, 2)
    while True:
        L = [[int(i == j) if i <= j else rng.choice(steps) for j in range(n)]
             for i in range(n)]
        U = [[rng.choice((-1, 1)) if i == j else rng.choice(steps) if i < j else 0
              for j in range(n)] for i in range(n)]
        M = mat_mul(L, U)
        if all(x for row in M for x in row):
            Minv = [[int(x) for x in row] for row in inverse(M)]
            if all(x for row in Minv for x in row):
                return M, Minv


def dense_document(p: Point, rng: random.Random) -> dict:
    """The family at p in a random basis where P, g and, unless the algebra
    is Abelian, every bracket [Y_i, Y_j] with i < j have no zero component."""
    c0 = family_constants(p)
    abelian = not p.l1 and not p.l2
    while True:
        M, Minv = random_basis(rng)
        P = mat_mul(Minv, mat_mul(ADAPTED_P, M))
        g = mat_mul(transpose(M), mat_mul(ADAPTED_G, M))
        if not all(x for row in P + g for x in row):
            continue
        c = pull_back(c0, M, Minv)
        if abelian or all(c[k][i][j] for k, i, j in product(range(N4), repeat=3) if i < j):
            return document(c, P, g, [f"Y{k + 1}" for k in range(N4)])


def block_document(blocks: list[Point | None]) -> dict:
    """Direct sum in the block basis; None is the Abelian block."""
    n = N4 * len(blocks)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    P = [[0] * n for _ in range(n)]
    g = [[0] * n for _ in range(n)]
    for b, p in enumerate(blocks):
        o = N4 * b
        if p is not None:
            cb = family_constants(p)
            for k, i, j in product(range(N4), repeat=3):
                c[o + k][o + i][o + j] = cb[k][i][j]
        for i, j in product(range(N4), repeat=2):
            P[o + i][o + j] = ADAPTED_P[i][j]
            g[o + i][o + j] = ADAPTED_G[i][j]
    labels = [f"B{b + 1}X{k + 1}" for b in range(len(blocks)) for k in range(N4)]
    return document(c, P, g, labels)


# ---------------------------------------------------------------------------
# invalid and conflicting variants

def invalid_document(doc: dict, kind: str, rng: random.Random) -> dict:
    """A copy of a valid dense document that breaks one axiom."""
    doc = json.loads(json.dumps(doc))
    n = doc["dim"]
    if kind == "jacobi":
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for e in doc["brackets"]:
            for k, v in e["coeffs"].items():
                c[int(k) - 1][e["i"] - 1][e["j"] - 1] = Fraction(v)
                c[int(k) - 1][e["j"] - 1][e["i"] - 1] = -Fraction(v)
        while True:
            entry = rng.choice(doc["brackets"])
            key = rng.choice(sorted(entry["coeffs"]))
            k, i, j = int(key) - 1, entry["i"] - 1, entry["j"] - 1
            old = c[k][i][j]
            c[k][i][j], c[k][j][i] = old + 1, -old - 1
            if not jacobi_holds(c, n):
                entry["coeffs"][key] = fmt(old + 1)
                return doc
            c[k][i][j], c[k][j][i] = old, -old
    if kind == "p-square":
        doc["P"] = [[fmt(2 * Fraction(x)) for x in row] for row in doc["P"]]
    elif kind == "p-compat":
        P = [[Fraction(x) for x in row] for row in doc["P"]]
        while True:
            a, b = rng.randrange(n), rng.randrange(n)
            g = [[Fraction(x) for x in row] for row in doc["metric"]]
            g[a][b] += 1
            if a != b:
                g[b][a] += 1
            if inverse(g) is not None and mat_mul(transpose(P), mat_mul(g, P)) != g:
                doc["metric"] = [[fmt(x) for x in row] for row in g]
                return doc
    elif kind == "decimal":
        r, s = rng.randrange(n), rng.randrange(n)
        doc["metric"][r][s] = f"{float(Fraction(doc['metric'][r][s])) + 0.5}"
    elif kind == "index":
        doc["brackets"][rng.randrange(len(doc["brackets"]))]["i"] = n + 1
    else:
        raise ValueError(f"unknown invalid kind {kind!r}")
    return doc


def conflict_document(doc: dict, rng: random.Random) -> dict:
    """A valid document preceded by a conflicting duplicate of one bracket.

    The duplicate names the pair as (j, i) with other coefficients; the
    original entry comes last, so a parser that keeps the last write sees
    a valid manifold and silently accepts the conflict.
    """
    doc = json.loads(json.dumps(doc))
    entry = rng.choice(doc["brackets"])
    wrong = {k: fmt(Fraction(v) + 1) for k, v in entry["coeffs"].items()}
    doc["brackets"].insert(0, {"i": entry["j"], "j": entry["i"], "coeffs": wrong})
    return doc


# ---------------------------------------------------------------------------
# workloads

def _rng(seed: int, workload: str, stream: str, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}:{k}")


def _report_op(doc: dict, path: str, scalars, minimal_class=None,
               kind: str = "report", exit_code: int = 0) -> Op:
    return Op(kind, ["report", path, "--json"], json.dumps(doc, indent=1),
              exit_code, scalars, minimal_class)


def dense4_op(seed: int, k: int, path: str, stream: str = "op") -> Op:
    """k-th op of report-dense4: every INVALID_EVERY-th document is invalid."""
    rng = _rng(seed, "report-dense4", stream, k)
    invalid = k % INVALID_EVERY == INVALID_EVERY - 1
    p = random_point(rng, abelian_ok=not invalid)
    doc = dense_document(p, rng)
    if invalid:
        kind, code = INVALID_KINDS[(k // INVALID_EVERY) % len(INVALID_KINDS)]
        return _report_op(invalid_document(doc, kind, rng), path, {},
                          kind="invalid", exit_code=code)
    return _report_op(doc, path, p.scalars(), p.minimal_class())


def conflict_op(seed: int, k: int, path: str) -> Op:
    rng = _rng(seed, "report-dense4", "conflict", k)
    p = random_point(rng, abelian_ok=False)
    doc = conflict_document(dense_document(p, rng), rng)
    return _report_op(doc, path, p.scalars(), p.minimal_class(), kind="conflict")


def blocks12_op(seed: int, k: int, path: str, stream: str = "op") -> Op:
    """Two seeded family blocks and one Abelian block, in seeded order."""
    rng = _rng(seed, "report-blocks12", stream, k)
    blocks: list[Point | None] = [random_point(rng), random_point(rng), None]
    rng.shuffle(blocks)
    total: dict[str, Fraction] = {}
    for p in blocks:
        if p is not None:
            for name, v in p.scalars().items():
                total[name] = total.get(name, 0) + v
    return _report_op(block_document(blocks), path, total)


def grid_values(rng: random.Random, count: int) -> list[Fraction]:
    """Nonzero rationals of distinct absolute value, negatives included."""
    values: list[Fraction] = []
    while len(values) < count:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if q and all(abs(q) != abs(v) for v in values):
            values.append(q)
    return values


def theorem_op(seed: int, k: int, count: int = 3, stream: str = "op") -> Op:
    """theorem over a fresh 2*count^2-point grid.

    The grid is passed as --grid=<spec>: with a separate argument a
    leading '-' is read by argparse as an option and the call exits 2.
    """
    values = grid_values(_rng(seed, "theorem-grid", stream, k), count)
    return Op("theorem", ["theorem", "--grid=" + ",".join(fmt(v) for v in values)],
              exit_code=4)


# ---------------------------------------------------------------------------
# oracle

def check_output(op: Op, code: int, out: str) -> tuple[bool, int]:
    """(output matches the oracle, number of named checks visible in it)."""
    if op.kind == "invalid":
        return code == op.exit_code and out == "", 0
    if op.kind == "theorem":
        return _check_theorem(op, code, out)
    if code != op.exit_code:
        return False, 0
    try:
        report = json.loads(out)
        checks = report["checks"]
        scalars = {name: Fraction(report["scalars"][name]) for name in op.scalars}
        ok = (len(checks) >= SUITE_CHECKS
              and len({c["name"] for c in checks}) == len(checks)
              and all(c["passed"] is True for c in checks)
              and scalars == op.scalars
              and report["isotropic_w0"] is (op.scalars["snorm"] == 0)
              and report["scalar_flat"] is (op.scalars["tau"] == 0
                                            and op.scalars["tau_twin"] == 0)
              and (op.minimal_class is None
                   or report["classification"]["class"] == op.minimal_class))
    except (ValueError, KeyError, TypeError, ZeroDivisionError):
        return False, 0
    return ok, len(checks)


def _check_theorem(op: Op, code: int, out: str) -> tuple[bool, int]:
    passed, failed, unexpected = set(), set(), 0
    for line in out.splitlines():
        if line.startswith("  [pass] "):
            passed.add(line[len("  [pass] "):])
        elif line.startswith("  [FAIL] "):
            text = line[len("  [FAIL] "):]
            name = next((f for f in THEOREM_FAILURES
                         if text == f or text.startswith(f + ": ")), None)
            if name is None:
                unexpected += 1
            else:
                failed.add(name)
    n = len(passed) + len(failed) + unexpected
    ok = (code == op.exit_code and failed == THEOREM_FAILURES and not unexpected
          and n >= THEOREM_CHECKS and not passed & failed)
    return ok, n
