"""Command-line interface: documents, commands, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from paratwin import cli, manifold
from paratwin.errors import ECHO_LIMIT
from paratwin.family import FamilyParams, build_family
from paratwin.manifold import build_manifold
from paratwin.scalar import Q, ZERO, rational
from paratwin.tensor import DOWN, UP, TensorDense

from manifolds import abelian_manifold, direct_sum, document_of, tensor_equal

FIXTURE = Path(__file__).parent / "fixtures" / "family-1-2-1.json"
#: stdout of `paratwin theorem --grid=1,-2/3,3/2`, then "[exit <code>]"
GOLDEN = Path(__file__).parent / "fixtures" / "theorem-golden.txt"
#: stdout of `paratwin report --family 1 2 1 --json`
REPORT_GOLDEN = Path(__file__).parent / "fixtures" / "report-family-1-2-1.json"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_document_round_trip():
    m = build_family(FamilyParams(Q(-3), Q(1, 2), Q(-1)))
    doc = document_of(m)
    alg, P, g, _ = cli.parse_document(doc)
    m2 = build_manifold(alg, P, g)
    assert tensor_equal(m.algebra.c, m2.algebra.c)
    assert tensor_equal(m.P, m2.P)
    assert tensor_equal(m.g, m2.g)
    assert tensor_equal(m.g_twin, m2.g_twin)


def test_fixture_matches_generator():
    doc = json.loads(FIXTURE.read_text())
    m = build_family(FamilyParams(Q(1), Q(2), Q(1)))
    assert doc == document_of(m)


def test_validate_fixture():
    code, out, _ = run(["validate", str(FIXTURE)])
    assert code == cli.EXIT_OK
    assert "valid" in out


def test_validate_broken_jacobi(tmp_path):
    doc = json.loads(FIXTURE.read_text())
    doc["brackets"][0]["coeffs"]["1"] = "7"       # break the Jacobi identity
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["validate", str(path)])
    assert code == cli.EXIT_INVALID
    assert "jacobi" in out
    assert "X_" in out                            # the violating triple is named


def test_validate_checks_the_lie_algebra_once(tmp_path, monkeypatch):
    calls = []
    original = manifold.validate_lie_algebra

    def counting(alg):
        calls.append(alg)
        return original(alg)

    monkeypatch.setattr(manifold, "validate_lie_algebra", counting)
    monkeypatch.setattr(cli, "validate_lie_algebra", counting)
    doc = json.loads(FIXTURE.read_text())
    doc["brackets"][0]["coeffs"]["1"] = "7"       # break the Jacobi identity
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    doc = json.loads(FIXTURE.read_text())
    doc["P"][0] = ["1", "0", "0", "0"]            # P^2 != id, after a valid algebra
    bad_p = tmp_path / "bad_p.json"
    bad_p.write_text(json.dumps(doc))
    for path, code in ((FIXTURE, cli.EXIT_OK), (broken, cli.EXIT_INVALID),
                       (bad_p, cli.EXIT_INVALID)):
        calls.clear()
        assert run(["validate", str(path)])[0] == code
        assert len(calls) == 1


def test_validate_empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    code, _, err = run(["validate", str(path)])
    assert code == cli.EXIT_PARSE
    assert "parse error" in err


def test_validate_missing_file():
    code, _, err = run(["validate", "/no/such/file.json"])
    assert code == cli.EXIT_PARSE


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(dim="4"), "dim"),
    (lambda d: d.update(basis=["X1"]), "basis"),
    (lambda d: d["brackets"].append({"i": 0, "j": 2, "coeffs": {}}), "index"),
    (lambda d: d["metric"][0].__setitem__(0, "1.5"), "decimal"),
    (lambda d: d.pop("P"), "P"),
])
def test_malformed_documents(tmp_path, mutate, message):
    doc = json.loads(FIXTURE.read_text())
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["validate", str(path)])
    assert code == cli.EXIT_PARSE
    assert message in err


def test_incompatible_metric_rejected(tmp_path):
    doc = json.loads(FIXTURE.read_text())
    doc["metric"][1][1] = "2"                     # g(PX1, PX1) != g(X1, X1)
    path = tmp_path / "bad_metric.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["validate", str(path)])
    assert code == cli.EXIT_INVALID
    assert "compatible" in err


@pytest.mark.parametrize("mutate, field", [
    (lambda d: d["metric"][0].__setitem__(0, True), "metric[1][1]"),
    (lambda d: d["P"][1].__setitem__(0, False), "P[2][1]"),
    (lambda d: d["brackets"][0]["coeffs"].__setitem__("1", True), "brackets[0].coeffs[1]"),
])
def test_json_booleans_are_not_rationals(tmp_path, mutate, field):
    """true and false are not read as 1 and 0; the error names the field."""
    doc = json.loads(FIXTURE.read_text())
    mutate(doc)
    code, out, err = run(["validate", _write(tmp_path, doc)])
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert f"{field}: expected a rational string" in err


def test_report_family_reference_point():
    code, out, _ = run(["report", "--family", "1", "2", "1"])
    assert code == cli.EXIT_OK
    assert "class: W1" in out
    assert "tau: -144" in out
    assert "snorm: 384" in out


def test_report_family_json_matches_golden_file():
    code, out, err = run(["report", "--family", "1", "2", "1", "--json"])
    assert (code, err) == (cli.EXIT_OK, "")
    assert out.encode() == REPORT_GOLDEN.read_bytes()


def test_report_family_origin():
    code, out, _ = run(["report", "--family", "0", "0", "1"])
    assert code == cli.EXIT_OK
    assert "class: W0" in out
    assert "tau: 0" in out and "snorm: 0" in out


def test_report_family_isotropic():
    code, out, _ = run(["report", "--family", "1", "1", "1"])
    assert code == cli.EXIT_OK
    assert "isotropic_w0: true" in out
    assert "scalar_flat: true" in out
    assert "class: W1" in out


@pytest.mark.parametrize("family, label, tau", [
    (["1", "-2/3", "1"], "family(l1=1, l2=-2/3, e=1)", "80/3"),
    (["-1/2", "-3", "-1"], "family(l1=-1/2, l2=-3, e=-1)", "-420"),
])
def test_report_family_takes_negative_rationals(family, label, tau):
    """--family reads a value such as -2/3 as a rational, not an option;
    tau = 48 (l1^2 - l2^2)."""
    code, out, err = run(["report", "--family", *family])
    assert code == cli.EXIT_OK, err
    assert f"manifold: {label} (dim 4)" in out
    assert f"tau: {tau}" in out


def dense_invalid_document(n):
    """Every bracket nonzero, with small integer coefficients; the Jacobi
    identity fails in most components."""
    return {"dim": n, "basis": [f"X{i + 1}" for i in range(n)],
            "brackets": [{"i": i + 1, "j": j + 1,
                          "coeffs": {str(k + 1): str(1 + (3 * i + 5 * j + k) % 4)
                                     for k in range(n)}}
                         for i in range(n) for j in range(i + 1, n)],
            "P": [["1" if i ^ 1 == j else "0" for j in range(n)] for i in range(n)],
            "metric": [["1" if i == j else "0" for j in range(n)] for i in range(n)]}


def test_validate_lists_the_first_failures_and_counts_the_rest(tmp_path):
    """A dense invalid dim-8 document fails the Jacobi identity in 2,616
    components, which validate once printed one line each.  It now prints
    the first LISTED_FAILURES and counts the rest; report names the same
    first failure."""
    path = _write(tmp_path, dense_invalid_document(8))
    code, out, err = run(["validate", path])
    assert code == cli.EXIT_INVALID
    assert err == "invalid: Lie algebra axioms violated\n"
    lines = out.splitlines()
    first = "jacobi: cyclic sum for (X_1, X_2, X_3) has nonzero X_1 component -34"
    listed = manifold.LISTED_FAILURES
    assert lines[:2] == ["  [pass] antisymmetry", f"  [FAIL] {first}"]
    assert lines[-1] == f"  [FAIL] jacobi: and {2616 - listed} more failing components"
    assert len(lines) == listed + 2
    code, _, err = run(["report", path])
    assert code == cli.EXIT_INVALID
    assert err == f"invalid: invalid Lie algebra: {first}\n"


def test_report_json_matches_text():
    code, text, _ = run(["report", "--family", "1", "2", "1"])
    code2, raw, _ = run(["report", "--family", "1", "2", "1", "--json"])
    assert code == code2 == cli.EXIT_OK
    data = json.loads(raw)
    assert data["classification"]["class"] == "W1"
    assert data["scalars"]["tau"] == "-144"
    assert data["scalars"]["snorm"] == "384"
    assert all(c["passed"] for c in data["checks"])
    # same check names in both renderings
    for c in data["checks"]:
        assert c["name"] in text


def test_report_from_file():
    code, out, _ = run(["report", str(FIXTURE)])
    assert code == cli.EXIT_OK
    assert "class: W1" in out


def test_report_requires_one_source():
    code, _, err = run(["report"])
    assert code == cli.EXIT_PARSE
    code, _, err = run(["report", str(FIXTURE), "--family", "1", "2", "1"])
    assert code == cli.EXIT_PARSE


def test_theorem_small_grid_names_failing_tables():
    code, out, _ = run(["theorem", "--grid", "0,1"])
    assert code == cli.EXIT_CHECK
    assert "table: twin curvature" in out
    assert "[pass] claim: minimal class" in out
    assert "[pass] identity: B = 0" in out


def test_theorem_output_matches_golden_file():
    code, out, _ = run(["theorem", "--grid=1,-2/3,3/2"])
    assert (out + f"[exit {code}]\n").encode() == GOLDEN.read_bytes()


def test_theorem_self_test():
    code, out, _ = run(["theorem", "--self-test"])
    assert code == cli.EXIT_OK
    assert "detected" in out


def test_theorem_bad_grid():
    code, _, err = run(["theorem", "--grid", "1,0.5"])
    assert code == cli.EXIT_PARSE


@pytest.mark.parametrize("argv, message", [
    (["theorem", "--grid="], "empty grid"),
    (["theorem", "--grid", ""], "empty grid"),
    (["theorem", "--grid=1,1"], "value 1 is repeated"),
    (["theorem", "--grid", "-2/3,1,-4/6"], "value -2/3 is repeated"),
    (["theorem", "--grid=0,1/2,2/4", "--self-test"], "value 1/2 is repeated"),
])
def test_theorem_rejects_empty_or_repeated_grid(argv, message):
    """Neither falls back to the default grid nor runs a point twice."""
    code, out, err = run(argv)
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert f"--grid: {message}" in err


def test_main_reads_the_current_streams():
    """Without out/err, main writes to sys.stdout and sys.stderr as they are
    when it is called, so redirect_stdout captures the output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["report", "--family", "1", "2", "1"])
        bad = cli.main(["theorem", "--grid=1,1"])
    assert code == cli.EXIT_OK and bad == cli.EXIT_PARSE
    assert out.getvalue() == run(["report", "--family", "1", "2", "1"])[1]
    assert err.getvalue() == "parse error: --grid: value 1 is repeated\n"


def test_python_dash_m_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "paratwin", "validate", str(FIXTURE)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stdout == run(["validate", str(FIXTURE)])[1]


def _write(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_conflicting_bracket_rejected(tmp_path):
    """A (j, i) entry ahead of the (i, j) entry for the same pair is a parse
    error, not a silent last write."""
    doc = json.loads(FIXTURE.read_text())
    entry = doc["brackets"][0]
    wrong = {k: str(Q(v) + 1) for k, v in entry["coeffs"].items()}
    doc["brackets"].insert(0, {"i": entry["j"], "j": entry["i"], "coeffs": wrong})
    for command in ("validate", "report"):
        code, out, err = run([command, _write(tmp_path, doc)])
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert "brackets[1]" in err and "already given by brackets[0]" in err


def test_duplicate_bracket_rejected(tmp_path):
    doc = json.loads(FIXTURE.read_text())
    doc["brackets"].append(dict(doc["brackets"][0]))     # same pair, same values
    code, _, err = run(["validate", _write(tmp_path, doc)])
    assert code == cli.EXIT_PARSE
    assert "already given" in err


def test_one_coefficient_spelled_twice_rejected(tmp_path):
    """"1" and "01" both name X1 in a bracket's coeffs; naming both is a
    parse error, not a silent last write."""
    doc = {"dim": 2, "basis": ["X1", "X2"],
           "brackets": [{"i": 1, "j": 2, "coeffs": {"1": "2", "01": "3"}}],
           "metric": [["1", "0"], ["0", "-1"]], "P": [["0", "1"], ["1", "0"]]}
    for command in ("validate", "report"):
        code, out, err = run([command, _write(tmp_path, doc)])
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert "brackets[0].coeffs: keys '1' and '01' both name X_1" in err


def test_repeated_json_key_rejected(tmp_path):
    """A key given twice in one JSON object is a parse error, in a bracket's
    coeffs and at the top level alike; json.load alone keeps the last."""
    doc = json.dumps(json.loads(FIXTURE.read_text()))
    path = tmp_path / "doc.json"
    for text in (doc.replace('"coeffs": {', '"coeffs": {"1": "2", ', 1),
                 doc.replace('{"dim": 4,', '{"dim": 4, "dim": 4,', 1)):
        assert text != doc
        path.write_text(text)
        for command in ("validate", "report"):
            code, out, err = run([command, str(path)])
            assert (code, out) == (cli.EXIT_PARSE, "")
            assert "is repeated in one object" in err


@pytest.mark.parametrize("content, message", [
    (b"\xff", "is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
    (b"[" * 1000 + b"]" * 1000, "is nested too deeply to read"),
], ids=["not-utf8", "nested-1000-deep"])
def test_unreadable_document_is_a_parse_error(tmp_path, content, message):
    """A file that is not UTF-8, or JSON nested deeper than the parser can
    follow, is a parse error, not a traceback."""
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    for command in ("validate", "report"):
        code, out, err = run([command, str(path)])
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert err.startswith("parse error: ") and message in err, err


def test_integer_beyond_the_digit_limit_is_a_parse_error(tmp_path):
    """A JSON integer of more digits than Python converts (4,300 by
    default) is not valid JSON to the engine, not a traceback."""
    path = tmp_path / "doc.json"
    path.write_text('{"dim": ' + "1" * 5000 + "}")
    for command in ("validate", "report"):
        code, out, err = run([command, str(path)])
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert err.startswith(f"parse error: {path} is not valid JSON: "), err
        assert len(err) < 1000


def test_repeated_key_among_many_is_found_quickly(tmp_path):
    """The first key in document order that repeats is named, and finding
    it among 100,000 keys, when only the last one repeats, takes well
    under a second."""
    keys = [f"k{i}" for i in range(100_000)]
    path = tmp_path / "doc.json"
    for extra, repeated in [(["k99999"], "k99999"), (["k9", "k3"], "k3")]:
        path.write_text("{" + ", ".join(f'"{k}": 0' for k in keys + extra) + "}")
        start = time.perf_counter()
        code, out, err = run(["validate", str(path)])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert err == (f"parse error: {path} is not valid JSON: "
                       f"key {repeated!r} is repeated in one object\n")


MEGABYTE = "7" * 1_000_000


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(dim=MEGABYTE),
    lambda doc: doc.update(dim=[MEGABYTE]),
    lambda doc: doc["brackets"][0]["coeffs"].update({"1": "x" + MEGABYTE}),
    lambda doc: doc["brackets"][0]["coeffs"].update({"1": [MEGABYTE]}),
    lambda doc: doc["brackets"][0]["coeffs"].update({MEGABYTE: "1"}),
    lambda doc: doc["brackets"][0]["coeffs"].update({"1" + " " * 1_000_000: "x"}),
    lambda doc: doc["brackets"][0]["coeffs"].update({" " * 1_000_000 + "1": "2"}),
    lambda doc: doc["brackets"][0].update(i=MEGABYTE),
    lambda doc: doc["P"][0].__setitem__(0, "0." + MEGABYTE),
], ids=["dim", "dim-list", "coefficient", "coefficient-list", "coeffs-key",
        "padded-key-bad-value", "padded-key-twice", "index", "decimal"])
def test_a_huge_value_is_not_echoed_whole(tmp_path, edit):
    """A parse error quotes at most ECHO_LIMIT characters of the value it
    rejects, so a 1 MB payload gives a short message."""
    doc = json.loads(FIXTURE.read_text())
    edit(doc)
    code, out, err = run(["validate", _write(tmp_path, doc)])
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err.startswith("parse error: ") and len(err.encode()) < 1000, err[:2000]


def test_a_huge_repeated_key_is_not_echoed_whole(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(f'{{"{MEGABYTE}": 1, "{MEGABYTE}": 2}}')
    code, out, err = run(["validate", str(path)])
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert len(err.encode()) < 1000
    assert err.endswith(f"key '{MEGABYTE[:76]}... is repeated in one object\n")


def test_a_short_value_is_echoed_whole(tmp_path):
    """A value whose repr fits in ECHO_LIMIT characters is quoted as it
    is; one character more and it is cut to ECHO_LIMIT with "..."."""
    for text, shown in [("x" * 78, "'" + "x" * 78 + "'"),
                        ("x" * 79, "'" + "x" * 76 + "...")]:
        doc = {**json.loads(FIXTURE.read_text()), "dim": text}
        code, _, err = run(["validate", _write(tmp_path, doc)])
        assert code == cli.EXIT_PARSE
        assert err == f"parse error: dim: expected a positive integer, got {shown}\n"
        assert len(shown) <= ECHO_LIMIT


def test_oversized_dim_rejected_before_allocation(tmp_path):
    """A few bytes claiming dim = 10^6 (10^18 bracket slots) fail fast."""
    doc = {"dim": 10 ** 6, "basis": [], "brackets": [], "metric": [], "P": []}
    tracemalloc.start()
    try:
        with pytest.raises(cli.DocumentError, match="maximum dimension"):
            cli.parse_document(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    code, _, err = run(["validate", _write(tmp_path, doc)])
    assert code == cli.EXIT_PARSE
    assert f"exceeds the maximum dimension {cli.MAX_DIM}" in err


def test_dim_cap_admits_its_own_value():
    doc = {"dim": cli.MAX_DIM, "basis": [f"X{i}" for i in range(cli.MAX_DIM)],
           "brackets": [], "P": [["0"] * cli.MAX_DIM] * cli.MAX_DIM,
           "metric": [["0"] * cli.MAX_DIM] * cli.MAX_DIM}
    alg, _, _, _ = cli.parse_document(doc)
    assert alg.dim == cli.MAX_DIM


@pytest.mark.parametrize("argv", [["theorem", "--grid", "-2/3,1"],
                                  ["theorem", "--grid=-2/3,1"]])
def test_theorem_negative_grid_value(argv):
    """Both spellings take a grid that starts with a negative value."""
    code, out, err = run(argv)
    assert code == cli.EXIT_CHECK, err
    assert "8 grid points" in out
    assert "(e.g. family(l1=-2/3, l2=1, e=1))" in out
    assert out == run(["theorem", "--grid=-2/3,1"])[1]


def test_direct_sum_report_adds_block_scalars():
    """A dim-8 direct sum passes the whole suite, and its scalar curvatures
    are the sums of the blocks' closed forms tau = 48 d, tau~ = -48 eps d
    with d = l1^2 - l2^2."""
    blocks = [FamilyParams(Q(1), Q(2), Q(1)), FamilyParams(Q(-1), Q(1, 2), Q(-1))]
    m = direct_sum(build_family(blocks[0]), build_family(blocks[1]))
    report = cli.build_report(m)
    assert report["manifold"]["dim"] == 8
    assert len(report["checks"]) >= 21
    assert all(c["passed"] for c in report["checks"])
    d = [p.lambda1 ** 2 - p.lambda2 ** 2 for p in blocks]
    assert Q(report["scalars"]["tau"]) == sum(48 * x for x in d)
    assert Q(report["scalars"]["tau_twin"]) == sum(-48 * p.epsilon * x for p, x in zip(blocks, d))

    flat = cli.build_report(direct_sum(build_family(blocks[0]), abelian_manifold(4)))
    assert all(c["passed"] for c in flat["checks"])
    assert Q(flat["scalars"]["tau"]) == 48 * d[0]


def dense_constants(doc) -> TensorDense:
    """The structure constants of a document through the full list of
    dim^3 rationals: the reference for parse_document's sparse build."""
    n = doc["dim"]
    data = [ZERO] * n ** 3
    for entry in doc["brackets"]:
        i, j = entry["i"] - 1, entry["j"] - 1
        for key, value in entry["coeffs"].items():
            k = int(key) - 1
            data[(k * n + i) * n + j] = rational(value)
            data[(k * n + j) * n + i] = -rational(value)
    return TensorDense(n, (UP, DOWN, DOWN), data)


def _brackets(*entries):
    return [{"i": i, "j": j, "coeffs": coeffs} for i, j, coeffs in entries]


@pytest.mark.parametrize("brackets", [
    [],                                                             # Abelian
    _brackets((1, 2, {"1": "2/4", "3": "-6/8"}), (2, 4, {"2": "10/5"})),   # not reduced
    _brackets((1, 3, {"1": "-3", "4": "-1/7"}), (3, 4, {"2": "-5/2"})),    # negative
    _brackets((1, 2, {"1": "1/6", "2": "5/6"}), (2, 3, {"4": "-7/6"}),     # shared
              (3, 4, {"3": "1/6", "1": "0"})),                             # denominators
    _brackets((2, 2, {"1": "3/2"}), (1, 4, {"2": "12/9", "3": "4/9"})),
])
def test_parse_document_builds_c_from_the_nonzero_coefficients(brackets):
    """c from the nonzero coefficients, as integers over their lcm, has the
    den and nums of c built from the full list of rationals."""
    doc = {**json.loads(FIXTURE.read_text()), "brackets": brackets}
    alg, _, _, _ = cli.parse_document(doc)
    want = dense_constants(doc)
    assert (alg.c.den, alg.c.nums) == (want.den, want.nums)
    assert alg.c.support == want.support
    assert alg.c.variance == want.variance


def with_zeros_as(doc, zero):
    """doc with every zero entry of P and metric written as zero."""
    return {**doc, **{key: [[v if v != "0" else zero for v in row] for row in doc[key]]
                      for key in ("P", "metric")}}


@pytest.mark.parametrize("zero", ["0", "0/1", "-0", " 0 ", "0/7", 0])
@pytest.mark.parametrize("scaled", [False, True])
def test_parse_document_builds_P_and_g_from_the_nonzero_entries(zero, scaled):
    """P and g from their nonzero entries have the den, nums and support of
    the matrices of every entry parsed with rational(), whatever way a zero
    is written; scaled writes the nonzero entries of g unreduced."""
    doc = with_zeros_as(json.loads(FIXTURE.read_text()), zero)
    if scaled:
        doc["metric"] = [[v if v == zero else f"{v}2/3" for v in row] for row in doc["metric"]]
    _, P, g, _ = cli.parse_document(doc)
    for t, key in ((P, "P"), (g, "metric")):
        want = TensorDense.from_matrix([[rational(v) for v in row] for row in doc[key]],
                                       t.variance)
        assert (t.den, t.nums, t.support) == (want.den, want.nums, want.support)
    assert (P.variance, g.variance) == ((UP, DOWN), (DOWN, DOWN))


@pytest.mark.parametrize("key, at", [("P", (0, 0)), ("metric", (2, 1))])
def test_a_decimal_zero_is_still_a_parse_error(tmp_path, key, at):
    """"0.0" is parsed like any entry other than "0", so it fails with the
    message the entry-by-entry parse gave."""
    doc = json.loads(FIXTURE.read_text())
    doc[key][at[0]][at[1]] = "0.0"
    code, out, err = run(["validate", _write(tmp_path, doc)])
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err == (f"parse error: {key}[{at[0] + 1}][{at[1] + 1}]: "
                   "decimal notation is not accepted: '0.0'\n")


def run_or_exit(argv):
    """run(argv), or the status and standard error of an argparse exit."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return run(argv)
        except SystemExit as exc:
            return exc.code, "", err.getvalue()


def test_one_process_matches_fresh_processes(tmp_path):
    """The parser is built once per process: a report of the family, a
    report of a file, a theorem, a document parse error and a usage error,
    run in that order in one process, give the exit code and output of a
    fresh process each."""
    bad = {**json.loads(FIXTURE.read_text()), "dim": "4.0"}
    commands = [["report", "--family", "1", "2", "1"],
                ["report", str(FIXTURE), "--json"],
                ["theorem", "--grid=1,-2/3"],
                ["report", _write(tmp_path, bad)],
                ["theorem", "--grid=1", "--bogus"]]
    in_process = [run_or_exit(argv) for argv in commands]
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for argv, got in zip(commands, in_process):
        proc = subprocess.run([sys.executable, "-m", "paratwin", *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path})
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
    assert [code for code, _, _ in in_process] == [
        cli.EXIT_OK, cli.EXIT_OK, cli.EXIT_CHECK, cli.EXIT_PARSE, cli.EXIT_PARSE]
