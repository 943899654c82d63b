"""Tests of the benchmark itself: generator, oracle and tracing.

    python3 -m pytest bench
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path


import run
import spans
import workloads as wl

sys.path.insert(0, str(run.SRC))

from paratwin import cli  # noqa: E402


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    return cli.main(argv, out=out, err=err), out.getvalue()


def write(op: wl.Op) -> wl.Op:
    Path(op.argv[1]).write_text(op.document)
    return op


def test_same_seed_gives_identical_inputs(tmp_path):
    path = str(tmp_path / "doc.json")
    for make in (wl.dense4_op, wl.blocks12_op):
        for k in range(2 * wl.INVALID_EVERY):
            a, b = make(7, k, path), make(7, k, path)
            assert a.document.encode() == b.document.encode()
            assert a.argv == b.argv and a.scalars == b.scalars
        assert make(7, 0, path).document != make(8, 0, path).document
    assert wl.conflict_op(7, 0, path).document == wl.conflict_op(7, 0, path).document
    assert wl.theorem_op(7, 3).argv == wl.theorem_op(7, 3).argv


def test_closed_forms_at_reference_point(tmp_path):
    p = wl.Point(Fraction(1), Fraction(2), 1)
    want = {"tau": -144, "tau_twin": 144, "snorm": 384, "snorm_twin": -384}
    assert p.scalars() == want
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(wl.block_document([p])))
    code, out = call(["report", str(path), "--json"])
    assert code == 0
    assert {k: Fraction(v) for k, v in json.loads(out)["scalars"].items()
            if k in want} == want


def test_dense_documents_are_dense_and_valid(tmp_path):
    path = str(tmp_path / "doc.json")
    for k in range(wl.INVALID_EVERY - 1):
        op = write(wl.dense4_op(3, k, path))
        doc = json.loads(op.document)
        assert all(x != "0" for row in doc["metric"] + doc["P"] for x in row)
        assert all(len(e["coeffs"]) == wl.N4 for e in doc["brackets"])
        assert call(["validate", path])[0] == 0
        code, out = call(op.argv)
        assert wl.check_output(op, code, out) == (True, wl.SUITE_CHECKS)


def test_invalid_documents_are_rejected(tmp_path):
    path = str(tmp_path / "doc.json")
    kinds = set()
    for k in range(wl.INVALID_EVERY - 1, wl.INVALID_EVERY * len(wl.INVALID_KINDS),
                   wl.INVALID_EVERY):
        op = write(wl.dense4_op(5, k, path))
        assert op.kind == "invalid" and op.exit_code in (2, 3)
        assert call(["validate", path])[0] == op.exit_code
        code, out = call(op.argv)
        assert wl.check_output(op, code, out) == (True, 0)
        kinds.add(json.dumps(json.loads(op.document), sort_keys=True))
    assert len(kinds) == len(wl.INVALID_KINDS)


def test_oracle_counts_wrong_outputs_as_failed(tmp_path):
    workload = run.Workload("report-dense4", 11, tmp_path)
    runner = run.Runner(workload)
    runner.import_package()
    good = workload.op(0)
    perturbed = wl.Op(good.kind, good.argv, good.document, good.exit_code,
                      dict(good.scalars, tau=good.scalars["tau"] + 1), good.minimal_class)
    loop, clock = run.Loop(), run.Clock()
    for op in (good, perturbed):
        loop.step(runner, clock, op)
    assert loop.failed == 1 and len(loop.times) == 2

    code, out = call(good.argv)
    report = json.loads(out)
    report["checks"][3]["passed"] = False
    assert not wl.check_output(good, code, json.dumps(report))[0]
    del report["checks"][3]
    assert not wl.check_output(good, code, json.dumps(report))[0]
    assert not wl.check_output(good, 4, out)[0]


def test_theorem_oracle_expects_the_four_table_failures():
    op = wl.theorem_op(2, 0, count=2)
    assert op.argv[1].startswith("--grid=")
    code, out = call(op.argv)
    assert wl.check_output(op, code, out) == (True, wl.THEOREM_CHECKS)
    flipped = out.replace("[FAIL] table: average curvature", "[pass] table: average curvature")
    assert not wl.check_output(op, code, flipped)[0]


def test_grid_values_are_nonzero_with_distinct_magnitudes():
    import random
    for seed in range(20):
        values = wl.grid_values(random.Random(seed), 3)
        assert all(values) and len({abs(v) for v in values}) == 3


def test_traced_report_counts_every_koszul_call(tmp_path):
    workload = run.Workload("report-dense4", 1, tmp_path)
    runner = run.Runner(workload)
    runner.import_package()
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    op = workload.op(0)
    runner.prepare(op)
    try:
        assert runner.call(op, run.Clock())[1]
    finally:
        restore()
    assert tracer.calls["connection.koszul"] == 5
    assert tracer.calls["twin.invariance_suite"] == 1
    assert tracer.calls["cli.parse_document"] == 1
    assert all(v >= 0 for v in tracer.self_s.values())
    assert runner.call(op, run.Clock())[1]
    assert tracer.calls["connection.koszul"] == 5      # wrappers removed


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "theorem-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_probe_time_is_no_span_self_time():
    tracer, clock = spans.Tracer(), run.Clock()

    def op():
        tracer.exclude(clock.probe())

    tracer.wrap("outer", tracer.wrap("inner", op))()
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert all(abs(s) < 0.002 for s in tracer.self_s.values())


def test_variants_of_an_abelian_draw_still_have_a_bracket(tmp_path):
    path = str(tmp_path / "doc.json")
    k = wl.INVALID_EVERY - 1
    seed = next(s for s in range(10_000)
                if random_point_is_abelian(wl._rng(s, "report-dense4", "op", k)))
    op = wl.dense4_op(seed, k, path)
    assert op.kind == "invalid" and json.loads(op.document)["brackets"]
    seed = next(s for s in range(10_000)
                if random_point_is_abelian(wl._rng(s, "report-dense4", "conflict", 0)))
    assert len(json.loads(wl.conflict_op(seed, 0, path).document)["brackets"]) > 1


def random_point_is_abelian(rng) -> bool:
    p = wl.random_point(rng)
    return not p.l1 and not p.l2
