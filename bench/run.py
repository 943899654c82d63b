"""paratwin benchmark: closed loop, one client, in one process.

    python3 bench/run.py --workload report-dense4 --seed 1 --seconds 25 --trace 0

Each op is one ``paratwin.cli.main([...])`` call on a generated input;
the next op starts only after the previous one returned.  Every op's exit
code and output are checked against the oracle in ``workloads.py``.
With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of ``spans.py``.  The line before it holds the run's metadata and the
unscaled timings.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import fractions
import gc
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = spans.PACKAGE
SETUP_REPEATS = 3           # set-up is timed this many times; the median is reported
CONFLICT_OPS = 4            # untimed conflicting-duplicate documents per traced report-dense4 run
RAW_FACTOR = 1.3            # also stop a loop after this many --seconds of unscaled op time
WALL_FACTOR = 2.5           # stop a loop whose wall time exceeds this many --seconds (+30 s)
WORKLOADS = ("report-dense4", "report-blocks12", "theorem-grid")
#: duration of one speed probe at the reference speed; scaled times are
#: what the op would take on a machine where the probe takes this long
REFERENCE_PROBE_S = 0.003
PROBE_INTERVAL_S = 0.2


def _probe_work() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i % 7 - 3, i) * Fraction(2 * i + 1, 5)
    return acc


class Clock:
    """Times intervals in seconds at the reference speed.

    On a shared 2-CPU machine, speed drifted by up to 1.8x over tens of
    seconds, and CPU time drifted with it, so raw times of one input differ
    by that much between runs.  The drift hits any pure-Python work alike,
    so each interval is scaled by REFERENCE_PROBE_S over the mean duration
    of a fixed exact-arithmetic probe, run just before the interval, every
    PROBE_INTERVAL_S during it from a timer signal, and just after it.
    Probe time inside the interval is subtracted from its raw time.  The
    collector is off during a probe, so the program's heap cannot change
    the probe's duration.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._during: list[float] = []
        #: called with the duration of each probe inside an interval
        self.on_probe = None

    @staticmethod
    def probe() -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            _probe_work()
            return perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def _on_timer(self, signum, frame):
        duration = self.probe()
        self._during.append(duration)
        if self.on_probe is not None:
            self.on_probe(duration)

    @contextmanager
    def interval(self):
        """Yields a dict that receives "raw" and "scaled" seconds on exit."""
        before = self.probe()
        self._during = []
        result = {}
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = perf_counter()
        try:
            yield result
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            # after the timer stops, so a probe it triggered is timed in full
            elapsed = perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
            after = self.probe()
            samples = [before, *self._during, after]
            self.probes.extend(samples)
            result["raw"] = elapsed - sum(self._during)
            result["scaled"] = result["raw"] * REFERENCE_PROBE_S / statistics.fmean(samples)


class Workload:
    """Op generator, warm-up ops and replay cycle of one workload."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed = name, seed
        self.path = str(workdir / "doc.json")
        # a traced replay covers whole cycles, so per-op counts repeat exactly
        self.cycle = (wl.INVALID_EVERY * len(wl.INVALID_KINDS)
                      if name == "report-dense4" else 1)

    def op(self, k: int, stream: str = "op") -> wl.Op:
        if self.name == "report-dense4":
            return wl.dense4_op(self.seed, k, self.path, stream)
        if self.name == "report-blocks12":
            return wl.blocks12_op(self.seed, k, self.path, stream)
        return wl.theorem_op(self.seed, k, stream=stream)

    def warmup_ops(self) -> list[wl.Op]:
        """Small ops of the workload's command that load every lazy module.

        They do not depend on the seed, so every run sets up the same way."""
        if self.name == "report-dense4":
            return [wl.dense4_op(0, k, self.path, "warmup") for k in (0, wl.INVALID_EVERY - 1)]
        if self.name == "report-blocks12":
            p = wl.Point(wl.Fraction(1), wl.Fraction(2), 1)
            return [wl.Op("report", ["report", self.path, "--json"],
                          json.dumps(wl.block_document([p])), 0, p.scalars())]
        return [wl.theorem_op(0, 0, count=2, stream="warmup")]


class Runner:
    """Runs ops through a freshly imported paratwin.cli."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.cli = None
        self.family_pack = None

    def import_package(self):
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        self.cli = importlib.import_module(f"{PACKAGE}.cli")
        # the LRU-cached original, kept before any tracing wrapper replaces it
        self.family_pack = getattr(sys.modules.get(f"{PACKAGE}.family"), "family_pack", None)

    def prepare(self, op: wl.Op):
        """Untimed: write the op's document and empty the family cache, so
        each op is as cold as a fresh CLI process."""
        if op.document is not None:
            with open(self.workload.path, "w", encoding="utf-8") as fh:
                fh.write(op.document)
        if hasattr(self.family_pack, "cache_clear"):
            self.family_pack.cache_clear()

    def cache_stats(self) -> tuple[int, int]:
        """(hits, misses) of the family cache since the op's prepare()."""
        info = getattr(self.family_pack, "cache_info", None)
        return (info().hits, info().misses) if info else (0, 0)

    def call(self, op: wl.Op, clock: Clock) -> tuple[dict, bool, int]:
        """Timed CLI call: ({"raw", "scaled"} seconds, output matches oracle,
        checks shown)."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with clock.interval() as elapsed:
                code = self.cli.main(list(op.argv), out=out, err=err)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:                               # noqa: BLE001
            return elapsed, False, 0
        ok, checks = wl.check_output(op, code, out.getvalue())
        return elapsed, ok, checks


def timed_setup(workload: Workload, runner: Runner, clock: Clock):
    """Median over SETUP_REPEATS of importing paratwin plus the warm-up ops,
    scaled and raw.  Warm-up inputs are generated before the clock starts."""
    warm = workload.warmup_ops()
    scaled, raw, ok = [], [], True
    for _ in range(SETUP_REPEATS):
        with clock.interval() as elapsed:
            runner.import_package()
        parts = [elapsed]
        for op in warm:
            runner.prepare(op)
            elapsed, good, _ = runner.call(op, clock)
            parts.append(elapsed)
            ok = ok and good
        scaled.append(sum(p["scaled"] for p in parts))
        raw.append(sum(p["raw"] for p in parts))
    return statistics.median(scaled), statistics.median(raw), ok


class Loop:
    """Closed loop over ops 0, 1, 2, ... until --seconds of op time at the
    reference speed, so a run does about the same work at any machine speed,
    but at most RAW_FACTOR times --seconds of unscaled op time, so a run on
    a slow machine still ends in time."""

    def __init__(self):
        self.ops: list[wl.Op] = []
        self.times: list[float] = []        # at the reference speed
        self.raw: list[float] = []
        self.failed = 0
        self.checks = 0
        self.checked_ops = 0

    def step(self, runner: Runner, clock: Clock, op: wl.Op) -> float:
        runner.prepare(op)
        elapsed, ok, checks = runner.call(op, clock)
        scaled = elapsed["scaled"]
        self.ops.append(op)
        self.times.append(scaled)
        self.raw.append(elapsed["raw"])
        self.failed += not ok
        if op.kind in ("report", "theorem"):
            self.checks += checks
            self.checked_ops += 1
        return scaled

    def run(self, workload: Workload, runner: Runner, clock: Clock, seconds: float,
            cycle: int = 1):
        wall_end = perf_counter() + WALL_FACTOR * seconds + 30
        k = 0
        while ((sum(self.times) < seconds and sum(self.raw) < RAW_FACTOR * seconds
                or k % cycle) and perf_counter() < wall_end):
            self.step(runner, clock, workload.op(k))
            k += 1
        return self


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def latency(times: list[float]) -> dict:
    ms = [t * 1000 for t in times]
    return {"ops_per_s": len(ms) / sum(times), "op_ms_p50": statistics.median(ms),
            "op_ms_p90": percentile(ms, 90)}


def run_untraced(workload: Workload, runner: Runner, clock: Clock, seconds: float,
                 setup_s: float):
    loop = Loop().run(workload, runner, clock, seconds)
    scaled = latency(loop.times)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(scaled["ops_per_s"], "1/s"),
        "op_ms_p50": metric(scaled["op_ms_p50"], "ms"),
        "op_ms_p90": metric(scaled["op_ms_p90"], "ms"),
        "ok_frac": metric(1 - loop.failed / len(loop.ops), "fraction"),
        "checks_per_op": metric(loop.checks / max(loop.checked_ops, 1), "count"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return loop, metrics, {"ops": len(loop.ops), **latency(loop.raw)}


def count_fraction_calls(runner: Runner, op: wl.Op) -> int:
    """Python-level calls into the fractions module during one op."""
    runner.prepare(op)
    profile = cProfile.Profile()
    out, err = io.StringIO(), io.StringIO()
    profile.enable()
    try:
        runner.cli.main(list(op.argv), out=out, err=err)
    finally:
        profile.disable()
    source = fractions.__file__
    return sum(entry.callcount for entry in profile.getstats()
               if getattr(entry.code, "co_filename", None) == source)


def run_traced(workload: Workload, runner: Runner, clock: Clock, seconds: float):
    """Untraced pass over whole cycles for half the time, then the same ops
    traced; per-layer figures are per op of the traced pass."""
    base = Loop().run(workload, runner, clock, seconds / 2, workload.cycle)
    tracer = spans.Tracer()
    self_ms: Counter[str] = Counter()           # at the reference speed
    hits = misses = 0
    restore = spans.install(tracer)
    clock.on_probe = tracer.exclude             # probe time is no span's self time
    traced = Loop()
    try:
        for op in base.ops:
            before = Counter(tracer.self_s)
            factor = traced.step(runner, clock, op) / traced.raw[-1]
            for span, s in tracer.self_s.items():
                self_ms[span] += (s - before[span]) * 1000 * factor
            op_hits, op_misses = runner.cache_stats()
            hits, misses = hits + op_hits, misses + op_misses
    finally:
        clock.on_probe = None
        restore()
    fraction_calls = count_fraction_calls(runner, base.ops[0])

    n = len(traced.ops)
    metrics = {}
    for span in spans.span_names():
        metrics[f"{span}.calls"] = metric(tracer.calls[span] / n, "count")
        metrics[f"{span}.self_ms"] = metric(self_ms[span] / n, "ms")
    metrics["family.family_pack.hit_ratio"] = metric(
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    rejects = [t * 1000 for op, t in zip(base.ops, base.times) if op.kind == "invalid"]
    metrics["cli.reject_ms_p50"] = metric(statistics.median(rejects) if rejects else 0.0, "ms")
    metrics["scalar.fraction_calls"] = metric(fraction_calls, "count")
    metrics["trace.overhead_frac"] = metric(sum(traced.times) / sum(base.times) - 1, "ratio")
    return base, traced, metrics


def run_conflicts(workload: Workload, runner: Runner) -> int:
    """Untimed: how many conflicting-duplicate documents were accepted."""
    if workload.name != "report-dense4":
        return 0
    accepted = 0
    for k in range(CONFLICT_OPS):
        op = wl.conflict_op(workload.seed, k, workload.path)
        runner.prepare(op)
        out, err = io.StringIO(), io.StringIO()
        try:
            accepted += runner.cli.main(list(op.argv), out=out, err=err) == 0
        except Exception:                               # noqa: BLE001
            pass
    return accepted


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    scalar = sys.modules[f"{PACKAGE}.scalar"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "scalar_backend": f"{scalar.Q.__module__}.{scalar.Q.__name__}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "reference_probe_ms": REFERENCE_PROBE_S * 1000,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"bench: {SRC / PACKAGE} not found; run from a paratwin checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
        workload = Workload(args.workload, args.seed, Path(workdir))
        runner = Runner(workload)
        clock = Clock()
        setup_s, raw_setup_s, warm_ok = timed_setup(workload, runner, clock)
        meta = metadata(args)
        if args.trace:
            accepted = run_conflicts(workload, runner)
            base, traced, metrics = run_traced(workload, runner, clock, args.seconds)
            metrics["cli.conflict_accepted"] = metric(accepted, "count")
            attempted = len(base.ops) + len(traced.ops)
            failed = base.failed + traced.failed
        else:
            loop, metrics, raw = run_untraced(workload, runner, clock, args.seconds, setup_s)
            meta["unscaled"] = {"setup_s": raw_setup_s, **raw}
            attempted, failed = len(loop.ops), loop.failed
        meta["probe_ms_p50"] = statistics.median(clock.probes) * 1000
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": warm_ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
