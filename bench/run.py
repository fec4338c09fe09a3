"""germkit benchmark: one workload per run, in a fresh interpreter.

    python3 bench/run.py --workload corpus-scan --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree; it imports germkit from ./src and
nothing else.  With --trace 0 it times germkit's public functions from
outside and prints the end-to-end metrics; with --trace 1 it wraps those
functions (see tracing.py) and prints the per-layer metrics.  Every output
is checked against a computation made apart from germkit.  The last line
of standard output is one JSON object; results and traces also go to
bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PASSES = 9  # setup_s is the median of this many parse passes
SETUP_CHUNK = 16  # documents parsed between two runs of the reference
MIN_OPS = 100  # p90 needs at least ten samples above it
MAX_REPORTED_FAILURES = 20
# A nominal time of the reference, near its median on the 2-core machine
# the README's figures come from.  Reported times are wall times scaled by
# REFERENCE_S over the reference's time measured with them (see Clock).
REFERENCE_S = 0.0004


def import_germkit():
    """Import germkit from this tree's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "germkit" / "__init__.py").is_file():
        raise SystemExit(f"bench: no germkit sources under {src}")
    sys.path.insert(0, str(src))
    import germkit

    if Path(germkit.__file__).resolve().parent != (src / "germkit").resolve():
        raise SystemExit(f"bench: imported germkit from {germkit.__file__}, not from {src}")
    return germkit


def reference() -> float:
    """Wall time of a fixed piece of pure-Python exact arithmetic."""
    start = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 120):
        x += Fraction(1, i * i + 1)
    return time.perf_counter() - start


class Clock:
    """Times calls from outside, at the machine speed of REFERENCE_S.

    On a shared machine the same code's wall time moves by a third within
    a second and from one minute to the next.  So the reference also runs
    between timed calls and, every TICK seconds, inside them from a timer
    signal; its own time is taken out of the call's.  A call's time is
    divided by the median reference time during it over REFERENCE_S, or,
    for a call too short to hold three ticks, by the median of the
    reference times around it (WINDOW on each side).
    """

    TICK = 0.02
    WINDOW = 5

    def __init__(self, tick: bool = True):
        self.tick = tick
        self.refs = [reference()]
        self.raw: list = []  # own time of call i, made between refs i and i+1
        self.inside: list = []  # reference times measured during call i

    def time(self, fn):
        """Runs fn() and returns (its result, the index of this call)."""
        samples: list = []
        if self.tick:
            previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(reference()))
            signal.setitimer(signal.ITIMER_REAL, self.TICK, self.TICK)
        start = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = time.perf_counter() - start
            if self.tick:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self.raw.append(wall - sum(samples))
            self.inside.append(samples)
            self.refs.append(reference())
        return out, len(self.raw) - 1

    def scaled(self, i: int) -> float:
        around = self.inside[i]
        if len(around) < 3:
            around = self.refs[max(0, i - self.WINDOW + 1): i + self.WINDOW + 1]
        return self.raw[i] * REFERENCE_S / statistics.median(around)

    def raw_since(self, i: int) -> float:
        return sum(self.raw[i:])


class Measurement:
    """Runs operations, times each and checks its output.

    The first output of each operation is checked in full; a later output
    of the same operation that equals a checked one is right as well.
    """

    def __init__(self, clock: Clock):
        self.clock = clock
        self.calls: list = []  # clock call index of every completed operation
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: list = []
        self._checked: dict = {}

    def latencies(self) -> list:
        return [self.clock.scaled(i) for i in self.calls]

    def run(self, index: int, op, tracer=None) -> None:
        self.attempted += 1
        if tracer is not None:
            tracer.request = index
        try:
            if tracer is not None:
                with tracer.span("op"):
                    out, call = self.clock.time(op.run)
            else:
                out, call = self.clock.time(op.run)
        except Exception as e:  # an operation that raises is a failed one
            self._fail(op, f"{type(e).__name__}: {e}", traceback.format_exc(limit=3))
            return
        self.calls.append(call)
        if index in self._checked and out == self._checked[index]:
            return
        error = op.check(out)
        if error is None:
            self._checked[index] = out
        else:
            self.wrong += 1
            self._fail(op, f"wrong output: {error}", "")

    def round(self, ops, tracer=None) -> None:
        for i, op in enumerate(ops):
            self.run(i, op, tracer)

    def _fail(self, op, message: str, trace: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append({"input": op.label, "error": message, "traceback": trace})
            print(f"bench: failed on {op.label}: {message}", file=sys.stderr)


def timed_setup(workload, clock: Clock) -> tuple:
    """Median over passes of the time to parse every document once."""
    items = workload.items
    chunks = [items[i:i + SETUP_CHUNK] for i in range(0, len(items), SETUP_CHUNK)]
    passes, objs = [], []
    for _ in range(SETUP_PASSES):
        gc.collect()
        objs, calls = [], []
        for chunk in chunks:
            parsed, call = clock.time(lambda: [workload.parse(item) for item in chunk])
            objs += parsed
            calls.append(call)
        passes.append(calls)
    return statistics.median(sum(clock.scaled(i) for i in calls) for calls in passes), objs


def end_to_end(workload, seconds: float) -> dict:
    clock = Clock()
    setup_s, objs = timed_setup(workload, clock)
    ops = workload.operations(objs)
    m = Measurement(clock)
    first = len(clock.raw)
    # Whole rounds only, so the failed share is the same in every run: as
    # many as come nearest to the requested time, counted at the reference
    # speed so that a slow machine does not change the number of samples.
    busy = last = 0.0
    while m.attempted < MIN_OPS or busy + last / 2 < seconds:
        done = len(m.calls)
        m.round(ops)
        last = sum(clock.scaled(i) for i in m.calls[done:])
        busy += last
    lat = m.latencies() or [float("nan")] * 2
    busy = sum(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / busy, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall = clock.raw_since(first)
    extra = {
        "samples": len(lat),
        "wall_busy_s": wall,
        "scaled_busy_s": busy,
        "machine_slowdown": wall / busy,
    }
    return {"measurement": m, "metrics": metrics, "extra": extra}


def cli_scan(seed: int) -> tuple:
    """Time one ``germkit scan --family files --oracle-depth 3`` process over the
    corpus-scan documents, and check its report against our own solves."""
    from workloads import CORPUS_SIZE, cli_scan_expectation, corpus_germs

    germs = corpus_germs(seed, CORPUS_SIZE)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="scan-", dir=OUT))
    try:
        paths = []
        for i, g in enumerate(germs):
            p = tmp / f"m{i:04d}.json"
            p.write_text(json.dumps(g.doc()))
            paths.append(str(p))
        report_path = tmp / "report.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [sys.executable, "-m", "germkit.cli", "scan", "--family", "files",
               "--oracle-depth", "3", "--out", str(report_path), *paths]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            return elapsed, f"germkit scan exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        report = json.loads(report_path.read_text())
        return elapsed, cli_scan_expectation(germs, report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def traced(workload, seed: int) -> dict:
    from tracing import Tracer

    clock = Clock(tick=False)  # no timer signals inside traced spans
    ops = workload.operations(workload.setup())
    m = Measurement(clock)
    m.round(ops)
    untraced_s = clock.raw_since(0)

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            objs = workload.setup()
        ops = workload.operations(objs)
        first = len(clock.raw)
        m.round(ops, tracer)
        traced_s = clock.raw_since(first)
    finally:
        tracer.uninstall()

    scan_s, scan_error = cli_scan(seed)
    if scan_error:
        m.wrong += 1
        m.failures.append({"input": "germkit scan over the corpus-scan documents", "error": scan_error})
        print(f"bench: {scan_error}", file=sys.stderr)

    c = tracer.calls
    models = workload.models

    def per(x, n):
        return x / n if n else 0.0

    metrics = {
        "enclosures.interval_calls": (c["enclosures.interval"], "count"),
        "enclosures.busy_ms": (tracer.busy_ms("enclosures"), "ms"),
        "coefflattice.compare_calls": (c["coefflattice.compare"], "count"),
        "coefflattice.compare_refined": (tracer.refined_compares, "count"),
        "coefflattice.levels_per_refined_compare": (per(tracer.refined_levels, tracer.refined_compares), "levels"),
        "coefflattice.compare_busy_ms": (tracer.busy_ms("coefflattice.compare"), "ms"),
        "coefflattice.partition_busy_ms": (tracer.busy_ms("coefflattice.partition"), "ms"),
        "coefflattice.verifications_per_partition": (
            per(c["coefflattice.verify_partition"], c["coefflattice.partition_of_one"]), "ratio"),
        "linalg.solve_calls": (c["linalg.solve_exact"], "count"),
        "linalg.solve_busy_ms": (tracer.busy_ms("linalg.solve"), "ms"),
        "linalg.definiteness_calls": (c["linalg.is_negative_definite"], "count"),
        "linalg.definiteness_per_model": (per(c["linalg.is_negative_definite"], models), "ratio"),
        "linalg.definiteness_busy_ms": (tracer.busy_ms("linalg.definiteness"), "ms"),
        "dualgraph.weight_lookups": (c["dualgraph.weight"], "count"),
        "dualgraph.busy_ms": (tracer.busy_ms("dualgraph"), "ms"),
        "discrepancy.profiles_per_model": (per(c["discrepancy.mld_point"], models), "ratio"),
        "discrepancy.solves_per_model": (per(c["discrepancy.solve_discrepancies"], models), "ratio"),
        "discrepancy.oracle_busy_ms": (tracer.busy_ms("discrepancy.oracle"), "ms"),
        "discrepancy.mld_point_busy_ms": (tracer.busy_ms("discrepancy.mld_point"), "ms"),
        "discrepancy.checks_busy_ms": (tracer.busy_ms("discrepancy.checks"), "ms"),
        "complements.busy_ms": (tracer.busy_ms("complements"), "ms"),
        "explorer.parse_busy_ms": (tracer.busy_ms("explorer.parse"), "ms"),
        "explorer.render_busy_ms": (tracer.busy_ms("explorer.render"), "ms"),
        "cli.scan_s": (scan_s, "s"),
    }
    extra = {
        "untraced_round_s": untraced_s,
        "traced_round_s": traced_s,
        "tracing_overhead": traced_s / untraced_s - 1.0,
    }
    return {"measurement": m, "metrics": metrics, "extra": extra, "trace": tracer}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import_germkit()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    result = traced(workload, args.seed) if args.trace else end_to_end(workload, args.seconds)
    m = result["measurement"]
    line = {
        "correct": m.wrong == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  python=sys.version.split()[0], failures=m.failures, **result["extra"])
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        trace = result["trace"].to_json()
        trace["workload"], trace["seed"] = args.workload, args.seed
        (OUT / f"trace-{stem}.json").write_text(json.dumps(trace) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
