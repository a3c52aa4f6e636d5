#!/usr/bin/env python3
"""Benchmark of `seifert_orbifolds`, run from the root of a source tree.

    python3 perfbench/run.py --workload {atlas,queries,lens} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --self-check

The package is imported from ./src and driven from this one process and
thread.  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it wraps the public functions of each module, reports calls and
self time per layer, and times the same operations again untraced to give
the tracing overhead.  Times are scaled to a fixed machine speed, read
from a computation of the benchmark's own timed between rounds (see
`SpeedGauge`).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "seifert_orbifolds"
SPAN_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 30
SETUP_SNIPPET = ("import sys; sys.path.insert(0, 'src'); "
                 "from seifert_orbifolds.cli import run_command; "
                 "raise SystemExit(run_command(['chi', 'S2']))")
REPLAY_ROUNDS = 10  # rounds timed again, traced and untraced, for the overhead
GAUGE_SIZE = 400  # fibrations in the speed gauge's computation
GAUGE_NOMINAL_S = 0.030  # the gauge time that scaled times refer to (see perfbench/README.md)


class Library:
    """The package's modules, imported from ./src and nowhere else."""

    def __init__(self):
        init = SRC / PACKAGE / "__init__.py"
        if not init.is_file():
            raise SystemExit("perfbench: %s not found; run from a source tree" % init)
        sys.path.insert(0, str(SRC))
        self.reload()
        loaded = Path(sys.modules[PACKAGE].__file__).resolve()
        if loaded != init.resolve():
            raise SystemExit("perfbench: imported %s instead of %s" % (loaded, init))
        import jsonschema

        with open(init.parent / "schema.json", encoding="utf-8") as fh:
            schema = json.load(fh)
        self._schema = jsonschema.validators.validator_for(schema)(schema)

    def reload(self):
        """Import the package afresh, dropping any state it holds."""
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        for name in ("core", "groups", "lens", "classify", "cli"):
            setattr(self, name, importlib.import_module("%s.%s" % (PACKAGE, name)))

    def report_problems(self, payload):
        """Where a --json expression report breaks the package's schema."""
        return [error.message for error in self._schema.iter_errors(payload)]


class SpeedGauge:
    """How fast the machine runs at the moment, read from a fixed
    computation of the benchmark's own.

    The computation is the oracles' work on GAUGE_SIZE fixed lens space
    fibrations (parsing, exact arithmetic, normal forms and printing, the
    same kind of work as the program's), with the garbage collector off so
    that what the program keeps in memory does not change its time.  It is
    timed before and after each timed step, and `factor()` gives
    GAUGE_NOMINAL_S over the mean of the two: the step's time multiplied by
    it is the time the step would take at the speed where the computation
    takes GAUGE_NOMINAL_S.  The machine's speed drifts by up to half within
    and between runs, and the program and the gauge slow down together.
    """

    def __init__(self):
        rng = random.Random(0)
        self.texts = []
        while len(self.texts) < GAUGE_SIZE:
            p = rng.randint(2, 400)
            q = workloads.random_unit(rng, p)
            alpha, beta = workloads.lens_vector(rng, p, q)
            self.texts.append(oracles.lens_fibration(p, q, alpha, beta).text())
        self.last = None
        self.factors = []  # of the steps since the last start()

    def _time(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            for text in self.texts:
                f = oracles.parse(text)
                oracles.relation_holds(f)
                oracles.orbifold_order(f)
                f.canonical()
                f.mirror().text()
            return perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def start(self):
        """Read the speed before the first step of a sequence."""
        self.last = self._time()
        self.factors = []

    def factor(self):
        """The scale of the step run since the last reading."""
        after = self._time()
        factor = 2 * GAUGE_NOMINAL_S / (self.last + after)
        self.last = after
        self.factors.append(factor)
        return factor


def measure_setup(gauge):
    """Median scaled wall time of SETUP_RUNS fresh interpreters, each
    importing the package and running one trivial command."""
    times = []
    gauge.start()
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        times.append((perf_counter() - start) * gauge.factor())
        if proc.returncode != 0 or proc.stdout.strip() != "chi(S2) = 2":
            raise SystemExit("perfbench: set-up command failed: %r %r"
                             % (proc.stdout, proc.stderr))
    return statistics.median(times)


class Raised:
    """The result of an operation that raised instead of returning."""

    def __init__(self, text):
        self.text = text


class Tally:
    """What a run keeps of its rounds: busy time, work done and the
    latencies of completed operations, each time scaled by the round's
    speed factor, plus the operations of the first rounds for replay.
    Outputs are checked at the end of their round and dropped."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.rounds = []  # (scaled busy s, work units, scaled latencies of completed ops)
        self.unscaled_busy = 0.0
        self.errors = []
        self.replay = []  # the operations of the first REPLAY_ROUNDS rounds
        self.peak_rss_mb = None

    def add_round(self, records, factor=1.0):
        busy = units = 0
        done = []
        for op, result, latency in records:
            busy += latency
            failed = False
            try:
                if isinstance(result, Raised):
                    errors = ["%r raised:\n%s" % (op, result.text)]
                else:
                    failed = self.workload.is_failure(op, result)
                    errors = self.workload.check(op, result)
                    if not failed:
                        units += self.workload.work_units(op, result)
            except Exception:
                errors = ["checking %r raised:\n%s" % (op, traceback.format_exc())]
            if failed:
                self.failed += 1
            else:
                done.append(latency * factor)
            self.errors += errors
        self.attempted += len(records)
        self.unscaled_busy += busy
        self.rounds.append((busy * factor, units, done))


def measure(workload, seconds, gauge, max_rounds=None, tracer=None):
    """Run whole rounds until `seconds` have passed, or `max_rounds`.

    `workload.fresh()` runs before each round, and the gauge is read
    between rounds, both outside the timing.  Peak memory is read after
    `workload.mem_rounds` rounds, before their outputs are checked, so that
    it covers the same work however fast the program is.
    """
    tally = Tally(workload)
    start = perf_counter()
    gauge.start()
    for n, ops in enumerate(workload.rounds(), 1):
        workload.fresh()
        if tracer:
            tracer.install()
        records = []
        try:
            for op in ops:
                t0 = perf_counter()
                try:
                    result = workload.run(op)
                except Exception:
                    result = Raised(traceback.format_exc())
                records.append((op, result, perf_counter() - t0))
        finally:
            if tracer:
                tracer.uninstall()
        factor = gauge.factor()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if n == workload.mem_rounds:
            tally.peak_rss_mb = rss_mb
        if n <= REPLAY_ROUNDS:
            tally.replay += [op for op, _, _ in records]
        tally.add_round(records, factor)
        if perf_counter() - start >= seconds or n == max_rounds:
            break
    if tally.peak_rss_mb is None:
        tally.peak_rss_mb = rss_mb
    return tally


def _busy(workload, ops, tracer=None):
    """Time spent inside `ops`, run again after `workload.fresh()`."""
    workload.fresh()
    if tracer:
        tracer.install()
    total = 0.0
    try:
        for op in ops:
            t0 = perf_counter()
            try:
                workload.run(op)
            except Exception:
                pass
            total += perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()
    return total


def tracing_overhead(workload, tally):
    """Traced over untraced busy time of the same operations, in percent.

    The operations of the first REPLAY_ROUNDS rounds are timed again in
    chunks of ten, untraced and traced in alternating order, so that a
    change in machine speed during the run cancels out.
    """
    ops = tally.replay
    traced = untraced = 0.0
    for n, i in enumerate(range(0, len(ops), 10)):
        chunk = ops[i:i + 10]
        if n % 2:
            traced += _busy(workload, chunk, tracing.Tracer(PACKAGE))
            untraced += _busy(workload, chunk)
        else:
            untraced += _busy(workload, chunk)
            traced += _busy(workload, chunk, tracing.Tracer(PACKAGE))
    return 100 * (traced / untraced - 1)


def tail(latencies, pct):
    """(percentile, value) at the workload's tail percentile, or the median
    where the workload has too few samples for a tail (pct None).  The
    percentile is fixed per workload, so that a faster program does not
    switch to another one."""
    if pct is None:
        return 50, statistics.median(latencies)
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return pct, cuts[pct - 1]


def end_to_end(tally, setup_s, gauge):
    """The metrics over every round of the run, in scaled time."""
    done = [lat for _, _, lats in tally.rounds for lat in lats]
    units = sum(r[1] for r in tally.rounds)
    pct, tail_s = tail(done, tally.workload.tail_pct)
    factors = gauge.factors
    print("perfbench: %d rounds, %d operations, %d latency samples, tail percentile p%s"
          % (len(tally.rounds), tally.attempted, len(done), pct))
    print("perfbench: speed factor median %.3f (%.3f to %.3f) over %d rounds; "
          "unscaled throughput %.4g/s" % (statistics.median(factors), min(factors),
                                           max(factors), len(factors),
                                           units / tally.unscaled_busy))
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (units / sum(r[0] for r in tally.rounds), "1/s"),
        "latency_p50_ms": (statistics.median(done) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB"),
    }


def run(args):
    os.environ.pop("SEIFERT_ATLAS_MAX_B", None)  # measure the default cap
    lib = Library()
    gauge = SpeedGauge()
    setup_s = None if args.trace else measure_setup(gauge)
    workload = workloads.WORKLOADS[args.workload](lib, args.seed)
    if args.trace:
        # a fixed amount of work, so that per-layer counts compare across versions
        tracer = tracing.Tracer(PACKAGE)
        tally = measure(workload, float("inf"), gauge, workload.trace_rounds, tracer)
    else:
        tracer = None
        tally = measure(workload, args.seconds, gauge)
    if hasattr(workload, "repeats"):
        print("perfbench: " + workload.repeats())
    if tracer:
        metrics = tracer.summary(lib.core.normalize)
        metrics["trace.overhead_pct"] = (tracing_overhead(workload, tally), "%")
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / ("spans-%s-%d.bin" % (args.workload, args.seed))
        tracer.write(path)
        print("perfbench: %d spans written to %s" % (len(tracer.start), path.relative_to(ROOT)))
    else:
        metrics = end_to_end(tally, setup_s, gauge)
    for line in tally.errors[:20]:
        print("perfbench: CHECK FAILED: %s" % line, file=sys.stderr)
    return {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def self_check():
    """Every workload's checks at a small size, untimed, with the tracer on;
    then each check is shown to reject a corrupted output."""
    os.environ.pop("SEIFERT_ATLAS_MAX_B", None)
    lib = Library()
    small = {
        "atlas": (workloads.Atlas(lib, 0, order=60), 1),
        "queries": (workloads.Queries(lib, 0, small=True), 6),
        "lens": (workloads.Lens(lib, 0, small=True), 3),
    }
    ok = True
    for name, (workload, rounds) in small.items():
        tracer = tracing.Tracer(PACKAGE)
        tally = measure(workload, float("inf"), SpeedGauge(), rounds, tracer)
        calls = tracer.summary(lib.core.normalize)["core.normalize.calls"][0]
        caught = _corrupted_outputs_caught(workload, tally.replay)
        good = not tally.errors and calls > 0 and caught
        ok &= good
        print("self-check %-8s %d ops, %d failed, %d errors, normalize calls %d, "
              "corruption caught: %s -> %s" % (name, tally.attempted, tally.failed,
                                                len(tally.errors), calls, caught,
                                                "ok" if good else "FAIL"))
        for line in tally.errors[:10]:
            print("  " + line)
    print(json.dumps({"self_check": ok}))
    return 0 if ok else 1


def _corrupted_outputs_caught(workload, ops):
    """Alter a lens label, a group order and a result of each workload, and
    expect the checks to reject every one."""
    trials = [(ops[0], Raised("injected"))]
    corruptions = ((r"^L\((\d+)", "L(%d"), (r'"order": (\d+)', '"order": %d'))
    for pattern, template in corruptions:
        for op in ops:
            res = workload.run(op)
            if isinstance(res, tuple) and res[0] == 0 and re.search(pattern, res[1]):
                bump = lambda m: template % (int(m.group(1)) + 1)
                trials.append((op, (0, re.sub(pattern, bump, res[1], count=1))))
                break
    for op, result in trials:
        tally = Tally(workload)
        tally.add_round([(op, result, 0.0)])
        if not tally.errors:
            return False
    return len(trials) > 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload's checks at a small size and exit")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if not args.workload:
        parser.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
