#!/usr/bin/env python3
"""Benchmark of letterbraid's routes to finite-type class functions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  One run is one process:

1. Set-up, timed ``SETUPS`` times: import letterbraid afresh (every module
   the import loads is dropped first) and build the workload's inputs from
   the seed.
2. References for the checks, untimed.
3. Rounds of the workload's fixed batch of operations until ``--seconds``
   have passed (always whole rounds).  Each operation is timed alone, with
   the library's caches emptied and garbage collected before it, and its
   output checked after it, untimed.

Times are reported at a fixed reference speed of the machine.  The speed
a shared host gives the process drifts by tens of per cent over minutes,
so next to every timed piece of work the run times a fixed calibration
loop (``calibrate``), which does not touch letterbraid; a wall time t is
reported as t * CAL_REF_S / c, where c is the mean of the loop's times
just before and just after it.  On a steady machine this is the wall time
times a constant, so a change to the program moves it by the same share.

The end-to-end figures (``--trace 0``) take, for each operation, the
median of its times over the rounds: ``run_s`` is the sum over all
operations, ``ring_Z_s``, ``ring_Zm_s`` and ``ring_Q_s`` the sums over the
operations of one ring; ``setup_s`` is the median of the set-ups.  A
traced run (``--trace 1``) alternates untraced and traced rounds, and
reports the per-layer figures per traced round, in wall time, plus
``trace.overhead_s``: the traced minus the untraced run time, each summed
from per-operation medians at the reference speed.  Checks run with the
tracer paused.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The same object,
with the per-operation times and wall times, is written under
``perfbench/results/``.
An operation fails when the program raises, reports failure itself, or
returns output its check rejects; ``correct`` is false only in the last
case.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUPS = 11
# The calibration loop's sizes, and its time at the reference speed: a time
# t measured while the loop takes c seconds is reported as t * CAL_REF_S / c.
# The loop takes about CAL_REF_S on a 2-vCPU Xeon VM under Python 3.11.
CAL_STEPS = 4500
CAL_PRIME = 2**127 - 1
CAL_PIVOTS = 2
CAL_MATRIX = [[(i * 7919 + j * 104729) % 101 - 50 for j in range(220)] for i in range(220)]
CAL_REF_S = 0.020
RING_KEYS = ("Z", "Zm", "Q")
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "ring_Z_s": "s",
    "ring_Zm_s": "s",
    "ring_Q_s": "s",
    "peak_rss_mib": "MiB",
}


def fresh_import(baseline):
    """Import letterbraid as a new process would, dropping every module
    loaded since ``baseline`` was taken."""
    for name in list(sys.modules):
        if name not in baseline:
            del sys.modules[name]
    return importlib.import_module("letterbraid")


def empty_caches():
    """Empty the library's module-level caches, so that no operation
    profits from work an earlier one left behind."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "letterbraid" or name.startswith("letterbraid.")):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, dict) and "CACHE" in attr.upper():
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # check rejected the output
        self.reported = set()  # failures the program reported itself

    def record(self, op, output, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.reported.add(f"{op.ring} {op.name}: {error}")
            return
        try:
            problem = op.check(output)
        except workloads.KnownFault as fault:
            self.failed += 1
            self.reported.add(f"{op.ring} {op.name}: known fault: {fault}")
            return
        if problem is not None:
            self.failed += 1
            self.wrong.append(f"{op.ring} {op.name}: {problem}")


def calibrate():
    """Time a fixed piece of pure-Python work that does not touch
    letterbraid, of the kinds the library does: dict updates on tuple keys,
    integer and Fraction arithmetic, and row operations on a dense integer
    matrix too large for a core's own cache.  Taken next to the operations,
    it measures how fast the machine runs the process then."""
    gc.disable()  # so that its time does not grow with the live heap
    start = time.perf_counter()
    table = {}
    acc = 12345678901234567890
    q = Fraction(1, 3)
    for i in range(CAL_STEPS):
        key = (i % 31, i % 37)
        table[key] = table.get(key, 0) + acc
        acc = (acc * 1000003 + i) % CAL_PRIME
        if i % 4 == 0:
            q = q * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i % 11 + 1)
            q = Fraction(q.numerator % 1000003, q.denominator % 1000003 or 1)
    M = [row[:] for row in CAL_MATRIX]
    for c in range(CAL_PIVOTS):
        pivot, a = M[c], M[c][c]
        for r in range(c + 1, len(M)):
            b = M[r][c]
            M[r] = [a * x - b * y for x, y in zip(M[r], pivot)]
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def run_round(ops, times, wall_times, tally, tracer=None):
    """Run every operation once, each timed alone, with a calibration
    sample before it and one after the last.  ``wall_times`` gets each
    operation's wall time, ``times`` the same at the reference speed:
    scaled by ``CAL_REF_S`` over the mean of the samples either side."""
    cal, wall = [], []
    for op in ops:
        empty_caches()
        gc.collect()
        cal.append(calibrate())
        error = output = None
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # the program's own failure, counted below
            error = f"{type(exc).__name__}: {exc}"
        wall.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.paused = True
        tally.record(op, output, error)
        if tracer is not None:
            tracer.paused = False
    cal.append(calibrate())
    for op, t, before, after in zip(ops, wall, cal, cal[1:]):
        key = (op.ring, op.name)
        wall_times.setdefault(key, []).append(t)
        times.setdefault(key, []).append(t * CAL_REF_S / ((before + after) / 2))


def summarise(times):
    """Per-operation medians, summed per ring and over all operations."""
    medians = {key: statistics.median(ts) for key, ts in times.items()}
    out = {f"ring_{r}_s": sum(t for (ring, _), t in medians.items() if ring == r)
           for r in RING_KEYS}
    out["run_s"] = sum(medians.values())
    return out, medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="problem sizes; smoke is the smallest, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "letterbraid" / "__init__.py").is_file():
        print(f"error: no letterbraid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build, prepare = workloads.WORKLOADS[args.workload]

    baseline = set(sys.modules)
    setup_times, setup_cal = [], []
    for _ in range(SETUPS):
        gc.collect()
        setup_cal.append(calibrate())
        start = time.perf_counter()
        lb = fresh_import(baseline)
        inputs = build(lb, args.seed, args.size)
        setup_times.append(time.perf_counter() - start)
    setup_cal.append(calibrate())
    setup_s = statistics.median(
        t * CAL_REF_S / ((before + after) / 2)
        for t, before, after in zip(setup_times, setup_cal, setup_cal[1:])
    )
    if not Path(lb.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: letterbraid imported from {lb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ops = prepare(lb, inputs, args.size)

    tally = Tally()
    times, traced_times, wall_times = {}, {}, {}
    tracer = None
    begin = time.perf_counter()
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        build(lb, args.seed, args.size)  # traced set-up, for dga.cochain_algebra.s
        tracer.uninstall()
        setup_layers = tracer.totals()
        tracer.reset()
        rounds = 0
        while True:
            run_round(ops, times, wall_times, tally)
            tracer.install()
            run_round(ops, traced_times, {}, tally, tracer)
            tracer.uninstall()
            rounds += 1
            if time.perf_counter() - begin >= args.seconds:
                break
    else:
        run_round(ops, times, wall_times, tally)
        while time.perf_counter() - begin < args.seconds:
            run_round(ops, times, wall_times, tally)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    untraced, medians = summarise(times)
    if args.trace:
        traced, _ = summarise(traced_times)
        values = tracer.totals(rounds)
        values["dga.cochain_algebra.s"] = setup_layers["dga.cochain_algebra.s"]
        values["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
        units = tracing.PER_LAYER_UNITS
    else:
        values = dict(untraced, setup_s=setup_s, peak_rss_mib=peak_rss_mib)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }

    for line in tally.wrong:
        print(f"WRONG {line}", file=sys.stderr)
    for line in sorted(tally.reported):
        print(f"FAILED {line}", file=sys.stderr)
    RESULTS.mkdir(parents=True, exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, size=args.size,
                  seconds=args.seconds, trace=args.trace,
                  rounds=len(next(iter(times.values()))),
                  traced_rounds=rounds if args.trace else 0,
                  setup_wall_s=setup_times, setup_calibration_s=setup_cal,
                  operation_medians_s={f"{r} {name}": t for (r, name), t in medians.items()},
                  operation_times_s={f"{r} {name}": ts for (r, name), ts in times.items()},
                  operation_wall_s={f"{r} {name}": ts for (r, name), ts in wall_times.items()},
                  absent=tracer.absent if tracer else [],
                  wrong=tally.wrong, reported=sorted(tally.reported))
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
