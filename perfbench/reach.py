#!/usr/bin/env python3
"""Reference figure: the largest weight bound each problem reaches in a budget.

    python3 perfbench/reach.py

For every problem of the four workloads and every ring, runs the
computation at weight bounds 1, 2, ..., 8, each in a fresh process, and
stops at the first bound that does not finish within a budget of 10 s.
Prints one line per problem and ring: the largest bound that finished
and its time.  The oracle runs with word-length bound L = n + 1, the
verb's default; the long-word problem evaluates a full weight-n tensor on
the workload's random word.  Inputs come from seed 1.  Since cost grows exponentially in
the weight bound, this is the measure of progress that shaving constants
does not move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BUDGET_S = 10.0
MAX_WEIGHT = 8

PROBLEMS = [
    ("cochain_h0", "h0_cyc", "torus"),
    ("cochain_h0", "h0_bar", "wedge3"),
    ("cochain_h0", "h0_cyc", "wedge2"),
    ("class_basis", "finite_type_basis", "torus"),
    ("class_basis", "finite_type_basis", "klein"),
    ("class_basis", "class_function_basis", "torus"),
    ("class_basis", "class_function_basis", "klein"),
    ("oracle_compare", "oracle-compare", "torus"),
    ("oracle_compare", "oracle-compare", "klein"),
    ("long_words", "eval_word", "random"),
]


def run_one(index: int, ring: str, n: int) -> None:
    """Child process: one computation, no checks."""
    sys.path.insert(0, str(SRC))
    import letterbraid as lb

    import workloads

    workload, what, subject = PROBLEMS[index]
    R = lb.Ring.from_spec(workloads.RING_SPECS[ring])
    if workload == "cochain_h0":
        A = workloads.cochain_h0_build(lb, 1, "full")[subject, ring]
        getattr(lb, what)(A, n)
    elif workload == "class_basis":
        P = workloads.class_basis_build(lb, 1, "full")[subject]
        getattr(lb, what)(P, R, n)
    elif workload == "oracle_compare":
        paths = workloads.oracle_compare_build(lb, 1, "full")
        argv = ["oracle-compare", "--ring", R.spec, "--presentation", str(paths[subject]),
                "-n", str(n), "-L", str(n + 1)]
        with contextlib.redirect_stdout(io.StringIO()):
            lb.cli.main(argv)
    else:
        w = workloads.long_words_build(lb, 1, "full")["words"][subject]
        terms = {m: R.one() for p in range(n + 1) for m in itertools.product(range(3), repeat=p)}
        lb.eval_word(lb.BraidingTensor(R, w.gens, terms), w)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--one", nargs=3, metavar=("INDEX", "RING", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        run_one(int(args.one[0]), args.one[1], int(args.one[2]))
        return 0
    print(f"largest weight bound finishing within {BUDGET_S:g} s (time of that bound)")
    for index, (workload, what, subject) in enumerate(PROBLEMS):
        cells = []
        for ring in ("Z", "Zm", "Q"):
            best = None
            for n in range(1, MAX_WEIGHT + 1):
                start = time.perf_counter()
                try:
                    proc = subprocess.run(
                        [sys.executable, __file__, "--one", str(index), ring, str(n)],
                        capture_output=True, timeout=BUDGET_S,
                    )
                except subprocess.TimeoutExpired:
                    break
                if proc.returncode != 0:
                    break
                best = (n, time.perf_counter() - start)
            cells.append(f"{ring} n={best[0]} ({best[1]:.2f} s)" if best else f"{ring} none")
        print(f"{workload:15s} {what} {subject}: " + ", ".join(cells), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
