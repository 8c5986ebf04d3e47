"""Timing spans around letterbraid's public functions, for the traced run.

The tracer replaces each function listed in SPANNED by a wrapper that
opens a span: name, layer (the defining module), start, end, and the span
open when it was called.  It installs the wrapper on every module that
binds the function, because ``classfun``, ``barcyc`` and ``cli`` call
names such as ``kernel_basis`` and ``filtered_kernel`` through their own
``from ... import`` bindings.  A listed name that the library no longer
has is reported in ``absent`` and its metrics read 0; it is not an error.

Spans are folded into totals as they close, so memory stays flat however
many calls a run makes.  A span's self time is its duration minus the time
its child spans cover; a layer's self time is the sum over its spans.
Time the tracer spends measuring arguments (matrix sizes, entry bits) is
taken out of every open span.  While ``paused`` is set the wrappers call
straight through and record nothing; the benchmark pauses the tracer
while it checks outputs, so the per-layer figures hold only the
program's work.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

PACKAGE = "letterbraid"

# Functions given a span, by defining module.  Generators are marked: their
# span covers each step of the iteration, not the call that creates them.
SPANNED = {
    "rings": (
        "smith_normal_form", "kernel_basis", "row_canonical_form", "solve",
        "matrix_inverse", "in_column_span", "matrix_rank", "_hermite_rows",
    ),
    "barcyc": ("h0_bar", "h0_cyc", "filtered_kernel"),
    "tensors": ("eval_word", "cycle"),
    "words": ("fox_expand", "words_up_to"),
    "classfun": (
        "finite_type_basis", "class_function_basis", "descend_conditions",
        "is_class_function_sampled", "oracle_group_ring_quotient",
        "evaluation_table", "pairing_tables_agree",
    ),
    "dga": ("cochain_algebra",),
    "cli": ("main",),
}
GENERATORS = {"words.words_up_to"}
# Public rings entry points: each call counts once in the rings call totals.
RINGS_CALLS = {
    f"rings.{name}" for name in SPANNED["rings"] if not name.startswith("_")
}

# Per-layer metrics and their units.
PER_LAYER_UNITS = {
    "rings.smith_normal_form.calls": "count",
    "rings.smith_normal_form.s": "s",
    "rings.kernel_basis.calls": "count",
    "rings.kernel_basis.s": "s",
    "rings.row_canonical_form.calls": "count",
    "rings.row_canonical_form.s": "s",
    "rings.solve.calls": "count",
    "rings.solve.s": "s",
    "rings.matrix_inverse.calls": "count",
    "rings.max_cells": "count",
    "rings.max_entry_bits": "bits",
    "rings.self_s": "s",
    "barcyc.filtered_kernel.calls": "count",
    "barcyc.filtered_kernel.s": "s",
    "barcyc.self_s": "s",
    "barcyc.kernel_input_nnz": "count",
    "barcyc.rings_calls_per_kernel": "ratio",
    "tensors.eval_word.calls": "count",
    "tensors.eval_word.s": "s",
    "tensors.self_s": "s",
    "tensors.letter_terms": "count",
    "words.fox_expand.calls": "count",
    "words.fox_expand.s": "s",
    "words.words_up_to.words": "count",
    "words.self_s": "s",
    "classfun.is_class_function_sampled.calls": "count",
    "classfun.is_class_function_sampled.s": "s",
    "classfun.descend_conditions.s": "s",
    "classfun.oracle_group_ring_quotient.s": "s",
    "classfun.evaluation_table.s": "s",
    "classfun.self_s": "s",
    "dga.cochain_algebra.s": "s",
    "cli.main.s": "s",
    "trace.overhead_s": "s",
}


def _bits_of(x) -> int:
    if isinstance(x, int):
        return (x if x >= 0 else -x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return 0


def _max_bits(obj) -> int:
    """Largest entry bit length in a matrix, kernel basis, or nest of lists."""
    if hasattr(obj, "entries"):  # IntMatrix
        return max(map(_bits_of, obj.entries), default=0)
    if hasattr(obj, "matrix") and hasattr(obj, "annihilators"):  # KernelBasis
        return _max_bits(obj.matrix)
    if isinstance(obj, (list, tuple)):
        return max(map(_max_bits, obj), default=0)
    return _bits_of(obj)


def _cells(args) -> int:
    first = args[0] if args else None
    if hasattr(first, "rows") and hasattr(first, "cols"):  # IntMatrix
        return first.rows * first.cols
    if isinstance(first, list) and len(args) > 1:  # _hermite_rows(rows, cols)
        return len(first) * args[1]
    return 0


class Tracer:
    def __init__(self):
        self.installed = []  # (module, attribute, original)
        self.absent = []
        self.paused = False
        self.reset()

    def reset(self):
        self.stack = []  # open spans: [key, layer, start, child_time]
        self.calls = {}
        self.inclusive = {}  # outermost calls of each name only
        self.self_time = {}  # by layer
        self.counts = {
            "rings.max_cells": 0,
            "rings.max_entry_bits": 0,
            "barcyc.kernel_input_nnz": 0,
            "barcyc.rings_calls_in_kernels": 0,
            "tensors.letter_terms": 0,
            "words.words_up_to.words": 0,
        }

    # -- spans ------------------------------------------------------------

    def _open(self, key, layer, *, call=True):
        if call:
            if key in RINGS_CALLS and any(s[0] == "barcyc.filtered_kernel" for s in self.stack):
                self.counts["barcyc.rings_calls_in_kernels"] += 1
            self.calls[key] = self.calls.get(key, 0) + 1
        self.stack.append([key, layer, time.perf_counter(), 0.0])

    def _close(self):
        end = time.perf_counter()
        key, layer, start, child = self.stack.pop()
        duration = end - start
        self.self_time[layer] = self.self_time.get(layer, 0.0) + duration - child
        if self.stack:
            self.stack[-1][3] += duration
        if all(s[0] != key for s in self.stack):
            self.inclusive[key] = self.inclusive.get(key, 0.0) + duration

    def _measured(self, key, args, result):
        """Record sizes of one call's data, with the clock stopped."""
        t0 = time.perf_counter()
        c = self.counts
        if key.startswith("rings."):
            c["rings.max_cells"] = max(c["rings.max_cells"], _cells(args))
            c["rings.max_entry_bits"] = max(
                c["rings.max_entry_bits"], _max_bits(args[:1]), _max_bits(result)
            )
        elif key == "barcyc.filtered_kernel":
            c["barcyc.kernel_input_nnz"] += sum(1 for x in args[0].entries if x != 0)
        elif key == "tensors.eval_word":
            c["tensors.letter_terms"] += len(args[1].letters) * len(args[0].terms)
        spent = time.perf_counter() - t0
        for span in self.stack:
            span[2] += spent

    def _wrap(self, key, layer, fn):
        tracer = self
        if key in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if tracer.paused:
                    yield from fn(*args, **kwargs)
                    return
                tracer.calls[key] = tracer.calls.get(key, 0) + 1
                it = fn(*args, **kwargs)
                while True:
                    tracer._open(key, layer, call=False)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close()
                    tracer.counts["words.words_up_to.words"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer._open(key, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            tracer._measured(key, args, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        self.absent = []
        for layer, names in SPANNED.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            if home is None:  # a module this workload never loads
                continue
            for name in names:
                key = f"{layer}.{name}"
                fn = getattr(home, name, None)
                if fn is None:
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(key, layer, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self.installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self.installed):
            setattr(module, attr, fn)
        self.installed = []

    # -- results ------------------------------------------------------------

    def totals(self, rounds: int = 1) -> dict:
        """Every per-layer figure except trace.overhead_s, over the spans
        recorded since the last reset: sums per round, maxima and ratios
        as they are."""
        out = {}
        for metric in PER_LAYER_UNITS:
            head, _, tail = metric.rpartition(".")
            if tail == "calls":
                out[metric] = self.calls.get(head, 0) / rounds
            elif tail == "s":
                out[metric] = self.inclusive.get(head, 0.0) / rounds
            elif tail == "self_s":
                out[metric] = self.self_time.get(head, 0.0) / rounds
            elif metric in self.counts:
                maximum = metric in ("rings.max_cells", "rings.max_entry_bits")
                out[metric] = self.counts[metric] / (1 if maximum else rounds)
        kernels = self.calls.get("barcyc.filtered_kernel", 0)
        inner = self.counts["barcyc.rings_calls_in_kernels"]
        out["barcyc.rings_calls_per_kernel"] = inner / kernels if kernels else 0.0
        return out
