"""In-memory span tracer around the public functions of each doamap layer.

`instrument(tracer)` swaps every traced function for a recording wrapper in
each doamap module namespace that binds it, and puts the originals back on
exit.  Patching the defining module alone is not enough: `ordermap` imports
`log_q_sum` by name, `bench` imports `run_single`'s helpers by name, and so
on, so those calls would go unrecorded.

A span is `[name, start_ns, end_ns, parent_index, op_id]`.  Times are
integer nanoseconds, so self times (duration minus the child spans it
contains) add up exactly.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np


def _dtft_counts(freq_or_y, grid_deg):
    d, m = getattr(freq_or_y, "y", freq_or_y).shape
    g = len(grid_deg)
    # The G x D by D x M complex product dominates: 8 real flops per
    # multiply-add.  Bytes are those of the steering matrix, the data and
    # the product, from their shapes (cache traffic is not seen).
    return {"flop": 8 * g * d * m, "bytes": 16 * (g * d + d * m + g * m)}


# (module, function) -> None, or a function of the call's arguments that
# returns the exact work counts of that call, as integers so that totals
# and per-op averages repeat bit for bit.
TRACED = {
    ("arraysim", "synth_freq"): None,
    ("arraysim", "steering_matrix"): None,
    ("subspace", "sample_covariance"): None,
    ("subspace", "eigendecompose"): None,
    ("subspace", "music_pseudospectrum"): None,
    ("subspace", "pick_peaks"): None,
    ("subspace", "dtft_spectrum"): _dtft_counts,
    ("subspace", "projection_stats"): None,
    ("ordermap", "map_order_pca"):
        lambda basis, freq_or_y, k_max, m: {"candidates_scored": k_max + 1},
    ("ordermap", "map_order_scan"):
        lambda freq_or_y, peak_angles_deg, k_max, m, prior="music":
            {"candidates_scored": min(k_max, len(peak_angles_deg)) + 1},
    ("ordermap", "posterior_variances"): None,
    ("ordermap", "aic_order"): None,
    ("specfun", "log_q_sum"):
        lambda alpha, beta, q: {"terms": int(beta) if alpha else 0},
    ("specfun", "log_reg_inc_beta"):
        lambda p, n, m: {"terms": int(m) * int(np.size(p))},
    ("metrics", "err_doa"): None,
    ("metrics", "rmse_amplitude"): None,
    ("bench", "run_single"): None,
    ("bench", "write_results"): None,
    ("bench", "write_aggregates"): None,
    ("bench", "validate_distributions"): None,
}

OP_SPAN = "op"


class Tracer:
    """Spans and per-call counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.op])

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    def op_span(self):
        """The root span the benchmark opens around each op."""
        return self.span(OP_SPAN)

    @contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name, "calls"] += 1
            if count is not None:
                for key, value in count(*args, **kwargs).items():
                    self.counts[name, key] += value
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.counts[name, "raised"] += 1
                raise
            finally:
                self.end()

        return traced


@contextmanager
def instrument(tracer):
    """Route every traced doamap function through `tracer` while active."""
    modules = [mod for name, mod in sys.modules.items()
               if name == "doamap" or name.startswith("doamap.")]
    patched = []
    try:
        for (mod_name, fn_name), count in TRACED.items():
            original = getattr(sys.modules[f"doamap.{mod_name}"], fn_name)
            wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def self_times_ns(spans):
    """Each span's duration minus the time its direct children cover.

    Raises if a child is not inside its parent, since then the parent's
    self time would not be its own work.
    """
    covered = [0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            if not p_start <= start <= end <= p_end:
                raise ValueError("child span lies outside its parent")
            covered[parent] += end - start
    return [end - start - c
            for (_n, start, end, _p, _o), c in zip(spans, covered)]


def op_self_sums_ns(spans, selfs):
    """Sum of self times per op id, and each op's root span duration."""
    sums, roots = Counter(), {}
    for (name, start, end, _parent, op), s in zip(spans, selfs):
        sums[op] += s
        if name == OP_SPAN:
            roots[op] = end - start
    return sums, roots


def layer_metrics(tracers, scales, n_ops):
    """Per-op self ms and counts of every traced function over all passes.

    Each pass's times are multiplied by its entry in `scales`.
    """
    self_ns, counts = Counter(), Counter()
    for tracer, scale in zip(tracers, scales):
        for span, s in zip(tracer.spans, self_times_ns(tracer.spans)):
            self_ns[span[0]] += s * scale
        counts.update(tracer.counts)
    out = {}
    for mod_name, fn_name in TRACED:
        span = f"{mod_name}.{fn_name}"
        out[f"{span}.ms"] = self_ns[span] / 1e6 / n_ops
        for (name, key), value in counts.items():
            if name == span:
                out[f"{span}.{key}"] = value / n_ops
        out.setdefault(f"{span}.calls", 0.0)
    calls = counts["specfun.log_reg_inc_beta", "calls"]
    out["specfun.log_reg_inc_beta.us_per_call"] = (
        self_ns["specfun.log_reg_inc_beta"] / 1e3 / calls if calls else 0.0)
    out["ordermap.candidates_scored"] = (
        counts["ordermap.map_order_pca", "candidates_scored"]
        + counts["ordermap.map_order_scan", "candidates_scored"]) / n_ops
    out["subspace.projection_stats.rank_deficient"] = (
        counts["subspace.projection_stats", "raised"] / n_ops)
    out["subspace.dtft_spectrum.gflop_computed"] = (
        counts["subspace.dtft_spectrum", "flop"] / n_ops / 1e9)
    out["subspace.dtft_spectrum.mbytes_computed"] = (
        counts["subspace.dtft_spectrum", "bytes"] / n_ops / 1e6)
    out["bench.run_single.self_ms"] = out["bench.run_single.ms"]
    out["bench.validate_distributions.self_ms"] = (
        out["bench.validate_distributions.ms"])
    # Counts default to zero where a layer never runs on a workload.
    for key in ("specfun.log_q_sum.terms", "specfun.log_reg_inc_beta.terms"):
        out.setdefault(key, 0.0)
    return out
