"""Outside-in tracing of mcuq's layers.

The package imports functions by name, so each wrapper is installed at the
attribute where the caller looks the function up (``trace_uq.matrix_lasso``
for the lasso that ``u_ci`` calls, ``bernoulli_uq.truncate_rank`` for the
projections inside ``infimum_stat``), plus ``numpy.linalg.svd`` for the
LAPACK kernel.  Spans are kept in memory; ``restore`` puts every original
function back and reports any wrapper still reachable.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time

SVD = "numpy.linalg.svd"
TRUNCATE = "core.truncate_rank"
_MARK = "_perfbench_layer"


def _svd_flop(args, kwargs, out) -> float:
    """Computed operation count of one LAPACK SVD (Golub-Reinsch counts,
    Golub & Van Loan, Matrix Computations, table 5.4.1)."""
    a = args[0] if args else kwargs["a"]
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    p, q = max(a.shape[-2:]), min(a.shape[-2:])
    batch = math.prod(a.shape[:-2])
    if compute_uv:
        return batch * (14.0 * p * q * q + 8.0 * q ** 3)
    return batch * (4.0 * p * q * q - 4.0 * q ** 3 / 3.0)


def _lasso_note(args, kwargs, out):
    return out.n_iter, bool(out.converged)


def _pairs_note(args, kwargs, out):
    return out.n_pairs


def _infimum_note(args, kwargs, out):
    return bool(out.bracketed_zero), bool(out.gap_flag)


#: (module, attribute the caller looks up, layer name, note taken from the call).
WRAPS = (
    ("mcuq.cli", "main", "cli.main", None),
    ("mcuq.cli", "run", "bench.run", None),
    ("mcuq.cli", "write_records_csv", "cli.write", None),
    ("mcuq.cli", "write_report_json", "cli.write", None),
    ("mcuq.bench", "make_low_rank", "synth.make_low_rank", None),
    ("mcuq.bench", "sample_trace", "synth.sample_trace", None),
    ("mcuq.bench", "sample_bernoulli", "synth.sample_bernoulli", None),
    ("mcuq.lbdemo", "sample_bernoulli", "synth.sample_bernoulli", None),
    ("mcuq.trace_uq", "u_ci", "trace_uq.u_ci", None),
    ("mcuq.trace_uq", "matrix_lasso", "estimate.matrix_lasso", _lasso_note),
    ("mcuq.trace_uq", "pair_repeats", "trace_uq.pair_repeats", _pairs_note),
    ("mcuq.bernoulli_uq", "u_alpha_calibrated", "bernoulli_uq.u_alpha_calibrated", None),
    ("mcuq.bernoulli_uq", "infimum_stat", "bernoulli_uq.infimum_stat", _infimum_note),
    ("mcuq.lbdemo", "infimum_stat", "bernoulli_uq.infimum_stat", _infimum_note),
    ("mcuq.bernoulli_uq", "soft_threshold_estimator", "estimate.soft_threshold_estimator", None),
    ("mcuq.bernoulli_uq", "truncate_rank", TRUNCATE, None),
    ("mcuq.core", "truncate_rank", TRUNCATE, None),
    ("mcuq.core", "svd_deterministic", "core.svd_deterministic", None),
    ("mcuq.estimate", "svd_deterministic", "core.svd_deterministic", None),
    ("mcuq.lbdemo", "indistinguishability_experiment",
     "lbdemo.indistinguishability_experiment", None),
    ("mcuq.lbdemo", "sample_h1", "lbdemo.sample_h1", None),
    ("mcuq.lbdemo", "h1_dataset", "lbdemo.h1_dataset", None),
    ("numpy.linalg", "svd", SVD, _svd_flop),
)

#: Per-layer metrics that are counts: two traced runs at one seed must agree exactly.
COUNT_SUFFIXES = (".calls", ".iters", ".pairs", ".gflop", ".projections_per_call",
                  ".svd_per_iter", ".converged_share", ".bracketed_share", ".gap_share")


class Tracer:
    """Installs span-recording wrappers and takes them out again."""

    def __init__(self):
        # One span: [layer, parent span index or -1, start, end, note].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for modname, attr, layer, note in WRAPS:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, note))

    def _wrap(self, fn, layer, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, out)
            return out

        setattr(traced, _MARK, layer)
        return traced

    def restore(self) -> list[str]:
        """Reinstate every original; return the attributes still holding a wrapper."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "mcuq" or name.startswith("mcuq.")
                                         or name == "numpy.linalg")]
        return sorted(f"{m.__name__}.{attr}" for m in modules
                      for attr, value in vars(m).items() if hasattr(value, _MARK))


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced run; layers it did not reach read 0."""
    n = len(spans)
    child_s, svd_s, svd_flop = [0.0] * n, [0.0] * n, [0.0] * n
    svd_calls, truncations = [0] * n, [0] * n
    for layer, parent, start, end, note in spans:
        if parent < 0:
            continue
        child_s[parent] += end - start
        if layer == SVD:
            svd_s[parent] += end - start
            svd_flop[parent] += note
            svd_calls[parent] += 1
        elif layer == TRUNCATE:
            truncations[parent] += 1

    def new_stats():
        return {"calls": 0, "busy": 0.0, "self": 0.0, "lapack": 0.0, "flop": 0.0,
                "svd": 0, "trunc": 0, "durations": [], "notes": []}

    per = {}
    for i, (layer, _, start, end, note) in enumerate(spans):
        st = per.setdefault(layer, new_stats())
        st["calls"] += 1
        st["busy"] += end - start
        st["self"] += end - start - child_s[i]
        st["lapack"] += svd_s[i]
        st["flop"] += svd_flop[i]
        st["svd"] += svd_calls[i]
        st["trunc"] += truncations[i]
        st["durations"].append(end - start)
        st["notes"].append(note)

    def get(layer):
        return per.get(layer) or new_stats()

    def share(values):
        return sum(values) / len(values) if values else 0.0

    m = {}
    for layer in ("synth.make_low_rank", "synth.sample_trace", "synth.sample_bernoulli",
                  "lbdemo.indistinguishability_experiment", "lbdemo.sample_h1",
                  "lbdemo.h1_dataset", "bench.run", "cli.main"):
        m[layer + ".self_s"] = get(layer)["self"]
    m["synth.make_low_rank.lapack_s"] = get("synth.make_low_rank")["lapack"]

    svd_det = get("core.svd_deterministic")
    m["core.svd_deterministic.calls"] = svd_det["calls"]
    m["core.svd_deterministic.self_s"] = svd_det["self"]
    m["core.svd_deterministic.lapack_s"] = svd_det["lapack"]
    m["core.svd_deterministic.gflop"] = svd_det["flop"] / 1e9

    m["core.truncate_rank.calls"] = get(TRUNCATE)["calls"]
    m["core.truncate_rank.self_s"] = get(TRUNCATE)["self"]

    lasso = get("estimate.matrix_lasso")
    iters = sum(note[0] for note in lasso["notes"])
    m["estimate.matrix_lasso.calls"] = lasso["calls"]
    m["estimate.matrix_lasso.self_s"] = lasso["self"]
    m["estimate.matrix_lasso.lapack_s"] = lasso["lapack"]
    m["estimate.matrix_lasso.gflop"] = lasso["flop"] / 1e9
    m["estimate.matrix_lasso.iters"] = iters
    m["estimate.matrix_lasso.svd_per_iter"] = lasso["svd"] / iters if iters else 0.0
    m["estimate.matrix_lasso.converged_share"] = share([note[1] for note in lasso["notes"]])

    m["estimate.soft_threshold_estimator.busy_s"] = get("estimate.soft_threshold_estimator")["busy"]

    uci = get("trace_uq.u_ci")
    m["trace_uq.u_ci.ms_p50"] = 1e3 * _quantile(uci["durations"], 0.5)
    m["trace_uq.u_ci.ms_p90"] = 1e3 * _quantile(uci["durations"], 0.9)
    m["trace_uq.u_ci.self_s"] = uci["self"]

    pairs = get("trace_uq.pair_repeats")
    m["trace_uq.pair_repeats.self_s"] = pairs["self"]
    m["trace_uq.pair_repeats.pairs"] = sum(pairs["notes"])

    inf = get("bernoulli_uq.infimum_stat")
    m["bernoulli_uq.infimum_stat.ms_p50"] = 1e3 * _quantile(inf["durations"], 0.5)
    m["bernoulli_uq.infimum_stat.ms_p90"] = 1e3 * _quantile(inf["durations"], 0.9)
    m["bernoulli_uq.infimum_stat.self_s"] = inf["self"]
    m["bernoulli_uq.infimum_stat.projections_per_call"] = (
        inf["trunc"] / inf["calls"] if inf["calls"] else 0.0)
    m["bernoulli_uq.infimum_stat.bracketed_share"] = share([note[0] for note in inf["notes"]])
    m["bernoulli_uq.infimum_stat.gap_share"] = share([note[1] for note in inf["notes"]])

    m["bernoulli_uq.u_alpha_calibrated.busy_s"] = get("bernoulli_uq.u_alpha_calibrated")["busy"]
    m["lbdemo.lapack_s"] = get("lbdemo.indistinguishability_experiment")["lapack"]
    m["cli.write_s"] = get("cli.write")["busy"]
    return m
