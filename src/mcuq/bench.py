"""Monte Carlo experiment harness.

Experiments are pure functions of their configuration, seed included.
:func:`run` is the one entry point for every kind: it looks the kind up in
``KINDS`` and hands its experiment a serial map or a fork pool's map.  Every
replicate derives its own generator stream from (seed, replicate index),
and records are emitted in replicate order, so serial and parallel runs
produce byte-identical output.

A parallel run spends its workers' time on replicates.  The parent loads
``numpy.random`` just before the fork, so no worker imports it again; each
worker gets the job function and the job list once and then takes one job
at a time from a shared counter, so a slow job holds up no batch behind it.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import itertools
import json
import math
import operator
import time
from collections.abc import Callable
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from . import bernoulli_uq, estimate, lbdemo, trace_uq
from .core import MAX_MAGNITUDE, DomainError, NoiseSpec, clip_entries, minimax_rate_sq
from .synth import child_seed, make_low_rank, rng_for, sample_bernoulli, sample_trace


MODELS = ("trace", "bernoulli")
#: Each confidence set, and the sampling model it belongs to.
METHODS = {"u_ci": "trace", "rss_ci": "trace", "adaptive_ci": "bernoulli"}

#: The experiment kinds, keyed by ``kind``; filled in where their functions are.
KINDS: dict = {}


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


#: Largest size numpy can index: a shape or sample count beyond it cannot be drawn.
INTP_MAX = int(np.iinfo(np.intp).max)

#: Most replicates of one run (``reps`` times the grid cells of its kind), and
#: most calibration draws (``cal_reps``).  A run keeps every job and its
#: record until it aggregates, about 1.3 KiB each, and lbdemo keeps a row of
#: four statistics per calibration draw: about 130 MiB at the cap.  Building a
#: ``test_power`` config runs a dry run that builds every separated truth,
#: 0.24 ms each at 20x20, so it finishes in about 25 s at the cap; it keeps
#: them for the replicates only up to ``KEPT_TRUTH_BYTES``.
MAX_REPLICATES = 10 ** 5

#: Most random starts of one infimum search; the search draws no more once
#: two of them have rejoined a stalled basin
#: (``bernoulli_uq.RANDOM_REJOINS_TO_STOP``), but a search whose starts keep
#: stalling draws them all.  Each start makes up to 120 projections (58 us
#: each at 20x20), so one search at the cap takes up to about 7 s there, and
#: the search keeps one ``m1 x m2`` stall point per start that stalls.
MAX_RESTARTS = 1000

#: Most pool workers of one run.  The jobs are CPU-bound, so workers beyond the
#: host's cores only share them; 256 is above the cores of any one common host,
#: and a mistyped count such as 100000 is refused before it forks a process.
MAX_THREADS = 256


def _is_finite(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


#: JSON type: (test, what a value must be, what an array's entries must be).
_JSON_TYPES = {"string": (lambda v: isinstance(v, str), "a string", ""),
               "integer": (_is_int, "an integer", "integers"),
               "number": (_is_finite, "a finite number", "finite numbers"),
               "boolean": (lambda v: isinstance(v, bool), "true or false", ""),
               "array": (lambda v: isinstance(v, (list, tuple)), "an array", "")}


@dataclass(frozen=True)
class FieldRule:
    """What one config field may hold, and which runs read it.

    ``json`` is the field's JSON type and ``entries`` the type of an array's
    entries.  An ``"object"``, the noise law, is checked by :class:`NoiseSpec`
    when the config is built.  A string must be one of ``choices``.  ``ge``,
    ``gt``, ``le`` and ``lt`` bound a number or each entry of an array,
    whatever the kind, and an array's entries are distinct grid cells.
    ``readers`` are the kinds and methods that read the field, every kind
    when ``None``.
    """

    json: str
    entries: str = ""
    choices: tuple | dict | None = None
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    lt: float | None = None
    readers: tuple | None = None

    def error(self, name: str, value) -> str | None:
        """How ``value`` breaks this rule, if it does: its type, its entries'
        type and distinctness, its choices, then the first bound it breaks."""
        if self.json == "object":
            return None
        test, what, _ = _JSON_TYPES[self.json]
        if not test(value):
            return f"{name}: must be {what}, got {value!r}"
        values = list(value) if self.entries else [value]
        if self.entries and not all(map(_JSON_TYPES[self.entries][0], values)):
            return f"{name}: entries must be {_JSON_TYPES[self.entries][2]}, got {values}"
        if len(set(values)) < len(values):
            return f"{name}: entries must be distinct, got {values}"
        if self.choices is not None and value not in self.choices:
            return f"{name}: must be one of {tuple(self.choices)}, got {value!r}"
        for sign, bound, holds in ((">=", self.ge, operator.ge), (">", self.gt, operator.gt),
                                   ("<=", self.le, operator.le), ("<", self.lt, operator.lt)):
            if bound is not None and not all(holds(x, bound) for x in values):
                return (f"{name}: {'entries ' * bool(self.entries)}must be {sign} {bound}, "
                        f"got {values if self.entries else value}")
        return None


def _field(default, json: str, **rule):
    """A config field: its default, and beside it its :class:`FieldRule`."""
    return field(default=default, metadata={"rule": FieldRule(json, **rule)})


_SETS = ("coverage", "diameter")  # the kinds that build a confidence set by ``method``
_DRAWN = _SETS + ("risk", "test_power")  # lbdemo draws its own truth and noise
_TESTED = ("adaptive_ci", "test_power")  # the runs of the low-rank test


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment of a run: every field can change its results, and the
    output directory is left to ``uq run --out``.  Each field declares its
    :class:`FieldRule` beside its default; README's schema table lists them.
    A config checks itself when it is built, raising :class:`DomainError`,
    and is frozen, so every config is valid; ``dataclasses.replace``
    overrides a field and checks the new config."""

    kind: str = _field(MISSING, "string", choices=KINDS)
    model: str = _field("trace", "string", choices=MODELS, readers=("risk",))
    m1: int = _field(20, "integer", ge=1, le=INTP_MAX)
    m2: int = _field(20, "integer", ge=1, le=INTP_MAX)
    n: int = _field(200, "integer", ge=1, le=INTP_MAX)
    k_truth: int = _field(1, "integer", readers=_SETS + ("risk",))
    k0: int = _field(1, "integer", readers=("diameter", "lbdemo") + _TESTED)
    k: int = _field(3, "integer", readers=("adaptive_ci", "lbdemo"))
    a: float = _field(1.0, "number", gt=0, le=MAX_MAGNITUDE, readers=_DRAWN)
    noise: NoiseSpec = _field(NoiseSpec("scaled-rademacher", 0.5, 0.5), "object", readers=_DRAWN)
    alpha: float = _field(0.1, "number", gt=0, lt=1, readers=_SETS + ("test_power",))
    reps: int = _field(100, "integer", ge=0, le=MAX_REPLICATES)  # reps times the grid cells too
    cal_reps: int = _field(200, "integer", le=MAX_REPLICATES, readers=("lbdemo",) + _TESTED)
    seed: int = _field(0, "integer", ge=0)
    method: str = _field("u_ci", "string", choices=METHODS, readers=_SETS)
    threshold_mode: str = _field("calibrated", "string", choices=("calibrated", "theoretical"),
                                 readers=_TESTED)
    restarts: int = _field(8, "integer", ge=0, le=MAX_RESTARTS, readers=_TESTED)
    separation_grid: tuple = _field((0.0, 5.0, 10.0, 25.0), "array", entries="number", ge=0,
                                    readers=("test_power",))
    k_grid: tuple = _field((), "array", entries="integer", readers=("risk",))
    n_grid: tuple = _field((), "array", entries="integer", ge=1, le=INTP_MAX, readers=("risk",))
    v: float = _field(0.05, "number", gt=0, le=1, readers=("lbdemo",))
    reveal_sigma: bool = _field(False, "boolean", readers=("lbdemo",))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config of the JSON object ``d``, which must name ``kind`` and
        no unknown field; building it checks the rest."""
        if not isinstance(d, dict):
            raise DomainError(f"config must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - set(RULES)
        if unknown:
            raise DomainError(f"unknown config fields: {sorted(unknown)}")
        if "kind" not in d:
            raise DomainError("kind: required field is missing")
        return cls(**d)

    def reads(self, name: str) -> bool:
        """Whether a run of this config reads field ``name``."""
        readers = RULES[name].readers
        return readers is None or self.kind in readers or (
            self.kind in _SETS and self.method in readers)

    def sampling_model(self) -> str:
        """The model a run of this config samples in: that of its
        confidence set, ``model`` for ``risk``, and the one-shot model for the
        low-rank test and ``lbdemo``."""
        if self.kind in _SETS:
            return METHODS[self.method]
        return self.model if self.kind == "risk" else "bernoulli"

    def __post_init__(self):
        """Turn a ``noise`` object into its :class:`NoiseSpec` and a grid array
        into a tuple; then raise :class:`DomainError` naming every field that
        breaks its own rule; when none does, every broken rule between fields;
        when none is, the ``test_power`` truth that does not fit inside ``a``."""
        if isinstance(self.noise, dict):
            try:
                object.__setattr__(self, "noise", NoiseSpec(**self.noise))
            except (TypeError, DomainError) as e:
                raise DomainError(f"noise: {e}") from e
        elif not isinstance(self.noise, NoiseSpec):
            raise DomainError(f"noise: must be an object with kind, sigma and U, "
                              f"got {type(self.noise).__name__}")
        for name, rule in RULES.items():
            if rule.entries and isinstance(getattr(self, name), list):
                object.__setattr__(self, name, tuple(getattr(self, name)))
        errors = [e for name, rule in RULES.items() if (e := rule.error(name, getattr(self, name)))]
        if _is_int(self.m1) and _is_int(self.m2) and self.m1 * self.m2 > INTP_MAX:
            errors.append(f"m1*m2: must be <= {INTP_MAX}, got {self.m1 * self.m2}")
        errors = errors or self._errors()
        if not errors and self.kind == "test_power":
            try:
                _separated_truths(self)
            except DomainError as e:
                errors = [f"a: {e}"]
        if errors:
            raise DomainError("; ".join(errors))

    def _errors(self) -> list[str]:
        """The broken rules between fields of a config whose fields keep their own."""
        d = min(self.m1, self.m2)
        tested = self.reads("threshold_mode")  # the run does the low-rank test
        errors = []
        if self.sampling_model() == "bernoulli" and self.n > self.m1 * self.m2:
            errors.append(f"n: must be <= m1*m2={self.m1 * self.m2} in the bernoulli model")
        if self.reads("k_truth") and not 1 <= self.k_truth <= d:
            errors.append(f"k_truth: must lie in [1, {d}], got {self.k_truth}")
        cells = math.prod(map(len, KINDS[self.kind].grids(self)))
        if self.reps * cells > MAX_REPLICATES:
            errors.append(f"reps: times the {cells} grid cells of {self.kind} must be "
                          f"<= {MAX_REPLICATES}, got {self.reps}")
        if self.reads("method") and self.method in ("u_ci", "rss_ci") and self.n < 2:
            errors.append(f"n: {self.method} splits the sample and needs >= 2, got {self.n}")
        if self.kind == "diameter" and not 1 <= self.k0 <= d:
            errors.append(f"k0: must lie in [1, {d}] for a diameter run, got {self.k0}")
        if self.kind == "diameter" and self.k_truth == self.k0:
            errors.append(f"k_truth: must differ from k0={self.k0} in a diameter run, "
                          f"got {self.k_truth}")
        if tested and not 0 <= self.k0 < d:
            errors.append(f"k0: must lie in [0, {d - 1}], got {self.k0}")
        if self.kind in _SETS and self.method == "adaptive_ci" and not self.k0 < self.k <= d:
            errors.append(f"k: must exceed k0={self.k0} and be <= {d} in adaptive_ci, got {self.k}")
        if tested and self.threshold_mode == "theoretical" and self.noise.sigma == 0:
            errors.append("noise: the theoretical test threshold needs sigma > 0")
        if self.kind == "risk":
            if self.model == "trace" and self.noise.sigma == 0:
                errors.append("noise: a risk run in the trace model needs sigma > 0, "
                              "since its lam is zero at sigma = 0")
            if not all(1 <= k_t <= d for k_t in self.k_grid):
                errors.append(f"k_grid: entries must lie in [1, {d}], got {list(self.k_grid)}")
            if self.model == "bernoulli" and max(self.n_grid, default=0) > self.m1 * self.m2:
                errors.append(f"n_grid: entries must be <= m1*m2={self.m1 * self.m2} in the "
                              f"bernoulli model, got {list(self.n_grid)}")
        if self.kind == "test_power" and not self.separation_grid:
            errors.append("separation_grid: must not be empty")
        if self.kind == "lbdemo":
            errors += lbdemo.setting_errors(self)
        if tested and self.threshold_mode == "calibrated" and self.cal_reps < 100:
            errors.append(f"cal_reps: a calibrated threshold needs >= 100, got {self.cal_reps}")
        return errors


#: Each config field's :class:`FieldRule`, in declaration order.
RULES = {f.name: f.metadata["rule"] for f in fields(ExperimentConfig)}


@dataclass
class ExperimentReport:
    """Per-replicate records plus aggregates; aggregates are recomputable
    from the records."""

    records: list
    columns: list
    aggregates: dict
    config: dict
    wall_time_s: float

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "aggregates": self.aggregates,
            "wall_time_s": self.wall_time_s,
            "n_records": len(self.records),
        }


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_records_csv(report: ExperimentReport, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(report.columns)
        for rec in report.records:
            w.writerow([_fmt(rec[c]) for c in report.columns])


def write_report_json(report: ExperimentReport, path) -> None:
    with open(path, "w") as f:
        json.dump(report.to_json_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


def rate_se(p_hat: float, reps: int) -> float:
    """Standard error sqrt(p*(1-p)/reps) of an empirical rate."""
    if reps <= 0:
        return 0.0
    return math.sqrt(p_hat * (1.0 - p_hat) / reps)


def _openblas(*symbols: str):
    """Yield each OpenBLAS copy that the numpy and scipy wheels bundle, as its
    package's name and its ``scipy_openblas_<symbol>`` functions; a copy whose
    library or symbol is missing is left out."""
    for package, lib, suffix in ((np, "libscipy_openblas64_-*", "64_"),
                                 (scipy, "libscipy_openblas-*", "")):
        libs_dir = Path(package.__file__).parent.with_name(package.__name__ + ".libs")
        for path in sorted(libs_dir.glob(lib)):
            try:
                copy = ctypes.CDLL(str(path))
                functions = [getattr(copy, f"scipy_openblas_{s}{suffix}") for s in symbols]
            except (OSError, AttributeError):
                continue
            yield package.__name__, functions


@contextlib.contextmanager
def _one_blas_thread():
    """Inside the block, run both bundled OpenBLAS copies (numpy's for matrix
    products, scipy's for ``dsyevr``) on one thread; after it, give each the
    caller's count back.  On more threads a reduction sums in another order,
    so ``records.csv`` would depend on the host, and a pool's workers would
    oversubscribe the CPUs.  A copy already on one thread is left alone."""
    with contextlib.ExitStack() as restore:
        for _, (get_threads, set_threads) in _openblas("get_num_threads", "set_num_threads"):
            get_threads.argtypes, get_threads.restype = (), ctypes.c_int
            set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
            if (threads := get_threads()) != 1:
                set_threads(1)
                restore.callback(set_threads, threads)
        yield


#: The shared job counter of a pool worker, set by the pool's initializer.
_next_job = None


def _init_worker(counter) -> None:
    """Start a pool worker: share the job counter."""
    global _next_job
    _next_job = counter


def _drain(fn: Callable, jobs: list) -> list:
    """Run ``fn`` over ``jobs`` in a pool worker, one job at a time: take the
    next index from the shared counter until it passes the end, and return
    ``(index, result)`` pairs.  A job that raises moves the counter to the
    end, so the other workers stop after the job they hold."""
    done = []
    while True:
        with _next_job.get_lock():
            i = _next_job.value
            _next_job.value = i + 1
        if i >= len(jobs):
            return done
        try:
            done.append((i, fn(jobs[i])))
        except Exception:
            with _next_job.get_lock():
                _next_job.value = len(jobs)
            raise


def _map_for(threads: int):
    """``(map, None)`` for one thread, else ``(map_fn, pool)`` over a fork
    pool of ``threads`` workers, for the caller to close and join; a count
    below 1 or above :data:`MAX_THREADS`, or a platform without ``fork``,
    raises :class:`DomainError`.

    ``map_fn(fn, jobs)`` hands each worker ``fn`` and the job list once; the
    workers then take jobs one at a time from a shared counter, and the
    results come back as a list in job order.  numpy imports
    ``numpy.random`` lazily (about 23 ms, half of it OpenSSL through
    ``secrets``), and the parent of a run never draws a number, so it is
    loaded here, once, before the fork: otherwise every worker of every run
    imports it again.
    """
    if threads < 1:
        raise DomainError(f"--threads: must be >= 1, got {threads}")
    if threads > MAX_THREADS:
        raise DomainError(f"--threads: must be <= {MAX_THREADS}, got {threads}")
    if threads == 1:
        return map, None
    import multiprocessing  # only a pool needs it, so serial runs and imports skip it
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError as e:
        raise DomainError(f"--threads {threads} needs the 'fork' start method, which this "
                          f"platform lacks ({e}); run with --threads 1") from e
    import numpy.random  # noqa: F401  (inherited by the workers)

    counter = ctx.Value("q", 0)
    pool = ctx.Pool(threads, initializer=_init_worker, initargs=(counter,))

    def map_fn(fn: Callable, jobs) -> list:
        jobs = list(jobs)
        counter.value = 0
        pending = [pool.apply_async(_drain, (fn, jobs)) for _ in range(threads)]
        for p in pending:
            p.wait()  # no worker still holds a job when the map returns or raises
        results = [None] * len(jobs)
        for p in pending:
            for i, value in p.get():
                results[i] = value
        return results

    return map_fn, pool


def _build_ci(cfg: ExperimentConfig, data, threshold: float | None,
              r: int) -> trace_uq.FrobeniusBall:
    if cfg.method == "u_ci":
        return trace_uq.u_ci(data, cfg.alpha, a=cfg.a, U=cfg.noise.U)
    if cfg.method == "rss_ci":
        return trace_uq.rss_ci(data, cfg.alpha, a=cfg.a, sigma=cfg.noise.sigma, U=cfg.noise.U)
    return bernoulli_uq.adaptive_ci(
        data, cfg.k0, cfg.k, a=cfg.a, sigma=cfg.noise.sigma, threshold=threshold,
        restarts=cfg.restarts, seed=child_seed(cfg.seed, 12, r))


def _sample(cfg: ExperimentConfig, M, n: int, r: int):
    if cfg.sampling_model() == "trace":
        return sample_trace(M, n, noise=cfg.noise, seed=child_seed(cfg.seed, 11, r))
    return sample_bernoulli(M, n, noise=cfg.noise, seed=child_seed(cfg.seed, 11, r))


def _ci_replicate(cfg: ExperimentConfig, threshold: float | None, job: tuple) -> dict:
    """One confidence set, for a coverage job ``(r, r)`` or a diameter job
    ``(idx, k_truth, r)``; the record holds the columns of both kinds."""
    # Common random numbers: the sampling stream depends on the replicate
    # only, so the two truth-rank cells of a diameter run share masks,
    # positions, and noise and their radius difference isolates the rank effect.
    idx, *cell, r = job
    k_t = cell[0] if cell else cfg.k_truth
    M = make_low_rank(cfg.m1, cfg.m2, k_t, a=cfg.a, seed=child_seed(cfg.seed, 10, r, *cell))
    data = _sample(cfg, M, cfg.n, r)
    ball = _build_ci(cfg, data, threshold, r)
    return {
        "replicate": idx,
        "k_truth": k_t,
        "covered": int(ball.contains(M)),
        "radius_sq": ball.radius_sq,
        "risk": estimate.estimator_risk(ball.center, M),
        "n_aux": ball.n_aux,
        "reject": -1 if ball.reject is None else int(ball.reject),
        "flag": int(bool(ball.flags)),
    }


def _coverage_aggregates(cfg: ExperimentConfig, records: list) -> dict:
    """Empirical coverage of the configured confidence set; NaN without records."""
    if not records:
        return dict.fromkeys(("coverage", "coverage_se", "radius_sq_median", "radius_sq_q90",
                              "risk_median"), float("nan"))
    cov = float(np.mean([rec["covered"] for rec in records]))
    radius = np.array([rec["radius_sq"] for rec in records])
    return {
        "coverage": cov,
        "coverage_se": rate_se(cov, len(records)),
        "radius_sq_median": float(np.median(radius)),
        "radius_sq_q90": float(np.quantile(radius, 0.9)),
        "risk_median": float(np.median([rec["risk"] for rec in records])),
    }


def _diameter_aggregates(cfg: ExperimentConfig, records: list) -> dict:
    """Median squared diameter under the sub-model rank and the full rank.

    ``reps`` replicates run with truth rank ``k0`` and another ``reps``
    with truth rank ``k_truth``; the adaptivity ratio is that of their
    median squared radii, NaN without records.
    """
    med = {}
    for k_t in (cfg.k0, cfg.k_truth):
        vals = [rec["radius_sq"] for rec in records if rec["k_truth"] == k_t]
        med[k_t] = float(np.median(vals)) if vals else float("nan")
    small = [1 - rec["reject"] for rec in records
             if rec["k_truth"] == cfg.k0 and rec["reject"] >= 0]
    return {
        "radius_sq_median_k0": med[cfg.k0],
        "radius_sq_median_k": med[cfg.k_truth],
        "adaptivity_ratio": (float("inf") if med[cfg.k0] <= 0
                             else med[cfg.k_truth] / med[cfg.k0]),
        "small_radius_freq_k0": float(np.mean(small)) if small else float("nan"),
    }


def _risk_replicate(cfg: ExperimentConfig, threshold: float | None, job: tuple) -> dict:
    idx, k_t, n_t, _ = job
    M = make_low_rank(cfg.m1, cfg.m2, k_t, a=cfg.a, seed=child_seed(cfg.seed, 10, idx))
    data = _sample(cfg, M, n_t, idx)
    if cfg.model == "bernoulli":
        lam = estimate.lambda_data_driven(data)
        M_hat = clip_entries(estimate.soft_threshold_estimator(data, lam), cfg.a)
        flag = 0
    else:
        lam = estimate.lambda_practical_trace(cfg.m1, cfg.m2, data.n, sigma=cfg.noise.sigma)
        fit = estimate.matrix_lasso(data, lam, a=cfg.a)
        M_hat, flag = fit.estimate, int(not fit.converged)
    return {"replicate": idx, "k": k_t, "n": n_t,
            "risk": estimate.estimator_risk(M_hat, M), "flag": flag}


def _risk_grids(cfg: ExperimentConfig) -> tuple:
    return tuple(cfg.k_grid) or (cfg.k_truth,), tuple(cfg.n_grid) or (cfg.n,)


def _loglog_slope(xs, ys) -> float:
    lx, ly = np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(ys, dtype=float))
    if len(lx) < 2:
        return float("nan")
    return float(np.polyfit(lx, ly, 1)[0])


def _risk_aggregates(cfg: ExperimentConfig, records: list) -> dict:
    """Median normalized estimator risk over a (k, n) grid, with log-log slopes."""
    k_grid, n_grid = _risk_grids(cfg)
    med = {}
    for k_t in k_grid:
        for n_t in n_grid:
            vals = [rec["risk"] for rec in records
                    if rec["k"] == k_t and rec["n"] == n_t]
            med[(k_t, n_t)] = float(np.median(vals)) if vals else float("nan")
    slope_k = float("nan")
    if len(k_grid) >= 2:
        slope_k = float(np.mean([_loglog_slope(k_grid, [med[(k_t, n_t)] for k_t in k_grid])
                                 for n_t in n_grid]))
    slope_inv_n = float("nan")
    if len(n_grid) >= 2:
        slope_inv_n = float(np.mean([-_loglog_slope(n_grid, [med[(k_t, n_t)] for n_t in n_grid])
                                     for k_t in k_grid]))
    return {
        "risk_median": {f"k={k_t},n={n_t}": med[(k_t, n_t)]
                        for k_t in k_grid for n_t in n_grid},
        "slope_k": slope_k,
        "slope_inv_n": slope_inv_n,
    }


def separated_truth(m1: int, m2: int, k0: int, *, a: float, rho: float,
                    seed: int) -> np.ndarray:
    """Rank-(k0+1) matrix at Frobenius distance exactly ``rho`` from rank k0.

    A strong rank-``k0`` base is perturbed along a flat direction orthogonal
    to it, so the trailing singular value block contributes exactly
    ``rho^2`` and entries stay controlled.  Draws whose entries overflow the
    bound are regenerated.
    """
    if rho <= 0:
        raise DomainError(f"rho must be positive, got {rho}")
    sigma0 = max(1.2 * rho, 0.3 * a * math.sqrt(m1 * m2))
    last_max = 0.0
    for attempt in range(10):
        rng = rng_for(seed, attempt)
        U0 = np.linalg.qr(rng.integers(0, 2, (m1, k0)) * 2.0 - 1.0)[0]
        V0 = np.linalg.qr(rng.integers(0, 2, (m2, k0)) * 2.0 - 1.0)[0]
        u = rng.integers(0, 2, m1) * 2.0 - 1.0
        v = rng.integers(0, 2, m2) * 2.0 - 1.0
        u = u - U0 @ (U0.T @ u)
        v = v - V0 @ (V0.T @ v)
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0.0 or nv == 0.0:
            continue
        M = sigma0 * (U0 @ V0.T) + rho * np.outer(u / nu, v / nv)
        last_max = float(np.max(np.abs(M)))
        if last_max <= a:
            return M
    raise DomainError(
        f"separated truth needs entries up to {last_max:.3g}; "
        f"raise the entry bound a={a}")


def _power_truth(cfg: ExperimentConfig, s_mult: float, idx: int) -> np.ndarray:
    """Truth of power job ``idx``: ``s_mult`` rate units away from rank k0.

    A null truth (``s_mult = 0``) lies in the rank-``k0`` class: the zero
    matrix at ``k0 = 0``.  The rate unit takes rank ``max(k0, 1)``, since the
    rate at rank 0 is zero.  A separated truth comes from the dry run of a
    config equal to ``cfg`` when that run kept it (see :func:`_separated_truths`).
    """
    if s_mult == 0.0:
        if cfg.k0 == 0:
            return np.zeros((cfg.m1, cfg.m2))
        return make_low_rank(cfg.m1, cfg.m2, cfg.k0, a=cfg.a, seed=child_seed(cfg.seed, 10, idx))
    kept_cfg, truths = _kept_truths  # one read: another thread may replace it
    if kept_cfg == cfg:
        return truths[idx]
    unit = math.sqrt(minimax_rate_sq(cfg.m1, cfg.m2, max(cfg.k0, 1), cfg.n))
    return separated_truth(cfg.m1, cfg.m2, cfg.k0, a=cfg.a, rho=s_mult * unit,
                           seed=child_seed(cfg.seed, 10, idx))


#: Most bytes of separated truths that a ``test_power`` dry run keeps for the
#: run's replicates: 16 MiB holds 5,242 truths at 20x20.  The replicates of a
#: larger run build their truths again.
KEPT_TRUTH_BYTES = 16 * 2 ** 20

#: ``(config, truths by job index)`` of the last dry run that kept its truths.
_kept_truths = (None, {})


def _separated_truths(cfg: ExperimentConfig) -> None:
    """Dry run of building a config: build every separated job's truth, so an
    entry bound too small for one of them fails there, not after calibration.

    When the truths fit in :data:`KEPT_TRUTH_BYTES`, they are kept, read-only,
    with ``cfg``, and :func:`_power_truth` hands them to the replicates of a
    config equal to it.  A config is built before :func:`run` forks its
    pool, so the workers find them too, and a run builds each truth once.
    """
    global _kept_truths
    separated = [(idx, s_mult) for idx, s_mult, _ in _jobs(cfg) if s_mult != 0.0]
    keep = len(separated) * cfg.m1 * cfg.m2 * 8 <= KEPT_TRUTH_BYTES
    truths = {}
    for idx, s_mult in separated:
        M = _power_truth(cfg, s_mult, idx)
        if keep:
            M.flags.writeable = False
            truths[idx] = M
    _kept_truths = (cfg, truths) if keep else (None, {})


def _power_replicate(cfg: ExperimentConfig, threshold: float | None, job: tuple) -> dict:
    idx, s_mult, _ = job
    M = _power_truth(cfg, s_mult, idx)
    data = _sample(cfg, M, cfg.n, idx)
    verdict = bernoulli_uq.low_rank_test(
        data, cfg.k0, a=cfg.a, sigma=cfg.noise.sigma, threshold=threshold,
        restarts=cfg.restarts, seed=child_seed(cfg.seed, 12, idx))
    return {"replicate": idx, "separation": s_mult, "T_n": verdict.statistic,
            "threshold": verdict.threshold, "reject": int(verdict.reject),
            "flag": int(verdict.gap_flag)}


def _power_aggregates(cfg: ExperimentConfig, records: list) -> dict:
    """Size and power of the low-rank test across a separation sweep.

    Separations are multiples of the rate unit sqrt(m1*m2*k0*d/n); the zero
    point is the size of the test.
    """
    rates = {}
    for s in cfg.separation_grid:
        vals = [rec["reject"] for rec in records if rec["separation"] == s]
        rates[s] = float(np.mean(vals)) if vals else float("nan")
    power_vals = [rates[s] for s in sorted(cfg.separation_grid)]
    size = rates.get(0.0, float("nan"))
    return {
        "rejection_rate": {repr(float(s)): rates[s] for s in cfg.separation_grid},
        "size": size,
        "size_se": float("nan") if math.isnan(size) else rate_se(size, cfg.reps),
        "power_max_separation": rates[max(cfg.separation_grid)],
        "monotone_within": float(max(
            (power_vals[i] - power_vals[j]
             for i in range(len(power_vals)) for j in range(i + 1, len(power_vals))),
            default=0.0 if records else float("nan"))),
    }


def _lbdemo_experiment(cfg: ExperimentConfig, map_fn) -> dict:
    """Indistinguishability demo; it maps its pairs and calibration draws itself."""
    return lbdemo.indistinguishability_experiment(cfg, map_fn=map_fn)


def _threshold(cfg: ExperimentConfig) -> float | None:
    """The low-rank test's threshold, computed once before any replicate;
    ``None`` when no replicate runs the test."""
    if cfg.reps == 0 or not cfg.reads("threshold_mode"):
        return None
    if cfg.threshold_mode == "calibrated":
        return bernoulli_uq.u_alpha_calibrated(cfg.alpha, (cfg.m1, cfg.m2), cfg.n, noise=cfg.noise,
                                               reps=cfg.cal_reps, seed=child_seed(cfg.seed, 999))
    return bernoulli_uq.u_alpha_theoretical(cfg.alpha, sigma=cfg.noise.sigma, U=cfg.noise.U)


def _jobs(cfg: ExperimentConfig) -> list:
    """The jobs ``(index, *grid values, r)`` of a run, grid by grid, then replicate."""
    return [(i, *job) for i, job in enumerate(
        itertools.product(*KINDS[cfg.kind].grids(cfg), range(cfg.reps)))]


def _replicates(replicate, aggregate, cfg: ExperimentConfig, map_fn) -> dict:
    """The experiment of a grid kind: ``replicate(cfg, threshold, job)`` maps
    over :func:`_jobs` to the records, and ``aggregate(cfg, records)`` summarises them."""
    records = list(map_fn(functools.partial(replicate, cfg, _threshold(cfg)), _jobs(cfg)))
    return {"rows": records, **aggregate(cfg, records)}


@dataclass(frozen=True)
class Kind:
    """How :func:`run` runs one experiment kind: ``experiment(cfg, map_fn)``
    returns the aggregates, with the records, which hold ``columns``, under
    ``rows``; each cell of the grids ``grids(cfg)`` runs ``reps`` jobs."""

    columns: tuple
    experiment: Callable
    grids: Callable = lambda cfg: ()


KINDS.update({
    "coverage": Kind(("replicate", "covered", "radius_sq", "risk", "n_aux", "flag"),
                     functools.partial(_replicates, _ci_replicate, _coverage_aggregates)),
    "diameter": Kind(("replicate", "k_truth", "radius_sq", "covered", "reject", "flag"),
                     functools.partial(_replicates, _ci_replicate, _diameter_aggregates),
                     lambda cfg: ((cfg.k0, cfg.k_truth),)),
    "risk": Kind(("replicate", "k", "n", "risk", "flag"),
                 functools.partial(_replicates, _risk_replicate, _risk_aggregates), _risk_grids),
    "test_power": Kind(("replicate", "separation", "T_n", "threshold", "reject", "flag"),
                       functools.partial(_replicates, _power_replicate, _power_aggregates),
                       lambda cfg: (cfg.separation_grid,)),
    "lbdemo": Kind(("test_name", "type1", "type2", "error_sum", "v", "rho", "m", "n", "k",
                    "reps"), _lbdemo_experiment),
})


def run(config: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Run the experiment of ``config``'s kind; the config checked itself
    when it was built.

    The run and its pool, which forks before any stage, compute on one BLAS
    thread, and the caller's count comes back after.  Every job derives its
    streams from the seed and its own coordinates, and records come back in
    job order, so serial and parallel runs give the same records.
    """
    t0 = time.perf_counter()
    kind = KINDS[config.kind]
    with _one_blas_thread():
        map_fn, pool = _map_for(threads)
        try:
            aggregates = kind.experiment(config, map_fn)
        finally:
            if pool is not None:
                pool.close()
                pool.join()
    records = aggregates.pop("rows")
    aggregates["flagged"] = sum(rec.get("flag", 0) for rec in records)
    return ExperimentReport(records, list(kind.columns), aggregates, config.to_dict(),
                            time.perf_counter() - t0)
