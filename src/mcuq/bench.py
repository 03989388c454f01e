"""Monte Carlo experiment harness.

Experiments are pure functions of their configuration, seed included.
:func:`run` is the one entry point for every kind: it looks the kind up in
``KINDS`` and maps its replicates through a serial map or a fork pool.  Every
replicate derives its own generator stream from (seed, replicate index),
and records are emitted in replicate order, so serial and parallel runs
produce byte-identical output.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import multiprocessing
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import bernoulli_uq, estimate, lbdemo, trace_uq
from .core import DomainError, NoiseSpec, clip_entries, minimax_rate_sq
from .synth import (child_seed, make_low_rank, preload_noise, rng_for, sample_bernoulli,
                    sample_trace)


class ConfigError(ValueError):
    """Experiment configuration failed validation."""


MODELS = ("trace", "bernoulli")
METHODS = ("u_ci", "rss_ci", "adaptive_ci")
INT_FIELDS = ("m1", "m2", "n", "k_truth", "k0", "k", "reps", "seed", "restarts", "cal_reps")
FLOAT_FIELDS = ("a", "alpha", "z", "K", "v", "alpha_test")


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and math.isfinite(value))


@dataclass
class ExperimentConfig:
    """Everything a run needs.  See README for the JSON schema."""

    kind: str
    model: str = "trace"
    m1: int = 20
    m2: int = 20
    n: int = 200
    k_truth: int = 1
    k0: int = 1
    k: int = 3
    a: float = 1.0
    noise: NoiseSpec = field(default_factory=lambda: NoiseSpec("scaled-rademacher", 0.5, 0.5))
    alpha: float = 0.1
    reps: int = 100
    seed: int = 0
    method: str = "u_ci"
    threshold_mode: str = "calibrated"
    z: float = 1.0
    K: float = bernoulli_uq.ADAPTIVE_K_DEFAULT
    lam: float | None = None
    restarts: int = 8
    separation_grid: tuple = (0.0, 5.0, 10.0, 25.0)
    k_grid: tuple = ()
    n_grid: tuple = ()
    v: float = 0.05
    alpha_test: float = 0.05
    cal_reps: int = 200
    reveal_sigma: bool = False
    out: str = "uq_out"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        d = dict(d)
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if isinstance(d.get("noise"), dict):
            try:
                d["noise"] = NoiseSpec(**d["noise"])
            except (TypeError, DomainError) as e:
                raise ConfigError(f"noise: {e}") from e
        elif "noise" in d and not isinstance(d["noise"], NoiseSpec):
            raise ConfigError(f"noise: must be an object with kind, sigma and U, "
                              f"got {type(d['noise']).__name__}")
        for key in ("separation_grid", "k_grid", "n_grid"):
            if isinstance(d.get(key), list):
                d[key] = tuple(d[key])
        if "kind" not in d:
            raise ConfigError("kind: required field is missing")
        return cls(**d)

    def validate(self) -> None:
        """Raise :class:`ConfigError` naming every field of a wrong type or,
        when the types are right, every field that is out of range."""
        try:
            errors = self._type_errors() or self._errors()
        except TypeError as e:
            raise ConfigError(str(e)) from e
        if errors:
            raise ConfigError("; ".join(errors))

    def _type_errors(self) -> list[str]:
        """Integer fields hold integers, not booleans; float fields and grid
        values hold finite numbers."""
        errors = [f"{name}: must be an integer, got {getattr(self, name)!r}"
                  for name in INT_FIELDS if not _is_int(getattr(self, name))]
        errors += [f"{name}: must be a finite number, got {getattr(self, name)!r}"
                   for name in FLOAT_FIELDS if not _is_finite(getattr(self, name))]
        if self.lam is not None and not _is_finite(self.lam):
            errors.append(f"lam: must be a finite number or null, got {self.lam!r}")
        if not isinstance(self.reveal_sigma, bool):
            errors.append(f"reveal_sigma: must be true or false, got {self.reveal_sigma!r}")
        for key, ok, what in (("k_grid", _is_int, "integers"), ("n_grid", _is_int, "integers"),
                              ("separation_grid", _is_finite, "finite numbers")):
            grid = getattr(self, key)
            if not isinstance(grid, (list, tuple)):
                errors.append(f"{key}: must be an array, got {grid!r}")
            elif not all(ok(x) for x in grid):
                errors.append(f"{key}: entries must be {what}, got {list(grid)}")
        return errors

    def _errors(self) -> list[str]:
        errors = []
        if self.kind not in KINDS:
            errors.append(f"kind: must be one of {tuple(KINDS)}, got {self.kind!r}")
        if self.model not in MODELS:
            errors.append(f"model: must be one of {MODELS}, got {self.model!r}")
        if self.m1 < 1 or self.m2 < 1:
            errors.append(f"m1/m2: must be >= 1, got {self.m1}x{self.m2}")
        if self.n < 1:
            errors.append(f"n: must be >= 1, got {self.n}")
        if (self.model == "bernoulli" or self.kind == "lbdemo") and self.n > self.m1 * self.m2:
            errors.append(f"n: must be <= m1*m2={self.m1 * self.m2} in the bernoulli model")
        if not 1 <= self.k_truth <= min(self.m1, self.m2):
            errors.append(f"k_truth: must lie in [1, {min(self.m1, self.m2)}], got {self.k_truth}")
        if self.a <= 0:
            errors.append(f"a: must be positive, got {self.a}")
        if not 0 < self.alpha < 1:
            errors.append(f"alpha: must lie in (0, 1), got {self.alpha}")
        if self.reps < 0:
            errors.append(f"reps: must be >= 0, got {self.reps}")
        if self.seed < 0:
            errors.append(f"seed: must be >= 0, got {self.seed}")
        if self.kind in ("coverage", "diameter"):
            if self.method not in METHODS:
                errors.append(f"method: must be one of {METHODS}, got {self.method!r}")
            elif self.method == "adaptive_ci" and self.model != "bernoulli":
                errors.append("method: adaptive_ci needs model='bernoulli'")
            elif self.method in ("u_ci", "rss_ci") and self.model != "trace":
                errors.append(f"method: {self.method} needs model='trace'")
            elif self.method in ("u_ci", "rss_ci") and self.n < 2:
                errors.append(f"n: {self.method} splits the sample and needs >= 2, got {self.n}")
        if self.kind == "diameter" and not 1 <= self.k0 <= min(self.m1, self.m2):
            errors.append(f"k0: must lie in [1, {min(self.m1, self.m2)}] "
                          f"for a diameter run, got {self.k0}")
        if self.kind == "test_power" and self.model != "bernoulli":
            errors.append("model: test_power runs in the bernoulli model")
        if self.method == "adaptive_ci" or self.kind == "test_power":
            if not 0 <= self.k0 < min(self.m1, self.m2):
                errors.append(f"k0: must lie in [0, {min(self.m1, self.m2) - 1}], got {self.k0}")
            if self.method == "adaptive_ci" and not self.k0 < self.k:
                errors.append(f"k: must exceed k0={self.k0}, got {self.k}")
        if self.threshold_mode not in ("calibrated", "theoretical"):
            errors.append(f"threshold_mode: must be 'calibrated' or 'theoretical', "
                          f"got {self.threshold_mode!r}")
        if self.z <= 0:
            errors.append(f"z: must be positive, got {self.z}")
        if self.K <= 0:
            errors.append(f"K: must be positive, got {self.K}")
        if self.lam is not None and not self.lam > 0:
            errors.append(f"lam: must be positive or null, got {self.lam}")
        if self.restarts < 0:
            errors.append(f"restarts: must be >= 0, got {self.restarts}")
        if _needs_test(self) and self.threshold_mode == "theoretical" and self.noise.sigma == 0:
            errors.append("noise: the theoretical test threshold needs sigma > 0")
        if self.kind == "risk":
            if self.model == "trace" and self.noise.sigma == 0 and self.lam is None:
                errors.append("lam: the practical lam is zero at sigma=0; set lam > 0")
            d = min(self.m1, self.m2)
            if not all(1 <= k_t <= d for k_t in self.k_grid):
                errors.append(f"k_grid: entries must lie in [1, {d}], got {list(self.k_grid)}")
            n_max = self.m1 * self.m2 if self.model == "bernoulli" else math.inf
            if not all(1 <= n_t <= n_max for n_t in self.n_grid):
                errors.append(f"n_grid: entries must lie in [1, {n_max}], got {list(self.n_grid)}")
        if self.kind == "test_power" and not self.separation_grid:
            errors.append("separation_grid: must not be empty")
        elif self.kind == "test_power" and min(self.separation_grid) < 0:
            errors.append(f"separation_grid: must be non-negative, got "
                          f"{list(self.separation_grid)}")
        if self.kind == "lbdemo":
            if self.m1 != self.m2:
                errors.append(f"m1/m2: lbdemo needs a square matrix, got {self.m1}x{self.m2}")
            if not 0 < self.v <= 1:
                errors.append(f"v: must lie in (0, 1], got {self.v}")
            if not 0 < self.alpha_test < 1:
                errors.append(f"alpha_test: must lie in (0, 1), got {self.alpha_test}")
            if not 0 <= self.k0 < self.k:
                errors.append(f"k0/k: need 0 <= k0 < k, got {self.k0}, {self.k}")
            if self.k > self.m1:
                errors.append(f"k: must lie in [1, {self.m1}] for lbdemo, got {self.k}")
            elif self.k >= 1:
                cols = self.m1 // self.k * self.k  # the columns sample_h1 keeps
                if self.m1 * cols < self.n <= self.m1 * self.m2:
                    errors.append(f"n: must be <= {self.m1 * cols} for lbdemo, whose alternative "
                                  f"keeps {cols} of {self.m1} columns at k={self.k}")
            if 0 < self.v <= 1 and min(self.k, self.m1, self.n) >= 1:
                rho = lbdemo.rho_for(self.v, self.k, self.m1, self.n)
                if rho >= 0.5:
                    errors.append(f"v: gives rho={rho:.4f} >= 1/2; reduce v or raise n")
            if self.cal_reps < 1:
                errors.append(f"cal_reps: lbdemo needs >= 1, got {self.cal_reps}")
        if _needs_test(self) and self.threshold_mode == "calibrated" and self.cal_reps < 100:
            errors.append(f"cal_reps: a calibrated threshold needs >= 100, got {self.cal_reps}")
        if not errors and self.kind == "test_power":
            # Dry run of every separated replicate's truth, so an entry bound
            # too small for any of them fails here and not after calibration.
            try:
                for j, s_mult in enumerate(self.separation_grid):
                    for r in range(self.reps if s_mult != 0.0 else 0):
                        _power_truth(self, s_mult, j * self.reps + r)
            except DomainError as e:
                errors.append(f"a: {e}")
        return errors


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


def _map_for(threads: int, noise: NoiseSpec | None = None):
    """``(map, None)`` for one thread, else ``(pool.map, pool)`` of a fork
    pool of ``threads`` workers for the caller to close and join.  ``noise``
    is preloaded first, so the workers inherit its one-off work; a platform
    without the ``fork`` start method raises :class:`ConfigError`."""
    if threads <= 1:
        return map, None
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError as e:
        raise ConfigError(f"--threads {threads} needs the 'fork' start method, which this "
                          f"platform lacks ({e}); run with --threads 1") from e
    if noise is not None:
        preload_noise(noise)  # once here, not once in every forked worker
    pool = ctx.Pool(threads)
    return pool.map, pool


def _build_ci(cfg: ExperimentConfig, data, extras: dict,
              test_seed: int) -> trace_uq.FrobeniusBall:
    if cfg.method == "u_ci":
        return trace_uq.u_ci(data, cfg.alpha, cfg.a, cfg.noise.U, lam=cfg.lam)
    if cfg.method == "rss_ci":
        return trace_uq.rss_ci(data, cfg.alpha, cfg.noise.sigma, cfg.noise.U, cfg.a,
                               z=cfg.z, lam=cfg.lam)
    return bernoulli_uq.adaptive_ci(
        data, cfg.k0, cfg.k, cfg.a, cfg.noise.sigma, extras["threshold"],
        K=cfg.K, lam=cfg.lam, restarts=cfg.restarts, seed=test_seed)


def _sample(cfg: ExperimentConfig, M, r: int):
    if cfg.model == "trace":
        return sample_trace(M, cfg.n, cfg.noise, child_seed(cfg.seed, 11, r))
    return sample_bernoulli(M, cfg.n, cfg.noise, child_seed(cfg.seed, 11, r))


def _coverage_replicate(cfg: ExperimentConfig, extras: dict, job: tuple) -> dict:
    _, r = job
    M = make_low_rank(cfg.m1, cfg.m2, cfg.k_truth, cfg.a, child_seed(cfg.seed, 10, r))
    data = _sample(cfg, M, r)
    ball = _build_ci(cfg, data, extras, child_seed(cfg.seed, 12, r))
    return {
        "replicate": r,
        "covered": int(ball.contains(M)),
        "radius_sq": ball.radius_sq,
        "risk": estimate.estimator_risk(ball.center, M),
        "n_aux": ball.n_aux,
        "flag": int(bool(ball.flags)),
    }


def _coverage_aggregates(cfg: ExperimentConfig, records: list, extras: dict) -> dict:
    """Empirical coverage of the configured confidence set."""
    cov = float(np.mean([rec["covered"] for rec in records])) if records else 0.0
    radius = np.array([rec["radius_sq"] for rec in records]) if records else np.zeros(0)
    return {
        "coverage": cov,
        "coverage_se": rate_se(cov, len(records)),
        "radius_sq_median": float(np.median(radius)) if records else 0.0,
        "radius_sq_q90": float(np.quantile(radius, 0.9)) if records else 0.0,
        "risk_median": float(np.median([rec["risk"] for rec in records])) if records else 0.0,
    }


def _diameter_replicate(cfg: ExperimentConfig, extras: dict, job: tuple) -> dict:
    # Common random numbers: the sampling stream depends on the replicate
    # only, so the two truth-rank cells share masks, positions, and noise
    # and their radius difference isolates the rank effect.
    idx, k_t, r = job
    sub = replace(cfg, k_truth=k_t)
    M = make_low_rank(sub.m1, sub.m2, k_t, sub.a, child_seed(cfg.seed, 10, r, k_t))
    data = _sample(sub, M, r)
    ball = _build_ci(sub, data, extras, child_seed(cfg.seed, 12, r))
    return {
        "replicate": idx,
        "k_truth": k_t,
        "radius_sq": ball.radius_sq,
        "covered": int(ball.contains(M)),
        "reject": -1 if ball.reject is None else int(ball.reject),
        "flag": int(bool(ball.flags)),
    }


def _diameter_aggregates(cfg: ExperimentConfig, records: list, extras: dict) -> dict:
    """Median squared diameter under the sub-model rank and the full rank.

    ``reps`` replicates run with truth rank ``k0`` and another ``reps``
    with truth rank ``k_truth``; the adaptivity ratio is that of their
    median squared radii.
    """
    med = {}
    for k_t in (cfg.k0, cfg.k_truth):
        vals = [rec["radius_sq"] for rec in records if rec["k_truth"] == k_t]
        med[k_t] = float(np.median(vals)) if vals else 0.0
    small = [1 - rec["reject"] for rec in records
             if rec["k_truth"] == cfg.k0 and rec["reject"] >= 0]
    return {
        "radius_sq_median_k0": med[cfg.k0],
        "radius_sq_median_k": med[cfg.k_truth],
        "adaptivity_ratio": (med[cfg.k_truth] / med[cfg.k0]
                             if med[cfg.k0] > 0 else float("inf")),
        "small_radius_freq_k0": float(np.mean(small)) if small else float("nan"),
    }


def _risk_replicate(cfg: ExperimentConfig, extras: dict, job: tuple) -> dict:
    idx, k_t, n_t, _ = job
    sub = replace(cfg, k_truth=k_t, n=n_t)
    M = make_low_rank(sub.m1, sub.m2, k_t, sub.a, child_seed(cfg.seed, 10, idx))
    data = _sample(sub, M, idx)
    if cfg.model == "bernoulli":
        lam = cfg.lam if cfg.lam is not None else estimate.lambda_data_driven(data)
        M_hat = clip_entries(estimate.soft_threshold_estimator(data, lam), cfg.a)
        flag = 0
    else:
        lam = cfg.lam if cfg.lam is not None else estimate.lambda_practical_trace(
            cfg.noise.sigma, cfg.m1, cfg.m2, data.n)
        fit = estimate.matrix_lasso(data, lam, cfg.a)
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


def _risk_aggregates(cfg: ExperimentConfig, records: list, extras: dict) -> dict:
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


def separated_truth(m1: int, m2: int, k0: int, a: float, rho: float,
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
    rate at rank 0 is zero.
    """
    if s_mult == 0.0:
        if cfg.k0 == 0:
            return np.zeros((cfg.m1, cfg.m2))
        return make_low_rank(cfg.m1, cfg.m2, cfg.k0, cfg.a, child_seed(cfg.seed, 10, idx))
    unit = math.sqrt(minimax_rate_sq(cfg.m1, cfg.m2, max(cfg.k0, 1), cfg.n))
    return separated_truth(cfg.m1, cfg.m2, cfg.k0, cfg.a, s_mult * unit,
                           child_seed(cfg.seed, 10, idx))


def _power_replicate(cfg: ExperimentConfig, extras: dict, job: tuple) -> dict:
    idx, s_mult, _ = job
    M = _power_truth(cfg, s_mult, idx)
    data = sample_bernoulli(M, cfg.n, cfg.noise, child_seed(cfg.seed, 11, idx))
    verdict = bernoulli_uq.low_rank_test(
        data, cfg.k0, cfg.a, cfg.noise.sigma, extras["threshold"],
        restarts=cfg.restarts, seed=child_seed(cfg.seed, 12, idx))
    return {"replicate": idx, "separation": s_mult, "T_n": verdict.statistic,
            "threshold": verdict.threshold, "reject": int(verdict.reject),
            "flag": int(verdict.gap_flag)}


def _power_aggregates(cfg: ExperimentConfig, records: list, extras: dict) -> dict:
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
            default=0.0)),
    }


def _lbdemo_experiment(cfg: ExperimentConfig, map_fn) -> dict:
    """Indistinguishability demo; it maps its calibration and its pairs itself."""
    return lbdemo.indistinguishability_experiment(
        cfg.m1, cfg.n, cfg.k, cfg.k0, cfg.v, cfg.reps, seed=cfg.seed,
        alpha_test=cfg.alpha_test, cal_reps=cfg.cal_reps,
        reveal_sigma=cfg.reveal_sigma, map_fn=map_fn)


def _lbdemo_aggregates(cfg: ExperimentConfig, rows: list, result: dict) -> dict:
    return {
        "min_error_sum": result["min_error_sum"],
        "error_sum": {row["test_name"]: row["error_sum"] for row in rows},
        "thresholds": result["thresholds"],
        "rho": result["rho"],
    }


def _needs_test(config: ExperimentConfig) -> bool:
    """Whether replicates of ``config`` run the low-rank test."""
    return (config.kind == "test_power"
            or (config.kind in ("coverage", "diameter") and config.method == "adaptive_ci"))


def _prepare_extras(config: ExperimentConfig) -> dict:
    """Work shared across replicates, done once up front (e.g. calibration)."""
    if not _needs_test(config):
        return {}
    if config.threshold_mode == "calibrated":
        return {"threshold": bernoulli_uq.u_alpha_calibrated(
            config.alpha, config.noise.sigma, config.noise,
            (config.m1, config.m2), config.n, reps=config.cal_reps,
            seed=child_seed(config.seed, 999))}
    return {"threshold": bernoulli_uq.u_alpha_theoretical(
        config.alpha, config.noise.sigma, config.noise.U)}


@dataclass(frozen=True)
class Kind:
    """How :func:`run` runs one experiment kind.

    Jobs ``(index, *grid values, r)`` run over
    ``itertools.product(*grids(cfg), range(cfg.reps))``; ``replicate(cfg,
    extras, job)`` turns one into a record with ``columns``, with ``extras``
    from :func:`_prepare_extras`, and ``aggregate(cfg, records, extras)``
    summarises the records.  With ``grids=None`` the kind maps its own stages
    and draws nothing from ``cfg.noise``: ``replicate(cfg, map_fn)`` returns
    a result whose ``rows`` are the records and which ``aggregate`` gets as
    ``extras``.
    """

    columns: tuple
    replicate: Callable
    aggregate: Callable
    grids: Callable | None = lambda cfg: ()


#: The experiment kinds, keyed by the config's ``kind``.
KINDS = {
    "coverage": Kind(("replicate", "covered", "radius_sq", "risk", "n_aux", "flag"),
                     _coverage_replicate, _coverage_aggregates),
    "diameter": Kind(("replicate", "k_truth", "radius_sq", "covered", "reject", "flag"),
                     _diameter_replicate, _diameter_aggregates,
                     lambda cfg: ((cfg.k0, cfg.k_truth),)),
    "risk": Kind(("replicate", "k", "n", "risk", "flag"),
                 _risk_replicate, _risk_aggregates, _risk_grids),
    "test_power": Kind(("replicate", "separation", "T_n", "threshold", "reject", "flag"),
                       _power_replicate, _power_aggregates,
                       lambda cfg: (cfg.separation_grid,)),
    "lbdemo": Kind(("test_name", "type1", "type2", "error_sum", "v", "rho", "m", "n", "k",
                    "reps"),
                   _lbdemo_experiment, _lbdemo_aggregates, None),
}


def run(config: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Validate ``config`` once and run the experiment of its kind.

    The pool opens before any stage runs, so a platform without ``fork``
    fails before the calibration.  Every job derives its streams from the
    seed and its own coordinates, and records come back in job order, so
    serial and parallel runs give the same records.
    """
    config.validate()
    t0 = time.perf_counter()
    kind = KINDS[config.kind]
    map_fn, pool = _map_for(threads, None if kind.grids is None else config.noise)
    try:
        if kind.grids is None:
            extras = kind.replicate(config, map_fn)
            records = extras["rows"]
        else:
            extras = _prepare_extras(config)
            jobs = [(i, *job) for i, job in enumerate(
                itertools.product(*kind.grids(config), range(config.reps)))]
            records = list(map_fn(functools.partial(kind.replicate, config, extras), jobs))
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    aggregates = {**kind.aggregate(config, records, extras),
                  "flagged": sum(rec.get("flag", 0) for rec in records)}
    return ExperimentReport(records, list(kind.columns), aggregates, config.to_dict(),
                            time.perf_counter() - t0)
