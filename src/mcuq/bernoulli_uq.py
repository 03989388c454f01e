"""Infimum test for low-rank hypotheses in the one-shot model, and the
adaptive confidence set built on top of it (known noise variance).

The test statistic is the smallest achievable magnitude of the centered
residual sum over candidate matrices of the hypothesized rank.  Exact
minimization over a nonconvex rank class is intractable, so the statistic
is an upper bound produced by multi-start local search; two features keep
it honest:

* every evaluated candidate lies in the class, so the reported value never
  exceeds the value at any candidate;
* the class is path connected (scaling toward zero stays inside), so if two
  candidates give the centered sum opposite signs, the true infimum of its
  magnitude is exactly zero by continuity and the statistic is snapped to 0.

Each step of the search is a projected gradient step taken from a momentum
(FISTA) extrapolation of the last two iterates.  The extrapolated point may
leave the class, so it is never scored: only its projection is.  When that
projection does not lower the magnitude of the centered sum, the momentum
restarts and the next step is the plain one from the current iterate, as in
the function-value restart of :func:`mcuq.estimate.matrix_lasso`.  Against
the plain-step search, this keeps the bracketed share and the summed excess
over a strong reference search no worse on every group of
``tests/test_search_quality.py``'s panel, with fewer projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, NoiseSpec, clip_entries, truncate_rank
from .estimate import lambda_data_driven, soft_threshold_estimator
from .synth import BernoulliDataset, _draw_noise, rng_for
from .trace_uq import FrobeniusBall


@dataclass
class InfimumResult:
    value: float
    minimizer: np.ndarray
    gap_flag: bool
    bracketed_zero: bool


@dataclass
class TestVerdict:
    """Outcome of the low-rank hypothesis test: reject when the infimum
    statistic exceeds the threshold; ``gap_flag`` marks a search that never
    improved on its starts."""

    statistic: float
    threshold: float
    reject: bool
    gap_flag: bool


def _project(X: np.ndarray, k0: int, a: float) -> np.ndarray:
    """Feasible point of the rank/box class near X: truncate, then rescale into the box."""
    T = truncate_rank(X, k0)
    mx = max(T.max(), -T.min())
    if mx > a:
        T = T * (a / mx)
        # The rescale rounds and can leave an entry one ulp outside [-a, a];
        # clip in place (np.clip costs several times more at 20x20).
        np.minimum(T, a, out=T)
        np.maximum(T, -a, out=T)
    return T


def infimum_stat(data: BernoulliDataset, k0: int, a: float, sigma: float,
                 restarts: int = 8, seed: int = 0, max_iter: int = 120,
                 center: np.ndarray | None = None) -> InfimumResult:
    """Upper bound on inf over rank-``k0`` candidates of the centered residual sum.

    The objective for a candidate ``A`` is
    ``|sum over observed entries of ((Y - A)^2 - sigma^2)| / sqrt(2n)``.
    Starts are the zero matrix, a spectral fit of the data projected into
    the class, and ``restarts`` random rank-``k0`` matrices; each is refined
    by projected gradient steps on the smooth residual sum (rank truncation
    plus box rescaling after every step).  A step starts from the extrapolation
    ``Z = A + ((t - 1)/t_next) (A - A_prev)`` with FISTA's
    ``t_next = (1 + sqrt(1 + 4 t^2))/2``; only its projection is scored.  A
    step that does not lower ``|g|`` resets ``t`` to 1, so the next step is
    the plain one from ``A``; when the plain step fails too, the start ends.
    ``max_iter`` bounds the projections of each start, restarts included.
    The spectral fit is ``center`` when given, else the clipped
    soft-threshold fit at the data-driven ``lam``, which is also the default
    center of :func:`adaptive_ci`.  ``k0 = 0`` evaluates the single class
    member ``A = 0`` exactly.
    """
    if not 0 <= k0 < min(data.m1, data.m2):
        raise DomainError(f"k0 must lie in [0, {min(data.m1, data.m2) - 1}], got {k0}")
    if a <= 0:
        raise DomainError(f"entry bound a must be positive, got {a}")
    if sigma < 0:
        raise DomainError(f"sigma must be non-negative, got {sigma}")

    mask = data.mask
    obs = np.flatnonzero(mask)
    yv = data.values.take(obs)
    n = data.n
    sig_sq_hat = sigma * sigma * data.n_hat
    scale = math.sqrt(2.0 * n)
    # Sums below machine noise of the accumulation are indistinguishable from 0.
    g_floor = 64.0 * np.finfo(float).eps * float(np.sum(yv * yv) + sig_sq_hat)

    add_reduce = np.add.reduce  # np.sum of a 1-d array, without the wrapper

    def g_of(A):
        r = yv - A.take(obs)
        return float(add_reduce(r * r)) - sig_sq_hat

    if k0 == 0:
        A0 = np.zeros((data.m1, data.m2))
        return InfimumResult(abs(g_of(A0)) / scale, A0, False, False)

    # The zero matrix is always in the class; if it alone zeroes the sum the
    # infimum is exactly zero and no search is needed.
    A_zero = np.zeros((data.m1, data.m2))
    g_zero = g_of(A_zero)
    if abs(g_zero) <= g_floor:
        return InfimumResult(0.0, A_zero, False, False)

    rng = rng_for(seed)
    starts = [A_zero]
    if center is None:
        center = clip_entries(soft_threshold_estimator(data, lambda_data_driven(data)), a)
    starts.append(_project(center, k0, a))
    for _ in range(restarts):
        L = rng.standard_normal((data.m1, k0))
        R = rng.standard_normal((data.m2, k0))
        X = L @ R.T
        mx = np.max(np.abs(X))
        if mx > 0:
            X *= rng.uniform(0.1, 1.0) * a / mx
        starts.append(X)

    impute_base = np.where(mask, data.values, 0.0)

    g_best = None
    A_best = None
    g_lo = math.inf
    g_hi = -math.inf
    improved_any = False

    def consider(A, g):
        nonlocal g_best, A_best, g_lo, g_hi
        g_lo = min(g_lo, g)
        g_hi = max(g_hi, g)
        if g_best is None or abs(g) < abs(g_best):
            g_best, A_best = g, A

    for A in starts:
        g = g_of(A)
        g_start = g
        consider(A, g)
        A_prev, t = A, 1.0
        for _ in range(max_iter):
            # Projected gradient step on the residual sum with the exact
            # 1/L step (replace observed entries by their data values),
            # taken from the FISTA extrapolation Z of the last two iterates.
            # Z is never scored: only its projection is a candidate.
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            Z = A if t == 1.0 else A + ((t - 1.0) / t_next) * (A - A_prev)
            A_new = _project(np.where(mask, impute_base, Z), k0, a)
            g_new = g_of(A_new)
            consider(A_new, g_new)
            if g_new < 0.0 and g_hi > 0.0:
                break  # opposite signs seen; the infimum is certified zero
            if abs(g_new) >= abs(g) * (1.0 - 1e-9):
                if t == 1.0:
                    break  # the plain step stalls: no meaningful decrease left
                t = 1.0  # restart: the next step is the plain one from A
                continue
            A_prev, A, g, t = A, A_new, g_new, t_next
        if abs(g) < abs(g_start):
            improved_any = True
        if g_lo < -g_floor and g_hi > g_floor:
            break

    # Scaling probes stay inside the class and often straddle the zero level.
    for c in (-1.0, -0.5, 0.5):
        consider(c * A_best, g_of(c * A_best))

    bracketed = g_lo < 0.0 and g_hi > 0.0
    if bracketed or abs(g_best) <= g_floor:
        return InfimumResult(0.0, A_best, False, bracketed)
    return InfimumResult(abs(g_best) / scale, A_best, not improved_any, False)


def u_alpha_theoretical(alpha: float, sigma: float, U: float) -> float:
    """Markov-style threshold sigma*sqrt(3*(U^2 - sigma^2)/(2*alpha)).

    Zero when U equals sigma: the noise then has no variance slack and the
    centered squared-noise sum vanishes identically.
    """
    if not 0 < alpha < 1:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0 < sigma <= U:
        raise DomainError(f"need 0 < sigma <= U, got sigma={sigma}, U={U}")
    if sigma == U:
        return 0.0
    return sigma * math.sqrt(3.0 * (U * U - sigma * sigma) / (2.0 * alpha))


def u_alpha_calibrated(alpha: float, sigma: float, noise: NoiseSpec,
                       shape: tuple[int, int], n: int, reps: int = 400,
                       seed: int = 0) -> float:
    """Empirical (1 - alpha/3)-quantile of the null noise statistic.

    Simulates ``reps`` draws of ``|sum over observed entries of
    (eps^2 - sigma^2)| / sqrt(2n)`` under the given mask rate and noise law.
    """
    if reps < 100:
        raise DomainError(f"need reps >= 100 for a stable quantile, got {reps}")
    m1, m2 = shape
    p = n / (m1 * m2)
    if not 0 < p <= 1:
        raise DomainError(f"n={n} incompatible with shape {shape}")
    sig_sq = sigma * sigma
    scale = math.sqrt(2.0 * n)
    stats = np.empty(reps)
    for r in range(reps):
        rng = rng_for(seed, r)
        mask = rng.random((m1, m2)) < p
        eps = _draw_noise(noise, int(mask.sum()), rng)
        stats[r] = abs(float(np.sum(eps * eps)) - sig_sq * eps.size) / scale
    return float(np.quantile(stats, 1.0 - alpha / 3.0, method="higher"))


def low_rank_test(data: BernoulliDataset, k0: int, a: float, sigma: float,
                  threshold: float, restarts: int = 8, seed: int = 0,
                  center: np.ndarray | None = None) -> TestVerdict:
    """Reject the rank-``k0`` hypothesis when the infimum statistic exceeds
    ``threshold``.

    The caller picks the threshold, and with it the noise law it assumes:
    :func:`u_alpha_calibrated` simulates the null quantile under a given law,
    :func:`u_alpha_theoretical` is the closed form (valid but very
    conservative at small sizes).  ``center`` is passed on to
    :func:`infimum_stat` as its spectral start.
    """
    res = infimum_stat(data, k0, a, sigma, restarts=restarts, seed=seed, center=center)
    return TestVerdict(res.value, float(threshold), res.value > threshold, res.gap_flag)


#: Default diameter multiplier for the adaptive set: twice the empirically
#: fitted constant of the center estimator's error-to-rate ratio at desk
#: scale (fitted ratio about 1.25 at 20x20, n=300).
ADAPTIVE_K_DEFAULT = 2.5


def adaptive_ci(data: BernoulliDataset, k0: int, k: int, a: float, sigma: float,
                threshold: float, K: float = ADAPTIVE_K_DEFAULT,
                lam: float | None = None, restarts: int = 8,
                seed: int = 0) -> FrobeniusBall:
    """Two-valued adaptive confidence set driven by the low-rank test.

    The center is the clipped closed-form fit at ``lam`` (data-driven by
    default), which also starts the test's search; the normalized squared
    radius is ``K^2 * k * d / n`` when the rank-``k0`` hypothesis is
    rejected at ``threshold`` (see :func:`low_rank_test`) and
    ``K^2 * k0 * d / n`` otherwise.
    """
    if not 0 <= k0 < k:
        raise DomainError(f"need 0 <= k0 < k, got k0={k0}, k={k}")
    if lam is None:
        lam = lambda_data_driven(data)
    center = clip_entries(soft_threshold_estimator(data, lam), a)
    verdict = low_rank_test(data, k0, a, sigma, threshold, restarts=restarts,
                            seed=seed, center=center)
    k_used = k if verdict.reject else k0
    radius_sq = K * K * k_used * (data.m1 + data.m2) / data.n
    return FrobeniusBall(center, radius_sq, data.n, a_bound=a, reject=verdict.reject,
                         flags=("search_gap",) if verdict.gap_flag else ())
