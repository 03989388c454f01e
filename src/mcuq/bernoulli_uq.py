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
the function-value restart of :func:`mcuq.estimate.matrix_lasso`.  A start
that comes back into the ball around the point ``S`` where an earlier start
stalled ends there.  The ball's radius ``d_S`` is certified from the data:
``|g(A) - g(S)| <= 2 r_S |A - S|_F + |A - S|_F^2`` with ``r_S`` the observed
residual norm at ``S``, so the centered sum ``g`` keeps its sign inside the
ball and no candidate there could bracket zero.  Against the plain-step
search, this keeps the bracketed share and the summed excess over a strong
reference search no worse on every group of
``tests/test_search_quality.py``'s panel, with fewer projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, NoiseSpec, clip_entries, truncate_rank
from .estimate import lambda_data_driven, soft_threshold_estimator
from .synth import BernoulliDataset, bernoulli_mask, rng_for
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


def _rejoin_radius_sq(g_S: float, sig_sq_hat: float) -> float:
    """Squared radius ``d_S^2`` of the ball around a stall point ``S`` in
    which the centered sum keeps the sign of ``g_S`` (see :func:`infimum_stat`).

    ``d_S`` is the positive root of ``d^2 + 2 r_S d = |g_S|/2`` with
    ``r_S = sqrt(g_S + sig_sq_hat)``, taken in the form that does not cancel
    when ``|g_S|`` is small against ``r_S^2``.  At ``g_S = 0`` the ball is a
    point, also when ``r_S = 0``.
    """
    h = 0.5 * abs(g_S)
    r = math.sqrt(max(g_S + sig_sq_hat, 0.0))
    d = h / (r + math.sqrt(r * r + h)) if h else 0.0
    return d * d


def _sq_dist(A: np.ndarray, B: np.ndarray) -> float:
    D = A - B
    return float(np.vdot(D, D))


def infimum_stat(data: BernoulliDataset, k0: int, *, a: float, sigma: float,
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
    A start also ends as soon as the candidates so far give ``g`` both
    signs, whichever came first: the statistic is then 0.  ``max_iter``
    bounds the projections of each start, restarts included.
    A start that stalls (its plain step fails, or ``max_iter`` runs out)
    without a bracket leaves its last iterate ``S`` as a stall point; a later
    start ends as soon as an accepted iterate ``A`` satisfies
    ``|A - S|_F^2 <= d_S^2`` for a stall point ``S``, and leaves none itself.
    ``d_S`` solves ``d_S^2 + 2 r_S d_S = |g_S|/2``, where ``g_S`` is the
    centered sum at ``S`` and ``r_S = sqrt(g_S + n_hat sigma^2)`` the norm of
    its observed residual ``R = P_Omega(Y - S)``.  For ``D = A - S``,
    ``g(A) - g_S = |P_Omega D|_F^2 - 2 <R, P_Omega D>``, so
    ``|g(A) - g_S| <= 2 r_S |D|_F + |D|_F^2 <= |g_S|/2`` in that ball: every
    candidate there has the sign of ``g_S`` and ``|g(A)| >= |g_S|/2``, and
    none could bracket zero.  Ending a start only drops candidates, each of
    them a projection, so the statistic stays an attained upper bound.
    The spectral fit is ``center`` when given, else the clipped
    soft-threshold fit at the data-driven ``lam``, which is also the center
    of :func:`adaptive_ci`; it is built only when its start comes up.
    ``k0 = 0`` evaluates the single class member ``A = 0`` exactly.
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
    # Every candidate lies in [-a, a], so no squared sum below exceeds this one.
    r_max = float(np.max(np.abs(yv), initial=0.0)) + a
    if not math.isfinite(r_max * r_max * obs.size + sig_sq_hat):
        raise DomainError(f"squared residual sums overflow at a={a}, sigma={sigma}")
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

    def starts():
        # Each start after the first is built or drawn when its turn comes,
        # so a bracket skips the spectral fit and the draws it no longer
        # needs; the generator feeds only the starts.
        yield A_zero
        fit = center
        if fit is None:
            fit = clip_entries(soft_threshold_estimator(data, lambda_data_driven(data)), a)
        yield _project(fit, k0, a)
        rng = rng_for(seed)
        for _ in range(restarts):
            L = rng.standard_normal((data.m1, k0))
            R = rng.standard_normal((data.m2, k0))
            X = L @ R.T
            mx = np.max(np.abs(X))
            if mx > 0:
                X *= rng.uniform(0.1, 1.0) * a / mx
            yield X

    g_best = None
    A_best = None
    g_lo = math.inf
    g_hi = -math.inf
    improved_any = False
    stalls = []  # (S, d_S^2) per stall point

    def consider(A, g):
        nonlocal g_best, A_best, g_lo, g_hi
        g_lo = min(g_lo, g)
        g_hi = max(g_hi, g)
        if g_best is None or abs(g) < abs(g_best):
            g_best, A_best = g, A

    for A in starts():
        g = g_of(A)
        g_start = g
        consider(A, g)
        A_prev, t = A, 1.0
        stalled = True
        for _ in range(max_iter):
            if g_lo < 0.0 < g_hi:
                stalled = False
                break  # opposite signs seen; the infimum is certified zero
            # Projected gradient step on the residual sum with the exact
            # 1/L step (replace observed entries by their data values),
            # taken from the FISTA extrapolation Z of the last two iterates.
            # Z is never scored: only its projection is a candidate.
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            Z = A if t == 1.0 else A + ((t - 1.0) / t_next) * (A - A_prev)
            A_new = _project(np.where(mask, data.values, Z), k0, a)
            g_new = g_of(A_new)
            consider(A_new, g_new)
            if abs(g_new) >= abs(g) * (1.0 - 1e-9):
                if t == 1.0:
                    break  # the plain step stalls: no meaningful decrease left
                t = 1.0  # restart: the next step is the plain one from A
                continue
            A_prev, A, g, t = A, A_new, g_new, t_next
            if any(_sq_dist(A, S) <= r_sq for S, r_sq in stalls):
                stalled = False
                break  # rejoined an earlier start's basin
        if stalled:
            stalls.append((A, _rejoin_radius_sq(g, sig_sq_hat)))
        if abs(g) < abs(g_start):
            improved_any = True
        if g_lo < 0.0 < g_hi:
            break  # the statistic is 0 whatever the later starts find

    # Scaling probes stay inside the class and often straddle the zero level.
    for c in (-1.0, -0.5, 0.5):
        consider(c * A_best, g_of(c * A_best))

    bracketed = g_lo < 0.0 and g_hi > 0.0
    if bracketed or abs(g_best) <= g_floor:
        return InfimumResult(0.0, A_best, False, bracketed)
    return InfimumResult(abs(g_best) / scale, A_best, not improved_any, False)


def u_alpha_theoretical(alpha: float, *, sigma: float, U: float) -> float:
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


def u_alpha_calibrated(alpha: float, shape: tuple[int, int], n: int, *, noise: NoiseSpec,
                       reps: int = 400, seed: int = 0) -> float:
    """Empirical (1 - alpha/3)-quantile of the null noise statistic.

    Simulates ``reps`` draws of ``|sum over observed entries of
    (eps^2 - sigma^2)| / sqrt(2n)`` under the one-shot mask of ``n`` in
    ``shape`` and the noise law ``noise``, whose ``sigma`` it centres at.
    """
    if reps < 100:
        raise DomainError(f"need reps >= 100 for a stable quantile, got {reps}")
    m1, m2 = shape
    sig_sq = noise.sigma * noise.sigma
    stats = np.empty(reps)
    for r in range(reps):
        rng = rng_for(seed, r)
        mask = bernoulli_mask(m1, m2, n, rng)
        eps = noise.draw(int(mask.sum()), rng)
        stats[r] = abs(float(np.sum(eps * eps)) - sig_sq * eps.size)
    # Division by a positive number keeps the order, so the quantile of the
    # scaled statistics is the scaled quantile.
    return float(np.quantile(stats, 1.0 - alpha / 3.0, method="higher")) / math.sqrt(2.0 * n)


def low_rank_test(data: BernoulliDataset, k0: int, *, a: float, sigma: float,
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
    res = infimum_stat(data, k0, a=a, sigma=sigma, restarts=restarts, seed=seed, center=center)
    return TestVerdict(res.value, float(threshold), res.value > threshold, res.gap_flag)


#: Diameter multiplier ``K`` of the adaptive set: twice the empirically
#: fitted constant of the center estimator's error-to-rate ratio at desk
#: scale (fitted ratio about 1.25 at 20x20, n=300).  The set is honest only
#: when it is large enough: at 0.5, criterion 08's coverage fails.
ADAPTIVE_K = 2.5


def adaptive_ci(data: BernoulliDataset, k0: int, k: int, *, a: float, sigma: float,
                threshold: float, restarts: int = 8, seed: int = 0) -> FrobeniusBall:
    """Two-valued adaptive confidence set driven by the low-rank test.

    The center is the clipped closed-form fit at the data-driven ``lam``,
    which also starts the test's search; the normalized squared
    radius is ``K^2 * k * d / n`` when the rank-``k0`` hypothesis is
    rejected at ``threshold`` (see :func:`low_rank_test`) and
    ``K^2 * k0 * d / n`` otherwise; ``K`` is :data:`ADAPTIVE_K`, read at each call.
    """
    if not 0 <= k0 < k:
        raise DomainError(f"need 0 <= k0 < k, got k0={k0}, k={k}")
    center = clip_entries(soft_threshold_estimator(data, lambda_data_driven(data)), a)
    verdict = low_rank_test(data, k0, a=a, sigma=sigma, threshold=threshold,
                            restarts=restarts, seed=seed, center=center)
    k_used = k if verdict.reject else k0
    radius_sq = ADAPTIVE_K * ADAPTIVE_K * k_used * (data.m1 + data.m2) / data.n
    return FrobeniusBall(center, radius_sq, data.n, a_bound=a, reject=verdict.reject,
                         flags=("search_gap",) if verdict.gap_flag else ())
