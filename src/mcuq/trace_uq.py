"""Confidence sets in the repeated-sampling model.

Two constructions share the same shape: split the sample, fit a low-rank
center on the second half, and bound the normalized squared Frobenius error
from the first half.  The residual-sum construction needs the noise standard
deviation; the paired-observation construction only needs the almost-sure
noise bound, because products of two independent residuals at the same
position estimate the squared error without a variance correction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DomainError, as_matrix
from .estimate import LassoFit, estimator_risk, lambda_practical_trace, matrix_lasso
from .synth import TraceDataset

#: Slack on the entry bound when testing membership of box-constrained sets.
MEMBER_ENTRY_TOL = 1e-9

#: The free positive constant ``z`` of :func:`rss_ci`'s radius (:func:`rss_radius_sq`).
RSS_Z = 1.0

#: Relative slack on ``a + U`` when the observations are checked against it.
#: It covers :class:`NoiseSpec`'s own 1e-12 slack on a uniform half-width and
#: the rounding of an entry plus its noise.
DATA_BOUND_RTOL = 1e-9


@dataclass
class PairedSet:
    """Couples of independent observations of the same entry.

    ``z`` and ``z2`` are the first and second observation of position
    ``(rows[k], cols[k])``; ``used`` records which raw sample indices were
    consumed (each at most once).
    """

    rows: np.ndarray
    cols: np.ndarray
    z: np.ndarray
    z2: np.ndarray
    used: np.ndarray

    @property
    def n_pairs(self) -> int:
        return len(self.z)


@dataclass
class FrobeniusBall:
    """Confidence set: center matrix plus a bound on the normalized error.

    A matrix ``A`` belongs to the set when
    ``|A - center|_F^2/(m1*m2) <= radius_sq`` and, if ``a_bound`` is set,
    additionally ``|A|_inf <= a_bound``.  ``n_aux`` is the sample count the
    radius rests on (couples for ``u_ci``, observations otherwise);
    ``reject`` is the low-rank test's verdict for the adaptive set and
    ``None`` for the others; ``flags`` names any numerical trouble
    (``center_not_converged``, ``search_gap``).
    """

    center: np.ndarray
    radius_sq: float
    n_aux: int
    a_bound: float | None = None
    reject: bool | None = None
    flags: tuple[str, ...] = ()

    def contains(self, A: np.ndarray) -> bool:
        A = as_matrix(A)
        if self.a_bound is not None and np.max(np.abs(A)) > self.a_bound + MEMBER_ENTRY_TOL:
            return False
        return estimator_risk(A, self.center) <= self.radius_sq


def split_sample(data: TraceDataset) -> tuple[TraceDataset, TraceDataset]:
    """Deterministic split into two equal halves; an odd trailing sample is dropped."""
    if data.n < 2:
        raise DomainError(f"need at least 2 samples to split, got {data.n}")
    m = data.n - (data.n % 2)
    half = m // 2
    return data.subset(0, half), data.subset(half, m)


def pair_repeats(half: TraceDataset) -> PairedSet:
    """Couple repeated observations of each position.

    Sample indices at each position are sorted ascending and paired
    consecutively: (a1, a2), (a3, a4), ...; a leftover odd observation is
    left unused.  Couples come grouped by position, positions in the order
    of their first observation, and within a position in index order;
    ``used`` lists each couple's two indices in that same order.
    """
    n = half.n
    key = half.rows.astype(np.int64) * half.m2 + half.cols
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first[group], kind="stable")
    g = group[order]
    run_start = np.ones(n, dtype=bool)
    run_start[1:] = g[1:] != g[:-1]
    has_next = np.zeros(n, dtype=bool)
    has_next[:-1] = ~run_start[1:]
    pos = np.arange(n)
    rank = pos - np.maximum.accumulate(np.where(run_start, pos, 0))
    lead = np.flatnonzero((rank % 2 == 0) & has_next)
    t1, t2 = order[lead], order[lead + 1]
    return PairedSet(half.rows[t1].astype(np.int64),
                     half.cols[t1].astype(np.int64),
                     half.y[t1].astype(float),
                     half.y[t2].astype(float),
                     np.column_stack((t1, t2)).ravel().astype(np.int64))


def u_statistic(pairs: PairedSet, M_hat: np.ndarray) -> float:
    """Mean product of the two residuals over all couples; 0 when there are none."""
    if pairs.n_pairs == 0:
        return 0.0
    M_hat = as_matrix(M_hat)
    center = M_hat[pairs.rows, pairs.cols]
    return float(np.mean((pairs.z - center) * (pairs.z2 - center)))


def u_quantile(alpha: float, N: int, *, a: float, U: float) -> float:
    """Quantile slack (U^2 + 4a^2)/sqrt(N*alpha), degenerating to 4a^2 at N=0."""
    if not 0 < alpha < 1:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if N < 0:
        raise DomainError(f"N must be non-negative, got {N}")
    if N == 0:
        return 4.0 * a * a
    return (U * U + 4.0 * a * a) / math.sqrt(N * alpha)


def _check_data_bound(data: TraceDataset, *, a: float, U: float) -> None:
    """Raise :class:`DomainError` when an observation refutes ``|y| <= a + U``,
    which entries in ``[-a, a]`` and noise in ``[-U, U]`` imply."""
    top = float(np.max(np.abs(data.y), initial=0.0))
    if top > (a + U) * (1.0 + DATA_BOUND_RTOL):
        raise DomainError(f"the data refute the bounds: max|y| = {top:.6g} exceeds "
                          f"a + U = {a + U:.6g} (a={a}, U={U})")


def _fit_flags(fit: LassoFit) -> tuple[str, ...]:
    return () if fit.converged else ("center_not_converged",)


def u_ci(data: TraceDataset, alpha: float, *, a: float, U: float) -> FrobeniusBall:
    """Confidence set from paired repeats; valid without knowing the variance.

    The center is a constrained nuclear-norm fit on the second half (tuned
    with the noise bound ``U`` standing in for the unknown standard
    deviation); the radius is the paired-residual statistic of the first
    half plus the quantile slack.  Data with an observation above ``a + U``
    refute the bounds, and raise :class:`DomainError`.
    """
    _check_data_bound(data, a=a, U=U)
    m = min(data.m1, data.m2)
    d = data.m1 + data.m2
    if not m * math.log(d) <= data.n <= data.m1 * data.m2:
        warnings.warn(
            f"n={data.n} outside the recommended range "
            f"[{m * math.log(d):.0f}, {data.m1 * data.m2}]",
            RuntimeWarning,
        )
    first, second = split_sample(data)
    fit = matrix_lasso(second, lambda_practical_trace(data.m1, data.m2, second.n, sigma=U), a=a)
    pairs = pair_repeats(first)
    N = pairs.n_pairs
    radius_sq = max(0.0, u_statistic(pairs, fit.estimate) + u_quantile(alpha, N, a=a, U=U))
    return FrobeniusBall(fit.estimate, radius_sq, N, a_bound=a, flags=_fit_flags(fit))


def rss_statistic(half: TraceDataset, M_hat: np.ndarray, *, sigma: float) -> float:
    """Mean squared residual over the half-sample minus sigma^2.

    Equals (2/n) * sum over the first half of squared residuals minus the
    noise variance, where n is the full (even) sample size.
    """
    if sigma < 0:
        raise DomainError(f"sigma must be non-negative, got {sigma}")
    M_hat = as_matrix(M_hat)
    resid = half.y - M_hat[half.rows, half.cols]
    return float(np.mean(resid * resid)) - sigma * sigma


def rss_radius_sq(R_hat: float, n: int, d: int, *, sigma: float,
                  z: float, z_alpha: float, xi: float) -> float:
    """Largest t solving t <= 2*(R_hat + z*d/n + (zbar(t) + xi)/sqrt(n)).

    ``zbar(t)^2 = z_alpha * sigma^2 * max(3t, 4zd/n)`` switches branches at
    ``t = 4zd/(3n)``; below it the right side is constant and above it the
    inequality is a quadratic in sqrt(t), so both branch maxima are closed
    form and the answer is the larger valid one, floored at zero.
    """
    sqrt_n = math.sqrt(n)
    B = 2.0 * (R_hat + z * d / n + xi / sqrt_n)
    t_b = 4.0 * z * d / (3.0 * n)
    candidates = [0.0]

    c1 = B + (2.0 / sqrt_n) * math.sqrt(z_alpha * sigma * sigma * 4.0 * z * d / n)
    if c1 >= 0.0:
        candidates.append(min(c1, t_b))

    b = 2.0 * sigma * math.sqrt(3.0 * z_alpha) / sqrt_n
    disc = b * b + 4.0 * B
    if disc >= 0.0:
        x_plus = (b + math.sqrt(disc)) / 2.0
        t2 = x_plus * x_plus
        if t2 >= t_b:
            candidates.append(t2)

    return max(candidates)


def rss_ci(data: TraceDataset, alpha: float, *, a: float, sigma: float, U: float) -> FrobeniusBall:
    """Residual-sum confidence set for known noise standard deviation.

    The quantile constants are ``z_alpha = log(3/alpha)`` and
    ``xi = sqrt(2)*sigma*U*log(3/alpha)``, and ``z`` is :data:`RSS_Z`.
    ``a`` bounds the entries of the center fit.  A ``sigma`` above ``U``, or
    data with an observation above ``a + U``, raise :class:`DomainError`.
    """
    if not 0 < alpha < 1:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0 <= sigma <= U:
        raise DomainError(f"need 0 <= sigma <= U, got sigma={sigma}, U={U}")
    _check_data_bound(data, a=a, U=U)
    first, second = split_sample(data)
    lam = lambda_practical_trace(data.m1, data.m2, second.n, sigma=max(sigma, 1e-12))
    fit = matrix_lasso(second, lam, a=a)
    R_hat = rss_statistic(first, fit.estimate, sigma=sigma)
    n_eff = 2 * first.n
    d = data.m1 + data.m2
    z_alpha = math.log(3.0 / alpha)
    xi = math.sqrt(2.0) * sigma * U * math.log(3.0 / alpha)
    radius_sq = rss_radius_sq(R_hat, n_eff, d, sigma=sigma, z=RSS_Z, z_alpha=z_alpha, xi=xi)
    return FrobeniusBall(fit.estimate, radius_sq, n_eff, flags=_fit_flags(fit))
