"""Hidden-variance prior and the empirical indistinguishability demo.

The construction hides a low-rank signal inside the noise variance: under
the alternative, every observed value is +1 or -1 with a slightly tilted
probability, so its conditional mean is the signal entry yet its second
moment is exactly 1, identical to the null.  A test that does not know the
variance therefore sees matched moments and fails; revealing the variance
restores a trivially powerful moment check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, NoiseSpec, gram_eigvals
from .bernoulli_uq import infimum_stat
from .synth import BernoulliDataset, bernoulli_mask, child_seed, rng_for, sample_bernoulli


@dataclass
class PriorDraw:
    """One draw of the hidden-variance alternative.

    ``M[i, j] = u * row_signs[i, labels[j]] * col_signs[j]`` with ``u = 2*rho``;
    the matched noise takes the value ``1 - M_ij`` with probability
    ``(1 + M_ij)/2`` and ``-1 - M_ij`` otherwise, so observed values live on
    {-1, +1} and the noise variance is ``1 - u^2`` at every entry.
    """

    M: np.ndarray
    u: float
    labels: np.ndarray
    row_signs: np.ndarray
    col_signs: np.ndarray


def rho_for(k: int, m: int, n: int, *, v: float) -> float:
    """Separation scale v * k^(1/4) * sqrt(m/n)."""
    if not 0 < v <= 1:
        raise DomainError(f"v must lie in (0, 1], got {v}")
    for name, value in (("k", k), ("m", m), ("n", n)):
        if value < 1:
            raise DomainError(f"{name} must be >= 1, got {value}")
    return v * k ** 0.25 * math.sqrt(m) / math.sqrt(n)


def sample_h1(m: int, k: int, *, rho: float, seed: int) -> PriorDraw:
    """Draw the rank-``k`` alternative with matched two-point noise.

    Columns are split by a uniform random partition into ``k`` groups of
    equal size; when ``k`` does not divide ``m`` the trailing columns are
    trimmed, so ``M`` has ``k * (m // k)`` columns.
    """
    if not 0 < rho < 0.5:
        raise DomainError(f"rho must lie in (0, 0.5), got {rho}")
    if not 1 <= k <= m:
        raise DomainError(f"k must lie in [1, {m}], got {k}")
    group = m // k
    if group < 1:
        raise DomainError(f"cannot split {m} columns into {k} groups")
    m_cols = k * group
    rng = rng_for(seed)
    perm = rng.permutation(m_cols)
    labels = np.empty(m_cols, dtype=np.int64)
    labels[perm] = np.repeat(np.arange(k), group)
    row_signs = rng.integers(0, 2, size=(m, k)) * 2 - 1
    col_signs = rng.integers(0, 2, size=m_cols) * 2 - 1
    u = 2.0 * rho
    M = u * row_signs[:, labels] * col_signs[None, :]
    return PriorDraw(M, u, labels, row_signs, col_signs)


def separation_check(draw: PriorDraw, k0: int) -> tuple[bool, float]:
    """Certify the separation of the drawn alternative from rank ``k0``.

    Computes the squared smallest singular value of the (scaled) matrix of
    distinct row-sign columns.  When it is at least 1/2 and the rank gap
    satisfies ``k - k0 >= k/2``, the squared Frobenius distance of ``M``
    from the rank-``k0`` class is at least ``m^2 * rho^2``.
    """
    k = draw.row_signs.shape[1]
    if not 0 <= k0 < k:
        raise DomainError(f"need 0 <= k0 < {k}, got {k0}")
    m = draw.row_signs.shape[0]
    s = np.linalg.svd(draw.row_signs / math.sqrt(m), compute_uv=False)
    sigma_min_sq = float(s[-1] ** 2)
    passes = sigma_min_sq >= 0.5 and (k - k0) >= k / 2.0
    return passes, sigma_min_sq


def h1_dataset(draw: PriorDraw, n: int, *, seed: int) -> BernoulliDataset:
    """Sample the one-shot model under the alternative.

    Observed values are drawn directly on the exact support {-1.0, +1.0}
    with success probability (1 + M_ij)/2, which keeps degenerate moment
    statistics exactly zero instead of zero up to rounding.
    """
    m1, m2 = draw.M.shape
    rng = rng_for(seed)
    mask = bernoulli_mask(m1, m2, n, rng)
    plus = rng.random((m1, m2)) < (1.0 + draw.M) / 2.0
    values = np.where(mask, np.where(plus, 1.0, -1.0), 0.0)
    return BernoulliDataset(mask, values, n)


def h0_dataset(m: int, n: int, *, seed: int) -> BernoulliDataset:
    """Sample the one-shot model under the null: the zero matrix with
    symmetric unit-variance sign noise, so values lie on {-1, 0, +1}."""
    return sample_bernoulli(np.zeros((m, m)), n, noise=NoiseSpec("scaled-rademacher", 1.0, 1.0),
                            seed=seed)


#: Level of each test: its threshold is the ``1 - ALPHA_TEST`` quantile of
#: its statistic over the calibration draws.  Read at each call.
ALPHA_TEST = 0.05

#: Names of the four statistics, in the order of the report rows.
_STATISTICS = ("second_moment", "observed_variance", "infimum_sigma_assumed", "rank_energy")


def _statistics(ds: BernoulliDataset, sigma_sq: float, k0: int, k: int,
                seed: int) -> dict:
    """The four test statistics of one dataset at assumed noise variance ``sigma_sq``.

    ``second_moment`` and ``observed_variance`` compare the observed values'
    second moment and variance with ``sigma_sq``; ``infimum_sigma_assumed`` is
    the rank-``k0`` infimum statistic in the unit box; ``rank_energy`` is the
    energy of the top ``k`` singular values of the rescaled data.  ``seed``
    seeds the infimum search's random starts.
    """
    obs = ds.values[ds.mask]
    second_moment = abs(float(np.sum(obs * obs)) - sigma_sq * obs.size) / math.sqrt(2.0 * ds.n)
    observed_variance = (math.sqrt(obs.size) * abs(float(np.var(obs)) - sigma_sq)
                         if obs.size else 0.0)
    infimum = infimum_stat(ds, k0, a=1.0, sigma=math.sqrt(sigma_sq), restarts=2, seed=seed,
                           max_iter=60).value
    # Energy of the top k singular values: the top k Gram eigenvalues.
    W = (ds.m1 * ds.m2 / ds.n) * ds.values
    rank_energy = float(np.sum(gram_eigvals(W)[-min(k, min(W.shape)):]))
    return dict(zip(_STATISTICS, (second_moment, observed_variance, infimum, rank_energy)))


def _calibration_replicate(m: int, n: int, k0: int, k: int, seed: int, r: int) -> dict:
    ds = h0_dataset(m, n, seed=child_seed(seed, 0, r))
    return _statistics(ds, 1.0, k0, k, child_seed(seed, 1, r))


def _pair_replicate(m: int, n: int, k0: int, k: int, rho: float, reveal_sigma: bool,
                    seed: int, r: int) -> tuple:
    ds0 = h0_dataset(m, n, seed=child_seed(seed, 2, r))
    stats0 = _statistics(ds0, 1.0, k0, k, child_seed(seed, 3, r))
    draw = sample_h1(m, k, rho=rho, seed=child_seed(seed, 4, r))
    ds1 = h1_dataset(draw, n, seed=child_seed(seed, 5, r))
    sigma_sq = 1.0 - 4.0 * rho * rho if reveal_sigma else 1.0
    stats1 = _statistics(ds1, sigma_sq, k0, k, child_seed(seed, 6, r))
    return stats0, stats1


def _replicate(m: int, n: int, k0: int, k: int, rho: float, reveal_sigma: bool,
               seed: int, reps: int, j: int):
    """Job ``j`` of the experiment's one map: pair ``j`` for ``j < reps``,
    else calibration draw ``j - reps``."""
    if j < reps:
        return _pair_replicate(m, n, k0, k, rho, reveal_sigma, seed, j)
    return _calibration_replicate(m, n, k0, k, seed, j - reps)


def indistinguishability_experiment(m: int, n: int, *, k0: int, k: int, v: float,
                                    reps: int, seed: int = 0, cal_reps: int = 200,
                                    reveal_sigma: bool = False, map_fn=map) -> dict:
    """Measure type I + type II error of each of the four tests against the
    hidden prior.

    Every test is a statistic of :func:`_statistics`, with its rejection
    threshold calibrated to level :data:`ALPHA_TEST` on simulated null datasets.
    In blind mode tests assume unit variance on both hypotheses; with
    ``reveal_sigma`` they are told the true variance of the data in front of
    them, which is what a known-variance procedure would use.  ``map_fn``
    lets callers substitute a parallel map; replicate seeds are derived per
    index, so the result does not depend on the mapping strategy.  Without
    pairs (``reps`` 0) every error rate is NaN.
    """
    if not 0 <= k0 < k:
        raise DomainError(f"need 0 <= k0 < k, got k0={k0}, k={k}")
    if k > m ** (1 / 3):
        import warnings
        warnings.warn(f"k={k} exceeds the recommended m^(1/3)={m ** (1/3):.2f}",
                      RuntimeWarning)
    rho = rho_for(k, m, n, v=v)
    if rho >= 0.5:
        raise DomainError(f"rho={rho:.4f} >= 1/2; reduce v")
    if cal_reps < 1:
        raise DomainError(f"cal_reps must be >= 1, got {cal_reps}")

    # The pairs and the calibration draws run as one map, the costlier pairs
    # first; the thresholds are needed only to count rejections afterwards.
    # Without pairs there is nothing to calibrate for.
    jobs = range(reps + cal_reps if reps > 0 else 0)
    done = list(map_fn(functools.partial(_replicate, m, n, k0, k, rho, reveal_sigma, seed,
                                         reps), jobs))
    pairs, cal = done[:reps], done[reps:]
    thresholds = {
        name: float(np.quantile(np.array([c[name] for c in cal]),
                                1.0 - ALPHA_TEST, method="higher"))
        for name in _STATISTICS
    } if reps > 0 else {}

    rej_h0 = {name: 0 for name in _STATISTICS}
    rej_h1 = {name: 0 for name in _STATISTICS}
    for stats0, stats1 in pairs:
        for name in _STATISTICS:
            rej_h0[name] += stats0[name] > thresholds[name]
            rej_h1[name] += stats1[name] > thresholds[name]

    rows = []
    for name in _STATISTICS:
        type1 = rej_h0[name] / reps if reps else math.nan
        type2 = 1.0 - rej_h1[name] / reps if reps else math.nan
        rows.append({
            "test_name": name, "type1": type1, "type2": type2,
            "error_sum": type1 + type2, "v": v, "rho": rho,
            "m": m, "n": n, "k": k, "reps": reps,
        })
    return {
        "rows": rows,
        "min_error_sum": min(r["error_sum"] for r in rows),
        "thresholds": thresholds,
        "rho": rho,
    }
