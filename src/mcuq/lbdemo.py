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
                seed: int) -> tuple:
    """The row of test statistics of one dataset at assumed variance ``sigma_sq``.

    In :data:`_STATISTICS` order, ``second_moment`` and ``observed_variance``
    compare the observed values' second moment and variance with
    ``sigma_sq``; ``infimum_sigma_assumed`` is the rank-``k0`` infimum
    statistic in the unit box; ``rank_energy`` is the energy of the top
    ``k`` singular values of the rescaled data.  ``seed`` seeds the infimum
    search's random starts.
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
    return second_moment, observed_variance, infimum, rank_energy


def _replicate(m: int, n: int, k0: int, k: int, rho: float, reveal_sigma: bool,
               seed: int, reps: int, j: int) -> list:
    """Job ``j`` of the experiment's one map: the rows of pair ``j`` (H0, then
    H1) for ``j < reps``, else the one row of calibration draw ``j - reps``."""
    if j >= reps:
        ds = h0_dataset(m, n, seed=child_seed(seed, 0, j - reps))
        return [_statistics(ds, 1.0, k0, k, child_seed(seed, 1, j - reps))]
    ds0 = h0_dataset(m, n, seed=child_seed(seed, 2, j))
    stats0 = _statistics(ds0, 1.0, k0, k, child_seed(seed, 3, j))
    draw = sample_h1(m, k, rho=rho, seed=child_seed(seed, 4, j))
    ds1 = h1_dataset(draw, n, seed=child_seed(seed, 5, j))
    sigma_sq = 1.0 - 4.0 * rho * rho if reveal_sigma else 1.0
    return [stats0, _statistics(ds1, sigma_sq, k0, k, child_seed(seed, 6, j))]


def setting_errors(cfg) -> list[str]:
    """The rules that the experiment adds between the fields of an lbdemo
    config whose fields keep their own, in the words ``uq validate`` prints."""
    m, n, k0, k = cfg.m1, cfg.n, cfg.k0, cfg.k
    errors = [] if m == cfg.m2 else [f"m1/m2: lbdemo needs a square matrix, got {m}x{cfg.m2}"]
    if not 0 <= k0 < k:
        errors.append(f"k0/k: need 0 <= k0 < k, got {k0}, {k}")
    if k > m:
        errors.append(f"k: must lie in [1, {m}] for lbdemo, got {k}")
    elif k >= 1:
        cols = m // k * k  # the columns sample_h1 keeps
        if m * cols < n <= m * m:
            errors.append(f"n: must be <= {m * cols} for lbdemo, whose alternative "
                          f"keeps {cols} of {m} columns at k={k}")
        rho = rho_for(k, m, n, v=cfg.v)
        if rho >= 0.5:
            errors.append(f"v: gives rho={rho:.4f} >= 1/2; reduce v or raise n")
    if cfg.cal_reps < 1:
        errors.append(f"cal_reps: lbdemo needs >= 1, got {cfg.cal_reps}")
    return errors


def indistinguishability_experiment(cfg, *, map_fn=map) -> dict:
    """Measure type I + type II error of each of the four tests against the
    hidden prior, as set by ``cfg``, an lbdemo :class:`mcuq.bench.ExperimentConfig`,
    which checked lbdemo's rules (:func:`setting_errors`) when it was built.

    Every test is a statistic of :func:`_statistics`, with its rejection
    threshold calibrated to level :data:`ALPHA_TEST` on simulated null datasets.
    In blind mode tests assume unit variance on both hypotheses; with
    ``reveal_sigma`` they are told the true variance of the data in front of
    them, which is what a known-variance procedure would use.  ``map_fn``
    lets callers substitute a parallel map; replicate seeds are derived per
    index, so the result does not depend on the mapping strategy.  It holds
    the four report ``rows`` and the aggregate that ``uq run`` reports:
    ``min_error_sum``, ``error_sum`` and ``thresholds`` by test, and ``rho``.
    Without pairs (``reps`` 0) every error rate is NaN, and no test has a threshold.
    """
    if cfg.kind != "lbdemo":
        raise DomainError(f"kind: the experiment needs an lbdemo config, got {cfg.kind!r}")
    m, n, k0, k, v, reps = cfg.m1, cfg.n, cfg.k0, cfg.k, cfg.v, cfg.reps
    if k > m ** (1 / 3):
        import warnings
        warnings.warn(f"k={k} exceeds the recommended m^(1/3)={m ** (1/3):.2f}",
                      RuntimeWarning)
    rho = rho_for(k, m, n, v=v)

    # The pairs and the calibration draws run as one map, the costlier pairs
    # first, and their rows form one table; the thresholds are needed only to
    # count rejections afterwards.  Without pairs there is nothing to calibrate for.
    jobs = range(reps + cfg.cal_reps if reps > 0 else 0)
    done = map_fn(functools.partial(_replicate, m, n, k0, k, rho, cfg.reveal_sigma,
                                    cfg.seed, reps), jobs)
    table = np.array([row for rows in done for row in rows])
    if reps > 0:  # pair j's H0 and H1 rows, j = 0, 1, ..., then the calibration rows
        pairs, cal = table[:2 * reps].reshape(reps, 2, -1), table[2 * reps:]
        thresholds = np.quantile(cal, 1.0 - ALPHA_TEST, axis=0, method="higher")
        rejected = np.count_nonzero(pairs > thresholds, axis=0) / reps  # by hypothesis, test
    else:
        thresholds, rejected = np.empty(0), np.full((2, len(_STATISTICS)), math.nan)
    type1, type2 = rejected[0], 1.0 - rejected[1]
    error_sum = (type1 + type2).tolist()
    rows = [{"test_name": name, "type1": t1, "type2": t2, "error_sum": err, "v": v, "rho": rho,
             "m": m, "n": n, "k": k, "reps": reps}
            for name, t1, t2, err in zip(_STATISTICS, type1.tolist(), type2.tolist(), error_sum)]
    return {"rows": rows, "min_error_sum": min(error_sum),
            "error_sum": dict(zip(_STATISTICS, error_sum)),
            "thresholds": dict(zip(_STATISTICS, thresholds.tolist())), "rho": rho}
