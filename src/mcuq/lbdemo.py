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

from .core import DomainError, NoiseSpec, gram_eigh
from .bernoulli_uq import infimum_stat
from .synth import BernoulliDataset, child_seed, rng_for, sample_bernoulli


@dataclass
class PriorDraw:
    """One draw of the hidden-variance alternative.

    ``M[i, j] = u * row_signs[i, labels[j]] * col_signs[j]`` with ``u = 2*rho``;
    the matched noise takes the value ``1 - M_ij`` with probability
    ``(1 + M_ij)/2`` and ``-1 - M_ij`` otherwise, so observed values live on
    {-1, +1} and the noise variance is ``1 - 4*rho^2`` at every entry.
    """

    M: np.ndarray
    rho: float
    u: float
    labels: np.ndarray
    row_signs: np.ndarray
    col_signs: np.ndarray
    noise: NoiseSpec
    trimmed: bool = False


def rho_for(v: float, k: int, m: int, n: int) -> float:
    """Separation scale v * k^(1/4) * sqrt(m/n)."""
    if not 0 < v <= 1:
        raise DomainError(f"v must lie in (0, 1], got {v}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    return v * k ** 0.25 * math.sqrt(m) / math.sqrt(n)


def sample_h1(m: int, k: int, rho: float, seed: int) -> PriorDraw:
    """Draw the rank-``k`` alternative with matched two-point noise.

    Columns are split by a uniform random partition into ``k`` groups of
    equal size; when ``k`` does not divide ``m`` the trailing columns are
    trimmed and the draw is flagged.
    """
    if not 0 < rho < 0.5:
        raise DomainError(f"rho must lie in (0, 0.5), got {rho}")
    if not 1 <= k <= m:
        raise DomainError(f"k must lie in [1, {m}], got {k}")
    group = m // k
    if group < 1:
        raise DomainError(f"cannot split {m} columns into {k} groups")
    m_cols = k * group
    trimmed = m_cols != m
    rng = rng_for(seed)
    perm = rng.permutation(m_cols)
    labels = np.empty(m_cols, dtype=np.int64)
    labels[perm] = np.repeat(np.arange(k), group)
    row_signs = rng.integers(0, 2, size=(m, k)) * 2 - 1
    col_signs = rng.integers(0, 2, size=m_cols) * 2 - 1
    u = 2.0 * rho
    M = u * row_signs[:, labels] * col_signs[None, :]
    noise = NoiseSpec("two-point-skewed", math.sqrt(1.0 - u * u), 2.0)
    return PriorDraw(M, rho, u, labels, row_signs, col_signs, noise, trimmed)


def sample_h0(m: int, seed: int = 0) -> tuple[np.ndarray, NoiseSpec]:
    """Null configuration: zero matrix with symmetric unit-variance sign noise."""
    return np.zeros((m, m)), NoiseSpec("scaled-rademacher", 1.0, 1.0)


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


def h1_dataset(draw: PriorDraw, n: int, seed: int) -> BernoulliDataset:
    """Sample the one-shot model under the alternative.

    Observed values are drawn directly on the exact support {-1.0, +1.0}
    with success probability (1 + M_ij)/2, which keeps degenerate moment
    statistics exactly zero instead of zero up to rounding.
    """
    m1, m2 = draw.M.shape
    if not 1 <= n <= m1 * m2:
        raise DomainError(f"n must lie in [1, {m1 * m2}], got {n}")
    p = n / (m1 * m2)
    rng = rng_for(seed)
    mask = rng.random((m1, m2)) < p
    plus = rng.random((m1, m2)) < (1.0 + draw.M) / 2.0
    values = np.where(mask, np.where(plus, 1.0, -1.0), 0.0)
    return BernoulliDataset(mask, values, p, n)


def h0_dataset(m: int, n: int, seed: int) -> BernoulliDataset:
    """Sample the one-shot model under the null (values on {-1, 0, +1})."""
    M, noise = sample_h0(m)
    return sample_bernoulli(M, n, noise, seed)


def _stat_second_moment(ds: BernoulliDataset, sigma_sq: float, ctx: dict) -> float:
    obs = ds.values[ds.mask]
    return abs(float(np.sum(obs * obs)) - sigma_sq * obs.size) / math.sqrt(2.0 * ds.n)


def _stat_observed_variance(ds: BernoulliDataset, sigma_sq: float, ctx: dict) -> float:
    obs = ds.values[ds.mask]
    if obs.size == 0:
        return 0.0
    return math.sqrt(obs.size) * abs(float(np.var(obs)) - sigma_sq)


def _stat_infimum(ds: BernoulliDataset, sigma_sq: float, ctx: dict) -> float:
    res = infimum_stat(ds, ctx["k0"], ctx["a"], math.sqrt(sigma_sq),
                       restarts=ctx.get("restarts", 2), seed=ctx["seed"],
                       max_iter=ctx.get("max_iter", 60))
    return res.value


def _stat_rank_energy(ds: BernoulliDataset, sigma_sq: float, ctx: dict) -> float:
    # Energy of the top k singular values: the top k Gram eigenvalues.
    W = (ds.m1 * ds.m2 / ds.n) * ds.values
    return float(np.sum(gram_eigh(W, k=min(ctx["k"], min(W.shape)))[0]))


BUILTIN_TESTS = {
    "second_moment": _stat_second_moment,
    "observed_variance": _stat_observed_variance,
    "infimum_sigma_assumed": _stat_infimum,
    "rank_energy": _stat_rank_energy,
}


def _run_family(test_family: dict, ds: BernoulliDataset, sigma_sq: float,
                k0: int, k: int, rep_seed: int) -> dict:
    ctx = {"k0": k0, "k": k, "a": 1.0, "seed": rep_seed}
    return {name: fn(ds, sigma_sq, ctx) for name, fn in test_family.items()}


def _calibration_replicate(test_family: dict, m: int, n: int, k0: int, k: int,
                           seed: int, r: int) -> dict:
    ds = h0_dataset(m, n, child_seed(seed, 0, r))
    return _run_family(test_family, ds, 1.0, k0, k, child_seed(seed, 1, r))


def _pair_replicate(test_family: dict, m: int, n: int, k: int, k0: int,
                    rho: float, reveal_sigma: bool, seed: int, r: int) -> tuple:
    ds0 = h0_dataset(m, n, child_seed(seed, 2, r))
    stats0 = _run_family(test_family, ds0, 1.0, k0, k, child_seed(seed, 3, r))
    draw = sample_h1(m, k, rho, child_seed(seed, 4, r))
    ds1 = h1_dataset(draw, n, child_seed(seed, 5, r))
    sigma_sq = 1.0 - 4.0 * rho * rho if reveal_sigma else 1.0
    stats1 = _run_family(test_family, ds1, sigma_sq, k0, k, child_seed(seed, 6, r))
    return stats0, stats1


def indistinguishability_experiment(m: int, n: int, k: int, k0: int, v: float,
                                    reps: int, test_family: dict | None = None,
                                    seed: int = 0, alpha_test: float = 0.05,
                                    cal_reps: int = 200,
                                    reveal_sigma: bool = False,
                                    map_fn=map) -> dict:
    """Measure type I + type II error of each test against the hidden prior.

    Every test is a map (dataset, assumed noise variance, context) -> scalar
    statistic, with its rejection threshold calibrated to level
    ``alpha_test`` on simulated null datasets.  In blind mode tests assume
    unit variance on both hypotheses; with ``reveal_sigma`` they are told
    the true variance of the data in front of them, which is what a
    known-variance procedure would use.  ``map_fn`` lets callers substitute
    a parallel map; replicate seeds are derived per index, so the result
    does not depend on the mapping strategy.
    """
    if k > round(m ** (1 / 3)):
        import warnings
        warnings.warn(f"k={k} exceeds the recommended m^(1/3)={m ** (1/3):.2f}",
                      RuntimeWarning)
    if test_family is None:
        test_family = BUILTIN_TESTS
    if not test_family:
        raise DomainError("test family is empty")
    rho = rho_for(v, k, m, n)
    if rho >= 0.5:
        raise DomainError(f"rho={rho:.4f} >= 1/2; reduce v")
    names = list(test_family)

    thresholds = {}
    if reps > 0:
        cal = list(map_fn(
            functools.partial(_calibration_replicate, test_family, m, n, k0, k, seed),
            range(cal_reps)))
        thresholds = {
            name: float(np.quantile(np.array([c[name] for c in cal]),
                                    1.0 - alpha_test, method="higher"))
            for name in names
        }

    rej_h0 = {name: 0 for name in names}
    rej_h1 = {name: 0 for name in names}
    pairs = list(map_fn(
        functools.partial(_pair_replicate, test_family, m, n, k, k0, rho,
                          reveal_sigma, seed),
        range(reps)))
    for stats0, stats1 in pairs:
        for name in names:
            rej_h0[name] += stats0[name] > thresholds[name]
            rej_h1[name] += stats1[name] > thresholds[name]

    rows = []
    for name in names:
        type1 = rej_h0[name] / reps if reps else 0.0
        type2 = 1.0 - rej_h1[name] / reps if reps else 0.0
        rows.append({
            "test_name": name, "type1": type1, "type2": type2,
            "error_sum": type1 + type2, "v": v, "rho": rho,
            "m": m, "n": n, "k": k, "reps": reps,
        })
    return {
        "rows": rows,
        "min_error_sum": min((r["error_sum"] for r in rows), default=0.0),
        "thresholds": thresholds,
        "config": {"m": m, "n": n, "k": k, "k0": k0, "v": v, "rho": rho,
                   "reps": reps, "seed": seed, "alpha_test": alpha_test,
                   "cal_reps": cal_reps, "reveal_sigma": reveal_sigma},
    }
