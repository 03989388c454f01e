"""Planted defects: semantic checks that a broken library fails.

The acceptance criteria check one side of each claim (coverage at least a
floor), and a wide radius can hide a broken construction.  Each check here
measures a property that a construction rests on, and each planted defect is
a named ``monkeypatch`` of one library attribute that must make its own check
fail, so the check shows it can.

* ``u_ci`` is honest because its center is fitted on one half of the sample
  and its paired statistic is taken on the other: then ``u_statistic`` is an
  unbiased estimate of the center's squared error at the pair positions.
  Fitting the center on the paired half makes it fit that half's noise, and
  the statistic comes out low; so does pairing two observations of
  different entries, whose residuals then carry different errors.
* ``u_ci`` adapts to the unknown rank through its paired statistic, which
  tracks the center's error: at criterion 04's shape the statistic's median
  grows from rank 1 to rank 3 by a factor of about 1.7, while the quantile
  slack, most of the radius there, does not move.  A radius that ignores the
  statistic leaves no such growth.
* The adaptive set is honest because it grows when the low-rank test rejects,
  and because its radius constant ``K`` is large enough.  At criterion 08's
  shape, a truth 3 rate units from rank ``k0`` lies outside the small ball
  but inside the grown one, so a set that never grows, or whose ``K`` is too
  small, misses it.  (At 2 units, criterion 08's own far truth, even the
  small ball covers.)
* ``u_ci``'s radius is the paired statistic plus a quantile slack; at
  criterion 01's shape with ``sigma = U = 1``, a twentieth of the slack no
  longer reaches criterion 01's coverage floor.
* Where the noise dominates the entry bound (``a = 0.25``, ``sigma = U =
  1``), the slack is mostly the noise term, and a fifth of it no longer
  reaches the floor.  The clean pass there is vacuous: the median squared
  radius, about 0.44, exceeds the class diameter ``4 a^2 = 0.25``, so every
  truth in the box is covered.  This check tests only whether the slack is
  large enough where the noise dominates the entry bound.
* ``rss_ci`` subtracts the noise variance from the mean squared residual,
  so it is honest only when told the right ``sigma``.  At criterion 01's
  shape, ``sigma`` times 1.5 (with ``U`` raised to match) leaves nothing
  covered, while ``sigma`` times 1.25 still covers 0.997: the check sees
  only a large inflation.
* lbdemo's tests separate the hypotheses once they are told the noise
  variance of the data in front of them; a demo that never tells them is
  blind, and its smallest error sum stays near 1.

Run as a script, ``PYTHONPATH=src python tests/test_planted_defects.py``, it
runs these tests verbosely: one line for each check on clean code and one for
each defect, and exit status 1 when a check fails on clean code or a defect
goes unseen.
"""

import contextlib
import dataclasses
import math
import sys

import numpy as np
import pytest

from mcuq import bernoulli_uq, lbdemo, trace_uq
from mcuq.bench import ExperimentConfig, run, separated_truth
from mcuq.core import NoiseSpec
from mcuq.synth import TraceDataset, child_seed, make_low_rank, sample_bernoulli, sample_trace

#: The library functions that defects replace, kept before any is planted.
_SPLIT = trace_uq.split_sample
_LOW_RANK_TEST = bernoulli_uq.low_rank_test
_U_QUANTILE = trace_uq.u_quantile
_RSS_CI = trace_uq.rss_ci
_PAIR_REPLICATE = lbdemo._pair_replicate

#: Criterion 01's shape at sigma = U = 0.5, rank 1, and its seed.
M_SIDE, N, RANK, A, ALPHA, SEED, REPS = 30, 900, 1, 1.0, 0.1, 101, 300
NOISE = NoiseSpec("scaled-rademacher", 0.5, 0.5)


@contextlib.contextmanager
def recorded_u_statistic():
    """Record each ``u_statistic`` that ``u_ci`` computes for its radius, in
    call order, in the list this yields."""
    seen = []
    real = trace_uq.u_statistic

    def recorded(pairs, M_hat):
        seen.append(real(pairs, M_hat))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace_uq, "u_statistic", recorded)
        yield seen


def u_statistic_bias_z() -> float:
    """z-score of the mean of ``u_statistic`` minus the center's squared error
    at the pair positions of the real first half, over ``REPS`` replicates.
    The statistic is the one ``u_ci`` computes for its radius, recorded."""
    gaps = np.empty(REPS)
    with recorded_u_statistic() as seen:
        for r in range(REPS):
            M = make_low_rank(M_SIDE, M_SIDE, RANK, a=A, seed=child_seed(SEED, 10, r))
            data = sample_trace(M, N, noise=NOISE, seed=child_seed(SEED, 11, r))
            ball = trace_uq.u_ci(data, ALPHA, a=A, U=NOISE.U)
            pairs = trace_uq.pair_repeats(_SPLIT(data)[0])
            gaps[r] = seen[-1] - float(np.mean((M - ball.center)[pairs.rows, pairs.cols] ** 2))
    return float(np.mean(gaps) / (np.std(gaps, ddof=1) / math.sqrt(REPS)))


#: Criterion 04's seed, and the replicates at each truth rank (1 and 3).
ADAPTIVITY_SEED, ADAPTIVITY_REPS = 401, 200


def u_statistic_rank_ratio() -> float:
    """Median ``u_statistic`` of ``u_ci`` at truth rank 3 over that at rank 1,
    in criterion 04's diameter run (criterion 01's shape, sigma = U = 0.5)
    with ``ADAPTIVITY_REPS`` replicates at each rank, whose truths come from
    ``child_seed(seed, 10, r, rank)`` and samples from ``child_seed(seed,
    11, r)``.  NaN when the rank-1 median is not positive."""
    cfg = ExperimentConfig(kind="diameter", model="trace", m1=M_SIDE, m2=M_SIDE, n=N, k0=1,
                           k_truth=3, a=A, noise=NOISE, alpha=ALPHA, reps=ADAPTIVITY_REPS,
                           seed=ADAPTIVITY_SEED, method="u_ci")
    with recorded_u_statistic() as seen:
        run(cfg)  # serial: the rank-1 jobs come first
    low, high = (float(np.median(seen[i * ADAPTIVITY_REPS:(i + 1) * ADAPTIVITY_REPS]))
                 for i in range(2))
    return high / low if low > 0 else math.nan


#: Criterion 08's shape and threshold seed; truths 3 rate units away, with
#: an entry bound large enough for them to fit; criterion 08's floor at 60
#: replicates.
ADAPTIVE_M, ADAPTIVE_N, K0, K, ADAPTIVE_A, ADAPTIVE_SIGMA = 20, 300, 1, 3, 4.0, 0.25
ADAPTIVE_SEPARATION, ADAPTIVE_REPS = 3.0, 60
ADAPTIVE_FLOOR = 1 - ALPHA - 3 * math.sqrt(ALPHA * (1 - ALPHA) / ADAPTIVE_REPS)


def adaptive_far_coverage() -> float:
    """Coverage of the adaptive set over truths ``ADAPTIVE_SEPARATION`` rate
    units from rank ``K0``, at criterion 08's shape and calibrated threshold."""
    m, n = ADAPTIVE_M, ADAPTIVE_N
    noise = NoiseSpec("scaled-rademacher", ADAPTIVE_SIGMA, ADAPTIVE_SIGMA)
    threshold = bernoulli_uq.u_alpha_calibrated(ALPHA, (m, m), n, noise=noise, reps=400, seed=801)
    unit = math.sqrt(m * m * K0 * 2 * m / n)
    covered = 0
    for r in range(ADAPTIVE_REPS):
        M = separated_truth(m, m, K0, a=ADAPTIVE_A, rho=ADAPTIVE_SEPARATION * unit,
                            seed=child_seed(805, r))
        data = sample_bernoulli(M, n, noise=noise, seed=child_seed(806, r))
        ball = bernoulli_uq.adaptive_ci(data, K0, K, a=ADAPTIVE_A, sigma=ADAPTIVE_SIGMA,
                                        threshold=threshold, seed=child_seed(807, r))
        covered += ball.contains(M)
    return covered / ADAPTIVE_REPS


#: Criterion 01's cell at sigma = U = 1.0, rank 1: its replicates and floor;
#: the entry bound of the small box; ``rss_ci``'s floor at ``REPS`` replicates.
U_CI_REPS = 500
U_CI_FLOOR = 1 - ALPHA - 3 * math.sqrt(ALPHA * (1 - ALPHA) / U_CI_REPS)
SMALL_BOX_A = 0.25
RSS_CI_FLOOR = 1 - ALPHA - 3 * math.sqrt(ALPHA * (1 - ALPHA) / REPS)


def coverage(method: str, a: float, noise: NoiseSpec, reps: int) -> float:
    """Coverage of ``method`` in criterion 01's shape at rank 1 and seed, with
    entry bound ``a``, noise law ``noise`` and ``reps`` replicates."""
    cfg = ExperimentConfig(kind="coverage", model="trace", m1=M_SIDE, m2=M_SIDE, n=N,
                           k_truth=RANK, a=a, noise=noise, alpha=ALPHA, reps=reps, seed=SEED,
                           method=method)
    return run(cfg).aggregates["coverage"]


def u_ci_coverage(a: float = A) -> float:
    """``u_ci``'s coverage in criterion 01's cell at sigma = U = 1.0, rank 1,
    with entry bound ``a``."""
    return coverage("u_ci", a, NoiseSpec("scaled-rademacher", 1.0, 1.0), U_CI_REPS)


def rss_ci_coverage() -> float:
    """``rss_ci``'s coverage in criterion 01's cell at sigma = U = 0.5, rank 1."""
    return coverage("rss_ci", A, NOISE, REPS)


def lbdemo_revealed_error_sum() -> float:
    """Smallest error sum of lbdemo's four tests with the variance revealed,
    at m = 16, n = 128, k = 2, v = 0.5 and criterion 09's revealed seed."""
    return lbdemo.indistinguishability_experiment(16, 128, k0=1, k=2, v=0.5, reps=100, seed=903,
                                                  cal_reps=100, reveal_sigma=True)["min_error_sum"]


def pair_consecutive(half: TraceDataset) -> trace_uq.PairedSet:
    """Couple samples 0 and 1, 2 and 3, ..., whatever their positions."""
    t = np.arange(half.n - half.n % 2).reshape(-1, 2)
    return trace_uq.PairedSet(half.rows[t[:, 0]].astype(np.int64),
                              half.cols[t[:, 0]].astype(np.int64),
                              half.y[t[:, 0]].astype(float), half.y[t[:, 1]].astype(float),
                              t.ravel())


#: Checks: name -> (measure, whether its value holds).
CHECKS = {
    "u_statistic-unbiased": (u_statistic_bias_z, lambda z: abs(z) <= 4),
    "u_statistic-adapts-to-rank": (u_statistic_rank_ratio, lambda ratio: ratio >= 1.25),
    "adaptive-covers-far-truths": (adaptive_far_coverage, lambda cov: cov >= ADAPTIVE_FLOOR),
    "u_ci-covers": (u_ci_coverage, lambda cov: cov >= U_CI_FLOOR),
    "u_ci-covers-small-box": (lambda: u_ci_coverage(SMALL_BOX_A), lambda cov: cov >= U_CI_FLOOR),
    "rss_ci-covers": (rss_ci_coverage, lambda cov: cov >= RSS_CI_FLOOR),
    # Criterion 09's bound on the revealed error sum.
    "lbdemo-revealed-separates": (lbdemo_revealed_error_sum, lambda err: err <= 0.7),
}

#: Planted defects: name -> (the check it must fail, module, attribute, replacement).
DEFECTS = {
    # The center is fitted on the half that is paired.
    "u_ci-reuses-paired-half": ("u_statistic-unbiased", trace_uq, "split_sample",
                                lambda data: (_SPLIT(data)[0],) * 2),
    # The adaptive set's radius constant is too small to cover the grown class.
    "adaptive-K-small": ("adaptive-covers-far-truths", bernoulli_uq, "ADAPTIVE_K", 0.5),
    # The adaptive set keeps the small radius whatever the test finds.
    "adaptive-set-never-grows": (
        "adaptive-covers-far-truths", bernoulli_uq, "low_rank_test",
        lambda *args, **kwargs: dataclasses.replace(_LOW_RANK_TEST(*args, **kwargs),
                                                    reject=False)),
    # u_ci's radius is the quantile slack alone.
    "u_ci-radius-ignores-statistic": ("u_statistic-adapts-to-rank", trace_uq, "u_statistic",
                                      lambda pairs, M_hat: 0.0),
    # u_ci's quantile slack is a twentieth of its value.
    "u_quantile-slack-over-20": ("u_ci-covers", trace_uq, "u_quantile",
                                 lambda alpha, N, *, a, U: _U_QUANTILE(alpha, N, a=a, U=U) / 20),
    # u_ci's quantile slack is a fifth of its value.
    "u_quantile-slack-over-5": ("u_ci-covers-small-box", trace_uq, "u_quantile",
                                lambda alpha, N, *, a, U: _U_QUANTILE(alpha, N, a=a, U=U) / 5),
    # rss_ci is told a noise level 1.5 times the true one.
    "rss_ci-sigma-inflated": (
        "rss_ci-covers", trace_uq, "rss_ci",
        lambda data, alpha, *, a, sigma, U: _RSS_CI(data, alpha, a=a, sigma=1.5 * sigma,
                                                    U=1.5 * U)),
    # Couples are two observations of different entries.
    "pair_repeats-mixes-entries": ("u_statistic-unbiased", trace_uq, "pair_repeats",
                                   pair_consecutive),
    # lbdemo's tests never learn the variance, so the revealed demo is blind.
    "lbdemo-ignores-reveal_sigma": (
        "lbdemo-revealed-separates", lbdemo, "_pair_replicate",
        lambda m, n, k0, k, rho, reveal_sigma, seed, r:
            _PAIR_REPLICATE(m, n, k0, k, rho, False, seed, r)),
}


def measure(check: str) -> tuple[float, bool]:
    """The value of ``check`` and whether it holds."""
    fn, holds = CHECKS[check]
    value = fn()
    return value, holds(value)


def test_u_statistic_is_unbiased_for_a_fitted_center():
    z, holds = measure("u_statistic-unbiased")
    assert holds, f"z = {z:.2f}"


def test_u_statistic_adapts_to_the_truth_rank():
    ratio, holds = measure("u_statistic-adapts-to-rank")
    assert holds, f"median ratio {ratio:.3f}"


def test_adaptive_set_covers_far_truths():
    cov, holds = measure("adaptive-covers-far-truths")
    assert holds, f"coverage {cov:.3f}"


def test_u_ci_covers_at_criterion_01_shape():
    cov, holds = measure("u_ci-covers")
    assert holds, f"coverage {cov:.4f}"


def test_u_ci_covers_in_a_small_box():
    cov, holds = measure("u_ci-covers-small-box")
    assert holds, f"coverage {cov:.4f}"


def test_rss_ci_covers_at_criterion_01_shape():
    cov, holds = measure("rss_ci-covers")
    assert holds, f"coverage {cov:.4f}"


def test_lbdemo_revealed_tests_separate():
    err, holds = measure("lbdemo-revealed-separates")
    assert holds, f"min error sum {err:.3f}"


@pytest.mark.parametrize("name", DEFECTS)
def test_planted_defect_fails_its_check(monkeypatch, name):
    check, module, attr, replacement = DEFECTS[name]
    monkeypatch.setattr(module, attr, replacement)
    value, holds = measure(check)
    assert not holds, f"{name} went unseen by {check}: {value:.4g}"


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
