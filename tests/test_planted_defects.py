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
* The adaptive set is honest because it grows when the low-rank test rejects,
  and because its radius constant ``K`` is large enough.  At criterion 08's
  shape, a truth 3 rate units from rank ``k0`` lies outside the small ball
  but inside the grown one, so a set that never grows, or whose ``K`` is too
  small, misses it.  (At 2 units, criterion 08's own far truth, even the
  small ball covers.)
* ``u_ci``'s radius is the paired statistic plus a quantile slack; at
  criterion 01's shape with ``sigma = U = 1``, a twentieth of the slack no
  longer reaches criterion 01's coverage floor.
* lbdemo's tests separate the hypotheses once they are told the noise
  variance of the data in front of them; a demo that never tells them is
  blind, and its smallest error sum stays near 1.

Run as a script, ``PYTHONPATH=src python tests/test_planted_defects.py``, it
runs these tests verbosely: one line for each check on clean code and one for
each defect, and exit status 1 when a check fails on clean code or a defect
goes unseen.
"""

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
_PAIR_REPLICATE = lbdemo._pair_replicate

#: Criterion 01's shape at sigma = U = 0.5, rank 1, and its seed.
M_SIDE, N, RANK, A, ALPHA, SEED, REPS = 30, 900, 1, 1.0, 0.1, 101, 300
NOISE = NoiseSpec("scaled-rademacher", 0.5, 0.5)


def u_statistic_bias_z() -> float:
    """z-score of the mean of ``u_statistic`` minus the center's squared error
    at the pair positions of the real first half, over ``REPS`` replicates.
    The statistic is the one ``u_ci`` computes for its radius, recorded."""
    seen = []
    real = trace_uq.u_statistic

    def recorded(pairs, M_hat):
        seen.append(real(pairs, M_hat))
        return seen[-1]

    gaps = np.empty(REPS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace_uq, "u_statistic", recorded)
        for r in range(REPS):
            M = make_low_rank(M_SIDE, M_SIDE, RANK, A, child_seed(SEED, 10, r))
            data = sample_trace(M, N, NOISE, child_seed(SEED, 11, r))
            ball = trace_uq.u_ci(data, ALPHA, A, NOISE.U)
            pairs = trace_uq.pair_repeats(_SPLIT(data)[0])
            gaps[r] = seen[-1] - float(np.mean((M - ball.center)[pairs.rows, pairs.cols] ** 2))
    return float(np.mean(gaps) / (np.std(gaps, ddof=1) / math.sqrt(REPS)))


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
    threshold = bernoulli_uq.u_alpha_calibrated(ALPHA, noise, (m, m), n, reps=400, seed=801)
    unit = math.sqrt(m * m * K0 * 2 * m / n)
    covered = 0
    for r in range(ADAPTIVE_REPS):
        M = separated_truth(m, m, K0, ADAPTIVE_A, ADAPTIVE_SEPARATION * unit, child_seed(805, r))
        data = sample_bernoulli(M, n, noise, child_seed(806, r))
        ball = bernoulli_uq.adaptive_ci(data, K0, K, ADAPTIVE_A, ADAPTIVE_SIGMA, threshold,
                                        seed=child_seed(807, r))
        covered += ball.contains(M)
    return covered / ADAPTIVE_REPS


#: Criterion 01's cell at sigma = U = 1.0, rank 1: its replicates and floor.
U_CI_REPS = 500
U_CI_FLOOR = 1 - ALPHA - 3 * math.sqrt(ALPHA * (1 - ALPHA) / U_CI_REPS)


def u_ci_coverage() -> float:
    """``u_ci``'s coverage in criterion 01's cell at sigma = U = 1.0, rank 1."""
    cfg = ExperimentConfig(kind="coverage", model="trace", m1=M_SIDE, m2=M_SIDE, n=N,
                           k_truth=RANK, a=A, noise=NoiseSpec("scaled-rademacher", 1.0, 1.0),
                           alpha=ALPHA, reps=U_CI_REPS, seed=SEED, method="u_ci")
    return run(cfg).aggregates["coverage"]


def lbdemo_revealed_error_sum() -> float:
    """Smallest error sum of lbdemo's four tests with the variance revealed,
    at m = 16, n = 128, k = 2, v = 0.5 and criterion 09's revealed seed."""
    return lbdemo.indistinguishability_experiment(16, 128, 2, 1, 0.5, reps=100, seed=903,
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
    "adaptive-covers-far-truths": (adaptive_far_coverage, lambda cov: cov >= ADAPTIVE_FLOOR),
    "u_ci-covers": (u_ci_coverage, lambda cov: cov >= U_CI_FLOOR),
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
    # u_ci's quantile slack is a twentieth of its value.
    "u_quantile-slack-over-20": ("u_ci-covers", trace_uq, "u_quantile",
                                 lambda *args: _U_QUANTILE(*args) / 20),
    # Couples are two observations of different entries.
    "pair_repeats-mixes-entries": ("u_statistic-unbiased", trace_uq, "pair_repeats",
                                   pair_consecutive),
    # lbdemo's tests never learn the variance, so the revealed demo is blind.
    "lbdemo-ignores-reveal_sigma": (
        "lbdemo-revealed-separates", lbdemo, "_pair_replicate",
        lambda m, n, k, k0, rho, reveal_sigma, seed, r:
            _PAIR_REPLICATE(m, n, k, k0, rho, False, seed, r)),
}


def measure(check: str) -> tuple[float, bool]:
    """The value of ``check`` and whether it holds."""
    fn, holds = CHECKS[check]
    value = fn()
    return value, holds(value)


def test_u_statistic_is_unbiased_for_a_fitted_center():
    z, holds = measure("u_statistic-unbiased")
    assert holds, f"z = {z:.2f}"


def test_adaptive_set_covers_far_truths():
    cov, holds = measure("adaptive-covers-far-truths")
    assert holds, f"coverage {cov:.3f}"


def test_u_ci_covers_at_criterion_01_shape():
    cov, holds = measure("u_ci-covers")
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
