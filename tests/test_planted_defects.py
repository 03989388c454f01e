"""Planted defects: semantic checks that a broken library fails.

The acceptance criteria check one side of each claim (coverage at least a
floor), and a wide radius can hide a broken construction.  Each check here
measures the property the construction rests on, and each planted defect is
a named ``monkeypatch`` of one library function that must make its check
fail, so the check shows it can.

``u_ci`` is honest because its center is fitted on one half of the sample and
its paired statistic is taken on the other: then ``u_statistic`` is an
unbiased estimate of the center's squared error at the pair positions.
Fitting the center on the paired half makes it fit that half's noise, and the
statistic comes out low.
"""

import math

import numpy as np
import pytest

from mcuq import trace_uq
from mcuq.core import NoiseSpec
from mcuq.synth import child_seed, make_low_rank, sample_trace

#: The sample split of the library, kept before any defect is planted.
_SPLIT = trace_uq.split_sample

#: Criterion 01's shape at sigma = U = 0.5, rank 1, and its seed.
M_SIDE, N, RANK, A, ALPHA, SEED, REPS = 30, 900, 1, 1.0, 0.1, 101, 300
NOISE = NoiseSpec("scaled-rademacher", 0.5, 0.5)

#: Planted defects: name -> (module, function name, replacement).
DEFECTS = {
    # The center is fitted on the half that is paired.
    "u_ci-reuses-paired-half": (trace_uq, "split_sample", lambda data: (_SPLIT(data)[0],) * 2),
}


def u_statistic_bias_z(monkeypatch) -> float:
    """z-score of the mean of ``u_statistic`` minus the center's squared error
    at the pair positions of the real first half, over ``REPS`` replicates."""
    seen = []
    real = trace_uq.u_statistic

    def recorded(pairs, M_hat):
        seen.append(real(pairs, M_hat))
        return seen[-1]

    monkeypatch.setattr(trace_uq, "u_statistic", recorded)
    gaps = np.empty(REPS)
    for r in range(REPS):
        M = make_low_rank(M_SIDE, M_SIDE, RANK, A, child_seed(SEED, 10, r))
        data = sample_trace(M, N, NOISE, child_seed(SEED, 11, r))
        ball = trace_uq.u_ci(data, ALPHA, A, NOISE.U)
        pairs = trace_uq.pair_repeats(_SPLIT(data)[0])
        gaps[r] = seen[-1] - float(np.mean((M - ball.center)[pairs.rows, pairs.cols] ** 2))
    return float(np.mean(gaps) / (np.std(gaps, ddof=1) / math.sqrt(REPS)))


def test_u_statistic_is_unbiased_for_a_fitted_center(monkeypatch):
    z = u_statistic_bias_z(monkeypatch)
    assert abs(z) <= 4, f"z = {z:.2f}"


@pytest.mark.parametrize("name", DEFECTS)
def test_planted_defect_fails_its_check(monkeypatch, name):
    module, function, replacement = DEFECTS[name]
    monkeypatch.setattr(module, function, replacement)
    z = u_statistic_bias_z(monkeypatch)
    assert abs(z) > 4, f"{name} went unseen: z = {z:.2f}"
