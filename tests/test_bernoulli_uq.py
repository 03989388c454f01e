import math

import numpy as np
import pytest

from mcuq import bernoulli_uq, estimate
from mcuq.bernoulli_uq import (ADAPTIVE_K_DEFAULT, adaptive_ci, infimum_stat,
                               low_rank_test, u_alpha_calibrated,
                               u_alpha_theoretical)
from mcuq.core import DomainError, NoiseSpec
from mcuq.synth import child_seed, make_low_rank, rng_for, sample_bernoulli
from test_core import _svd_deterministic_loop, assert_bits_equal

RADEMACHER = NoiseSpec("scaled-rademacher", 0.5, 0.5)


def centered_residual_sum(data, A, sigma):
    r = (data.values - A)[data.mask]
    return float(np.sum(r * r)) - sigma ** 2 * data.n_hat


def rank_one_grid_infimum(data, sigma, step=0.05):
    """Brute force over rank-one candidates u v^T with the v-slice minimized
    exactly.

    For fixed u the centered residual sum is a separable quadratic in v, so
    its exact range over the slice is known: if the slice minimum is <= 0
    the infimum of the absolute value on that slice is 0 (the sum is
    continuous and grows without bound), otherwise it is the minimum itself.
    Gridding u over [-1, 1]^m1 at the given step covers all rank-one
    directions, since any u v^T can be rescaled to have max |u_i| = 1.
    """
    m1, m2 = data.m1, data.m2
    B = data.mask.astype(float)
    Y = data.values
    gamma = centered_residual_sum(data, np.zeros((m1, m2)), sigma)
    axes = [np.arange(-1.0, 1.0 + step / 2, step) for _ in range(m1)]
    grids = np.meshgrid(*axes, indexing="ij")
    U = np.stack([g.ravel() for g in grids], axis=1)  # (n_u, m1)
    best = abs(gamma)  # u = 0 slice
    chunk = 200000
    BY = B * Y
    for lo in range(0, U.shape[0], chunk):
        Uc = U[lo:lo + chunk]
        alpha = (Uc ** 2) @ B          # (n_c, m2): sum_i B_ij u_i^2
        beta = Uc @ BY                 # (n_c, m2): sum_i B_ij Y_ij u_i
        active = alpha > 1e-12
        reduction = np.where(active, beta ** 2 / np.where(active, alpha, 1.0), 0.0)
        slice_min = gamma - reduction.sum(axis=1)
        vals = np.where(slice_min <= 0.0, 0.0, slice_min)
        best = min(best, float(vals.min()))
    return best / math.sqrt(2.0 * data.n)


class TestInfimumStat:
    def test_k0_zero_is_exact(self):
        M = make_low_rank(5, 5, 1, 1.0, seed=0)
        data = sample_bernoulli(M, 15, RADEMACHER, seed=1)
        res = infimum_stat(data, 0, 1.0, 0.5)
        direct = abs(centered_residual_sum(data, np.zeros((5, 5)), 0.5))
        assert res.value == pytest.approx(direct / math.sqrt(30), rel=1e-12)

    def test_noiseless_truth_in_class_gives_zero(self):
        M = make_low_rank(6, 6, 2, 1.0, seed=2)
        data = sample_bernoulli(M, 24, NoiseSpec("scaled-rademacher", 0.0, 1.0), seed=3)
        res = infimum_stat(data, 2, 1.0, 0.0, seed=4, extra_starts=[M])
        assert res.value == 0.0

    def test_never_exceeds_supplied_candidate(self):
        M = make_low_rank(6, 6, 1, 1.0, seed=5)
        data = sample_bernoulli(M, 24, RADEMACHER, seed=6)
        res = infimum_stat(data, 1, 1.0, 0.5, seed=7, extra_starts=[M])
        at_truth = abs(centered_residual_sum(data, M, 0.5)) / math.sqrt(2 * 24)
        assert res.value <= at_truth + 1e-12

    def test_minimizer_stays_in_class(self):
        M = make_low_rank(6, 6, 1, 1.0, seed=8)
        data = sample_bernoulli(M, 30, RADEMACHER, seed=9)
        res = infimum_stat(data, 1, 1.0, 0.5, seed=10)
        s = np.linalg.svd(res.minimizer, compute_uv=False)
        assert np.sum(s > 1e-10 * max(s[0], 1e-300)) <= 1
        assert np.max(np.abs(res.minimizer)) <= 1.0 + 1e-12

    def test_zero_certificate_under_null_noise(self):
        M = make_low_rank(10, 10, 1, 1.0, seed=11)
        data = sample_bernoulli(M, 70, RADEMACHER, seed=12)
        res = infimum_stat(data, 1, 1.0, 0.5, seed=13)
        assert res.value == 0.0

    @pytest.mark.parametrize("scenario", ["null", "signal"])
    def test_matches_rank_one_grid_oracle(self, scenario):
        rng = rng_for(14 if scenario == "null" else 15)
        if scenario == "null":
            M = make_low_rank(4, 4, 1, 1.0, seed=16)
        else:
            M = make_low_rank(4, 4, 3, 3.0, seed=17)
        data = sample_bernoulli(M, 12, RADEMACHER, seed=18)
        res = infimum_stat(data, 1, 1e6, 0.5, restarts=16, seed=19, max_iter=300)
        oracle = rank_one_grid_infimum(data, 0.5)
        assert abs(res.value - oracle) <= 1e-3

    @pytest.mark.parametrize("scenario", ["null", "signal"])
    def test_matches_sign_loop_reference(self, scenario, monkeypatch):
        # The projections skip the sign convention; the search must still
        # land on bit-identical results.
        def truncate_rank_loop(A, k):
            u, s, vt = _svd_deterministic_loop(A)
            return (u[:, :k] * s[:k]) @ vt[:k, :]

        if scenario == "null":
            M = make_low_rank(20, 20, 1, 1.0, seed=30)
        else:
            M = make_low_rank(20, 20, 3, 3.0, seed=31)
        data = sample_bernoulli(M, 300, RADEMACHER, seed=32)
        with monkeypatch.context() as mp:
            mp.setattr(bernoulli_uq, "truncate_rank", truncate_rank_loop)
            mp.setattr(estimate, "svd_deterministic", _svd_deterministic_loop)
            want = infimum_stat(data, 1, 3.0, 0.5, restarts=8, seed=33)
        got = infimum_stat(data, 1, 3.0, 0.5, restarts=8, seed=33)
        assert got.value == want.value
        assert got.gap_flag == want.gap_flag
        assert got.bracketed_zero == want.bracketed_zero
        assert_bits_equal(got.minimizer, want.minimizer)

    def test_invalid_k0(self):
        data = sample_bernoulli(np.zeros((4, 4)), 8, RADEMACHER, seed=20)
        with pytest.raises(DomainError):
            infimum_stat(data, 4, 1.0, 0.5)


class TestThresholds:
    def test_theoretical_reference(self):
        assert u_alpha_theoretical(0.05, 1.0, 2.0) == pytest.approx(math.sqrt(90), rel=1e-12)

    def test_theoretical_degenerate(self):
        assert u_alpha_theoretical(0.3, 1.0, 1.0) == 0.0

    def test_theoretical_alpha_scaling(self):
        assert u_alpha_theoretical(0.05, 1.0, 2.0) == pytest.approx(
            u_alpha_theoretical(0.1, 1.0, 2.0) * math.sqrt(2), rel=1e-12)

    def test_calibrated_rademacher_is_zero(self):
        thr = u_alpha_calibrated(0.1, 0.5, RADEMACHER, (10, 10), 50, reps=150, seed=0)
        assert thr == 0.0

    def test_calibrated_below_theoretical(self):
        noise = NoiseSpec("scaled-rademacher", 0.5, 1.0)
        cal = u_alpha_calibrated(0.1, 0.5, noise, (10, 10), 50, reps=300, seed=1)
        assert cal <= u_alpha_theoretical(0.1, 0.5, 1.0)

    def test_calibrated_stability_in_reps(self):
        noise = NoiseSpec("uniform", 0.5, 1.0)
        a = u_alpha_calibrated(0.1, 0.5, noise, (12, 12), 72, reps=2000, seed=2)
        b = u_alpha_calibrated(0.1, 0.5, noise, (12, 12), 72, reps=4000, seed=3)
        assert abs(a - b) / a < 0.05

    def test_calibrated_needs_enough_reps(self):
        with pytest.raises(DomainError):
            u_alpha_calibrated(0.1, 0.5, RADEMACHER, (5, 5), 10, reps=50)


class TestLowRankTest:
    def test_accepts_noiseless_truth_in_class(self):
        M = make_low_rank(8, 8, 1, 1.0, seed=21)
        noise0 = NoiseSpec("scaled-rademacher", 0.0, 1.0)
        data = sample_bernoulli(M, 40, noise0, seed=22)
        verdict = low_rank_test(data, 1, 1.0, 0.0, 1.0, 0.1, mode="calibrated",
                                noise=noise0, calib_reps=100, seed=23)
        assert not verdict.reject

    def test_verdict_serialization(self):
        M = make_low_rank(6, 6, 1, 1.0, seed=24)
        data = sample_bernoulli(M, 24, RADEMACHER, seed=25)
        verdict = low_rank_test(data, 1, 1.0, 0.5, 0.5, 0.1, threshold=0.0, seed=26)
        d = verdict.to_json_dict()
        assert set(d) == {"T_n", "u_alpha", "reject", "mode", "restarts", "gap_flag"}
        assert d["reject"] == (d["T_n"] > d["u_alpha"])

    def test_validity_flags_reported(self):
        M = make_low_rank(6, 6, 1, 1.0, seed=27)
        data = sample_bernoulli(M, 8, RADEMACHER, seed=28)
        verdict = low_rank_test(data, 1, 1.0, 0.5, 0.5, 0.1, threshold=0.0, seed=29)
        assert verdict.meta["theoretical_n_valid"] is False  # n too small here


class TestAdaptiveCi:
    def test_two_valued_radius(self):
        d = 40
        n = 300
        small = ADAPTIVE_K_DEFAULT ** 2 * 1 * d / n
        large = ADAPTIVE_K_DEFAULT ** 2 * 3 * d / n
        M = make_low_rank(20, 20, 1, 1.0, seed=30)
        data = sample_bernoulli(M, n, RADEMACHER, seed=31)
        ball = adaptive_ci(data, 1, 3, 1.0, 0.5, 0.5, 0.1, threshold=0.0, seed=32)
        assert ball.radius_sq in (pytest.approx(small), pytest.approx(large))

    def test_reject_gives_larger_radius(self):
        M = make_low_rank(20, 20, 1, 1.0, seed=33)
        data = sample_bernoulli(M, 300, RADEMACHER, seed=34)
        accept_ball = adaptive_ci(data, 1, 3, 1.0, 0.5, 0.5, 0.1,
                                  threshold=math.inf, seed=35)
        reject_ball = adaptive_ci(data, 1, 3, 1.0, 0.5, 0.5, 0.1,
                                  threshold=-1.0, seed=35)
        assert reject_ball.radius_sq > accept_ball.radius_sq

    def test_center_respects_entry_bound(self):
        M = make_low_rank(10, 10, 1, 1.0, seed=36)
        data = sample_bernoulli(M, 60, RADEMACHER, seed=37)
        ball = adaptive_ci(data, 1, 2, 0.3, 0.5, 0.5, 0.1, threshold=0.0, seed=38)
        assert np.max(np.abs(ball.center)) <= 0.3 + 1e-12

    def test_requires_k0_below_k(self):
        M = make_low_rank(6, 6, 1, 1.0, seed=39)
        data = sample_bernoulli(M, 18, RADEMACHER, seed=40)
        with pytest.raises(DomainError):
            adaptive_ci(data, 2, 2, 1.0, 0.5, 0.5, 0.1)


class TestWeakRipSanity:
    def test_masked_energy_keeps_half(self):
        # For random class members at the relevant distance scale, the
        # masked squared distance retains at least half the Bernoulli-
        # weighted energy in practically every draw.
        m, n, k0 = 20, 200, 1
        p = n / (m * m)
        M = make_low_rank(m, m, 3, 1.0, seed=41)
        hits = 0
        reps = 500
        for r in range(reps):
            A = make_low_rank(m, m, k0, 1.0, seed=child_seed(42, r))
            rng = rng_for(43, r)
            mask = rng.random((m, m)) < p
            D = A - M
            lhs = float(np.sum(mask * D * D))
            if lhs >= 0.5 * p * float(np.sum(D * D)):
                hits += 1
        assert hits / reps >= 0.99


class TestTypeIControlGrid:
    def test_size_across_settings(self):
        # Empirical size stays below alpha + 3*sqrt(alpha/reps) over a small
        # grid of null ranks and noise levels in calibrated mode.
        m, n, alpha, reps, a = 16, 160, 0.1, 100, 1.0
        cap = alpha + 3 * math.sqrt(alpha / reps)
        for k0 in (1, 2):
            for sigma in (0.25, 0.5):
                noise = NoiseSpec("scaled-rademacher", sigma, sigma)
                thr = u_alpha_calibrated(alpha, sigma, noise, (m, m), n,
                                         reps=200, seed=child_seed(50, k0))
                rejections = 0
                for r in range(reps):
                    M = make_low_rank(m, m, k0, a, child_seed(51, k0, r))
                    data = sample_bernoulli(M, n, noise, child_seed(52, k0, r))
                    verdict = low_rank_test(data, k0, a, sigma, sigma, alpha,
                                            threshold=thr,
                                            seed=child_seed(53, k0, r))
                    rejections += verdict.reject
                assert rejections / reps <= cap, (k0, sigma)
