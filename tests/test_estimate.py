import math

import numpy as np
import pytest

from mcuq import estimate
from mcuq.core import DomainError, NoiseSpec, clip_entries
from mcuq.estimate import (LassoFit, estimator_risk, lambda_data_driven,
                           lambda_practical_trace, matrix_lasso,
                           soft_threshold_estimator)
from mcuq.synth import (BernoulliDataset, child_seed, make_low_rank,
                        sample_bernoulli, sample_trace)

RADEMACHER = NoiseSpec("scaled-rademacher", 0.5, 0.5)


def bernoulli_all_observed(values):
    values = np.asarray(values, dtype=float)
    m1, m2 = values.shape
    return BernoulliDataset(np.ones((m1, m2), dtype=bool), values, m1 * m2)


def objective(data, A, lam):
    m1, m2 = data.m1, data.m2
    sv = np.linalg.svd(A, compute_uv=False)
    return (np.sum(A * A) / (m1 * m2) - (2.0 / data.n) * np.sum(data.values * A)
            + lam * np.sum(sv))


def generic_prox_gradient(data, lam, iters=200):
    # First-order reference solver on the raw objective, no closed form.
    m1, m2 = data.m1, data.m2
    step = m1 * m2 / 2.0  # inverse Lipschitz constant of the smooth part
    A = np.zeros((m1, m2))
    for _ in range(iters):
        grad = 2.0 * A / (m1 * m2) - 2.0 * data.values / data.n
        u, s, vt = np.linalg.svd(A - step * grad, full_matrices=False)
        A = (u * np.maximum(s - step * lam, 0.0)) @ vt
    return A


class TestSoftThresholdEstimator:
    def test_zero_data_gives_zero(self):
        data = bernoulli_all_observed(np.zeros((4, 4)))
        assert np.all(soft_threshold_estimator(data, 0.1) == 0.0)

    def test_rank_one_shrinkage(self):
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0, 0.0])
        W = 5.0 * np.outer(u, v)
        # values chosen so W = (m1*m2/n) * Y = Y at full observation
        data = bernoulli_all_observed(W * (12 / 12))
        lam = 2.0 * 2.0 / 12  # threshold t = 2 < 5
        M_hat = soft_threshold_estimator(data, lam)
        s = np.linalg.svd(M_hat, compute_uv=False)
        assert s[0] == pytest.approx(3.0, abs=1e-12)
        assert np.all(s[1:] < 1e-12)
        np.testing.assert_allclose(M_hat, 3.0 * np.outer(u, v), atol=1e-12)

    def test_singular_values_closed_form(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            Y = rng.standard_normal((8, 8))
            data = bernoulli_all_observed(Y)
            lam = float(rng.uniform(0.001, 0.05))
            W = (64 / 64) * Y
            t = lam * 64 / 2.0
            expected = np.maximum(np.linalg.svd(W, compute_uv=False) - t, 0.0)
            got = np.linalg.svd(soft_threshold_estimator(data, lam), compute_uv=False)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_local_optimality_against_perturbations(self):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((8, 8))
        data = bernoulli_all_observed(Y)
        lam = 0.02
        M_hat = soft_threshold_estimator(data, lam)
        base = objective(data, M_hat, lam)
        for _ in range(100):
            G = rng.standard_normal((8, 8))
            assert base <= objective(data, M_hat + 1e-4 * G, lam) + 1e-12

    def test_matches_generic_solver(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            Y = rng.standard_normal((5, 5))
            data = bernoulli_all_observed(Y)
            lam = float(rng.uniform(0.01, 0.1))
            closed = soft_threshold_estimator(data, lam)
            iterative = generic_prox_gradient(data, lam)
            assert np.max(np.abs(closed - iterative)) < 1e-6

    def test_invalid_lambda(self):
        with pytest.raises(DomainError):
            soft_threshold_estimator(bernoulli_all_observed(np.zeros((2, 2))), 0.0)


class TestMatrixLasso:
    def test_noiseless_interpolation(self):
        M = make_low_rank(5, 5, 1, 1.0, seed=30)
        # with replacement, 600 draws on 25 cells observe everything
        data = sample_trace(M, 600, NoiseSpec("scaled-rademacher", 0.0, 1.0), seed=31)
        assert len(set(zip(data.rows.tolist(), data.cols.tolist()))) == 25
        fit = matrix_lasso(data, lam=1e-9, a=1.0, max_iter=3000, tol=1e-16)
        assert estimator_risk(fit.estimate, M) < 1e-12

    def test_entry_bound_invariant(self):
        M = make_low_rank(6, 6, 2, 2.0, seed=32)
        data = sample_trace(M, 80, NoiseSpec("scaled-rademacher", 1.0, 1.0), seed=33)
        fit = matrix_lasso(data, lam=0.01, a=0.5)
        assert np.max(np.abs(fit.estimate)) <= 0.5 + 1e-12

    def test_objective_monotone(self):
        M = make_low_rank(8, 8, 2, 1.0, seed=34)
        data = sample_trace(M, 120, RADEMACHER, seed=35)
        fit = matrix_lasso(data, lam=0.02, a=1.0)
        assert np.all(np.diff(fit.objectives) <= 1e-15)

    def test_risk_guard_at_theory_tuning(self):
        # Regression guard: median normalized risk stays below the frozen
        # multiple of k*d*log(d)/n at the canonical desk scale.
        m, n, sigma, reps = 30, 900, 0.5, 40
        noise = NoiseSpec("scaled-rademacher", sigma, sigma)
        for k in (1, 3):
            risks = []
            for r in range(reps):
                M = make_low_rank(m, m, k, 1.0, child_seed(36, k, r))
                data = sample_trace(M, n, noise, child_seed(36, 10 + k, r))
                half = data.subset(data.n // 2, data.n)
                lam = lambda_practical_trace(sigma, m, m, half.n)
                fit = matrix_lasso(half, lam, a=1.0)
                risks.append(estimator_risk(fit.estimate, M))
            guard = 0.25 * k * 2 * m * math.log(2 * m) / n
            assert np.median(risks) <= guard


def _criterion_01_panel(seeds=6):
    # Second halves of criterion 01's datasets (30x30, n=900) with the
    # practical tuning u_ci uses: 4 cells (k, sigma) times `seeds` fits.
    m, n = 30, 900
    panel = []
    for k in (1, 3):
        for sigma in (0.5, 1.0):
            noise = NoiseSpec("scaled-rademacher", sigma, sigma)
            for r in range(seeds):
                M = make_low_rank(m, m, k, 1.0, child_seed(37, k, r))
                data = sample_trace(M, n, noise, child_seed(38, k, r, int(2 * sigma)))
                second = data.subset(n // 2, n)
                panel.append((second, lambda_practical_trace(sigma, m, m, second.n)))
    return panel


class TestRestartedFista:
    def test_few_iterations_and_monotone_on_criterion_01_panel(self):
        fits = [matrix_lasso(data, lam, a=1.0) for data, lam in _criterion_01_panel()]
        assert all(fit.converged for fit in fits)
        assert np.mean([fit.n_iter for fit in fits]) <= 15
        for fit in fits:
            assert np.all(np.diff(fit.objectives) <= 0.0)

    def test_final_objective_near_tight_tolerance_fit(self):
        for data, lam in _criterion_01_panel():
            fit = matrix_lasso(data, lam, a=1.0)
            tight = matrix_lasso(data, lam, a=1.0, max_iter=5000, tol=1e-15)
            assert tight.converged
            best = tight.objectives[-1]
            assert fit.objectives[-1] - best <= 1e-4 * abs(best)

    def test_restart_branch_runs(self, monkeypatch):
        # A fit that stops by the relative-decrease rule makes one prox call
        # per accepted step plus one per restart (the plain step taken after
        # a failed extrapolated one).
        calls = 0
        shrink = estimate.singular_value_threshold

        def counting(X, tau):
            nonlocal calls
            calls += 1
            return shrink(X, tau)

        monkeypatch.setattr(estimate, "singular_value_threshold", counting)
        restarts = 0
        for data, lam in _criterion_01_panel():
            calls = 0
            fit = matrix_lasso(data, lam, a=1.0)
            assert calls >= fit.n_iter > 0
            before, last = fit.objectives[-2:]
            if before - last < 1e-6 * max(1.0, abs(before)):
                restarts += calls - fit.n_iter
        assert restarts >= 1


def _matrix_lasso_svd_reference(data, lam, a, max_iter=300, tol=1e-6):
    # matrix_lasso's restarted FISTA with a full SVD per prox step and one
    # more per objective, in place of the Gram eigensolve.
    n = data.n
    rows, cols, y = data.rows, data.cols, data.y
    m1, m2 = data.m1, data.m2

    counts = np.zeros((m1, m2))
    np.add.at(counts, (rows, cols), 1.0)
    step = 1.0 / (2.0 * counts.max() / n)

    def objective(A):
        resid = y - A[rows, cols]
        sv = np.linalg.svd(A, compute_uv=False)
        return float(np.mean(resid * resid) + lam * np.sum(sv))

    def prox_step(Y):
        grad = np.zeros((m1, m2))
        np.add.at(grad, (rows, cols), Y[rows, cols] - y)
        grad *= 2.0 / n
        u, s, vt = np.linalg.svd(Y - step * grad, full_matrices=False)
        s = np.maximum(s - step * lam, 0.0)
        A_new = np.clip((u * s) @ vt, -a, a)
        return A_new, objective(A_new)

    A = A_prev = np.zeros((m1, m2))
    objs = [objective(A)]
    t = 1.0
    converged = False
    for _ in range(max_iter):
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        A_new, obj_new = prox_step(A + ((t - 1.0) / t_next) * (A - A_prev))
        if obj_new > objs[-1] and t > 1.0:
            t_next = (1.0 + math.sqrt(5.0)) / 2.0
            A_new, obj_new = prox_step(A)
        if obj_new > objs[-1]:
            converged = True
            break
        A_prev, A, t = A, A_new, t_next
        objs.append(obj_new)
        if objs[-2] - objs[-1] < tol * max(1.0, abs(objs[-2])):
            converged = True
            break
    return LassoFit(A, np.asarray(objs), converged)


class TestMatrixLassoAgainstSvdReference:
    @pytest.mark.parametrize("m1, m2", [(30, 20), (20, 30), (25, 25)],
                             ids=["tall", "wide", "square"])
    @pytest.mark.parametrize("a, clip_active", [(1.0, False), (0.05, True)],
                             ids=["clip-inactive", "clip-active"])
    def test_practical_tuning(self, m1, m2, a, clip_active):
        n = m1 * m2
        for r in range(3):
            M = make_low_rank(m1, m2, 2, 1.0, child_seed(70, m1, m2, r))
            data = sample_trace(M, n, RADEMACHER, child_seed(71, m1, m2, r))
            lam = lambda_practical_trace(0.5, m1, m2, n)
            fit = matrix_lasso(data, lam, a)
            ref = _matrix_lasso_svd_reference(data, lam, a)
            assert fit.n_iter == ref.n_iter
            assert fit.converged == ref.converged
            assert (np.max(np.abs(ref.estimate)) >= a) == clip_active
            err = np.linalg.norm(fit.estimate - ref.estimate)
            assert err <= 1e-12 * np.linalg.norm(ref.estimate)

    def test_tiny_lambda(self):
        M = make_low_rank(5, 5, 1, 1.0, seed=30)
        data = sample_trace(M, 600, NoiseSpec("scaled-rademacher", 0.0, 1.0), seed=31)
        fit = matrix_lasso(data, lam=1e-9, a=1.0, max_iter=3000, tol=1e-16)
        ref = _matrix_lasso_svd_reference(data, lam=1e-9, a=1.0, max_iter=3000, tol=1e-16)
        assert fit.n_iter == ref.n_iter
        assert fit.converged == ref.converged
        np.testing.assert_allclose(fit.estimate, ref.estimate, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("m1, m2", [(12, 8), (8, 12)], ids=["tall", "wide"])
    def test_nothing_above_threshold_gives_zero(self, m1, m2):
        M = make_low_rank(m1, m2, 1, 1.0, seed=72)
        data = sample_trace(M, 200, RADEMACHER, seed=73)
        fit = matrix_lasso(data, lam=1e6, a=1.0)
        assert np.all(fit.estimate == 0.0)
        assert fit.estimate.shape == (m1, m2)
        assert fit.n_iter == _matrix_lasso_svd_reference(data, lam=1e6, a=1.0).n_iter


class TestDataDrivenLambda:
    def test_positive_and_scales_with_energy(self):
        M = make_low_rank(10, 10, 1, 1.0, seed=40)
        d1 = sample_bernoulli(M, 60, RADEMACHER, seed=41)
        d2 = sample_bernoulli(2.0 * M, 60, NoiseSpec("scaled-rademacher", 0.5, 0.5), seed=41)
        assert 0 < lambda_data_driven(d1) < lambda_data_driven(d2)

    @pytest.mark.parametrize("observed", [True, False], ids=["zeros-observed", "none-observed"])
    def test_zero_data_gives_positive_level_and_zero_fit(self, observed):
        # With no nonzero observed value the energy is zero; the level must
        # still be positive, and the estimator then gives the zero fit.
        mask = np.full((2, 3), observed)
        data = BernoulliDataset(mask, np.zeros((2, 3)), 1)
        lam = lambda_data_driven(data)
        assert lam > 0
        assert np.all(soft_threshold_estimator(data, lam) == 0.0)

    def test_doubling_rank_doubles_risk_roughly(self):
        # Doubling the truth's rank should scale the median risk by a factor
        # in [1.4, 2.8] at fixed (m, n, sigma).
        m, n, sigma, reps = 20, 200, 0.02, 200
        noise = NoiseSpec("scaled-rademacher", sigma, sigma)
        meds = {}
        for k in (1, 2, 4):
            risks = []
            for r in range(reps):
                M = make_low_rank(m, m, k, 1.0, child_seed(42, k, r, 0))
                data = sample_bernoulli(M, n, noise, child_seed(42, k, r, 1))
                M_hat = clip_entries(
                    soft_threshold_estimator(data, lambda_data_driven(data)), 1.0)
                risks.append(estimator_risk(M_hat, M))
            meds[k] = float(np.median(risks))
        assert 1.4 <= meds[2] / meds[1] <= 2.8
        assert 1.4 <= meds[4] / meds[2] <= 2.8


class TestEstimatorRisk:
    def test_zero_for_equal(self):
        M = make_low_rank(4, 4, 1, 1.0, seed=50)
        assert estimator_risk(M, M) == 0.0

    def test_constant_shift(self):
        M = make_low_rank(4, 5, 1, 1.0, seed=51)
        assert estimator_risk(M + 0.3, M) == pytest.approx(0.09, rel=1e-12)

    def test_matches_entrywise_sum(self):
        rng = np.random.default_rng(52)
        A, B = rng.standard_normal((5, 7)), rng.standard_normal((5, 7))
        manual = sum((A[i, j] - B[i, j]) ** 2 for i in range(5) for j in range(7)) / 35
        assert estimator_risk(A, B) == pytest.approx(manual, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            estimator_risk(np.zeros((2, 2)), np.zeros((3, 2)))
