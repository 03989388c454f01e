"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import warnings

import numpy as np
import pytest

from mcuq.bench import ExperimentConfig, run, separated_truth, write_records_csv
from mcuq.bernoulli_uq import adaptive_ci, infimum_stat, u_alpha_calibrated
from mcuq.core import NoiseSpec
from mcuq.estimate import soft_threshold_estimator
from mcuq.lbdemo import rho_for, sample_h1
from mcuq.synth import (BernoulliDataset, child_seed, make_low_rank, rng_for,
                        sample_bernoulli, sample_trace)
from mcuq.trace_uq import pair_repeats, rss_radius_sq, split_sample

warnings.filterwarnings("ignore", category=RuntimeWarning)

THREADS = 2


def check(num, name, ok, detail):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_u_statistic_honesty():
    n_reps = 500
    floor = 0.9 - 3 * math.sqrt(0.09 / n_reps)
    cells = {}
    for k in (1, 3):
        for sigma in (0.5, 1.0):
            cfg = ExperimentConfig(
                kind="coverage", model="trace", m1=30, m2=30, n=900,
                k_truth=k, a=1.0, noise=NoiseSpec("scaled-rademacher", sigma, sigma),
                alpha=0.1, reps=n_reps, seed=101, method="u_ci")
            rep = run(cfg, threads=THREADS)
            cells[(k, sigma)] = rep.aggregates["coverage"]
    ok = all(cov >= floor for cov in cells.values())
    check(1, "u-statistic honesty", ok,
          f"coverage by (k, sigma) = { {k: round(v, 4) for k, v in cells.items()} } "
          f"(floor {floor:.4f})")


def test_criterion_02_u_statistic_unbiasedness():
    m, sigma, redraws = 30, 0.5, 10 ** 4
    M = make_low_rank(m, m, 2, a=1.0, seed=201)
    M_hat = make_low_rank(m, m, 2, a=1.0, seed=202)
    base = sample_trace(M, 900, noise=NoiseSpec("scaled-rademacher", sigma, sigma), seed=203)
    first, _ = split_sample(base)
    pairs = pair_repeats(first)
    N = pairs.n_pairs
    target = float(np.mean((M - M_hat)[pairs.rows, pairs.cols] ** 2))
    truth = M[pairs.rows, pairs.cols]
    center = M_hat[pairs.rows, pairs.cols]
    rng = rng_for(204)
    vals = np.empty(redraws)
    for r in range(redraws):
        eps1 = sigma * (rng.integers(0, 2, N) * 2 - 1)
        eps2 = sigma * (rng.integers(0, 2, N) * 2 - 1)
        vals[r] = np.mean((truth + eps1 - center) * (truth + eps2 - center))
    se = float(np.std(vals)) / math.sqrt(redraws)
    gap = abs(float(np.mean(vals)) - target)
    check(2, "u-statistic unbiasedness", gap <= 3 * se,
          f"|mean - target| = {gap:.2e} vs 3 se = {3 * se:.2e} (N = {N})")


def test_criterion_03_pairing_bound():
    m, n, reps = 20, 400, 2000
    bound = n * n / (64 * m * m)
    prob = 1.0 - math.exp(-n * n / (372 * m * m))
    noise = NoiseSpec("scaled-rademacher", 0.5, 0.5)
    hits = 0
    for r in range(reps):
        data = sample_trace(np.zeros((m, m)), n, noise=noise, seed=child_seed(301, r))
        first, _ = split_sample(data)
        hits += pair_repeats(first).n_pairs >= bound
    p_hat = hits / reps
    se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / reps)
    check(3, "pairing count bound", p_hat >= prob - 3 * se,
          f"P(N >= {bound}) = {p_hat:.4f} vs target {prob:.4f} - 3 se")


def test_criterion_04_u_statistic_adaptivity():
    cfg = ExperimentConfig(
        kind="diameter", model="trace", m1=30, m2=30, n=900, k_truth=3, k0=1,
        a=1.0, noise=NoiseSpec("scaled-rademacher", 0.5, 0.5), alpha=0.1,
        reps=300, seed=401, method="u_ci")
    rep = run(cfg, threads=THREADS)
    ratio = rep.aggregates["adaptivity_ratio"]
    check(4, "u-statistic adaptivity", 1.0 <= ratio <= 9.0,
          f"median radius_sq ratio (rank 3 / rank 1) = {ratio:.4f}")


def test_criterion_05_rss_radius_closed_form():
    def oracle(R_hat, n, d, sigma, z, z_alpha, xi, tol=1e-12):
        sqrt_n = math.sqrt(n)
        B = 2.0 * (R_hat + z * d / n + xi / sqrt_n)

        def rhs(t):
            return B + (2.0 / sqrt_n) * np.sqrt(
                z_alpha * sigma * sigma * np.maximum(3.0 * t, 4.0 * z * d / n))

        b = 2.0 * sigma * math.sqrt(3.0 * z_alpha) / sqrt_n
        cap = max((b + math.sqrt(max(b * b + 4.0 * abs(B), 0.0))) ** 2,
                  4.0 * z * d / n) + 1.0
        grid = np.linspace(0.0, cap, 400001)
        feasible = grid[grid <= rhs(grid)]
        if feasible.size == 0:
            return 0.0
        lo = float(feasible[-1])
        hi = min(lo + cap / 400000, cap)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid <= float(rhs(np.array([mid]))[0]):
                lo = mid
            else:
                hi = mid
            if hi - lo < tol:
                break
        return lo

    rng = rng_for(501)
    worst = 0.0
    for trial in range(100):
        R_hat = float(rng.uniform(-0.5, 2.0))
        n = int(rng.integers(20, 2000))
        d = int(rng.integers(10, 100))
        sigma = float(rng.uniform(0.05, 2.0))
        z = float(rng.uniform(0.1, 3.0))
        alpha = float(rng.uniform(0.01, 0.5))
        U = float(rng.uniform(sigma, 2 * sigma))
        z_alpha = math.log(3.0 / alpha)
        xi = math.sqrt(2.0) * sigma * U * z_alpha
        closed = rss_radius_sq(R_hat, n, d, sigma=sigma, z=z, z_alpha=z_alpha, xi=xi)
        ora = oracle(R_hat, n, d, sigma, z, z_alpha, xi)
        worst = max(worst, abs(closed - ora))
    check(5, "rss radius closed form", worst <= 1e-10,
          f"max |closed - bisection| over 100 tuples = {worst:.2e}")


def test_criterion_06_soft_thresholding():
    rng = rng_for(601)
    worst = 0.0
    for trial in range(100):
        Y = rng.standard_normal((8, 8))
        data = BernoulliDataset(np.ones((8, 8), dtype=bool), Y, 64)
        lam = float(rng.uniform(0.001, 0.06))
        t = lam * 64 / 2.0
        expected = np.maximum(np.linalg.svd(Y, compute_uv=False) - t, 0.0)
        got = np.linalg.svd(soft_threshold_estimator(data, lam), compute_uv=False)
        worst = max(worst, float(np.max(np.abs(got - expected))))
    closed_ok = worst <= 1e-10

    cfg = ExperimentConfig(
        kind="risk", model="bernoulli", m1=20, m2=20, n=200, a=1.0,
        noise=NoiseSpec("scaled-rademacher", 0.02, 0.02), reps=200, seed=602,
        k_grid=(1, 2, 4))
    rep = run(cfg, threads=THREADS)
    slope = rep.aggregates["slope_k"]
    slope_ok = 0.7 <= slope <= 1.3
    check(6, "soft thresholding", closed_ok and slope_ok,
          f"max singular-value gap = {worst:.2e}; risk-vs-rank slope = {slope:.3f}")


def test_criterion_07_infimum_test_size_power():
    m, n, k0, alpha, reps, a = 20, 300, 1, 0.1, 500, 30.0
    noise = NoiseSpec("scaled-rademacher", 0.5, 0.5)
    cfg = ExperimentConfig(
        kind="test_power", model="bernoulli", m1=m, m2=m, n=n, k0=k0, a=a,
        noise=noise, alpha=alpha, reps=reps, seed=701,
        separation_grid=(0.0, 25.0), threshold_mode="calibrated")
    rep = run(cfg, threads=THREADS)
    size = rep.aggregates["size"]
    power = rep.aggregates["rejection_rate"][repr(25.0)]
    size_ok = size <= alpha + 3 * math.sqrt(alpha / reps)
    power_ok = power >= 0.9

    def grid_infimum(data, sigma, step=0.05):
        B = data.mask.astype(float)
        gamma = float(np.sum(data.values[data.mask] ** 2)) - sigma ** 2 * data.n_hat
        axes = [np.arange(-1.0, 1.0 + step / 2, step) for _ in range(4)]
        U = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        BY = B * data.values
        best = abs(gamma)
        for lo in range(0, U.shape[0], 200000):
            Uc = U[lo:lo + 200000]
            al = (Uc ** 2) @ B
            be = Uc @ BY
            active = al > 1e-12
            red = np.where(active, be ** 2 / np.where(active, al, 1.0), 0.0)
            smin = gamma - red.sum(axis=1)
            best = min(best, float(np.where(smin <= 0.0, 0.0, smin).min()))
        return best / math.sqrt(2.0 * data.n)

    worst = 0.0
    for trial, k_true in enumerate((1, 3, 2)):
        M = make_low_rank(4, 4, k_true, a=1.0 + trial, seed=702 + trial)
        data = sample_bernoulli(M, 12, noise=noise, seed=705 + trial)
        res = infimum_stat(data, 1, a=1e6, sigma=0.5, restarts=16, seed=708, max_iter=300)
        worst = max(worst, abs(res.value - grid_infimum(data, 0.5)))
    grid_ok = worst <= 1e-3

    check(7, "infimum test size/power", size_ok and power_ok and grid_ok,
          f"size = {size:.4f} (cap {alpha + 3 * math.sqrt(alpha / reps):.4f}), "
          f"power at 25 units = {power:.3f}, grid gap = {worst:.2e}")


def test_criterion_08_adaptive_bernoulli_set():
    m, n, k0, k, a, sigma, alpha, reps = 20, 300, 1, 3, 2.0, 0.25, 0.1, 300
    noise = NoiseSpec("scaled-rademacher", sigma, sigma)
    unit = math.sqrt(m * m * k0 * 2 * m / n)
    threshold = u_alpha_calibrated(alpha, (m, m), n, noise=noise, reps=400, seed=801)

    covered_k0, small_k0 = 0, 0
    for r in range(reps):
        M = make_low_rank(m, m, k0, a=a, seed=child_seed(802, r))
        data = sample_bernoulli(M, n, noise=noise, seed=child_seed(803, r))
        ball = adaptive_ci(data, k0, k, a=a, sigma=sigma, threshold=threshold,
                           seed=child_seed(804, r))
        covered_k0 += ball.contains(M)
        small_k0 += not ball.reject

    covered_far = 0
    for r in range(reps):
        M = separated_truth(m, m, k0, a=a, rho=2.0 * unit, seed=child_seed(805, r))
        data = sample_bernoulli(M, n, noise=noise, seed=child_seed(806, r))
        ball = adaptive_ci(data, k0, k, a=a, sigma=sigma, threshold=threshold,
                           seed=child_seed(807, r))
        covered_far += ball.contains(M)

    floor_cov = 1 - alpha - 3 * math.sqrt(alpha * (1 - alpha) / reps)
    floor_small = 1 - alpha - 3 * math.sqrt(alpha * (1 - alpha) / reps)
    cov0, covf, small = covered_k0 / reps, covered_far / reps, small_k0 / reps
    ok = cov0 >= floor_cov and covf >= floor_cov and small >= floor_small
    check(8, "adaptive bernoulli set", ok,
          f"coverage rank-k0 = {cov0:.3f}, coverage far rank-k = {covf:.3f}, "
          f"small-radius freq = {small:.3f} (floors {floor_cov:.3f})")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_criterion_09_lower_bound_demo():
    m, n, k, k0, v, reps = 96, 2304, 8, 1, 0.05, 500
    rho = rho_for(k, m, n, v=v)
    draw = sample_h1(m, k, rho=rho, seed=901)
    p_plus = (1.0 + draw.M) / 2.0
    mean = p_plus * (1.0 - draw.M) + (1.0 - p_plus) * (-1.0 - draw.M)
    var = p_plus * (1.0 - draw.M) ** 2 + (1.0 - p_plus) * (1.0 + draw.M) ** 2
    moments_ok = (float(np.max(np.abs(mean))) < 1e-15
                  and float(np.max(np.abs(var - (1 - 4 * rho * rho)))) < 1e-15)

    def min_error_sum(**fields):
        cfg = ExperimentConfig(kind="lbdemo", m1=m, m2=m, n=n, k=k, k0=k0, reps=reps,
                               cal_reps=300, **fields)
        return run(cfg, threads=THREADS).aggregates["min_error_sum"]

    blind = min_error_sum(v=v, seed=902)
    blind_ok = blind >= 0.9

    revealed = min_error_sum(v=0.5, seed=903, reveal_sigma=True)
    reveal_ok = revealed <= 0.7

    check(9, "lower-bound demo", moments_ok and blind_ok and reveal_ok,
          f"blind min error sum = {blind:.3f} (>= 0.9), "
          f"revealed min error sum = {revealed:.3f} (<= 0.7), "
          f"two-point moments exact = {moments_ok}")


def test_criterion_10_determinism(tmp_path):
    configs = [
        ExperimentConfig(kind="coverage", model="trace", m1=12, m2=12, n=144,
                         k_truth=2, a=1.0,
                         noise=NoiseSpec("scaled-rademacher", 0.5, 0.5),
                         alpha=0.1, reps=40, seed=1001, method="u_ci"),
        ExperimentConfig(kind="test_power", model="bernoulli", m1=10, m2=10,
                         n=60, k0=1, a=9.0,
                         noise=NoiseSpec("scaled-rademacher", 0.5, 0.5),
                         alpha=0.1, reps=20, seed=1002,
                         separation_grid=(0.0, 4.0)),
    ]
    all_ok = True
    for i, cfg in enumerate(configs):
        p_serial = tmp_path / f"serial_{i}.csv"
        p_parallel = tmp_path / f"parallel_{i}.csv"
        write_records_csv(run(cfg, threads=1), p_serial)
        write_records_csv(run(cfg, threads=8), p_parallel)
        all_ok &= p_serial.read_bytes() == p_parallel.read_bytes()
    check(10, "determinism", all_ok,
          "records.csv byte-identical, serial vs 8-way parallel, both kinds")
