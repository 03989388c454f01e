import math
import sys

import numpy as np
import pytest

from mcuq import bernoulli_uq, core, lbdemo
from mcuq.bench import ExperimentConfig, _power_truth
from mcuq.bernoulli_uq import (ADAPTIVE_K, InfimumResult, adaptive_ci,
                               infimum_stat, low_rank_test, u_alpha_calibrated,
                               u_alpha_theoretical)
from mcuq.core import DomainError, NoiseSpec, clip_entries, truncate_rank
from mcuq.estimate import lambda_data_driven, soft_threshold_estimator
from mcuq.synth import child_seed, make_low_rank, rng_for, sample_bernoulli

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


def _project_reference(X, k0, a):
    T = truncate_rank(X, k0)
    mx = np.max(np.abs(T))
    if mx > a:
        T = np.clip(T * (a / mx), -a, a)
    return T


def _infimum_stat_reference(data, k0, a, sigma, restarts=8, seed=0, max_iter=120,
                            lam=None, momentum=True, rejoin=True,
                            momentum_restarts=None, stall_points=None):
    """The search as it was written before ``truncate_rank`` became the lean
    per-step kernel: ``np.max(np.abs(T))`` for the box rescale and
    ``np.sum`` for the residual sum.

    With ``momentum`` each step starts from the FISTA extrapolation of the
    last two iterates and falls back to the plain step when that does not
    lower ``|g|``; without it every step is the plain step, which is the
    search before momentum was added.  With ``momentum`` and ``rejoin`` a
    start also ends once an accepted iterate comes within Frobenius distance
    ``d_S`` of a point ``S`` where an earlier start stalled, with
    ``d_S^2 + 2 r_S d_S = |g_S|/2``; ``rejoin=False`` is the momentum search
    before that rule.  Each fallback appends the projection count of its
    start to ``momentum_restarts``, and each stall point appends ``(S, g_S)``
    to ``stall_points``, when that list is given."""
    if not 0 <= k0 < min(data.m1, data.m2):
        raise DomainError(f"k0 must lie in [0, {min(data.m1, data.m2) - 1}], got {k0}")
    if a <= 0:
        raise DomainError(f"entry bound a must be positive, got {a}")
    if sigma < 0:
        raise DomainError(f"sigma must be non-negative, got {sigma}")

    mask = data.mask
    obs = np.flatnonzero(mask)
    yv = data.values.take(obs)
    n = data.n
    sig_sq_hat = sigma * sigma * data.n_hat
    scale = math.sqrt(2.0 * n)
    g_floor = 64.0 * np.finfo(float).eps * float(np.sum(yv * yv) + sig_sq_hat)

    def g_of(A):
        r = yv - A.take(obs)
        return float(np.sum(r * r)) - sig_sq_hat

    if k0 == 0:
        A0 = np.zeros((data.m1, data.m2))
        return InfimumResult(abs(g_of(A0)) / scale, A0, False, False)

    A_zero = np.zeros((data.m1, data.m2))
    g_zero = g_of(A_zero)
    if abs(g_zero) <= g_floor:
        return InfimumResult(0.0, A_zero, False, False)

    rng = rng_for(seed)
    starts = [A_zero]
    if lam is None:
        lam = lambda_data_driven(data)
    starts.append(_project_reference(clip_entries(soft_threshold_estimator(data, lam), a),
                                     k0, a))
    for _ in range(restarts):
        L = rng.standard_normal((data.m1, k0))
        R = rng.standard_normal((data.m2, k0))
        X = L @ R.T
        mx = np.max(np.abs(X))
        if mx > 0:
            X *= rng.uniform(0.1, 1.0) * a / mx
        starts.append(X)

    impute_base = np.where(mask, data.values, 0.0)

    g_best = None
    A_best = None
    g_lo = math.inf
    g_hi = -math.inf
    improved_any = False
    stalls = [] if momentum and rejoin else None

    def consider(A, g):
        nonlocal g_best, A_best, g_lo, g_hi
        g_lo = min(g_lo, g)
        g_hi = max(g_hi, g)
        if g_best is None or abs(g) < abs(g_best):
            g_best, A_best = g, A

    for A in starts:
        g = g_of(A)
        g_start = g
        consider(A, g)
        A_prev, t = A, 1.0
        stalled = True
        for step in range(max_iter):
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            if t == 1.0:
                Z = A
            else:
                Z = A + ((t - 1.0) / t_next) * (A - A_prev)
            A_new = _project_reference(np.where(mask, impute_base, Z), k0, a)
            g_new = g_of(A_new)
            consider(A_new, g_new)
            if g_new < 0.0 and g_hi > 0.0:
                stalled = False
                break
            if abs(g_new) >= abs(g) * (1.0 - 1e-9):
                if t == 1.0:
                    break
                if momentum_restarts is not None:
                    momentum_restarts.append(step + 1)
                t = 1.0
                continue
            A_prev, A, g = A, A_new, g_new
            if momentum:
                t = t_next
            if stalls is not None and any(np.sum((A - S) ** 2) <= d_S ** 2
                                          for S, d_S in stalls):
                stalled = False
                break
        if stalled and stalls is not None:
            half = abs(g) / 2.0
            r_S = math.sqrt(g + sig_sq_hat)
            stalls.append((A, half / (r_S + math.sqrt(r_S ** 2 + half))))
            if stall_points is not None:
                stall_points.append((A, g))
        if abs(g) < abs(g_start):
            improved_any = True
        if g_lo < -g_floor and g_hi > g_floor:
            break

    for c in (-1.0, -0.5, 0.5):
        consider(c * A_best, g_of(c * A_best))

    bracketed = g_lo < 0.0 and g_hi > 0.0
    if bracketed or abs(g_best) <= g_floor:
        return InfimumResult(0.0, A_best, False, bracketed)
    return InfimumResult(abs(g_best) / scale, A_best, not improved_any, False)


#: Searches for the reference test: (m1, m2, truth, k0, entry bound a).  The
#: null truths have rank k0 and the signal truths rank 3.  Each search takes
#: 14 to 24 steps, nearly all of which rescale into the box (42 to 50 without
#: the rejoin rule), and falls back from a momentum step to the plain step at
#: least once; the lbdemo case below ends with a bracketed zero.
SEARCH_CASES = {
    "null-k0=1-20x20": (20, 20, "null", 1, 0.3),
    "signal-k0=1-20x20": (20, 20, "signal", 1, 3.0),
    "null-k0=2-20x20": (20, 20, "null", 2, 0.3),
    "signal-k0=2-20x20": (20, 20, "signal", 2, 1.0),
    "signal-k0=1-12x20": (12, 20, "signal", 1, 1.5),
}


def _search_case(case):
    if case == "lbdemo-h1-96":
        # One H1 dataset of the revealed lbdemo at m=96 (criterion 09
        # shape), searched as lbdemo's infimum test does; 34 steps.
        m, n, k = 96, 2304, 8
        rho = lbdemo.rho_for(k, m, n, v=0.5)
        data = lbdemo.h1_dataset(lbdemo.sample_h1(m, k, rho=rho, seed=62), n, seed=162)
        return data, dict(k0=1, a=1.0, sigma=math.sqrt(1.0 - 4.0 * rho * rho),
                          restarts=2, seed=262, max_iter=60)
    m1, m2, truth, k0, a = SEARCH_CASES[case]
    if truth == "null":
        M = make_low_rank(m1, m2, k0, a=1.0, seed=70 + k0)
    else:
        M = make_low_rank(m1, m2, 3, a=3.0, seed=72 + k0)
    data = sample_bernoulli(M, 3 * m1 * m2 // 4, noise=RADEMACHER, seed=74 + k0)
    return data, dict(k0=k0, a=a, sigma=0.5, restarts=8, seed=76 + k0)


def _power_small_h1(idx):
    """Separated replicate ``idx`` of power-small (criterion 07 shape, seed
    8) and the keywords of its search."""
    cfg = ExperimentConfig(kind="test_power", model="bernoulli", m1=20, m2=20, n=300,
                           k0=1, a=30.0, noise=RADEMACHER, separation_grid=(0.0, 25.0),
                           restarts=8, reps=30, seed=8)
    data = sample_bernoulli(_power_truth(cfg, 25.0, idx), cfg.n, noise=RADEMACHER,
                            seed=child_seed(cfg.seed, 11, idx))
    return data, dict(k0=1, a=30.0, sigma=0.5, restarts=8, seed=child_seed(cfg.seed, 12, idx))


def _count_truncations(monkeypatch) -> dict:
    """Rank truncations of ``infimum_stat`` ("got") and of the reference
    search ("want"), each appended to its list as it happens."""
    counts = {}
    for name, module in (("got", bernoulli_uq), ("want", sys.modules[__name__])):
        calls = counts.setdefault(name, [])

        def counting(A, k, calls=calls):
            calls.append(k)
            return core.truncate_rank(A, k)

        monkeypatch.setattr(module, "truncate_rank", counting)
    return counts


class TestInfimumStat:
    def test_k0_zero_is_exact(self):
        M = make_low_rank(5, 5, 1, a=1.0, seed=0)
        data = sample_bernoulli(M, 15, noise=RADEMACHER, seed=1)
        res = infimum_stat(data, 0, a=1.0, sigma=0.5)
        direct = abs(centered_residual_sum(data, np.zeros((5, 5)), 0.5))
        assert res.value == pytest.approx(direct / math.sqrt(30), rel=1e-12)

    def test_noiseless_truth_in_class_gives_zero(self):
        M = make_low_rank(6, 6, 2, a=1.0, seed=2)
        data = sample_bernoulli(M, 24, noise=NoiseSpec("scaled-rademacher", 0.0, 1.0), seed=3)
        res = infimum_stat(data, 2, a=1.0, sigma=0.0, seed=4, center=M)
        assert res.value == 0.0

    def test_never_exceeds_supplied_candidate(self):
        M = make_low_rank(6, 6, 1, a=1.0, seed=5)
        data = sample_bernoulli(M, 24, noise=RADEMACHER, seed=6)
        res = infimum_stat(data, 1, a=1.0, sigma=0.5, seed=7, center=M)
        at_truth = abs(centered_residual_sum(data, M, 0.5)) / math.sqrt(2 * 24)
        assert res.value <= at_truth + 1e-12

    def test_minimizer_stays_in_class(self):
        M = make_low_rank(6, 6, 1, a=1.0, seed=8)
        data = sample_bernoulli(M, 30, noise=RADEMACHER, seed=9)
        res = infimum_stat(data, 1, a=1.0, sigma=0.5, seed=10)
        s = np.linalg.svd(res.minimizer, compute_uv=False)
        assert np.sum(s > 1e-10 * max(s[0], 1e-300)) <= 1
        assert np.max(np.abs(res.minimizer)) <= 1.0

    def test_projection_lands_inside_the_box(self):
        # T * (a / mx) rounds twice; unclipped, this entry lands at
        # 0.30000000000000004.
        X = np.random.default_rng(15).standard_normal((20, 20))
        assert np.max(np.abs(bernoulli_uq._project(X, 1, 0.3))) <= 0.3

    def test_zero_certificate_under_null_noise(self):
        M = make_low_rank(10, 10, 1, a=1.0, seed=11)
        data = sample_bernoulli(M, 70, noise=RADEMACHER, seed=12)
        res = infimum_stat(data, 1, a=1.0, sigma=0.5, seed=13)
        assert res.value == 0.0

    @pytest.mark.parametrize("scenario", ["null", "signal"])
    def test_matches_rank_one_grid_oracle(self, scenario):
        rng = rng_for(14 if scenario == "null" else 15)
        if scenario == "null":
            M = make_low_rank(4, 4, 1, a=1.0, seed=16)
        else:
            M = make_low_rank(4, 4, 3, a=3.0, seed=17)
        data = sample_bernoulli(M, 12, noise=RADEMACHER, seed=18)
        res = infimum_stat(data, 1, a=1e6, sigma=0.5, restarts=16, seed=19, max_iter=300)
        oracle = rank_one_grid_infimum(data, 0.5)
        assert abs(res.value - oracle) <= 1e-3

    @pytest.mark.parametrize("scenario", ["null", "signal"])
    def test_matches_sign_loop_reference(self, scenario, monkeypatch):
        # Reference search: every projection and the spectral start from a
        # full SVD, whose products do not depend on the singular vectors'
        # signs.  The Gram-route projections differ from it by rounding only,
        # so the search takes the same path and lands on the same statistic
        # and minimizer up to rounding.
        def truncate_rank_loop(A, k):
            u, s, vt = np.linalg.svd(A, full_matrices=False)
            return (u[:, :k] * s[:k]) @ vt[:k, :]

        def soft_threshold_loop(data, lam):
            t = lam * data.m1 * data.m2 / 2.0
            u, s, vt = np.linalg.svd((data.m1 * data.m2 / data.n) * data.values,
                                     full_matrices=False)
            return (u * np.maximum(s - t, 0.0)) @ vt

        if scenario == "null":
            M = make_low_rank(20, 20, 1, a=1.0, seed=30)
        else:
            M = make_low_rank(20, 20, 3, a=3.0, seed=31)
        data = sample_bernoulli(M, 300, noise=RADEMACHER, seed=32)
        with monkeypatch.context() as mp:
            mp.setattr(bernoulli_uq, "truncate_rank", truncate_rank_loop)
            mp.setattr(bernoulli_uq, "soft_threshold_estimator", soft_threshold_loop)
            want = infimum_stat(data, 1, a=3.0, sigma=0.5, restarts=8, seed=33)
        got = infimum_stat(data, 1, a=3.0, sigma=0.5, restarts=8, seed=33)
        assert got.value == pytest.approx(want.value, rel=1e-12, abs=1e-12)
        assert got.gap_flag == want.gap_flag
        assert got.bracketed_zero == want.bracketed_zero
        np.testing.assert_allclose(got.minimizer, want.minimizer, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want.minimizer)))
        s = np.linalg.svd(got.minimizer, compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) <= 1
        assert np.max(np.abs(got.minimizer)) <= 3.0

    @pytest.mark.parametrize("case", [*SEARCH_CASES, "lbdemo-h1-96"])
    def test_matches_helper_reference(self, case, monkeypatch):
        # The search takes the same steps as the reference: the same
        # statistic, flags and minimizer bits, and the same number of rank
        # truncations, with at least one momentum restart on the way; in every
        # SEARCH_CASES entry, later starts also end on rejoining an earlier
        # start's basin, so the search makes fewer truncations than without
        # that rule.
        data, kw = _search_case(case)
        counts = _count_truncations(monkeypatch)
        got = infimum_stat(data, **kw)
        momentum_restarts = []
        want = _infimum_stat_reference(data, momentum_restarts=momentum_restarts, **kw)
        assert momentum_restarts
        assert got.value == want.value
        assert got.gap_flag == want.gap_flag
        assert got.bracketed_zero == want.bracketed_zero
        np.testing.assert_array_equal(got.minimizer, want.minimizer)
        assert len(counts["got"]) == len(counts["want"]) > 10
        if case in SEARCH_CASES:
            del counts["want"][:]
            _infimum_stat_reference(data, rejoin=False, **kw)
            assert len(counts["got"]) < len(counts["want"])

    def test_start_ends_on_an_upward_bracket(self, monkeypatch):
        # With sum(y^2) < n_hat sigma^2 the zero start has g < 0, so a later
        # start whose point has g > 0 brackets zero before its first step.
        # The search ends that start there: the same result as the reference,
        # which stops a start only on a downward crossing, with fewer
        # projections.
        M = make_low_rank(10, 10, 2, a=1.0, seed=100)
        data = sample_bernoulli(M, 60, noise=RADEMACHER, seed=200)
        kw = dict(k0=1, a=5.0, sigma=1.0, restarts=8, seed=300)
        y = data.values[data.mask]
        assert np.sum(y * y) < data.n_hat * kw["sigma"] ** 2
        counts = _count_truncations(monkeypatch)
        got = infimum_stat(data, **kw)
        want = _infimum_stat_reference(data, **kw)
        assert got.value == want.value == 0.0
        assert got.bracketed_zero and want.bracketed_zero
        assert got.gap_flag == want.gap_flag
        assert len(counts["got"]) < len(counts["want"])

    def test_spectral_fit_waits_for_its_start(self, monkeypatch):
        # The zero start brackets zero on nearly every power-small null
        # dataset; the search then returns without building the spectral fit.
        def unreachable(*args, **kwargs):
            raise AssertionError("the spectral fit was built for a bracketed search")

        cfg = ExperimentConfig(kind="test_power", model="bernoulli", m1=20, m2=20, n=300,
                               k0=1, a=30.0, noise=RADEMACHER, separation_grid=(0.0, 25.0),
                               restarts=8, reps=30, seed=8)
        data = sample_bernoulli(_power_truth(cfg, 0.0, 0), cfg.n, noise=RADEMACHER,
                                seed=child_seed(cfg.seed, 11, 0))
        kw = dict(k0=1, a=30.0, sigma=0.5, restarts=8, seed=child_seed(cfg.seed, 12, 0))
        want = infimum_stat(data, **kw)
        monkeypatch.setattr(bernoulli_uq, "soft_threshold_estimator", unreachable)
        got = infimum_stat(data, **kw)
        assert got.bracketed_zero and got.value == want.value == 0.0
        np.testing.assert_array_equal(got.minimizer, want.minimizer)

    def test_search_ends_on_a_bracket_inside_the_noise_floor(self, monkeypatch):
        # sigma is set so that the zero start's first step lands a few ulps
        # below zero, inside the noise floor, while g(0) is far above it.
        # That bracket already makes the statistic 0, so the search ends
        # there without fitting the spectral start.
        M = make_low_rank(12, 12, 1, a=1.0, seed=40)
        data = sample_bernoulli(M, 80, noise=RADEMACHER, seed=41)
        y = data.values[data.mask]
        first = bernoulli_uq._project(np.where(data.mask, data.values, 0.0), 1, 1.0)
        r = y - first[data.mask]
        rss = float(np.add.reduce(r * r))
        sigma = math.sqrt(rss / data.n_hat)
        while rss - sigma * sigma * data.n_hat >= 0.0:
            sigma = np.nextafter(sigma, math.inf)
        g_floor = 64.0 * np.finfo(float).eps * (float(np.sum(y * y)) + sigma * sigma * data.n_hat)
        assert -g_floor < rss - sigma * sigma * data.n_hat < 0.0
        assert float(np.sum(y * y)) - sigma * sigma * data.n_hat > g_floor

        def unreachable(*args, **kwargs):
            raise AssertionError("the spectral fit was built after a bracket")

        monkeypatch.setattr(bernoulli_uq, "soft_threshold_estimator", unreachable)
        res = infimum_stat(data, 1, a=1.0, sigma=float(sigma), restarts=4, seed=42)
        assert res.bracketed_zero and res.value == 0.0

    def test_power_small_starts_end_on_rejoining_a_stalled_basin(self, monkeypatch):
        # Every start of a separated power-small search runs into the same
        # basin, so the later ones end on rejoining it: fewer projections than
        # the search without that rule, the same decision (the calibrated
        # threshold under rademacher noise with sigma = U is 0) and the same
        # statistic up to rounding.
        counts = _count_truncations(monkeypatch)
        for idx in range(30, 33):  # the first separated replicates
            data, kw = _power_small_h1(idx)
            del counts["got"][:], counts["want"][:]
            got = infimum_stat(data, **kw)
            want = _infimum_stat_reference(data, rejoin=False, **kw)
            assert len(counts["got"]) < len(counts["want"])
            assert want.value > 0.0 and got.value > 0.0
            assert got.value == pytest.approx(want.value, rel=1e-8, abs=0.0)
            assert got.gap_flag == want.gap_flag

    def test_rejoin_ball_is_a_point_where_g_is_zero(self):
        # At sigma = 0 a rank-1 fit through two observed entries stalls at
        # g_S = 0 with r_S = 0.  The radius was 0/0 there, and `uq run` of
        # such a test_power config (6x5, n = 2, truncated-Gaussian noise at
        # sigma 0, seed 1), which `uq validate` accepts, ended in a traceback.
        assert bernoulli_uq._rejoin_radius_sq(0.0, 0.0) == 0.0
        assert bernoulli_uq._rejoin_radius_sq(0.0, 0.25) == 0.0
        assert bernoulli_uq._rejoin_radius_sq(-0.5, 0.0) > 0.0

    @pytest.mark.parametrize("case", ["power-small-h1", "lbdemo-h1-96"])
    def test_rejoin_ball_keeps_the_sign_of_g(self, case):
        # Inside the ball of radius d_S around a stall point S, the centered
        # sum stays within |g_S|/2 of g_S, so no candidate there can bracket
        # zero.  The bound is tight along the observed residual: the point
        # S - d_S R/|R|_F reaches g_S + |g_S|/2.
        data, kw = _power_small_h1(30) if case == "power-small-h1" else _search_case(case)
        stall_points = []
        _infimum_stat_reference(data, stall_points=stall_points, **kw)
        assert stall_points
        sig_sq_hat = kw["sigma"] ** 2 * data.n_hat
        rng = np.random.default_rng(5)
        for S, g_S in stall_points:
            assert centered_residual_sum(data, S, kw["sigma"]) == pytest.approx(g_S, rel=1e-12)
            d_S = math.sqrt(bernoulli_uq._rejoin_radius_sq(g_S, sig_sq_hat))
            assert d_S > 0.0
            R = np.where(data.mask, data.values - S, 0.0)
            directions = [-R] + [rng.standard_normal(S.shape) for _ in range(200)]
            for i, D in enumerate(directions):
                length = d_S if i < 101 else d_S * rng.uniform()  # on the sphere, then inside
                A = S + (length / np.linalg.norm(D)) * D
                shift = centered_residual_sum(data, A, kw["sigma"]) - g_S
                assert abs(shift) <= abs(g_S) / 2.0 * (1.0 + 1e-9)
                if i == 0:
                    assert shift == pytest.approx(abs(g_S) / 2.0, rel=1e-6)

    @pytest.mark.parametrize("case", [*SEARCH_CASES, "lbdemo-h1-96"])
    def test_every_step_candidate_lies_in_the_class(self, case, monkeypatch):
        # The momentum extrapolation leaves the class; only its projection
        # may be scored, so the statistic stays an attained upper bound.
        data, kw = _search_case(case)
        candidates = []
        project = bernoulli_uq._project

        def recording(X, k0, a):
            T = project(X, k0, a)
            candidates.append(T)
            return T

        monkeypatch.setattr(bernoulli_uq, "_project", recording)
        res = infimum_stat(data, **kw)
        assert len(candidates) > 10
        for T in candidates:
            assert core.numerical_rank(T) <= kw["k0"]
            assert np.max(np.abs(T)) <= kw["a"]
        assert any(np.array_equal(res.minimizer, c * T)
                   for T in candidates for c in (1.0, -1.0, -0.5, 0.5))

    @pytest.mark.parametrize("max_iter", [1, 4, 6])
    def test_max_iter_bounds_projections_per_start(self, max_iter, monkeypatch):
        # A restart's plain step counts toward max_iter, so no start makes
        # more projections than the plain-step search could.
        data, kw = _search_case("signal-k0=1-20x20")
        calls = []
        project = bernoulli_uq._project

        def counting(X, k0, a):
            calls.append(k0)
            return project(X, k0, a)

        monkeypatch.setattr(bernoulli_uq, "_project", counting)
        infimum_stat(data, **dict(kw, max_iter=max_iter))
        starts = 2 + kw["restarts"]
        assert len(calls) <= 1 + starts * max_iter  # +1: projecting the center

    @pytest.mark.parametrize("case", [*SEARCH_CASES, "lbdemo-h1-96"])
    def test_given_center_is_the_spectral_start(self, case):
        # adaptive_ci hands its center to the search, which would otherwise
        # fit the same matrix again for its spectral start.
        data, kw = _search_case(case)
        center = clip_entries(soft_threshold_estimator(data, lambda_data_driven(data)), kw["a"])
        got = infimum_stat(data, center=center, **kw)
        want = infimum_stat(data, **kw)
        assert got.value == want.value
        assert got.gap_flag == want.gap_flag
        assert got.bracketed_zero == want.bracketed_zero
        np.testing.assert_array_equal(got.minimizer, want.minimizer)

    def test_invalid_k0(self):
        data = sample_bernoulli(np.zeros((4, 4)), 8, noise=RADEMACHER, seed=20)
        with pytest.raises(DomainError):
            infimum_stat(data, 4, a=1.0, sigma=0.5)

    def test_overflowing_squared_sums_fail_closed(self):
        # Entries of 1e300 once overflowed the zero-level floor to inf, and
        # the statistic snapped to 0 with only a RuntimeWarning; a huge box
        # overflows the residual sums of the random starts the same way.
        huge = sample_bernoulli(make_low_rank(4, 4, 1, a=1e300, seed=21), 8, noise=RADEMACHER,
                                seed=22)
        small = sample_bernoulli(np.zeros((4, 4)), 8, noise=RADEMACHER, seed=23)
        for data, a in ((huge, 1e300), (small, 1e300)):
            with pytest.raises(DomainError, match="^squared residual sums overflow at a=1e[+]300"):
                infimum_stat(data, 1, a=a, sigma=0.5)


class TestThresholds:
    def test_theoretical_reference(self):
        assert u_alpha_theoretical(0.05, sigma=1.0, U=2.0) == pytest.approx(math.sqrt(90),
                                                                            rel=1e-12)

    def test_theoretical_degenerate(self):
        assert u_alpha_theoretical(0.3, sigma=1.0, U=1.0) == 0.0

    def test_theoretical_alpha_scaling(self):
        assert u_alpha_theoretical(0.05, sigma=1.0, U=2.0) == pytest.approx(
            u_alpha_theoretical(0.1, sigma=1.0, U=2.0) * math.sqrt(2), rel=1e-12)

    def test_calibrated_rademacher_is_zero(self):
        thr = u_alpha_calibrated(0.1, (10, 10), 50, noise=RADEMACHER, reps=150, seed=0)
        assert thr == 0.0

    def test_calibrated_below_theoretical(self):
        noise = NoiseSpec("scaled-rademacher", 0.5, 1.0)
        cal = u_alpha_calibrated(0.1, (10, 10), 50, noise=noise, reps=300, seed=1)
        assert cal <= u_alpha_theoretical(0.1, sigma=0.5, U=1.0)

    def test_calibrated_stability_in_reps(self):
        noise = NoiseSpec("uniform", 0.5, 1.0)
        a = u_alpha_calibrated(0.1, (12, 12), 72, noise=noise, reps=2000, seed=2)
        b = u_alpha_calibrated(0.1, (12, 12), 72, noise=noise, reps=4000, seed=3)
        assert abs(a - b) / a < 0.05

    def test_calibrated_needs_enough_reps(self):
        with pytest.raises(DomainError):
            u_alpha_calibrated(0.1, (5, 5), 10, noise=RADEMACHER, reps=50)


class TestLowRankTest:
    def test_accepts_noiseless_truth_in_class(self):
        M = make_low_rank(8, 8, 1, a=1.0, seed=21)
        noise0 = NoiseSpec("scaled-rademacher", 0.0, 1.0)
        data = sample_bernoulli(M, 40, noise=noise0, seed=22)
        threshold = u_alpha_calibrated(0.1, (8, 8), 40, noise=noise0, reps=100, seed=23)
        verdict = low_rank_test(data, 1, a=1.0, sigma=0.0, threshold=threshold, seed=23)
        assert not verdict.reject

    def test_reject_iff_statistic_exceeds_threshold(self):
        M = make_low_rank(6, 6, 1, a=1.0, seed=24)
        data = sample_bernoulli(M, 24, noise=RADEMACHER, seed=25)
        verdict = low_rank_test(data, 1, a=1.0, sigma=0.5, threshold=0.0, seed=26)
        assert verdict.reject == (verdict.statistic > verdict.threshold)


class TestAdaptiveCi:
    def test_two_valued_radius(self):
        d = 40
        n = 300
        small = ADAPTIVE_K ** 2 * 1 * d / n
        large = ADAPTIVE_K ** 2 * 3 * d / n
        M = make_low_rank(20, 20, 1, a=1.0, seed=30)
        data = sample_bernoulli(M, n, noise=RADEMACHER, seed=31)
        ball = adaptive_ci(data, 1, 3, a=1.0, sigma=0.5, threshold=0.0, seed=32)
        assert ball.radius_sq in (pytest.approx(small), pytest.approx(large))

    def test_radius_reads_adaptive_k_at_each_call(self, monkeypatch):
        M = make_low_rank(20, 20, 1, a=1.0, seed=30)
        data = sample_bernoulli(M, 300, noise=RADEMACHER, seed=31)
        ball = adaptive_ci(data, 1, 3, a=1.0, sigma=0.5, threshold=0.0, seed=32)
        monkeypatch.setattr(bernoulli_uq, "ADAPTIVE_K", 0.5)
        small = adaptive_ci(data, 1, 3, a=1.0, sigma=0.5, threshold=0.0, seed=32)
        assert small.reject == ball.reject
        assert small.radius_sq == pytest.approx(ball.radius_sq * (0.5 / ADAPTIVE_K) ** 2)

    def test_reject_gives_larger_radius(self):
        M = make_low_rank(20, 20, 1, a=1.0, seed=33)
        data = sample_bernoulli(M, 300, noise=RADEMACHER, seed=34)
        accept_ball = adaptive_ci(data, 1, 3, a=1.0, sigma=0.5, threshold=math.inf, seed=35)
        reject_ball = adaptive_ci(data, 1, 3, a=1.0, sigma=0.5, threshold=-1.0, seed=35)
        assert reject_ball.radius_sq > accept_ball.radius_sq

    def test_center_respects_entry_bound(self):
        M = make_low_rank(10, 10, 1, a=1.0, seed=36)
        data = sample_bernoulli(M, 60, noise=RADEMACHER, seed=37)
        ball = adaptive_ci(data, 1, 2, a=0.3, sigma=0.5, threshold=0.0, seed=38)
        assert np.max(np.abs(ball.center)) <= 0.3 + 1e-12

    def test_one_center_fit_per_call(self, monkeypatch):
        fits = []

        def counting(data, lam):
            fits.append(lam)
            return soft_threshold_estimator(data, lam)

        monkeypatch.setattr(bernoulli_uq, "soft_threshold_estimator", counting)
        M = make_low_rank(20, 20, 3, a=3.0, seed=41)
        data = sample_bernoulli(M, 300, noise=RADEMACHER, seed=42)
        adaptive_ci(data, 1, 3, a=3.0, sigma=0.5, threshold=0.0, seed=43)
        assert fits == [lambda_data_driven(data)]

    def test_requires_k0_below_k(self):
        M = make_low_rank(6, 6, 1, a=1.0, seed=39)
        data = sample_bernoulli(M, 18, noise=RADEMACHER, seed=40)
        with pytest.raises(DomainError):
            adaptive_ci(data, 2, 2, a=1.0, sigma=0.5, threshold=0.0)


class TestWeakRipSanity:
    def test_masked_energy_keeps_half(self):
        # For random class members at the relevant distance scale, the
        # masked squared distance retains at least half the Bernoulli-
        # weighted energy in practically every draw.
        m, n, k0 = 20, 200, 1
        p = n / (m * m)
        M = make_low_rank(m, m, 3, a=1.0, seed=41)
        hits = 0
        reps = 500
        for r in range(reps):
            A = make_low_rank(m, m, k0, a=1.0, seed=child_seed(42, r))
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
                thr = u_alpha_calibrated(alpha, (m, m), n, noise=noise,
                                         reps=200, seed=child_seed(50, k0))
                rejections = 0
                for r in range(reps):
                    M = make_low_rank(m, m, k0, a=a, seed=child_seed(51, k0, r))
                    data = sample_bernoulli(M, n, noise=noise, seed=child_seed(52, k0, r))
                    verdict = low_rank_test(data, k0, a=a, sigma=sigma, threshold=thr,
                                            seed=child_seed(53, k0, r))
                    rejections += verdict.reject
                assert rejections / reps <= cap, (k0, sigma)
