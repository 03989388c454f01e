import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from mcuq import core
from mcuq.bernoulli_uq import _project
from mcuq.core import (DimensionError, DomainError, NoiseSpec, clip_entries,
                       gram_eigh, gram_eigvals, minimax_rate_sq, numerical_rank,
                       singular_value_threshold, svd_deterministic,
                       truncate_rank)
from mcuq.estimate import estimator_risk

EPS = np.finfo(float).eps


def random_matrix(m1, m2, seed, rank=None):
    rng = np.random.default_rng(seed)
    if rank is None:
        return rng.standard_normal((m1, m2))
    return rng.standard_normal((m1, rank)) @ rng.standard_normal((m2, rank)).T


def _svd_deterministic_loop(A):
    """Reference for svd_deterministic: the per-column sign fix it vectorises."""
    u, s, vt = np.linalg.svd(np.asarray(A, dtype=float), full_matrices=False)
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
            vt[j, :] = -vt[j, :]
    return u, s, vt


def assert_bits_equal(got, want):
    """Equal bit patterns, so signed zeros must match too."""
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(want).view(np.uint64))


def singular_values_via_gram(A):
    # Independent route: eigenvalues of A^T A instead of an SVD.
    evals = np.linalg.eigvalsh(A.T @ A)
    return np.sqrt(np.clip(evals, 0.0, None))[::-1]


def frobenius_sq_dist(A, B):
    """Squared Frobenius distance through the library's normalised risk."""
    A = np.asarray(A, dtype=float)
    return estimator_risk(A, B) * A.size


def rank_class_dist(A, k):
    """Frobenius distance from ``A`` to its best rank-``k`` approximation.

    This is the distance to the class {rank <= k, |entries| <= a} whenever
    the truncation already lies inside the entry box (Eckart-Young).
    """
    return float(np.sqrt(frobenius_sq_dist(A, truncate_rank(A, k))))


def in_rank_class(A, a, k):
    return np.max(np.abs(A)) <= a and numerical_rank(A) <= k


class TestFrobeniusSqDist:
    def test_identity_is_zero(self):
        A = random_matrix(4, 3, 0)
        assert frobenius_sq_dist(A, A) == 0.0

    def test_ones_vs_zeros(self):
        assert frobenius_sq_dist(np.ones((2, 2)), np.zeros((2, 2))) == 4.0

    def test_matches_singular_value_route(self):
        A = random_matrix(5, 5, 1)
        B = random_matrix(5, 5, 2)
        via_entries = frobenius_sq_dist(A, B)
        via_svd = float(np.sum(singular_values_via_gram(A - B) ** 2))
        assert via_entries == pytest.approx(via_svd, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            frobenius_sq_dist(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_rejects_nan(self):
        A = np.zeros((2, 2))
        A[0, 0] = np.nan
        with pytest.raises(DomainError):
            frobenius_sq_dist(A, np.zeros((2, 2)))


class TestTruncateRank:
    def test_full_rank_kept(self):
        A = random_matrix(4, 6, 3)
        np.testing.assert_allclose(truncate_rank(A, 4), A, atol=1e-12)

    def test_rank_one_fixed_point(self):
        rng = np.random.default_rng(4)
        A = np.outer(rng.standard_normal(5), rng.standard_normal(4))
        np.testing.assert_allclose(truncate_rank(A, 1), A, atol=1e-12)

    def test_diagonal_eckart_young(self):
        A = np.diag([3.0, 1.0])
        np.testing.assert_allclose(truncate_rank(A, 1), np.diag([3.0, 0.0]), atol=1e-12)

    def test_k_zero_gives_zero_matrix(self):
        A = random_matrix(3, 3, 5)
        assert np.all(truncate_rank(A, 0) == 0.0)

    def test_out_of_range_k(self):
        A = random_matrix(3, 4, 6)
        with pytest.raises(DomainError):
            truncate_rank(A, 4)
        with pytest.raises(DomainError):
            truncate_rank(A, -1)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_eckart_young_error(self, k):
        A = random_matrix(6, 7, k + 10)
        err = float(np.sum((A - truncate_rank(A, k)) ** 2))
        tail = float(np.sum(singular_values_via_gram(A)[k:] ** 2))
        assert err == pytest.approx(tail, rel=1e-9, abs=1e-12)

    # Between 0 and min(m1, m2) the finiteness check reads the trace of the
    # Gram matrix rather than every entry.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("shape", [(5, 3), (3, 5)], ids=["tall", "wide"])
    def test_rejects_non_finite_entry(self, bad, shape):
        for k in (0, 1, min(shape)):
            for where in ((0, 0), (shape[0] - 1, shape[1] - 1)):
                A = random_matrix(*shape, 7)
                A[where] = bad
                with pytest.raises(DomainError):
                    truncate_rank(A, k)

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5)], ids=["tall", "wide"])
    def test_rejects_gram_overflow(self, shape):
        # Finite entries whose squares overflow: the Gram matrix is not finite.
        A = random_matrix(*shape, 8)
        A[1, 1] = 1e200
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="overflows"):
            truncate_rank(A, 1)

    @pytest.mark.parametrize("A", [np.zeros((0, 3)), np.zeros((3, 0)), np.ones(4)],
                             ids=["no-rows", "no-columns", "1-d"])
    def test_rejects_bad_shape(self, A):
        with pytest.raises(DimensionError):
            truncate_rank(A, 0)

    def test_accepts_lists_and_integers(self):
        ints = np.arange(12).reshape(4, 3) % 5
        want = truncate_rank(ints.astype(float), 1)
        assert_bits_equal(truncate_rank(ints, 1), want)
        assert_bits_equal(truncate_rank(ints.tolist(), 1), want)
        np.testing.assert_array_equal(truncate_rank(ints.tolist(), 3), ints)

    @pytest.mark.parametrize("shape", [(9, 4), (4, 9), (20, 20)], ids=["tall", "wide", "square"])
    def test_bitwise_the_gram_projection(self, shape):
        # Skipping as_matrix changes no floating-point operation of the
        # projection onto gram_eigh's top-k eigenvectors.
        A = random_matrix(*shape, 9)
        for k in (1, 2):
            V = gram_eigh(A, k=k)[1]
            want = (A @ V) @ V.T if shape[0] >= shape[1] else V @ (V.T @ A)
            assert_bits_equal(truncate_rank(A, k), want)


class TestClipEntries:
    def test_inactive_inside_box(self):
        A = np.array([[0.5, -0.9], [0.0, 0.3]])
        np.testing.assert_array_equal(clip_entries(A, 1.0), A)

    def test_clips_above(self):
        assert clip_entries(np.array([[2.0]]), 1.0)[0, 0] == 1.0

    def test_clips_below(self):
        assert clip_entries(np.array([[-3.0]]), 1.0)[0, 0] == -1.0

    def test_invalid_bound(self):
        with pytest.raises(DomainError):
            clip_entries(np.zeros((2, 2)), 0.0)

    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=4),
           st.floats(0.1, 10))
    def test_idempotent(self, vals, a):
        A = np.array(vals).reshape(2, 2)
        once = clip_entries(A, a)
        np.testing.assert_array_equal(clip_entries(once, a), once)

    @given(st.lists(st.floats(-50, 50), min_size=4, max_size=4),
           st.lists(st.floats(-50, 50), min_size=4, max_size=4))
    def test_lipschitz_entrywise(self, xs, ys):
        X = np.array(xs).reshape(2, 2)
        Y = np.array(ys).reshape(2, 2)
        assert np.all(np.abs(clip_entries(X, 1.0) - clip_entries(Y, 1.0))
                      <= np.abs(X - Y) + 1e-15)


class TestMinimaxRateSq:
    def test_direct_value(self):
        assert minimax_rate_sq(10, 10, 2, 100) == 40.0

    def test_zero_rank(self):
        assert minimax_rate_sq(7, 9, 0, 5) == 0.0

    def test_linear_in_k(self):
        assert minimax_rate_sq(6, 8, 4, 50) == 2 * minimax_rate_sq(6, 8, 2, 50)

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 10),
           st.integers(1, 1000))
    def test_monotonicity(self, m1, m2, k, n):
        base = minimax_rate_sq(m1, m2, k, n)
        assert minimax_rate_sq(m1 + 1, m2, k, n) >= base
        assert minimax_rate_sq(m1, m2 + 1, k, n) >= base
        assert minimax_rate_sq(m1, m2, k + 1, n) >= base
        assert minimax_rate_sq(m1, m2, k, n + 1) <= base

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            minimax_rate_sq(3, 3, 1, 0)


class TestDistToRankClass:
    def test_member_has_zero_distance(self):
        A = random_matrix(5, 5, 11, rank=2)
        A = A / np.max(np.abs(A))
        assert rank_class_dist(A, 2) < 1e-8
        assert in_rank_class(A, 1.0, 2)

    def test_diagonal_case(self):
        A = np.diag([3.0, 1.0])
        t = truncate_rank(A, 1)
        assert np.max(np.abs(t)) <= 3.0
        assert rank_class_dist(A, 1) == pytest.approx(1.0, abs=1e-10)

    def test_matches_truncated_svd_when_clipping_inactive(self):
        A = random_matrix(6, 6, 12, rank=3)
        A = A / (2.0 * np.max(np.abs(A)))  # entries well inside the box
        t = truncate_rank(A, 1)
        assert np.array_equal(clip_entries(t, 1.0), t)
        sv = singular_values_via_gram(A)
        expected = float(np.sqrt(np.sum(sv[1:] ** 2)))
        assert rank_class_dist(A, 1) == pytest.approx(expected, abs=1e-9)

    def test_zero_distance_iff_member(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            A = rng.standard_normal((4, 5))
            if trial % 2:
                A = truncate_rank(A, 2)
                A = A / np.max(np.abs(A))
            d = rank_class_dist(A, 2)
            assert (d < 1e-8) == in_rank_class(A, 1.0, 2)


class TestSvdDeterministic:
    def test_reconstruction(self):
        A = random_matrix(5, 3, 20)
        u, s, vt = svd_deterministic(A)
        np.testing.assert_allclose((u * s) @ vt, A, atol=1e-12)

    def test_sign_convention(self):
        A = random_matrix(6, 6, 21)
        u, s, vt = svd_deterministic(A)
        for j in range(u.shape[1]):
            i = int(np.argmax(np.abs(u[:, j])))
            assert u[i, j] >= 0

    def test_repeatable(self):
        A = random_matrix(4, 4, 22)
        u1, s1, v1 = svd_deterministic(A)
        u2, s2, v2 = svd_deterministic(A.copy())
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(v1, v2)


def _with_zero_column(seed):
    A = random_matrix(6, 5, seed, rank=2)
    A[:, 3] = 0.0
    return A


REFERENCE_CASES = {
    "tall": lambda: random_matrix(9, 4, 23),
    "wide": lambda: random_matrix(4, 9, 24),
    "square": lambda: random_matrix(7, 7, 25),
    "zero_column": lambda: _with_zero_column(26),
    "signed_permutation": lambda: np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 2.0], [-3.0, 0.0, 0.0]]),
    "identity": lambda: np.eye(5),
    "tied_rank_one": lambda: np.outer([1.0, -1.0, 1.0, -1.0], [1.0, 2.0]),
    "ones": lambda: np.ones((3, 3)),
}


class TestSvdDeterministicMatchesLoop:
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_bitwise_equal(self, case):
        A = REFERENCE_CASES[case]()
        for got, want in zip(svd_deterministic(A), _svd_deterministic_loop(A)):
            assert_bits_equal(got, want)

    def test_tie_goes_to_first_maximum(self, monkeypatch):
        # Factors with exact ties in |u|, so the result does not depend on
        # whether LAPACK happens to produce one.
        u = np.array([[-0.5, 0.5, 0.0],
                      [0.5, -0.5, -0.5],
                      [-0.5, 0.5, 0.5],
                      [0.5, -0.5, 0.0]])
        s = np.array([3.0, 2.0, 1.0])
        vt = np.arange(9.0).reshape(3, 3) - 4.0
        monkeypatch.setattr(np.linalg, "svd",
                            lambda A, full_matrices=True: (u.copy(), s.copy(), vt.copy()))
        got = svd_deterministic(np.zeros((4, 3)))
        want = _svd_deterministic_loop(np.zeros((4, 3)))
        for g, w in zip(got, want):
            assert_bits_equal(g, w)
        np.testing.assert_array_equal(np.sign(got[0][0]), [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(got[2][0], -vt[0])

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_truncate_rank_matches_signed_product(self, case):
        # truncate_rank goes through the Gram eigenpairs, so it matches the
        # full-SVD product only as far as the spectral gap s_k^2 - s_{k+1}^2
        # pins the top-k subspace.  On a tie (identity, the zero singular
        # values of zero_column and ones) any top-k subspace is a best
        # approximation, so only the properties every choice shares are
        # checked there.
        A = REFERENCE_CASES[case]()
        u, s, vt = _svd_deterministic_loop(A)
        scale = s[0] ** 2
        for k in sorted({1, min(A.shape) - 1} - {0}):
            got = truncate_rank(A, k)
            assert numerical_rank(got) <= k
            assert float(np.sum((A - got) ** 2)) == pytest.approx(
                float(np.sum(s[k:] ** 2)), abs=64 * EPS * scale)
            a = 0.5 * np.max(np.abs(A))
            projected = _project(A, k, a)
            assert np.max(np.abs(projected)) <= a * (1 + 4 * EPS)  # rescaling rounds
            assert numerical_rank(projected) <= k
            gap = s[k - 1] ** 2 - s[k] ** 2
            if gap > 1e-8 * scale:
                want = (u[:, :k] * s[:k]) @ vt[:k, :]
                tol = 64 * EPS * s[0] * (1.0 + scale / gap)
                np.testing.assert_allclose(got, want, rtol=0, atol=tol)


class TestGramEigh:
    @pytest.mark.parametrize("shape", [(9, 4), (4, 9), (7, 7)], ids=["tall", "wide", "square"])
    def test_top_k_are_top_singular_pairs(self, shape):
        A = random_matrix(*shape, 40)
        u, s, vt = np.linalg.svd(A, full_matrices=False)
        side = vt.T if shape[0] >= shape[1] else u
        for k in (1, min(shape) - 1):
            w, V = gram_eigh(A, k=k)
            assert w.shape == (k,) and V.shape == (min(shape), k)
            np.testing.assert_allclose(np.sqrt(w[::-1]), s[:k], rtol=1e-12)
            # Each eigenvector is a singular vector up to sign.
            overlap = np.abs(np.sum(V[:, ::-1] * side[:, :k], axis=0))
            np.testing.assert_allclose(overlap, 1.0, atol=1e-12)

    # At 96 and above, LAPACK's default workspace gives other bits than the
    # queried one that scipy uses.
    @pytest.mark.parametrize("shape", [(9, 4), (4, 9), (20, 20), (30, 30), (96, 96)],
                             ids=["tall", "wide", "20", "30", "96"])
    def test_bitwise_equal_to_scipy_evr(self, shape):
        A = random_matrix(*shape, 41)
        G = A.T @ A if shape[0] >= shape[1] else A @ A.T
        n = G.shape[0]
        above = float(np.median(np.linalg.eigvalsh(G)))
        for got, want in zip(gram_eigh(A, above=above),
                             scipy.linalg.eigh(G, subset_by_value=(above, np.inf),
                                               driver="evr")):
            assert_bits_equal(got, want)
        for got, want in zip(gram_eigh(A, k=2),
                             scipy.linalg.eigh(G, subset_by_index=(n - 2, n - 1),
                                               driver="evr")):
            assert_bits_equal(got, want)

    @pytest.mark.parametrize("shape", [(9, 4), (4, 9), (96, 96)], ids=["tall", "wide", "96"])
    def test_eigvals_are_the_whole_gram_spectrum(self, shape):
        A = random_matrix(*shape, 47)
        w = gram_eigvals(A)
        s = np.linalg.svd(A, compute_uv=False)
        assert w.shape == (min(shape),) and np.all(np.diff(w) >= 0)
        np.testing.assert_allclose(w, s[::-1] ** 2, rtol=0, atol=64 * EPS * s[0] ** 2)
        # The top values agree with the subset solve to rounding.
        np.testing.assert_allclose(w[-2:], gram_eigh(A, k=2)[0], rtol=0,
                                   atol=64 * EPS * s[0] ** 2)

    def test_nothing_above_threshold(self):
        w, V = gram_eigh(random_matrix(5, 3, 42), above=1e6)
        assert w.shape == (0,) and V.shape == (3, 0)

    def test_lapack_failure_raises(self, monkeypatch):
        def failing(G, **kwargs):
            n = G.shape[0]
            return np.zeros(n), np.zeros((n, n)), 0, np.zeros(2 * n, dtype=np.int32), 1
        monkeypatch.setattr(core, "dsyevr", failing)
        with pytest.raises(np.linalg.LinAlgError):
            gram_eigh(random_matrix(5, 5, 43), k=1)
        with pytest.raises(np.linalg.LinAlgError):
            truncate_rank(random_matrix(5, 5, 43), 1)
        with pytest.raises(np.linalg.LinAlgError):
            gram_eigvals(random_matrix(5, 5, 43))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
    def test_non_finite_gram_never_reaches_lapack(self, bad, monkeypatch):
        def unreachable(G, **kwargs):
            raise AssertionError("dsyevr called on a non-finite Gram matrix")

        monkeypatch.setattr(core, "dsyevr", unreachable)
        for shape in ((5, 3), (3, 5)):
            A = random_matrix(*shape, 46)
            A[2, 1] = bad
            for selector in (dict(k=1), dict(above=0.5)):
                with np.errstate(over="ignore"), pytest.raises(DomainError):
                    gram_eigh(A, **selector)
            with np.errstate(over="ignore"), pytest.raises(DomainError):
                gram_eigvals(A)
        if not np.isfinite(bad):
            # A non-finite threshold made dsyevr return info=-8.
            with pytest.raises(DomainError, match="above must be finite"):
                gram_eigh(random_matrix(5, 3, 46), above=bad)

    def test_needs_exactly_one_selector(self):
        A = random_matrix(4, 4, 44)
        with pytest.raises(DomainError):
            gram_eigh(A)
        with pytest.raises(DomainError):
            gram_eigh(A, k=1, above=0.5)
        with pytest.raises(DomainError):
            gram_eigh(A, k=5)


class TestSingularValueThreshold:
    @pytest.mark.parametrize("shape", [(9, 4), (4, 9), (7, 7)], ids=["tall", "wide", "square"])
    def test_matches_full_svd_shrink(self, shape):
        A = random_matrix(*shape, 45)
        u, s, vt = np.linalg.svd(A, full_matrices=False)
        tau = float(s[1] + s[2]) / 2.0
        B, kept = singular_value_threshold(A, tau)
        np.testing.assert_allclose(kept[::-1], s[s > tau], rtol=1e-12)
        np.testing.assert_allclose(B, (u * np.maximum(s - tau, 0.0)) @ vt, atol=1e-12)

    def test_all_below_threshold_gives_zero(self):
        A = random_matrix(4, 6, 46)
        B, kept = singular_value_threshold(A, 1e3)
        assert kept.size == 0
        assert B.shape == A.shape and np.all(B == 0.0)


class TestNumericalRank:
    def test_exact_low_rank(self):
        assert numerical_rank(random_matrix(6, 6, 30, rank=2)) == 2

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0


class TestSpecs:
    def test_noise_spec_validation(self):
        with pytest.raises(DomainError):
            NoiseSpec("scaled-rademacher", 2.0, 1.0)
        with pytest.raises(DomainError):
            NoiseSpec("salt-and-pepper", 1.0, 1.0)
        spec = NoiseSpec("uniform", 0.5, 1.0)
        assert spec.sigma == 0.5
