"""Ground-truth generation and the two sampling models with bounded noise.

All randomness flows through counter-based ``numpy`` generators seeded from
``SeedSequence(entropy=seed, spawn_key=stream)``, so every dataset is a pure
function of its parameters and seed, and replicate streams never overlap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, NoiseSpec, as_matrix, numerical_rank


class GenerationError(RuntimeError):
    """A random generator kept producing degenerate draws."""


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for the given seed and stream coordinates."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.default_rng(ss)


def child_seed(seed: int, *stream: int) -> int:
    """Derive a stable integer sub-seed for handing to another generator."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    lo, hi = ss.generate_state(2, dtype=np.uint64)
    return (int(hi) << 64) | int(lo)


@dataclass
class TraceDataset:
    """Repeated-entry samples: y[t] observes entry (rows[t], cols[t]).

    Indices are 0-based.  The same position may occur many times; the
    sampling is with replacement across observations.
    """

    m1: int
    m2: int
    rows: np.ndarray
    cols: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return len(self.y)

    def subset(self, start: int, stop: int) -> "TraceDataset":
        return TraceDataset(self.m1, self.m2,
                            self.rows[start:stop].copy(),
                            self.cols[start:stop].copy(),
                            self.y[start:stop].copy())


@dataclass
class BernoulliDataset:
    """One-shot Bernoulli(p) mask with observed values, zero off the mask."""

    mask: np.ndarray
    values: np.ndarray
    p: float
    n: int

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise DomainError(f"sampling probability p must lie in (0, 1], got {self.p}")

    @property
    def m1(self) -> int:
        return self.mask.shape[0]

    @property
    def m2(self) -> int:
        return self.mask.shape[1]

    @property
    def n_hat(self) -> int:
        return int(self.mask.sum())


@functools.lru_cache(maxsize=64)
def _truncated_gaussian_scale(sigma: float, U: float) -> float:
    """Base scale s such that N(0, s^2) conditioned on [-U, U] has variance sigma^2.

    :class:`NoiseSpec` guarantees ``sigma^2 < U^2/3``, the family's variance
    supremum (its uniform limit), with margin.  Memoised per ``(sigma, U)``:
    every draw of a run asks for the same scale.
    """
    # Imported here, not at module level: they cost most of ``import mcuq``
    # in time and memory, and only this noise law needs them.
    from scipy.optimize import brentq
    from scipy.stats import norm

    def trunc_var(s):
        alpha = U / s
        z = 2 * norm.cdf(alpha) - 1
        return s * s * (1 - 2 * alpha * norm.pdf(alpha) / z)

    lo = sigma
    hi = sigma
    while trunc_var(hi) < sigma ** 2:
        hi *= 2.0
        if hi > 1e6 * U:
            raise DomainError("failed to bracket the truncated Gaussian scale")
    if trunc_var(lo) >= sigma ** 2:
        return lo
    return brentq(lambda s: trunc_var(s) - sigma ** 2, lo, hi, xtol=1e-14, rtol=1e-14)


def preload_noise(noise: NoiseSpec) -> None:
    """Do the one-off work of sampling from ``noise`` now.

    For truncated-Gaussian noise this loads the solver its scale needs and
    memoises the scale, so the workers of a pool forked afterwards inherit
    both instead of each paying for them.
    """
    if noise.kind == "truncated-gaussian" and noise.sigma > 0:
        _truncated_gaussian_scale(noise.sigma, noise.U)


def _noise_for_entries(noise: NoiseSpec, m_values: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """One independent noise draw per entry of ``m_values``, with mean 0,
    variance sigma^2 and |draw| <= U.  Only two-point noise reads the entry
    values: at entry value ``mu`` it is ``1 - mu`` with probability
    ``(1 + mu)/2``, else ``-1 - mu``, with variance ``1 - mu**2``, which must
    equal ``sigma**2``; the other laws draw i.i.d."""
    count = m_values.size
    if noise.kind == "scaled-rademacher":
        signs = rng.integers(0, 2, size=count) * 2 - 1
        return noise.sigma * signs

    if noise.kind == "uniform":
        half = math.sqrt(3.0) * noise.sigma  # NoiseSpec guarantees half <= U
        return rng.uniform(-half, half, size=count)

    if noise.kind == "truncated-gaussian":
        if noise.sigma == 0.0:
            return np.zeros(count)
        s = _truncated_gaussian_scale(noise.sigma, noise.U)
        out = np.empty(0)
        while out.size < count:
            need = count - out.size
            cand = rng.normal(0.0, s, size=int(need * 1.3) + 16)
            out = np.concatenate([out, cand[np.abs(cand) <= noise.U]])
        return out[:count]

    mus = m_values.ravel()  # two-point-skewed, the last of NOISE_KINDS
    if np.any(np.abs((1.0 - mus * mus) - noise.sigma ** 2) > 1e-9):
        raise DomainError("two-point noise requires entries with 1 - M_ij^2 == sigma^2")
    plus = rng.random(count) < (1.0 + mus) / 2.0
    return np.where(plus, 1.0 - mus, -1.0 - mus)


def make_low_rank(m1: int, m2: int, k: int, a: float, seed: int) -> np.ndarray:
    """Random rank-``k`` matrix with largest absolute entry exactly ``a``.

    Built as L @ R.T with i.i.d. standard normal factors, rescaled so the
    max-magnitude entry equals ``a``; degenerate draws are regenerated.
    The rank is checked on the k x k core ``R_L @ R_R.T`` of the factors'
    QR decompositions, which has the singular values of ``L @ R.T``.
    """
    if not 1 <= k <= min(m1, m2):
        raise DomainError(f"k must lie in [1, {min(m1, m2)}], got {k}")
    if a <= 0:
        raise DomainError(f"entry bound a must be positive, got {a}")
    rng = rng_for(seed)
    for _ in range(10):
        L = rng.standard_normal((m1, k))
        R = rng.standard_normal((m2, k))
        M = L @ R.T
        idx = int(np.argmax(np.abs(M)))
        mx = abs(M.flat[idx])
        if mx == 0.0:
            continue
        sign = 1.0 if M.flat[idx] > 0 else -1.0
        M = M * (a / mx)
        M.flat[idx] = sign * a
        if numerical_rank(np.linalg.qr(L, mode="r") @ np.linalg.qr(R, mode="r").T) == k:
            return M
    raise GenerationError(f"no non-degenerate rank-{k} draw in 10 attempts")


def sample_trace(M: np.ndarray, n: int, noise: NoiseSpec, seed: int) -> TraceDataset:
    """Uniform-position samples with replacement: y = M_ij + eps."""
    M = as_matrix(M)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    m1, m2 = M.shape
    rng = rng_for(seed)
    pos = rng.integers(0, m1 * m2, size=n)
    rows, cols = np.divmod(pos, m2)
    values = M[rows, cols]
    eps = _noise_for_entries(noise, values, rng)
    return TraceDataset(m1, m2, rows, cols, values + eps)


def sample_bernoulli(M: np.ndarray, n: int, noise: NoiseSpec, seed: int) -> BernoulliDataset:
    """Observe each entry once with probability p = n/(m1*m2)."""
    M = as_matrix(M)
    m1, m2 = M.shape
    if not 1 <= n <= m1 * m2:
        raise DomainError(f"n must lie in [1, {m1 * m2}], got {n}")
    p = n / (m1 * m2)
    rng = rng_for(seed)
    mask = rng.random((m1, m2)) < p
    eps = _noise_for_entries(noise, M, rng).reshape(m1, m2)
    values = np.where(mask, M + eps, 0.0)
    return BernoulliDataset(mask, values, p, n)
