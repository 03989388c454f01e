"""Ground-truth generation and the two sampling models with bounded noise.

All randomness flows through counter-based ``numpy`` generators seeded from
``SeedSequence(entropy=seed, spawn_key=stream)``, so every dataset is a pure
function of its parameters and seed, and replicate streams never overlap.
"""

from __future__ import annotations

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
    """One-shot Bernoulli(n/(m1*m2)) mask with observed values, zero off the mask."""

    mask: np.ndarray
    values: np.ndarray
    n: int

    def __post_init__(self):
        if not 1 <= self.n <= self.mask.size:
            raise DomainError(f"n must lie in [1, {self.mask.size}], got {self.n}")

    @property
    def m1(self) -> int:
        return self.mask.shape[0]

    @property
    def m2(self) -> int:
        return self.mask.shape[1]

    @property
    def n_hat(self) -> int:
        return int(self.mask.sum())


def make_low_rank(m1: int, m2: int, k: int, *, a: float, seed: int) -> np.ndarray:
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


def sample_trace(M: np.ndarray, n: int, *, noise: NoiseSpec, seed: int) -> TraceDataset:
    """Uniform-position samples with replacement: y = M_ij + eps."""
    M = as_matrix(M)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    m1, m2 = M.shape
    rng = rng_for(seed)
    pos = rng.integers(0, m1 * m2, size=n)
    rows, cols = np.divmod(pos, m2)
    values = M[rows, cols]
    eps = noise.draw(n, rng)
    return TraceDataset(m1, m2, rows, cols, values + eps)


def bernoulli_mask(m1: int, m2: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """The one-shot mask: each of the ``m1 x m2`` entries is observed
    independently with probability p = n/(m1*m2)."""
    if not 1 <= n <= m1 * m2:
        raise DomainError(f"n must lie in [1, {m1 * m2}], got {n}")
    p = n / (m1 * m2)
    return rng.random((m1, m2)) < p


def sample_bernoulli(M: np.ndarray, n: int, *, noise: NoiseSpec, seed: int) -> BernoulliDataset:
    """Observe each entry once with probability p = n/(m1*m2)."""
    M = as_matrix(M)
    m1, m2 = M.shape
    rng = rng_for(seed)
    mask = bernoulli_mask(m1, m2, n, rng)
    eps = noise.draw(M.size, rng).reshape(m1, m2)
    values = np.where(mask, M + eps, 0.0)
    return BernoulliDataset(mask, values, n)
