"""Matrix primitives, rank-class predicates, and minimax rate formulas.

Matrices are plain ``numpy.ndarray`` objects of shape ``(m1, m2)`` with
finite float entries.  Everything here is pure and side-effect free, so it
is safe to call from concurrently running replicates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Shapes of matrix operands do not match."""


class DomainError(ValueError):
    """A parameter is outside its valid range."""


#: Singular values <= REL_RANK_TOL * sigma_1 count as zero when deciding rank.
REL_RANK_TOL = 1e-10

#: Iteration cap / movement tolerance of the alternating projection used by
#: :func:`dist_to_rank_class`.
PROJECTION_MAX_ITER = 500
PROJECTION_TOL = 1e-10

#: Slack allowed on the entry bound when testing class membership.
ENTRY_TOL = 1e-9

NOISE_KINDS = (
    "scaled-rademacher",
    "uniform",
    "truncated-gaussian",
    "two-point-skewed",
)


def as_matrix(A) -> np.ndarray:
    """Validate and return ``A`` as a finite 2-d float array."""
    arr = np.asarray(A, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(f"matrix must be at least 1x1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("matrix contains non-finite entries")
    return arr


@dataclass(frozen=True)
class RankClassSpec:
    """Membership class: entries bounded by ``a``, rank at most ``k``."""

    a: float
    k: int

    def __post_init__(self):
        if self.a <= 0:
            raise DomainError(f"entry bound a must be positive, got {self.a}")
        if self.k < 0:
            raise DomainError(f"rank bound k must be non-negative, got {self.k}")


@dataclass(frozen=True)
class NoiseSpec:
    """Bounded zero-mean noise: standard deviation ``sigma``, a.s. bound ``U``.

    Construction rejects a law that cannot have both: ``uniform`` needs a
    half-width ``sqrt(3)*sigma <= U``, and ``truncated-gaussian`` needs
    ``sigma^2 < U^2/3``, the variance supremum of Gaussians truncated to
    ``[-U, U]``.
    """

    kind: str
    sigma: float
    U: float

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise DomainError(f"unknown noise kind {self.kind!r}, expected one of {NOISE_KINDS}")
        if self.sigma < 0:
            raise DomainError(f"sigma must be non-negative, got {self.sigma}")
        if self.U <= 0:
            raise DomainError(f"U must be positive, got {self.U}")
        if self.sigma > self.U:
            raise DomainError(f"sigma={self.sigma} exceeds the almost-sure bound U={self.U}")
        if self.kind == "uniform" and math.sqrt(3.0) * self.sigma > self.U * (1 + 1e-12):
            raise DomainError(
                f"uniform noise with sigma={self.sigma} needs half-width "
                f"{math.sqrt(3.0) * self.sigma:.6g} > U={self.U}")
        if (self.kind == "truncated-gaussian" and self.sigma > 0
                and self.sigma ** 2 >= self.U ** 2 / 3.0 * (1 - 1e-9)):
            raise DomainError(
                f"truncated Gaussian on [-{self.U}, {self.U}] cannot reach variance "
                f"{self.sigma**2:.6g} (supremum {self.U**2/3.0:.6g})")


def svd_deterministic(A: np.ndarray):
    """Thin SVD with a fixed sign convention.

    Singular values come back in non-increasing order; each left singular
    vector is flipped so that its largest-magnitude entry is non-negative,
    where a tie between entries of equal magnitude goes to the first one.
    The convention is applied to all columns in one vectorised pass.  This
    removes the sign ambiguity and makes downstream outputs reproducible
    across runs.
    """
    A = as_matrix(A)
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    cols = np.arange(u.shape[1])
    flip = u[np.argmax(np.abs(u), axis=0), cols] < 0
    u[:, flip] = -u[:, flip]
    vt[flip] = -vt[flip]
    return u, s, vt


def frobenius_sq_dist(A: np.ndarray, B: np.ndarray) -> float:
    """Squared Frobenius distance, sum_ij (A_ij - B_ij)^2."""
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape != B.shape:
        raise DimensionError(f"shape mismatch: {A.shape} vs {B.shape}")
    d = A - B
    return float(np.sum(d * d))


def truncate_rank(A: np.ndarray, k: int) -> np.ndarray:
    """Best rank-``k`` approximation in Frobenius norm (top-k SVD).

    Uses the raw LAPACK factors without :func:`svd_deterministic`'s sign
    convention: the product below does not depend on the signs.
    """
    A = as_matrix(A)
    m = min(A.shape)
    if not 0 <= k <= m:
        raise DomainError(f"k must lie in [0, {m}], got {k}")
    if k == 0:
        return np.zeros_like(A)
    if k == m:
        return A.copy()
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    # A sign flip negates both factors of each term, so the product is bit-identical.
    return (u[:, :k] * s[:k]) @ vt[:k, :]


def clip_entries(A: np.ndarray, a: float) -> np.ndarray:
    """Clip every entry into [-a, a]."""
    if a <= 0:
        raise DomainError(f"entry bound a must be positive, got {a}")
    return np.clip(as_matrix(A), -a, a)


def minimax_rate_sq(m1: int, m2: int, k: int, n: int) -> float:
    """Squared un-normalized Frobenius estimation rate, m1*m2*k*(m1+m2)/n."""
    if n < 1:
        raise DomainError(f"sample size n must be >= 1, got {n}")
    if k < 0:
        raise DomainError(f"rank k must be >= 0, got {k}")
    return m1 * m2 * k * (m1 + m2) / n


def numerical_rank(A: np.ndarray, rel_tol: float = REL_RANK_TOL) -> int:
    """Count singular values above ``rel_tol`` times the largest one."""
    s = np.linalg.svd(as_matrix(A), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def in_rank_class(A: np.ndarray, spec: RankClassSpec,
                  rel_tol: float = REL_RANK_TOL, entry_tol: float = ENTRY_TOL) -> bool:
    """Membership test for the class of ``spec`` with numerical tolerances."""
    A = as_matrix(A)
    if np.max(np.abs(A)) > spec.a + entry_tol:
        return False
    return numerical_rank(A, rel_tol) <= spec.k


def dist_to_rank_class(A: np.ndarray, spec: RankClassSpec,
                       max_iter: int = PROJECTION_MAX_ITER,
                       tol: float = PROJECTION_TOL) -> float:
    """Upper bound on the Frobenius distance from ``A`` to the class of ``spec``.

    Runs an alternating projection (rank truncation, then entry clipping)
    starting from ``A`` and returns the distance to the best feasible iterate
    seen.  The class is nonconvex, so this is an upper bound in general; it
    is exact whenever the entry clipping is inactive at the optimum, because
    then the first truncation already lands on the metric projection.
    """
    A = as_matrix(A)
    k = min(spec.k, min(A.shape))
    best = None
    x = A
    for _ in range(max_iter):
        t = truncate_rank(x, k)
        if np.max(np.abs(t)) <= spec.a + ENTRY_TOL:
            d = np.sqrt(frobenius_sq_dist(A, t))
            if best is None or d < best:
                best = d
        x_new = clip_entries(t, spec.a)
        if np.sqrt(frobenius_sq_dist(x_new, x)) < tol:
            x = x_new
            break
        x = x_new
    if best is None:
        warnings.warn(
            "alternating projection produced no clipping-feasible rank iterate; "
            "returning an uncertified upper bound",
            RuntimeWarning,
        )
        return np.sqrt(frobenius_sq_dist(A, x))
    return best
