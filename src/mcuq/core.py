"""Matrix primitives, noise laws, and minimax rate formulas.

Matrices are plain ``numpy.ndarray`` objects of shape ``(m1, m2)`` with
finite float entries.  Everything here is pure and side-effect free, so it
is safe to call from concurrently running replicates.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy


def _load_flapack():
    """scipy's compiled f2py LAPACK module, loaded without ``scipy.linalg``.

    Importing ``scipy.linalg.lapack`` runs ``scipy/linalg/__init__.py``, which
    costs most of ``import mcuq`` in time and memory (through scipy's
    array-API layer it loads ``numpy.f2py``, ``numpy.testing`` and
    ``numpy.ma``), while only two routines of the extension are needed.
    ``import scipy`` above still runs ``scipy._distributor_init``, which
    wheels that bundle their BLAS rely on.  The module is not entered in
    ``sys.modules``; a later ``import scipy.linalg`` loads its own copy of
    the same Fortran routines.
    """
    path = os.path.join(scipy.__path__[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec("_flapack", [path])
    if spec is None:
        raise ImportError(f"scipy's compiled LAPACK module _flapack is missing from {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dsyevr = _flapack.dsyevr
dsyevr_lwork = _flapack.dsyevr_lwork


class DimensionError(ValueError):
    """Shapes of matrix operands do not match."""


class DomainError(ValueError):
    """A parameter is outside its valid range."""


#: Singular values <= REL_RANK_TOL * sigma_1 count as zero when deciding rank.
REL_RANK_TOL = 1e-10

NOISE_KINDS = (
    "scaled-rademacher",
    "uniform",
    "truncated-gaussian",
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
class NoiseSpec:
    """Bounded zero-mean noise: standard deviation ``sigma``, a.s. bound ``U``.

    Construction rejects a law that cannot have both: ``uniform`` needs a
    half-width ``sqrt(3)*sigma <= U``, and ``truncated-gaussian`` needs
    ``sigma^2 < U^2/3``, the variance supremum of Gaussians truncated to
    ``[-U, U]``.  A ``truncated-gaussian`` spec with ``sigma > 0`` also
    solves its base scale when built, so a scale that cannot be bracketed
    fails there and not in the middle of a run.
    """

    kind: str
    sigma: float
    U: float

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise DomainError(f"unknown noise kind {self.kind!r}, expected one of {NOISE_KINDS}")
        if isinstance(self.sigma, (bool, np.bool_)) or isinstance(self.U, (bool, np.bool_)):
            raise DomainError(f"sigma and U must be numbers, not booleans, "
                              f"got sigma={self.sigma!r}, U={self.U!r}")
        try:
            finite = math.isfinite(self.sigma) and math.isfinite(self.U)
        except OverflowError:  # an integer too large for a float
            finite = False
        if not finite:
            raise DomainError(f"sigma and U must be finite, got sigma={self.sigma}, U={self.U}")
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
        if self.kind == "truncated-gaussian" and self.sigma > 0:
            # Solved now, so a pool forked after the spec is built inherits it.
            _truncated_gaussian_scale(self.sigma, self.U)

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` i.i.d. draws with mean 0, variance sigma^2 and |draw| <= U."""
        if self.kind == "scaled-rademacher":
            signs = rng.integers(0, 2, size=count) * 2 - 1
            return self.sigma * signs

        if self.kind == "uniform":
            half = math.sqrt(3.0) * self.sigma  # construction guarantees half <= U
            return rng.uniform(-half, half, size=count)

        # truncated-gaussian, the last of NOISE_KINDS
        if self.sigma == 0.0:
            return np.zeros(count)
        s = _truncated_gaussian_scale(self.sigma, self.U)
        out = np.empty(0)
        while out.size < count:
            need = count - out.size
            cand = rng.normal(0.0, s, size=int(need * 1.3) + 16)
            out = np.concatenate([out, cand[np.abs(cand) <= self.U]])
        return out[:count]


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


def svd_deterministic(A: np.ndarray):
    """Thin SVD with a fixed sign convention.

    Singular values come back in non-increasing order; each left singular
    vector is flipped so that its largest-magnitude entry is non-negative,
    where a tie between entries of equal magnitude goes to the first one.
    The convention is applied to all columns in one vectorised pass.  This
    removes the sign ambiguity and makes downstream outputs reproducible
    across runs.  Nothing in the package calls it: rank truncation and
    soft-thresholding go through :func:`gram_eigh`, whose products do not
    depend on signs.
    """
    A = as_matrix(A)
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    cols = np.arange(u.shape[1])
    flip = u[np.argmax(np.abs(u), axis=0), cols] < 0
    u[:, flip] = -u[:, flip]
    vt[flip] = -vt[flip]
    return u, s, vt


@functools.lru_cache(maxsize=64)
def _syevr_work(n: int) -> tuple[int, int]:
    """LAPACK's optimal ``(lwork, liwork)`` for ``dsyevr`` at order ``n``."""
    work, iwork, info = dsyevr_lwork(n, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr workspace query failed (info={info})")
    return int(work), int(iwork)


def gram_eigh(A: np.ndarray, k: int | None = None,
              above: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the Gram matrix of ``A`` on its smaller side.

    The Gram matrix is ``A.T @ A`` when ``A`` has at least as many rows as
    columns and ``A @ A.T`` otherwise, so its eigenvalues are the squared
    singular values of ``A`` and its eigenvectors are the right (left)
    singular vectors.  Pass exactly one of ``k``, for the top ``k`` pairs,
    or a finite ``above``, for the pairs with eigenvalue in ``(above, inf]``.
    Eigenvalues come back in ascending order, eigenvectors as the columns of
    ``V``.  ``A`` is not checked entrywise: the trace of the Gram matrix, the
    sum of the squared entries, is NaN or inf when an entry is not finite or
    that sum overflows, and either raises ``DomainError`` before LAPACK sees
    the Gram matrix.

    One subset eigensolve (LAPACK ``dsyevr`` with its queried workspace,
    the same call as ``scipy.linalg.eigh(..., driver="evr")``) replaces a
    full SVD, and fails closed: a nonzero LAPACK ``info`` raises
    ``LinAlgError``.  Forming the Gram matrix squares the conditioning:
    eigenvalues carry an absolute error of about ``eps`` times the largest
    one, so a singular value ``s`` is accurate to about
    ``eps * s_1**2 / s``, and the top-``k`` vectors span the right subspace
    only to within about ``eps * s_1**2 / (s_k**2 - s_{k+1}**2)``.
    """
    n = min(A.shape)
    if (k is None) == (above is None):
        raise DomainError("pass exactly one of k and above")
    if k is not None and not 1 <= k <= n:
        raise DomainError(f"k must lie in [1, {n}], got {k}")
    if above is not None and not math.isfinite(above):
        raise DomainError(f"above must be finite, got {above}")
    G = _gram(A)
    lwork, liwork = _syevr_work(n)
    if k is not None:
        w, V, found, _, info = dsyevr(G, compute_v=1, range="I", lower=1,
                                      il=n - k + 1, iu=n, lwork=lwork, liwork=liwork)
    else:
        w, V, found, _, info = dsyevr(G, compute_v=1, range="V", lower=1,
                                      vl=above, vu=np.inf, lwork=lwork, liwork=liwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed on a {n}x{n} Gram matrix (info={info})")
    return w[:found], V[:, :found]


def gram_eigvals(A: np.ndarray) -> np.ndarray:
    """All eigenvalues of :func:`gram_eigh`'s Gram matrix of ``A``, the
    squared singular values of ``A``, in ascending order.

    One values-only ``dsyevr`` over the whole spectrum (``range="A"``,
    ``compute_v=0``), which LAPACK runs as a tridiagonal reduction and
    ``dsterf``: at 96x96 it is faster than the top few values alone, whose
    bisection costs more than ``dsterf`` does for all of them.  The same
    trace check and error rules as :func:`gram_eigh` apply.
    """
    G = _gram(A)
    n = G.shape[0]
    lwork, liwork = _syevr_work(n)
    w, _, found, _, info = dsyevr(G, compute_v=0, range="A", lower=1,
                                  lwork=lwork, liwork=liwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed on a {n}x{n} Gram matrix (info={info})")
    return w[:found]


def _gram(A: np.ndarray) -> np.ndarray:
    """The Gram matrix of ``A`` on its smaller side; ``DomainError`` when its
    trace is not finite."""
    G = A.T @ A if A.shape[0] >= A.shape[1] else A @ A.T
    if not math.isfinite(G.trace()):
        raise DomainError("matrix contains non-finite entries or its Gram matrix overflows")
    return G


def _project_onto(A: np.ndarray, V: np.ndarray, scale=None) -> np.ndarray:
    """``A`` projected onto the span of the Gram eigenvectors ``V`` of
    :func:`gram_eigh`, with direction ``j`` scaled by ``scale[j]`` if given."""
    if A.shape[0] >= A.shape[1]:
        AV = A @ V
        return (AV if scale is None else AV * scale) @ V.T
    VA = V.T @ A
    return V @ (VA if scale is None else scale[:, None] * VA)


def truncate_rank(A: np.ndarray, k: int) -> np.ndarray:
    """Best rank-``k`` approximation in Frobenius norm.

    Projects ``A`` onto its top-``k`` right singular vectors, ``(A V) V.T``
    (or onto its left ones, ``V (V.T A)``, when ``A`` is wide), with ``V``
    from :func:`gram_eigh` instead of a full SVD.  The result has rank at
    most ``k`` whatever the spectrum; it matches the top-``k`` SVD product
    to within the Gram route's accuracy, which needs a gap between the
    ``k``-th and ``k+1``-th singular values (on a tie the top-``k``
    subspace is not unique, and either choice is a best approximation).

    This is the per-step kernel of the infimum search, so for
    ``0 < k < min(A.shape)`` a float64 2-d array skips :func:`as_matrix`'s
    entrywise pass and relies on :func:`gram_eigh`'s trace check: a
    non-finite entry, or a Gram matrix that overflows, raises ``DomainError``.
    """
    if type(A) is not np.ndarray or A.dtype != np.float64 or A.ndim != 2 or A.size == 0:
        A = as_matrix(A)
    m = min(A.shape)
    if not 0 <= k <= m:
        raise DomainError(f"k must lie in [0, {m}], got {k}")
    if k == 0:
        return np.zeros_like(as_matrix(A))
    if k == m:
        return as_matrix(A).copy()
    return _project_onto(A, gram_eigh(A, k=k)[1])


def singular_value_threshold(A: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Soft-threshold the singular values of ``A`` at ``tau``.

    Returns ``B``, which keeps the singular vectors of ``A`` and maps each
    singular value ``s`` to ``max(s - tau, 0)``, and the singular values of
    ``A`` above ``tau``.  ``B`` is ``((A V) * (1 - tau/s)) V.T`` (or its
    wide analogue) over the Gram eigenpairs with eigenvalue above
    ``tau**2``.  It is a continuous spectral function of the Gram matrix
    that vanishes at ``s = tau``, so an eigenvalue that rounding moves
    across the cut changes ``B`` by about nothing, and the step needs no
    gap in the spectrum.  ``A`` must be finite.
    """
    w, V = gram_eigh(A, above=tau * tau)
    s = np.sqrt(w)
    keep = s > tau
    s = s[keep]
    return _project_onto(A, V[:, keep], 1.0 - tau / s), s


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


def numerical_rank(A: np.ndarray) -> int:
    """Count singular values above ``REL_RANK_TOL`` times the largest one."""
    s = np.linalg.svd(as_matrix(A), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > REL_RANK_TOL * s[0]))
