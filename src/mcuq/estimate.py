"""Low-rank estimators used as confidence-set centers and test anchors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (DimensionError, DomainError, as_matrix,
                   singular_value_threshold)
# Not called here: perfbench/tracer.py wraps this module attribute by name.
from .core import svd_deterministic  # noqa: F401
from .synth import BernoulliDataset, TraceDataset

#: Desk-scale multipliers for the practical tuning helpers below, fitted once
#: on synthetic runs and frozen.  The closed-form constants kill all signal at
#: the matrix sizes this package targets, so experiments default to these.
SOFT_LAMBDA_C = 1.7
LASSO_LAMBDA_C = 1.2


def soft_threshold_estimator(data: BernoulliDataset, lam: float) -> np.ndarray:
    """Nuclear-norm penalized least squares fit, in closed form.

    Minimizes ``|A|_F^2/(m1*m2) - (2/n)<Y, A> + lam*|A|_*``, which is
    singular-value soft-thresholding of ``W = (m1*m2/n) * Y`` at the level
    ``t = lam*m1*m2/2``: every singular value maps to ``max(s - t, 0)`` and
    the singular vectors are kept.  The shrink goes through the Gram
    eigenpairs of ``W`` (:func:`mcuq.core.singular_value_threshold`), not a
    full SVD.
    """
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    m1, m2 = data.m1, data.m2
    W = (m1 * m2 / data.n) * data.values
    t = lam * m1 * m2 / 2.0
    return singular_value_threshold(W, t)[0]


def lambda_oracle(sigma: float, U: float, m: int, n: int, C_op: float = 1.0) -> float:
    """Closed-form tuning level 3*(3*sqrt(2)*sigma + sqrt(2*C_op)*U)/sqrt(m*n).

    ``C_op`` is the operator-norm constant inherited from an external
    concentration bound; it has no canonical numeric value, so it is exposed
    as configuration with default 1.
    """
    if sigma < 0 or U < 0:
        raise DomainError("sigma and U must be non-negative")
    if m < 1 or n < 1 or C_op < 0:
        raise DomainError("m, n must be >= 1 and C_op >= 0")
    return 3.0 * (3.0 * math.sqrt(2.0) * sigma + math.sqrt(2.0 * C_op) * U) / math.sqrt(m * n)


def lambda_data_driven(data: BernoulliDataset, c: float = SOFT_LAMBDA_C) -> float:
    """Energy-scaled tuning for :func:`soft_threshold_estimator`.

    Sets the singular-value threshold to ``c`` times the operator-norm scale
    of the deviation of ``W = (m1*m2/n)*Y`` from its mean, estimated from
    the data's entrywise second moment.  This tracks both the observation
    noise and the masking-design noise, which dominates at small sizes.
    """
    m1, m2 = data.m1, data.m2
    W = (m1 * m2 / data.n) * data.values
    t = c * math.sqrt(float(np.mean(W * W)) * max(m1, m2))
    return 2.0 * t / (m1 * m2)


def lambda_practical_trace(sigma: float, m1: int, m2: int, n: int,
                           c: float = LASSO_LAMBDA_C) -> float:
    """Desk-scale tuning for :func:`matrix_lasso`."""
    d = m1 + m2
    return c * sigma * math.sqrt(d * math.log(d) / (n * m1 * m2))


@dataclass
class LassoFit:
    """Result of :func:`matrix_lasso`: the iterate plus convergence info."""

    estimate: np.ndarray
    objectives: np.ndarray
    converged: bool

    @property
    def n_iter(self) -> int:
        return len(self.objectives) - 1


def matrix_lasso(data: TraceDataset, lam: float, a: float,
                 max_iter: int = 300, tol: float = 1e-6) -> LassoFit:
    """Constrained nuclear-norm regression solved by proximal gradient.

    Approximately minimizes the mean squared residual over the observed
    positions plus ``lam`` times the nuclear norm, over matrices with
    entries in ``[-a, a]``.  Each step takes a gradient move on the smooth
    loss, soft-thresholds the singular values, and clips the entries; the
    step size starts at the inverse empirical-design Lipschitz constant and
    is halved whenever the objective would increase, so the recorded
    objective sequence is non-increasing.  The iterate always satisfies the
    entry bound.  Non-convergence is reported through ``converged``; the
    best iterate is returned regardless.

    The soft-threshold of ``X = A - step*grad`` at ``tau = step*lam`` never
    forms a full SVD: it is :func:`mcuq.core.singular_value_threshold`, one
    subset eigensolve of the Gram matrix of ``X`` on its smaller side, which
    needs no gap in the spectrum at ``tau``.
    When the clip changes nothing, the objective's nuclear norm is
    ``sum(s - tau)`` over the singular values that solve returns; only an
    active clip costs a singular-value pass.  Singular values come from
    eigenvalues of the Gram matrix, so they carry an absolute error of
    about ``sqrt(eps)`` times the largest one: at tiny ``lam`` (say
    ``1e-9``) the estimate agrees with a full-SVD prox only to about
    ``1e-8``.
    """
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    if a <= 0:
        raise DomainError(f"entry bound a must be positive, got {a}")
    n = data.n
    if n < 1:
        raise DomainError("dataset is empty")
    y = data.y
    m1, m2 = data.m1, data.m2
    flat = data.rows * m2 + data.cols
    size = m1 * m2

    lip = 2.0 * np.bincount(flat, minlength=size).max() / n
    step0 = 1.0 / lip

    def objective(A, nuclear):
        resid = y - A.take(flat)
        return float(np.mean(resid * resid) + lam * nuclear)

    def prox_step(A, step):
        # Returns the clipped prox iterate and its nuclear norm.
        grad = np.bincount(flat, weights=A.take(flat) - y, minlength=size).reshape(m1, m2)
        grad *= 2.0 / n
        tau = step * lam
        B, s = singular_value_threshold(A - step * grad, tau)
        if np.max(np.abs(B)) <= a:
            return B, np.sum(s - tau)
        B = np.clip(B, -a, a)
        return B, np.sum(np.linalg.svd(B, compute_uv=False))

    A = np.zeros((m1, m2))
    objs = [objective(A, 0.0)]
    converged = False
    for _ in range(max_iter):
        step = step0
        A_new, nuclear = prox_step(A, step)
        obj_new = objective(A_new, nuclear)
        while obj_new > objs[-1] and step > step0 * 2.0 ** -30:
            step /= 2.0
            A_new, nuclear = prox_step(A, step)
            obj_new = objective(A_new, nuclear)
        if obj_new > objs[-1]:
            converged = True  # no descent direction left at the step floor
            break
        A = A_new
        objs.append(obj_new)
        if objs[-2] - objs[-1] < tol * max(1.0, abs(objs[-2])):
            converged = True
            break
    return LassoFit(A, np.asarray(objs), converged)


def estimator_risk(M_hat: np.ndarray, M: np.ndarray) -> float:
    """Normalized squared Frobenius error |M_hat - M|_F^2 / (m1*m2)."""
    M_hat = as_matrix(M_hat)
    M = as_matrix(M)
    if M_hat.shape != M.shape:
        raise DimensionError(f"shape mismatch: {M_hat.shape} vs {M.shape}")
    d = M_hat - M
    return float(np.sum(d * d)) / (M.shape[0] * M.shape[1])
