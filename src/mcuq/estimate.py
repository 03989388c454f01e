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


def lambda_data_driven(data: BernoulliDataset) -> float:
    """Energy-scaled tuning for :func:`soft_threshold_estimator`.

    Sets the singular-value threshold to ``SOFT_LAMBDA_C`` times the
    operator-norm scale of the deviation of ``W = (m1*m2/n)*Y`` from its
    mean, estimated from the data's entrywise second moment.  This tracks
    both the observation noise and the masking-design noise, which
    dominates at small sizes.
    When no observed value is nonzero, ``W = 0`` and every positive level
    gives the zero fit; the level at unit second moment is returned then,
    so the result is always a valid ``lam``.
    """
    m1, m2 = data.m1, data.m2
    W = (m1 * m2 / data.n) * data.values
    second_moment = float(np.mean(W * W)) or 1.0
    t = SOFT_LAMBDA_C * math.sqrt(second_moment * max(m1, m2))
    return 2.0 * t / (m1 * m2)


def lambda_practical_trace(sigma: float, m1: int, m2: int, n: int) -> float:
    """Desk-scale tuning for :func:`matrix_lasso`, with multiplier ``LASSO_LAMBDA_C``."""
    d = m1 + m2
    return LASSO_LAMBDA_C * sigma * math.sqrt(d * math.log(d) / (n * m1 * m2))


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
    """Constrained nuclear-norm regression solved by restarted FISTA.

    Approximately minimizes the mean squared residual over the observed
    positions plus ``lam`` times the nuclear norm, over matrices with
    entries in ``[-a, a]``.  Each step takes a gradient move on the smooth
    loss at the fixed step ``1/L`` (``L`` is the exact Lipschitz constant of
    the diagonal empirical design), soft-thresholds the singular values,
    and clips the entries.  The move starts from FISTA's extrapolated point
    ``A + ((t - 1)/t') (A - A_prev)`` (Beck & Teboulle 2009).  When that
    step would raise the objective, the momentum restarts at ``t = 1``
    (O'Donoghue & Candès 2015) and the plain step from ``A`` is taken
    instead; when that one does not descend either, the solver stops as
    converged.  So the recorded objective sequence is non-increasing, and
    the iterate always satisfies the entry bound.  Non-convergence is
    reported through ``converged``; the best iterate is returned
    regardless.

    "Shrink, then clip" is not the exact proximal map of ``lam*|A|_*`` plus
    the entry box, so the fixed point is an approximate minimizer of the
    constrained problem, not the exact one.

    The soft-threshold of ``X = Y - grad/L`` at ``tau = lam/L`` never forms
    a full SVD: it is :func:`mcuq.core.singular_value_threshold`, one
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

    step = 1.0 / (2.0 * np.bincount(flat, minlength=size).max() / n)
    tau = step * lam

    def prox_step(Y):
        # Returns the clipped prox iterate from Y and its objective.
        grad = np.bincount(flat, weights=Y.take(flat) - y, minlength=size).reshape(m1, m2)
        grad *= 2.0 / n
        B, s = singular_value_threshold(Y - step * grad, tau)
        if np.max(np.abs(B)) <= a:
            nuclear = np.sum(s - tau)
        else:
            B = np.clip(B, -a, a)
            nuclear = np.sum(np.linalg.svd(B, compute_uv=False))
        resid = y - B.take(flat)
        return B, float(np.mean(resid * resid) + lam * nuclear)

    A = A_prev = np.zeros((m1, m2))
    objs = [float(np.mean(y * y))]
    t = 1.0
    converged = False
    for _ in range(max_iter):
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        A_new, obj_new = prox_step(A + ((t - 1.0) / t_next) * (A - A_prev))
        if obj_new > objs[-1] and t > 1.0:
            # Restart: drop the momentum (t = 1) and step from A itself.
            t_next = (1.0 + math.sqrt(5.0)) / 2.0
            A_new, obj_new = prox_step(A)
        if obj_new > objs[-1]:
            converged = True  # the plain step does not descend either
            break
        A_prev, A, t = A, A_new, t_next
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
