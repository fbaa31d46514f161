"""Minimization of the classical pair average over normalized vectors.

After absorbing intensities into the transfer matrix, the classical pair
average of an (N sources, M detectors) setup with fixed-intensity inputs is a
function of M unit vectors in C^N:

    f(psi) = 1 + mean over pairs i<j of [ |<psi_i, psi_j>|^2
                                          - sum_a |psi_i(a) psi_j(a)|^2 ].

This module evaluates f, its analytic gradient, runs a multistart projected
gradient descent over the product of unit spheres, and checks the two frame
inequalities that underpin the closed-form lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import DimensionError, MatrixValidationError

NORM_TOL = 1e-10
_INEQUALITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PsiConfiguration:
    """M unit-norm complex vectors of dimension N, stored as rows."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.array(self.vectors, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError("configuration must be a non-empty 2-D array")
        if not np.all(np.isfinite(arr)):
            raise MatrixValidationError("configuration contains non-finite entries")
        norms = np.linalg.norm(arr, axis=1)
        if np.max(np.abs(norms - 1.0)) > NORM_TOL:
            raise MatrixValidationError("every vector must have unit norm")
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @property
    def n_vectors(self) -> int:
        return self.vectors.shape[0]

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]


def _objective(p: np.ndarray) -> float:
    m = p.shape[0]
    gram = p.conj() @ p.T
    weights = np.abs(p) ** 2
    coord = weights @ weights.T
    iu = np.triu_indices(m, 1)
    return 1.0 + float((np.abs(gram[iu]) ** 2 - coord[iu]).sum()) / (m * (m - 1) / 2)


def _gradient(p: np.ndarray) -> np.ndarray:
    m = p.shape[0]
    gram = p.conj() @ p.T
    np.fill_diagonal(gram, 0.0)
    weights = np.abs(p) ** 2
    cross = gram.conj() @ p
    other = weights.sum(axis=0) - weights
    return (4.0 / (m * (m - 1))) * (cross - p * other)


def _vectors_of(config) -> np.ndarray:
    if isinstance(config, PsiConfiguration):
        return config.vectors
    return np.asarray(config, dtype=complex)


def gbar_objective(config) -> float:
    """Classical pair average of a configuration (needs at least 2 vectors).

    Accepts a PsiConfiguration or a raw (M, N) array; the expression is an
    ordinary polynomial in the components, so it stays defined off the unit
    spheres (useful for finite-difference checks).
    """
    vectors = _vectors_of(config)
    if vectors.shape[0] < 2:
        raise DimensionError("the pair average needs at least 2 vectors")
    return _objective(vectors)


def gbar_gradient(config) -> np.ndarray:
    """Analytic Euclidean gradient of :func:`gbar_objective`.

    Returned as a complex array whose real and imaginary parts are the
    partial derivatives with respect to the real and imaginary parts of each
    component (validated against central finite differences in the tests).
    """
    vectors = _vectors_of(config)
    if vectors.shape[0] < 2:
        raise DimensionError("the pair average needs at least 2 vectors")
    return _gradient(vectors)


def optimal_configuration(n_sources: int, n_detectors: int) -> PsiConfiguration:
    """Explicit configuration achieving the classical bound.

    Component (i, a) is exp(2*pi*1j*i*a/M)/sqrt(min(M, N)) for a < M and zero
    otherwise: Fourier phases spread evenly over the circle, with surplus
    sources (a >= M when N > M) ignored entirely.
    """
    if n_detectors < 2:
        raise DimensionError("need at least 2 detectors")
    if n_sources < 1:
        raise DimensionError("need at least 1 source")
    k = min(n_detectors, n_sources)
    rows = np.arange(n_detectors)[:, None]
    cols = np.arange(n_sources)[None, :]
    vectors = np.where(
        cols < n_detectors,
        np.exp(2j * np.pi * ((rows * cols) % n_detectors) / n_detectors) / np.sqrt(k),
        0.0,
    )
    return PsiConfiguration(vectors)


def _normalized_rows(p: np.ndarray) -> np.ndarray:
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def _descend(
    p: np.ndarray,
    max_iters: int,
    trace: TextIO | None,
    restart: int,
    window: int = 50,
    tol: float = 1e-12,
) -> tuple[float, np.ndarray]:
    """Projected gradient descent with renormalization and step halving."""
    value = _objective(p)
    lr = 0.5
    history = [value]
    for it in range(max_iters):
        grad = _gradient(p)
        improved = False
        while lr > 1e-18:
            trial = _normalized_rows(p - lr * grad)
            trial_value = _objective(trial)
            if trial_value < value:
                improved = True
                break
            lr *= 0.5
        if not improved:
            break
        p, value = trial, trial_value
        lr = min(lr * 2.0, 1.0)
        history.append(value)
        if trace is not None:
            trace.write(f"{restart}\t{it}\t{value:.17g}\n")
        if len(history) > window and history[-window - 1] - value < tol:
            break
    return value, p


def minimize_classical_gbar(
    n_sources: int,
    n_detectors: int,
    restarts: int = 20,
    seed: int = 0,
    max_iters: int = 2000,
    trace: TextIO | None = None,
) -> tuple[float, PsiConfiguration]:
    """Multistart minimization of the classical pair average.

    Deterministic for a fixed seed; the restart with the lowest objective
    wins, ties broken by restart index. Returns (best value, argmin).
    """
    if n_detectors < 2:
        raise DimensionError("need at least 2 detectors")
    if n_sources < 1 or restarts < 1:
        raise DimensionError("need n_sources >= 1 and restarts >= 1")
    best_value = np.inf
    best = None
    for restart, child in enumerate(np.random.SeedSequence(seed).spawn(restarts)):
        rng = np.random.default_rng(child)
        start = _normalized_rows(
            rng.standard_normal((n_detectors, n_sources))
            + 1j * rng.standard_normal((n_detectors, n_sources))
        )
        value, vectors = _descend(start, max_iters, trace, restart)
        if value < best_value:
            best_value, best = value, vectors
    return best_value, PsiConfiguration(best)


@dataclass(frozen=True)
class FrameInequalities:
    """Both inequalities satisfied by the frame operator H = sum |psi_i><psi_i|.

    ``diagonal_slack`` is Tr[H^2] - sum_a <a|H|a>^2 and ``rank_slack`` is
    Tr[H^2] - Tr[H]^2 / min(M, N); each must be nonnegative (up to numerical
    slack) for every configuration.
    """

    diagonal_square_sum: float
    purity: float
    trace: float
    rank_bound: int
    diagonal_slack: float
    rank_slack: float
    holds: bool


def check_frame_inequalities(config: PsiConfiguration) -> FrameInequalities:
    """Evaluate both frame-operator inequalities with their slack values."""
    p = config.vectors
    m, n = p.shape
    frame = p.T @ p.conj()
    diag = frame.diagonal().real
    diagonal_square_sum = float((diag**2).sum())
    purity = float(np.vdot(frame, frame).real)
    trace = float(diag.sum())
    rank_bound = min(m, n)
    diagonal_slack = purity - diagonal_square_sum
    rank_slack = purity - trace**2 / rank_bound
    return FrameInequalities(
        diagonal_square_sum=diagonal_square_sum,
        purity=purity,
        trace=trace,
        rank_bound=rank_bound,
        diagonal_slack=diagonal_slack,
        rank_slack=rank_slack,
        holds=(diagonal_slack >= -_INEQUALITY_TOL and rank_slack >= -_INEQUALITY_TOL),
    )
