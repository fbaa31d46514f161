"""Minimization of the classical pair average over normalized vectors.

After absorbing intensities into the transfer matrix, the classical pair
average of an (N sources, M detectors) setup with fixed-intensity inputs is a
function of M unit vectors in C^N:

    f(psi) = 1 + mean over pairs i<j of [ |<psi_i, psi_j>|^2
                                          - sum_a |psi_i(a) psi_j(a)|^2 ].

This module evaluates f and its analytic gradient, runs a multistart
Riemannian Barzilai-Borwein descent over the product of unit spheres, with
all restarts moving together as one (R, M, N) stack, and checks the two
frame inequalities that underpin the closed-form lower bound.
"""

from __future__ import annotations

import itertools
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


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real inner product of each configuration of two (..., M, N) stacks."""
    return (a.conj() * b).real.sum(axis=(-2, -1))


def _value_and_gradient(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair average and Euclidean gradient of each configuration in a stack
    ``p`` of shape (..., M, N), both from one Gram matrix.

    ``f - 1`` is a homogeneous quartic, so the value is ``1 + Re<p, grad f> / 4``
    by Euler's identity (checked against the sum over pairs in the tests).
    """
    m = p.shape[-2]
    gram = p.conj() @ p.swapaxes(-1, -2)
    gram.reshape(*gram.shape[:-2], m * m)[..., :: m + 1] = 0.0  # the diagonal, as a strided view
    weights = np.abs(p) ** 2
    other = weights.sum(axis=-2, keepdims=True) - weights
    grad = (4.0 / (m * (m - 1))) * (gram.conj() @ p - p * other)
    return 1.0 + _inner(p, grad) / 4.0, grad


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
    return float(_value_and_gradient(vectors)[0])


def gbar_gradient(config) -> np.ndarray:
    """Analytic Euclidean gradient of :func:`gbar_objective`.

    Returned as a complex array whose real and imaginary parts are the
    partial derivatives with respect to the real and imaginary parts of each
    component (validated against central finite differences in the tests).
    """
    vectors = _vectors_of(config)
    if vectors.shape[0] < 2:
        raise DimensionError("the pair average needs at least 2 vectors")
    return _value_and_gradient(vectors)[1]


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


# Restarts descend together in blocks of at most this many, so memory stays
# bounded whatever ``restarts`` is: a block holds a few (block, M, N) complex
# stacks and a (block, STALL_WINDOW + 1) history.
RESTART_BLOCK = 64
# A restart stops once its tangent gradient norm is below GRADIENT_TOL, once
# its value fell by less than STALL_TOL over the last STALL_WINDOW passes, or
# once its step has halved to MIN_STEP.
GRADIENT_TOL = 1e-9
STALL_WINDOW = 50
STALL_TOL = 1e-12
MIN_STEP = 1e-18
# A step passes when it lowers the value ARMIJO * step * |tangent gradient|^2
# below the largest of its values after the last NONMONOTONE passes. A
# Barzilai-Borwein step that is not finite and positive becomes FALLBACK_STEP,
# which is also every restart's first step.
NONMONOTONE = 5
ARMIJO = 1e-4
FALLBACK_STEP = 4.0


def _normalized_rows(p: np.ndarray) -> np.ndarray:
    # the row norms as np.linalg.norm computes them, without its call overhead
    return p / np.sqrt((p.conj() * p).real.sum(axis=-1, keepdims=True))


def _tangent(p: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The gradient minus its radial part, row by row: the gradient on the spheres."""
    return grad - (p.conj() * grad).real.sum(axis=-1, keepdims=True) * p


def _descend(
    p: np.ndarray, max_iters: int, record: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[list[float]]]:
    """Riemannian Barzilai-Borwein descent on the product of spheres.

    Every configuration of the stack ``p`` (R, M, N) is one restart. A step
    moves along minus the tangent gradient and renormalizes the rows. Its
    size alternates between the two Barzilai-Borwein rules ``<s,s>/<s,y>``
    and ``<s,y>/<y,y>``, from the change ``s`` of the point and ``y`` of the
    tangent gradient over the last accepted step. A step that fails the
    nonmonotone Armijo test (against the largest of the last NONMONOTONE
    values) is not taken and is halved for the next pass. The restarts still
    descending move together, packed at the front of their stacks, and each
    pass costs one kernel call. Returns the final values, the final points,
    the number of accepted steps per restart and, when ``record`` is set,
    each restart's accepted values in order.
    """
    r = p.shape[0]
    final_value, final_p, steps = np.empty(r), np.empty_like(p), np.zeros(r, dtype=int)
    value, grad = _value_and_gradient(p)
    tangent = _tangent(p, grad)
    lr = np.full(r, FALLBACK_STEP)
    live = np.arange(r)  # the restart of each row of p, value, tangent, lr and count
    count = np.zeros(r, dtype=int)
    # the values after the last STALL_WINDOW + 1 passes, one column per live
    # restart: the value after pass k sits in row k % width, and a row not yet
    # written holds the start value
    width = STALL_WINDOW + 1
    recent = np.tile(value, (width, 1))
    accepted: list[list[float]] = [[] for _ in range(r)]
    for it in itertools.count():
        slope = _inner(tangent, tangent)
        retire = (slope < GRADIENT_TOL**2) | (lr <= MIN_STEP) | (count == max_iters)
        if it >= STALL_WINDOW:
            retire |= recent[(it + 1) % width] - value < STALL_TOL
        if retire.any():
            gone = live[retire]
            final_value[gone], final_p[gone], steps[gone] = value[retire], p[retire], count[retire]
            keep = ~retire
            live, p, value, tangent, lr, slope, count = (
                a[keep] for a in (live, p, value, tangent, lr, slope, count)
            )
            recent = recent[:, keep]
            if not live.size:
                break
        ceiling = recent[(it - np.arange(NONMONOTONE)) % width].max(axis=0)
        trial = _normalized_rows(p - lr[:, None, None] * tangent)
        trial_value, trial_grad = _value_and_gradient(trial)
        moved = trial_value <= ceiling - ARMIJO * lr * slope
        trial_tangent = _tangent(trial, trial_grad)
        s, y = trial - p, trial_tangent - tangent
        with np.errstate(all="ignore"):  # s = 0 or y = 0 gives no finite step
            bb = _inner(s, s) / _inner(s, y) if it % 2 == 0 else _inner(s, y) / _inner(y, y)
        bb = np.where(np.isfinite(bb) & (bb > 0), bb, FALLBACK_STEP)
        lr = np.where(moved, bb, 0.5 * lr)
        p = np.where(moved[:, None, None], trial, p)
        tangent = np.where(moved[:, None, None], trial_tangent, tangent)
        value = np.where(moved, trial_value, value)
        count += moved
        recent[(it + 1) % width] = value
        if record:
            for k, v in zip(live[moved], value[moved].tolist()):
                accepted[k].append(v)
    return final_value, final_p, steps, accepted


def _tangent_gradient_norm(p: np.ndarray) -> float:
    """Norm of the gradient projected onto the tangent space of the spheres."""
    return float(np.linalg.norm(_tangent(p, _value_and_gradient(p)[1])))


@dataclass(frozen=True, eq=False)
class MultistartResult:
    """Outcome of :func:`multistart_minimize` with its deterministic diagnostics.

    ``restart_values`` and ``iterations`` hold each restart's final value and
    number of accepted descent steps; ``gradient_norm`` is the norm of the
    gradient at the argmin projected onto the tangent space of the spheres.
    """

    value: float
    argmin: PsiConfiguration
    best_restart: int
    restart_values: tuple[float, ...]
    iterations: tuple[int, ...]
    gradient_norm: float


def multistart_minimize(
    n_sources: int,
    n_detectors: int,
    restarts: int = 20,
    seed: int = 0,
    max_iters: int = 2000,
    trace: TextIO | None = None,
) -> MultistartResult:
    """Multistart minimization of the classical pair average, with diagnostics.

    Restart k starts from the k-th child of ``SeedSequence(seed)``. Restarts
    descend together in blocks of ``RESTART_BLOCK``. The restart with the
    lowest final value wins, ties broken by the lower index. ``trace``
    receives one ``restart<TAB>iteration<TAB>value`` line per accepted step,
    restart-major.
    """
    if n_detectors < 2:
        raise DimensionError("need at least 2 detectors")
    if n_sources < 1 or restarts < 1:
        raise DimensionError("need n_sources >= 1 and restarts >= 1")
    if max_iters < 0:
        raise DimensionError("max_iters must be >= 0")
    children = np.random.SeedSequence(seed).spawn(restarts)
    values, iterations = [], []
    best, best_point = 0, None
    for first in range(0, restarts, RESTART_BLOCK):
        starts = []
        for child in children[first : first + RESTART_BLOCK]:
            rng = np.random.default_rng(child)
            starts.append(
                _normalized_rows(
                    rng.standard_normal((n_detectors, n_sources))
                    + 1j * rng.standard_normal((n_detectors, n_sources))
                )
            )
        value, p, steps, accepted = _descend(np.stack(starts), max_iters, trace is not None)
        if trace is not None:
            trace.write(
                "".join(
                    f"{first + k}\t{it}\t{v:.17g}\n"
                    for k, history in enumerate(accepted)
                    for it, v in enumerate(history)
                )
            )
        k = int(np.argmin(value))
        if best_point is None or value[k] < values[best]:
            best, best_point = first + k, p[k]
        values.extend(value.tolist())
        iterations.extend(steps.tolist())
    return MultistartResult(
        value=values[best],
        argmin=PsiConfiguration(best_point),
        best_restart=best,
        restart_values=tuple(values),
        iterations=tuple(iterations),
        gradient_norm=_tangent_gradient_norm(best_point),
    )


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
    wins, ties broken by restart index. Returns (best value, argmin); see
    :func:`multistart_minimize` for the diagnostics.
    """
    result = multistart_minimize(n_sources, n_detectors, restarts, seed, max_iters, trace)
    return result.value, result.argmin


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
