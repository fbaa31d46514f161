"""Light-source models.

Quantum sources are phase-averaged photon-number distributions q(n); after the
random phase of every pulse is averaged out, the number statistics are all
that survives of the state. Classical sources are discrete ensembles of field
amplitudes |A| drawn with given probabilities, each pulse carrying an
independent uniform phase in [0, 2*pi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidStatisticsError,
    MatrixValidationError,
    TruncationError,
    UndefinedEtaError,
)

# Constructors refuse to renormalize away more tail probability than this.
TAIL_TOL = 1e-10
# Probability vectors must sum to one within this tolerance.
NORMALIZATION_TOL = 1e-12


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _validated_probabilities(values, what: str) -> np.ndarray:
    probs = np.array(values, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise InvalidStatisticsError(f"{what} must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(probs)):
        raise InvalidStatisticsError(f"{what} contains non-finite values")
    if np.any(probs < -NORMALIZATION_TOL):
        raise InvalidStatisticsError(f"{what} contains negative probabilities")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise InvalidStatisticsError(f"{what} sums to {total!r}, expected 1")
    return probs


@dataclass(frozen=True, eq=False)
class PhotonStatistics:
    """Photon-number distribution q(n) for n = 0..cutoff.

    Immutable; the pmf is validated (nonnegative, normalized within 1e-12)
    on construction.
    """

    pmf: np.ndarray

    def __post_init__(self):
        probs = _validated_probabilities(self.pmf, "photon-number pmf")
        object.__setattr__(self, "pmf", _frozen(probs))

    @property
    def cutoff(self) -> int:
        return self.pmf.size - 1

    @property
    def mean(self) -> float:
        n = np.arange(self.pmf.size)
        return float(n @ self.pmf)

    @property
    def second_moment(self) -> float:
        n = np.arange(self.pmf.size)
        return float((n * n) @ self.pmf)

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean**2


def _renormalized(pmf: np.ndarray, what: str) -> PhotonStatistics:
    tail = 1.0 - pmf.sum()
    if tail > TAIL_TOL:
        raise TruncationError(
            f"{what}: cutoff {pmf.size - 1} leaves tail mass {tail:.3e} > {TAIL_TOL:g};"
            " increase the cutoff"
        )
    return PhotonStatistics(pmf / pmf.sum())


def fock(n: int) -> PhotonStatistics:
    """Number state with exactly ``n`` photons."""
    if n < 0:
        raise InvalidStatisticsError("photon number must be >= 0")
    pmf = np.zeros(n + 1)
    pmf[n] = 1.0
    return PhotonStatistics(pmf)


def coherent(mean: float, cutoff: int) -> PhotonStatistics:
    """Phase-averaged coherent state: Poisson statistics with the given mean."""
    if mean < 0:
        raise InvalidStatisticsError("coherent mean must be >= 0")
    if mean == 0:
        return fock(0)
    n = np.arange(cutoff + 1)
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, cutoff + 1)))))
    pmf = np.exp(-mean + n * np.log(mean) - log_factorial)
    return _renormalized(pmf, f"coherent(mean={mean})")


def thermal(mean: float, cutoff: int) -> PhotonStatistics:
    """Thermal (Bose-Einstein) statistics: p(n) proportional to (mean/(1+mean))^n."""
    if mean < 0:
        raise InvalidStatisticsError("thermal mean must be >= 0")
    if mean == 0:
        return fock(0)
    ratio = mean / (1.0 + mean)
    n = np.arange(cutoff + 1)
    pmf = (1.0 - ratio) * ratio**n
    return _renormalized(pmf, f"thermal(mean={mean})")


def squeezed_vacuum(r: float, cutoff: int) -> PhotonStatistics:
    """Squeezed vacuum with squeezing parameter ``r``; support on even n only.

    p(2k) = tanh(r)^(2k) (2k)! / (4^k (k!)^2 cosh(r)).
    """
    if r < 0:
        raise InvalidStatisticsError("squeezing parameter must be >= 0")
    if r == 0:
        return fock(0)
    pmf = np.zeros(cutoff + 1)
    term = 1.0 / np.cosh(r)
    tanh2 = np.tanh(r) ** 2
    k = 0
    while 2 * k <= cutoff:
        pmf[2 * k] = term
        term *= tanh2 * (2 * k + 1) / (2 * k + 2)
        k += 1
    return _renormalized(pmf, f"squeezed_vacuum(r={r})")


def eta(stats: PhotonStatistics) -> float:
    """Normalized sub-Poissonian parameter (mean - variance) / mean^2.

    Equals 1 for statistics supported on {0, 1}, 0 for Poissonian input, and
    is negative for super-Poissonian input; the value is returned unclamped
    because the sign carries the sub-Poissonian test.
    """
    mean = stats.mean
    if mean <= 0:
        raise UndefinedEtaError("eta is undefined for vacuum (zero mean)")
    return (mean - stats.variance) / mean**2


# Keeps exactly-Poissonian inputs, whose variance equals their mean, on the
# satisfied side of the non-strict boundary despite floating-point noise.
_BOUNDARY_TOL = 1e-12


def is_sub_poissonian(stats: PhotonStatistics) -> bool:
    """True when the variance does not exceed the mean (non-strict)."""
    return stats.variance <= stats.mean + _BOUNDARY_TOL * max(1.0, stats.second_moment)


@dataclass(frozen=True, eq=False)
class ClassicalSource:
    """Discrete ensemble of field-amplitude magnitudes with probabilities.

    Each emitted pulse carries the sampled magnitude and an independent
    uniform random phase, so first-order field averages vanish.
    """

    probabilities: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        probs = _validated_probabilities(self.probabilities, "realization probabilities")
        amps = np.array(self.amplitudes, dtype=float)
        if amps.shape != probs.shape:
            raise InvalidStatisticsError(
                "probabilities and amplitudes must have the same length"
            )
        if not np.all(np.isfinite(amps)) or np.any(amps < 0):
            raise InvalidStatisticsError("amplitude magnitudes must be finite and >= 0")
        object.__setattr__(self, "probabilities", _frozen(probs))
        object.__setattr__(self, "amplitudes", _frozen(amps))


def fixed_source(amplitude: float) -> ClassicalSource:
    """Source emitting a constant-magnitude field (no intensity fluctuations)."""
    return ClassicalSource(np.array([1.0]), np.array([float(amplitude)]))


def pseudo_thermal_source(mean_intensity: float, levels: int = 32) -> ClassicalSource:
    """Discretization of the exponential-intensity (pseudo-thermal) law.

    Gauss-Laguerre nodes and weights represent p(I) = exp(-I/mean)/mean, so
    low-order intensity moments match the continuous law to machine precision
    (in particular <I^2> = 2 <I>^2).
    """
    if mean_intensity < 0:
        raise InvalidStatisticsError("mean intensity must be >= 0")
    if levels < 2:
        raise InvalidStatisticsError("need at least 2 quadrature levels")
    nodes, weights = np.polynomial.laguerre.laggauss(levels)
    return ClassicalSource(weights / weights.sum(), np.sqrt(mean_intensity * nodes))


def classical_moments(source: ClassicalSource) -> tuple[float, float]:
    """Probability-weighted (<|A|^2>, <|A|^4>) of the ensemble."""
    with np.errstate(over="ignore"):  # an infinite moment is refused by the engines
        a2 = source.amplitudes**2
        m2 = float(source.probabilities @ a2)
        m4 = float(source.probabilities @ a2**2)
    return m2, m4


# Hermiticity / diagonal tolerance for overlap matrices.
_OVERLAP_TOL = 1e-12
# Eigenvalues may dip this far below zero before PSD validation fails.
_PSD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class OverlapMatrix:
    """Gram matrix V of pairwise mode overlaps between the sources' pulses.

    V is Hermitian positive semidefinite with unit diagonal; |V_ab|^2 scales
    the two-source interference term, so V_ab = 0 means pulses a and b are
    fully distinguishable and cannot interfere.
    """

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise MatrixValidationError("overlap matrix must be square")
        if not np.all(np.isfinite(arr)):
            raise MatrixValidationError("overlap matrix contains non-finite entries")
        if np.max(np.abs(arr - arr.conj().T)) > _OVERLAP_TOL:
            raise MatrixValidationError("overlap matrix must be Hermitian")
        if np.max(np.abs(np.diagonal(arr) - 1.0)) > _OVERLAP_TOL:
            raise MatrixValidationError("overlap matrix must have unit diagonal")
        if np.max(np.abs(arr)) > 1.0 + _OVERLAP_TOL:
            raise MatrixValidationError("overlap magnitudes must not exceed 1")
        if np.min(np.linalg.eigvalsh(arr)) < -_PSD_TOL:
            raise MatrixValidationError("overlap matrix must be positive semidefinite")
        object.__setattr__(self, "matrix", _frozen(arr))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def mode_vectors(self) -> np.ndarray:
        """Unit mode vectors (one per row) whose Gram matrix reproduces V.

        Built from the eigendecomposition so rank-deficient V (e.g. identical
        or fully distinguishable modes) factorizes cleanly.
        """
        vals, vecs = np.linalg.eigh(self.matrix)
        return vecs * np.sqrt(np.clip(vals, 0.0, None))
