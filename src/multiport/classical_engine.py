"""Classical stochastic-field engine.

Reports the mean intensities and the normalized pair products
<I_i I_j> / (<I_i> <I_j>) of fields A_a with independent uniform random phases
propagated by a complex transfer matrix. Both a closed-form evaluation and a
seeded Monte Carlo sampler are provided; they estimate the same quantities and
serve as cross-checks of one another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .interferometer import as_complex_matrix
from .report import (
    DEFAULT_BATCHES,
    CorrelationReport,
    assemble_report,
    batch_sizes,
    report_from_batches,
)
from .sources import ClassicalSource, OverlapMatrix, classical_moments


@dataclass(frozen=True, eq=False)
class ClassicalSetup:
    """Transfer matrix, one stochastic source per input port, optional
    pairwise mode overlaps, and the single-pulse energy scale.

    The energy scale multiplies every intensity and provably cancels in the
    normalized pair average; it is kept so intensity reports carry physical
    meaning.
    """

    transfer: np.ndarray
    sources: tuple[ClassicalSource, ...]
    overlap: OverlapMatrix | None = None
    energy_scale: float = 1.0

    def __post_init__(self):
        arr = as_complex_matrix(self.transfer, "transfer matrix")
        sources = tuple(self.sources)
        if arr.shape[1] != len(sources):
            raise DimensionError(
                f"transfer matrix has {arr.shape[1]} columns but {len(sources)} sources given"
            )
        if self.overlap is not None and self.overlap.dim != len(sources):
            raise DimensionError("overlap matrix must be n_sources x n_sources")
        if not (self.energy_scale > 0):
            raise DimensionError("energy scale must be positive")
        object.__setattr__(self, "transfer", arr)
        object.__setattr__(self, "sources", sources)

    @property
    def n_detectors(self) -> int:
        return self.transfer.shape[0]

    @property
    def n_sources(self) -> int:
        return self.transfer.shape[1]


def _pair_matrix(
    transfer: np.ndarray,
    w: np.ndarray,
    f: np.ndarray,
    overlap: OverlapMatrix | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form means mu and pair products P[i, j] = <I_i I_j> for i != j.

    One formula serves both engines; only the per-source weights differ.
    ``w`` is the mean power (<|A_a|^2> or <n_a>) and ``f`` the fluctuation
    weight (<|A_a|^4> - <|A_a|^2>^2 or var - <n_a>). With T' = |T|^2:

        mu = T' w
        P  = mu mu^T + |T diag(w) T^H|^2 - T' diag(w^2) T'^T + T' diag(f) T'^T

    Both are at unit energy scale: an energy scale E multiplies mu by E and P
    by E^2 and cancels in every ratio, so callers apply it only where an
    intensity is reported, and huge or tiny scales cannot overflow the ratios.

    The first bracket term is the two-source interference; with an overlap
    matrix each source pair (a, b) is weighted by |V_ab|^2, contracted through
    its eigendecomposition. The diagonal of P has no meaning.
    """
    t2 = np.abs(transfer) ** 2
    means = t2 @ w
    if overlap is None:
        interference = np.abs((transfer * w) @ transfer.conj().T) ** 2
    else:
        lam, vecs = np.linalg.eigh(np.abs(overlap.matrix) ** 2)
        g = (transfer[None] * (w * vecs.T)[:, None, :]) @ transfer.conj().T
        interference = np.tensordot(lam, np.abs(g) ** 2, axes=1)
    interference = interference - (t2 * w**2) @ t2.T
    fluctuation = (t2 * f) @ t2.T
    return means, np.outer(means, means) + (interference + fluctuation)


def classical_gbar(setup: ClassicalSetup) -> CorrelationReport:
    """Closed-form normalized pair average over all active detectors.

    The report is the engine's answer: it holds the intensity means and every
    pair ratio, so <I_i I_j> = ratio * mean_i * mean_j.
    """
    moments = np.array([classical_moments(s) for s in setup.sources])
    m2, m4 = moments[:, 0], moments[:, 1]
    means, products = _pair_matrix(setup.transfer, m2, m4 - m2**2, setup.overlap)
    return assemble_report(
        range(setup.n_detectors), means, products, "analytic", energy_scale=setup.energy_scale
    )


def _sample_amplitudes(
    setup: ClassicalSetup,
    n_shots: int,
    phase_rng: np.random.Generator,
    pick_rng: np.random.Generator,
) -> np.ndarray:
    """Complex field amplitudes (n_shots x n_sources) for one batch.

    Shot k consumes the k-th row of each stream, so a shot's randomness is a
    fixed function of (seed, shot index) regardless of batching.
    """
    n = setup.n_sources
    phases = phase_rng.uniform(0.0, 2.0 * np.pi, size=(n_shots, n))
    picks = pick_rng.random(size=(n_shots, n))
    amps = np.empty((n_shots, n))
    for a, src in enumerate(setup.sources):
        cum = np.cumsum(src.probabilities)
        idx = np.minimum(np.searchsorted(cum, picks[:, a], side="right"), cum.size - 1)
        amps[:, a] = src.amplitudes[idx]
    return amps * np.exp(1j * phases)


def _intensities(setup: ClassicalSetup, fields: np.ndarray, modes: np.ndarray | None) -> np.ndarray:
    """Detector intensities of each shot at unit energy scale."""
    if modes is None:
        return np.abs(fields @ setup.transfer.T) ** 2
    # per-source unit mode vectors: the detected field is a vector sum and the
    # intensity its squared norm, reproducing the |V_ab|^2 interference factor
    per_mode = np.einsum("ia,sak->sik", setup.transfer, fields[:, :, None] * modes[None])
    return (np.abs(per_mode) ** 2).sum(axis=2)


def mc_estimate_gbar(
    setup: ClassicalSetup, shots: int, seed: int, batches: int = DEFAULT_BATCHES
) -> CorrelationReport:
    """Monte Carlo estimate of the normalized pair average.

    Each shot samples one realization per source plus an independent uniform
    phase, propagates the fields, and records all detector intensities. The
    point estimate is the ratio of full-sample means; the standard error
    comes from the spread of the same statistic over equal shot batches.
    Results are reproducible bit-for-bit for a fixed (seed, shots, batches).
    """
    modes = setup.overlap.mode_vectors() if setup.overlap is not None else None

    root = np.random.SeedSequence(seed)
    phase_ss, pick_ss = root.spawn(2)
    phase_rng = np.random.Generator(np.random.Philox(phase_ss))
    pick_rng = np.random.Generator(np.random.Philox(pick_ss))

    def blocks():
        for size in batch_sizes(shots, batches):
            # the fields live until the next batch is drawn, as in a plain
            # loop: freed sooner, their pages went back to the system and
            # faulted in again every batch (3x the page faults, about 20%
            # more time for 1e6 shots on three modes)
            fields = _sample_amplitudes(setup, size, phase_rng, pick_rng)
            yield _intensities(setup, fields, modes)

    return report_from_batches(blocks(), "monte-carlo", setup.energy_scale)
