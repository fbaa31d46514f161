"""Classical stochastic-field engine.

Reports the mean intensities and the normalized pair products
<I_i I_j> / (<I_i> <I_j>) of fields A_a with independent uniform random phases
propagated by a complex transfer matrix. Both a closed-form evaluation and a
seeded Monte Carlo sampler are provided; they estimate the same quantities and
serve as cross-checks of one another.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .interferometer import as_complex_matrix
from .report import (
    DEFAULT_BATCHES,
    CorrelationReport,
    assemble_report,
    batch_sizes,
    batch_sums,
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
    # moments past the float range are refused by the report, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        means, products = _pair_matrix(setup.transfer, m2, m4 - m2**2, setup.overlap)
    return assemble_report(
        range(setup.n_detectors), means, products, "analytic", energy_scale=setup.energy_scale
    )


def _sample_amplitudes(
    setup: ClassicalSetup,
    tables: list[np.ndarray],
    n_shots: int,
    phase_rng: np.random.Generator,
    pick_rng: np.random.Generator,
) -> np.ndarray:
    """Complex field amplitudes (n_shots x n_sources) for one batch.

    ``tables`` holds each source's cumulative probabilities. Shot k consumes
    the k-th row of each stream, so a shot's randomness is a fixed function
    of (seed, shot index) regardless of batching; a one-level source's pick
    is drawn but not needed.
    """
    n = setup.n_sources
    phases = phase_rng.uniform(0.0, 2.0 * np.pi, size=(n_shots, n))
    picks = pick_rng.random(size=(n_shots, n))
    amps = np.empty((n_shots, n))
    for a, (src, cum) in enumerate(zip(setup.sources, tables)):
        pick = np.searchsorted(cum, picks[:, a], side="right") if cum.size > 1 else 0
        amps[:, a] = src.amplitudes[np.minimum(pick, cum.size - 1)]
    fields = np.empty((n_shots, n), complex)
    np.multiply(np.cos(phases, out=fields.real), amps, out=fields.real)
    np.multiply(np.sin(phases, out=fields.imag), amps, out=fields.imag)
    return fields


def _intensities(setup: ClassicalSetup, fields: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Detector intensities of each shot at unit energy scale, summed over ``rows``' modes."""
    # in row blocks that OpenBLAS does not thread (m·n·k < 2^16): after a
    # threaded call its pool spins and takes a CPU from the sampler threads
    step = max(1, (2**16 - 1) // rows.size)
    out = np.empty((len(fields), rows.shape[0]), complex)
    for r in range(0, len(fields), step):
        np.matmul(fields[r : r + step], rows.T, out=out[r : r + step])
    if rows.shape[0] == setup.n_detectors:
        return np.abs(out) ** 2
    return (np.abs(out) ** 2).reshape(len(fields), setup.n_detectors, -1).sum(axis=2)


def _generator_at(stream: np.random.SeedSequence, draws: int) -> np.random.Generator:
    """A Philox generator of ``stream`` after ``draws`` draws: Philox is
    counter-based, four draws per step, so it skips them without drawing."""
    bits = np.random.Philox(stream)
    bits.advance(draws // 4)
    bits.random_raw(draws % 4)
    return np.random.Generator(bits)


def mc_estimate_gbar(
    setup: ClassicalSetup, shots: int, seed: int, batches: int = DEFAULT_BATCHES
) -> CorrelationReport:
    """Monte Carlo estimate of the normalized pair average.

    Each shot samples one realization per source plus an independent uniform
    phase, propagates the fields, and records all detector intensities. The
    point estimate is the ratio of full-sample means; the standard error
    comes from the spread of the same statistic over equal shot batches.
    The batches are cut into one contiguous range per thread, up to one
    thread per available CPU for large batches; each range seeks its first
    rows of the two Philox streams once, so results are reproducible bit for
    bit for a fixed (seed, shots, batches) on any number of CPUs.
    """
    rows = setup.transfer
    if setup.overlap is not None:  # detector i's internal modes k: W[(i, k), a] = T_ia v_ak
        rows = (rows[:, None, :] * setup.overlap.mode_vectors().T).reshape(-1, setup.n_sources)
    tables = [np.cumsum(src.probabilities) for src in setup.sources]
    streams = np.random.SeedSequence(seed).spawn(2)  # phases, picks
    sizes = batch_sizes(shots, batches)
    starts = np.cumsum(sizes) - sizes

    def run(first: int, stop: int):  # the sums of batches first..stop-1
        rngs = [_generator_at(s, int(starts[first]) * setup.n_sources) for s in streams]
        # an overflowing intensity is refused by the report (the setting is per thread)
        with np.errstate(over="ignore", invalid="ignore"):
            for size in sizes[first:stop]:
                # the fields live until the next batch is drawn: freed sooner, their
                # pages went back to the system and faulted in again every batch
                fields = _sample_amplitudes(setup, tables, int(size), *rngs)
                yield batch_sums(_intensities(setup, fields, rows))

    workers = _worker_count(sizes.size, int(sizes[0]) * setup.n_sources)
    edges = [sizes.size * w // workers for w in range(workers + 1)]
    ranges = _map_in_threads(lambda w: list(run(edges[w], edges[w + 1])), workers)
    return report_from_batches(sum(ranges, []), "monte-carlo", setup.energy_scale)


# Smaller batches are mostly interpreter time, which threads cannot share: 400
# shots of four sources took 30% longer on two threads than on one (2 CPUs).
_THREADED_BATCH_DRAWS = 4096


def _worker_count(batches: int, draws: int) -> int:
    """Threads for ``batches`` batches of ``draws`` draws per stream."""
    if draws < _THREADED_BATCH_DRAWS:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, batches))


def _map_in_threads(fn, n: int) -> list:
    """``[fn(k) for k in range(n)]`` with ``fn(0)`` on the calling thread and
    ``fn(k)`` on thread k; numpy releases the GIL in the sampler's heavy
    stages. The caller works too, so there is one fewer thread's heap of batch
    arrays (2 MB less peak memory than a thread pool)."""
    results, failures = [None] * n, []

    def work(k: int):
        try:
            results[k] = fn(k)
        except BaseException as exc:  # raised again in the calling thread
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(1, n)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    if failures:
        raise failures[0]
    return results
