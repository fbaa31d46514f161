"""Classical stochastic-field engine.

Reports the mean intensities and the normalized pair products
<I_i I_j> / (<I_i> <I_j>) of fields A_a with independent uniform random phases
propagated by a complex transfer matrix. Both a closed-form evaluation and a
seeded Monte Carlo sampler are provided; they estimate the same quantities and
serve as cross-checks of one another.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, check_energy_scale, check_seed
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
    meaning. Row i of the transfer matrix is detector i of ``detectors``.
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
        check_energy_scale(self.energy_scale)
        object.__setattr__(self, "transfer", arr)
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "detectors", tuple(range(arr.shape[0])))

    @property
    def n_detectors(self) -> int:
        return self.transfer.shape[0]

    @property
    def n_sources(self) -> int:
        return self.transfer.shape[1]

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-source mean power <|A|^2> and fluctuation weight
        <|A|^4> - <|A|^2>^2, which is never negative."""
        m2, m4 = np.array([classical_moments(s) for s in self.sources]).T
        # moments past the float range are refused by the report, without numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return m2, m4 - m2**2


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


def classical_gbar(setup) -> CorrelationReport:
    """Closed-form normalized pair average over all active detectors of a
    ClassicalSetup or a QuantumSetup: they differ only in ``weights()``.

    The report is the engine's answer: it holds the intensity means and every
    pair ratio, so <I_i I_j> = ratio * mean_i * mean_j.
    """
    w, f = setup.weights()
    # as in weights(): what overflows here is refused by the report
    with np.errstate(over="ignore", invalid="ignore"):
        means, products = _pair_matrix(setup.transfer, w, f, setup.overlap)
    return assemble_report(
        setup.detectors, means, products, "analytic", energy_scale=setup.energy_scale
    )


# A phase is the turn k / 4096 below a draw u, k = floor(4096 u), and its
# phasor _TURNS[k]: the first quadrant from numpy, the rest by exact
# rotations, so the quarter turns are exactly 1, i, -1, -i. Phases uniform on
# the 4096-th roots of unity have the moments of continuous ones below order
# 4096, as sums of roots of unity vanish; the estimator's means are of order
# two in each phasor and its variances of order four.
_QUADRANT = np.exp(2j * np.pi / 4096 * np.arange(1024))
_TURNS = np.concatenate([_QUADRANT, 1j * _QUADRANT, -_QUADRANT, -1j * _QUADRANT])

# Draws per stream in one chunk. A thread's workspace holds seven chunks of
# draws, whatever the shots; smaller chunks pay more per numpy call.
_CHUNK_DRAWS = 2**15


def _chunk_shots(n: int, rows: int, m: int) -> int:
    """Shots per chunk: at most _CHUNK_DRAWS draws of each stream for ``n``
    sources, and the ``rows`` complex propagated amplitudes and ``m``
    intensities of the shots in at most four chunks of draws."""
    return max(1, min(_CHUNK_DRAWS // n, 4 * _CHUNK_DRAWS // (2 * rows + m)))


def _phasors(u: np.ndarray, index: np.ndarray, z: np.ndarray) -> None:
    """Write the table phasors of the draws ``u`` (shots x n, consumed) to
    the rows ``z`` (n x shots), with int64 scratch ``index`` of ``z``'s
    shape. The turns are cast from ``u`` transposed, so every later pass is
    contiguous; the scaling is exact and faster than a cast that multiplies,
    and the cast's truncation is floor."""
    u *= _TURNS.size
    np.copyto(index, u.T, casting="unsafe")
    _TURNS.take(index, out=z, mode="clip")


def _alias_table(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker's alias table of the probabilities ``p`` by Vose's construction:
    cell j keeps level j with probability q[j], else its alias level."""
    cells = p.size
    scaled = p * cells
    q, alias = np.ones(cells), np.arange(cells)
    small = [j for j in range(cells) if scaled[j] < 1.0]
    large = [j for j in range(cells) if scaled[j] >= 1.0]
    while small and large:
        j, big = small.pop(), large.pop()
        q[j], alias[j] = scaled[j], big
        scaled[big] = (scaled[big] + scaled[j]) - 1.0
        (small if scaled[big] < 1.0 else large).append(big)
    return q, alias  # a level left over keeps q = 1: its deficit is rounding


def _alias_picks(sources: tuple[ClassicalSource, ...]):
    """Per-source alias tables of ``cells`` cells each, every source padded
    with zero-probability levels, or None when every source has one level.

    Cell c = a * cells + j of source a is the pair (2c, 2c + 1) of the
    returned ``q`` (q_c twice) and ``amplitudes`` (level j's amplitude, then
    its alias's), so the pick of draw v is entry 2c + (frac >= q_c) with
    j = floor(v * cells) and frac = v * cells - j.
    """
    cells = max(src.probabilities.size for src in sources)
    if cells == 1:
        return None
    q, amplitudes = [], []
    for src in sources:
        p = np.zeros(cells)
        p[: src.probabilities.size] = src.probabilities
        amps = np.zeros(cells)
        amps[: src.amplitudes.size] = src.amplitudes if src.amplitudes.size > 1 else 1.0
        keep, alias = _alias_table(p)
        q.append(keep)
        amplitudes.append(np.stack([amps, amps[alias]], axis=1))
    return np.float64(cells), np.repeat(np.concatenate(q), 2), np.concatenate(amplitudes).ravel()


def _pick_amplitudes(v, picks, offsets, t, out, index) -> np.ndarray:
    """The amplitudes that the pick draws ``v`` (shots x N, consumed) choose
    from the alias tables ``picks`` of :func:`_alias_picks`, into ``out``
    (N x shots).

    ``offsets`` is the column of 2 a cells for source a; ``t`` is scratch of
    ``out``'s shape and ``index`` int64 scratch of that shape. The draws are
    transposed once, into ``t``; ``v``'s memory then holds the cells and the
    boolean flags.
    """
    cells, q, amplitudes = picks
    np.multiply(v.T, cells, out=t)  # below cells even for v = 1 - 2^-53: the product rounds down
    f = v.reshape(t.shape)
    np.floor(t, out=f)
    t -= f
    f += f
    f += offsets
    np.copyto(index, f, casting="unsafe")
    q.take(index, out=out, mode="clip")
    index += np.greater_equal(t, out, out=f.reshape(-1).view(bool)[: t.size].reshape(t.shape))
    return amplitudes.take(index, out=out, mode="clip")


def _detection_rows(setup: ClassicalSetup) -> np.ndarray:
    """The complex (M K x N) matrix W[(k, i), a] = T_ia v_ak that takes a
    shot's fields to its ``M K`` detected amplitudes, internal mode k major
    and detector i minor, for the sources' unit mode vectors v, or the
    transfer matrix itself (K = 1) without overlaps. The amplitude of every
    one-level source is folded into its column.
    """
    rows = setup.transfer[None]
    if setup.overlap is not None:
        rows = rows * setup.overlap.mode_vectors().T[:, None, :]
    return rows.reshape(-1, setup.n_sources) * [
        src.amplitudes[0] if src.amplitudes.size == 1 else 1.0 for src in setup.sources
    ]


def _detected_intensities(z: np.ndarray, rows: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Detector intensities (M x shots) of the fields ``z`` (N x shots), at
    unit energy scale, into ``out``: the squared moduli of the amplitudes
    ``rows @ z`` (into the complex ``y``), summed over internal modes. The
    squares and the sum over modes run on ``y``'s real view, contiguous;
    one pass then adds each real square to its imaginary one."""
    np.matmul(rows, z, out=y)
    y = y.view(float)
    y *= y
    m = len(out)
    for k in range(m, len(y), m):
        y[:m] += y[k : k + m]
    return np.add(y[:m, 0::2], y[:m, 1::2], out=out)


def _workspace(chunk: int, n: int, rows: int, m: int):
    """Views for one thread's chunks of up to ``chunk`` shots, by chunk size,
    into one array of seven regions of draws. The complex fields z (n x
    shots) take the first two and the ones of the intensity sums the last.
    The four between are scratch: of the phases' draws and int64 turns; of
    the picks' draws (then cells and flags), transposed draws, int64 cells
    and amplitudes; and of propagation's ``rows`` complex amplitudes, then
    ``m`` intensities, and the intensities' copy for their Gram, which
    reuses the amplitudes' memory.

    Each region takes _CHUNK_DRAWS draws however few a chunk needs, so every
    estimate allocates the same size, and the next estimate reuses the block
    that the allocator kept from the last. With sizes that followed the
    setup, alternating estimates held two blocks each (1.2 MB more peak
    memory in the cross-check benchmark); with a mapping of its own per
    estimate, the heap's mmap threshold stayed low and the Fock oracle's
    arrays were mapped afresh on every call (1.5x its time there). A
    smaller chunk uses the start of each region, whose later pages stay
    untouched.
    """
    r = max(_CHUNK_DRAWS, chunk * n)
    work = np.empty(3 * r + max(4 * r, (2 * rows + m) * chunk))
    ones = work[len(work) - r :][:chunk]
    ones[:] = 1.0
    cache = {}

    def at(start: int, shape: tuple, dtype=float) -> np.ndarray:
        size = shape[0] * shape[1] * np.dtype(dtype).itemsize // 8
        return work[start : start + size].view(dtype).reshape(shape)

    def views(shots: int) -> tuple:
        if shots not in cache:
            fields, phased = (n, shots), (n - 1, shots)  # the draws are shot-major
            cache[shots] = (
                at(0, fields, complex),
                (at(2 * r, phased[::-1]), at(3 * r, phased, np.int64)),
                (at(2 * r, fields[::-1]), at(3 * r, fields), at(5 * r, fields), at(4 * r, fields, np.int64)),
                (at(2 * r, (rows, shots), complex), at(2 * r + 2 * rows * shots, (m, shots))),
                (ones[:shots], at(2 * r, (m, shots)).T),
            )
        return cache[shots]

    return views


def _generator_at(stream: np.random.SeedSequence, draws: int) -> np.random.Generator:
    """A PCG64 generator of ``stream`` after ``draws`` draws: each double
    takes one 64-bit output, and ``advance`` skips them without drawing."""
    return np.random.Generator(np.random.PCG64(stream).advance(draws))


def mc_estimate_gbar(
    setup: ClassicalSetup, shots: int, seed: int, batches: int = DEFAULT_BATCHES
) -> CorrelationReport:
    """Monte Carlo estimate of the normalized pair average.

    Each shot samples one realization per source plus an independent uniform
    phase, propagates the fields, and records all detector intensities. The
    point estimate is the ratio of full-sample means; the standard error
    comes from the spread of the same statistic over equal shot batches.

    The intensities depend only on the phases relative to one source, so
    source 0 keeps phase 0 and source a >= 1 of shot s takes draw
    s (N - 1) + a - 1 of a PCG64 phase stream, as its turn on the 4096-point
    grid (:func:`_phasors`). Draw s N + a of a pick stream, drawn only when
    some source has several levels, picks source a's amplitude from its alias
    table; row 0 of the fields is thus source 0's amplitude, or 1 where it is
    folded into the detection rows. A chunk's fields are the N rows of a
    complex view of the thread's workspace, and one complex GEMM takes them
    to the detected amplitudes: 13 numpy calls for fixed sources, 25 with
    picks, all contiguous but the draws' transposing passes and the last add.

    A batch is summed in chunks of :func:`_chunk_shots` shots, in order, and
    each thread reuses one workspace for all its chunks, so memory does not
    grow with ``shots``. The batches are cut into one contiguous range per
    thread, up to one thread per available CPU for large batches; each range
    seeks its first rows of the two streams once, so results are
    reproducible bit for bit for a fixed (seed, shots, batches) on any
    number of CPUs. The seed and the counts must be integers (Python or
    numpy, not bool), the seed non-negative, else ``PreconditionError``;
    fewer than 2 batches of 2 shots raise ``InsufficientSamplesError``.
    """
    n = setup.n_sources
    rows = _detection_rows(setup)
    picks = _alias_picks(setup.sources)
    offsets = 2 * picks[0] * np.arange(n)[:, None] if picks else None
    streams = np.random.SeedSequence(check_seed(seed)).spawn(2)  # phases, picks
    sizes = batch_sizes(shots, batches).tolist()
    starts = np.cumsum(sizes) - sizes
    chunk = min(_chunk_shots(n, len(rows), setup.n_detectors), sizes[0])
    workers = _worker_count(len(sizes), sizes[0] * n)
    edges = [len(sizes) * w // workers for w in range(workers + 1)]

    def run(w: int):  # the sums of the batches of range w
        first = edges[w]
        phase_rng = _generator_at(streams[0], int(starts[first]) * (n - 1))
        pick_rng = _generator_at(streams[1], int(starts[first]) * n)
        views = _workspace(chunk, n, len(rows), setup.n_detectors)
        # an overflowing intensity is refused by the report (the setting is per thread)
        with np.errstate(over="ignore", invalid="ignore"):
            for size in sizes[first : edges[w + 1]]:
                total = None
                for begin in range(0, size, chunk):
                    z, phasing, picking, detecting, summing = views(min(chunk, size - begin))
                    z[0] = 1.0
                    _phasors(phase_rng.random(out=phasing[0]), *phasing[1:], z[1:])
                    if picks:
                        z *= _pick_amplitudes(pick_rng.random(out=picking[0]), picks, offsets, *picking[1:])
                    sums = batch_sums(_detected_intensities(z, rows, *detecting).T, *summing)
                    total = sums if total is None else tuple(a + b for a, b in zip(total, sums))
                yield total

    # numpy releases the GIL in the heavy stages; the caller takes range 0, so
    # one worker starts no thread, and the pool joins its threads on any error
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        others = pool.map(lambda w: list(run(w)), range(1, workers))
        ranges = [list(run(0)), *others]
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

