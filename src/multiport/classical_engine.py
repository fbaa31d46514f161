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


# Phasors come from a table of 2^12 turns plus a short series in the residual
# angle (Tang, ARITH 10, 1991): |theta| <= pi / 2^12, so the first dropped
# terms, theta^5/120 and theta^6/720, are below 3e-18. The constants are numpy
# scalars: with a Python float, a ufunc call on a few hundred draws took twice
# as long.
_TURNS = np.float64(2**12)
_STEP = 2.0 * np.pi / _TURNS
_SIN_SERIES = (_STEP, -(_STEP**3) / 6.0)
_COS_SERIES = (-(_STEP**2) / 2.0, _STEP**4 / 24.0)
# x + _MAGIC holds a nonnegative integer x < 2^51 in the low bits of its mantissa
_MAGIC = np.float64(1.5 * 2.0**52)
_MAGIC_BITS = _MAGIC.view(np.int64)


def _turn_table() -> np.ndarray:
    """exp(2 pi i k / _TURNS) for k = 0.._TURNS: the first quadrant from
    numpy, the others by exact quarter-turn rotations."""
    angle = _STEP * np.arange(int(_TURNS) // 4)
    quadrant = np.cos(angle) + 1j * np.sin(angle)
    return np.concatenate([quadrant, 1j * quadrant, -quadrant, -1j * quadrant, [1.0]])


_TURN_TABLE = _turn_table()

# Draws per stream in one chunk. A thread's workspace holds seven chunks of
# draws, whatever the shots; smaller chunks pay more per numpy call.
_CHUNK_DRAWS = 2**15


def _chunk_shots(n: int, rows: int, m: int) -> int:
    """Shots per chunk: at most _CHUNK_DRAWS draws of each stream for ``n``
    sources, and the ``rows`` propagated amplitudes and ``m`` intensities of
    the shots in at most four chunks of draws."""
    return max(1, min(_CHUNK_DRAWS // n, 4 * _CHUNK_DRAWS // (rows + m)))


def _as_index(x: np.ndarray) -> np.ndarray:
    """The integer-valued floats x (0 <= x < 2^51) as int64, in place."""
    x += _MAGIC
    index = x.view(np.int64)
    index -= _MAGIC_BITS
    return index


def _phasors(u: np.ndarray, x: np.ndarray, f: np.ndarray, w: np.ndarray):
    """Write cos 2 pi u and sin 2 pi u to ``x[..., 0]`` and ``x[..., 1]``.

    ``u`` (consumed), ``f`` and the complex scratch ``w`` share one shape.
    The nearest table turn k gives z = exp(i a), and the residual r = 2^12 u
    - k (exact, |r| <= 1/2) the series w = (cos theta - 1) + i sin theta of
    theta = r * _STEP; then exp(i (a + theta)) = z + z w.
    """
    u *= _TURNS
    np.rint(u, out=f)
    u -= f
    z = x.view(complex).reshape(u.shape)
    _TURN_TABLE.take(_as_index(f), out=z, mode="clip")
    np.multiply(u, u, out=f)
    s1, s3 = _SIN_SERIES
    c2, c4 = _COS_SERIES
    sin_t, cos_t = w.imag, w.real
    np.multiply(f, s3, out=sin_t)
    sin_t += s1
    sin_t *= u
    np.multiply(f, c4, out=cos_t)
    cos_t += c2
    cos_t *= f
    w *= z
    z += w


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


def _pick_amplitudes(v, picks, offsets, f, out, flags) -> np.ndarray:
    """The amplitudes that the pick draws ``v`` (consumed) choose from the
    alias tables ``picks`` of :func:`_alias_picks`, into ``out``.

    ``offsets`` holds 2 a cells in source a's column; ``f`` is scratch of
    ``v``'s shape and ``flags`` a boolean array of that shape.
    """
    cells, q, amplitudes = picks
    v *= cells  # below cells even for v = 1 - 2^-53: the product rounds down
    np.floor(v, out=f)
    v -= f
    f += f
    f += offsets
    index = _as_index(f)
    q.take(index, out=out, mode="clip")
    index += np.greater_equal(v, out, out=flags)
    return amplitudes.take(index, out=out, mode="clip")


def _propagator(setup: ClassicalSetup) -> np.ndarray:
    """The real (2 M K x 2 N) matrix that takes a shot's fields, as
    (re, im) per source, to the real and then the imaginary parts of its
    ``M K`` detected amplitudes, internal mode k major and detector i minor.

    The detection rows are W[(k, i), a] = T_ia v_ak for the sources' unit
    mode vectors v, or the transfer matrix itself (K = 1) without overlaps.
    The amplitude of every one-level source is folded into its column.
    """
    rows = setup.transfer[None]
    if setup.overlap is not None:
        rows = rows * setup.overlap.mode_vectors().T[:, None, :]
    rows = rows.reshape(-1, setup.n_sources) * [
        src.amplitudes[0] if src.amplitudes.size == 1 else 1.0 for src in setup.sources
    ]
    g = np.empty((2, rows.shape[0], setup.n_sources, 2))
    g[0, ..., 0], g[0, ..., 1] = rows.real, -rows.imag
    g[1, ..., 0], g[1, ..., 1] = rows.imag, rows.real
    return g.reshape(2 * rows.shape[0], -1)


def _intensities(x: np.ndarray, g: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Detector intensities (M x shots) of the fields ``x`` (shots x N x 2),
    at unit energy scale, into ``out``: the squares of the amplitudes ``g x``
    (into ``y``) summed over real and imaginary parts and internal modes."""
    np.matmul(g, x.reshape(len(x), -1).T, out=y)
    y *= y
    m = len(out)
    np.add(y[:m], y[m : 2 * m], out=out)
    for k in range(2 * m, len(y), m):
        out += y[k : k + m]
    return out


def _workspace(chunk: int, n: int, rows: int, m: int, picks):
    """Views for one thread's chunks of up to ``chunk`` shots, by chunk size,
    into one array of seven regions of draws: the fields x (shots x n x 2)
    in the first two; (shots x n) scratch u and f in the next two; in the two
    after, the complex scratch w of the phasors, then the picked amplitudes
    and boolean flags; and the alias cell offsets (2 a cells in column a)
    in the last. Propagation puts its ``rows`` amplitudes and ``m``
    intensities over the four scratch regions.

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
    region = max(_CHUNK_DRAWS, chunk * n)
    work = np.empty(3 * region + max(4 * region, (rows + m) * chunk))
    offsets = work[len(work) - region :][: chunk * n].reshape(chunk, n)
    if picks:
        offsets[:] = 2 * picks[0] * np.arange(n)
    cache = {}

    def views(shots: int) -> tuple:
        if shots not in cache:
            d = shots * n
            u, f, amps, flags = (work[k * region : k * region + d] for k in range(2, 6))
            w = work[4 * region : 4 * region + 2 * d].view(complex)
            y = work[2 * region : 2 * region + rows * shots].reshape(rows, shots)
            out = work[2 * region + rows * shots : 2 * region + (rows + m) * shots].reshape(m, shots)
            cache[shots] = tuple(
                a.reshape(shots, n) for a in (u, f, w, amps, flags.view(bool)[:d])
            ) + (work[: 2 * d].reshape(shots, n, 2), y, out, offsets[:shots])
        return cache[shots]

    return views


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

    Shot s of source a takes draw s N + a of two Philox streams: u of the
    phase stream is the phase 2 pi u, and v of the pick stream picks a level
    from the source's alias table (drawn only when some source has more than
    one level). A batch is summed in chunks of :func:`_chunk_shots` shots, in
    order, and each thread reuses one workspace for all its chunks, so memory
    does not grow with ``shots``. The batches are cut into one contiguous
    range per thread, up to one thread per available CPU for large batches;
    each range seeks its first rows of the two streams once, so results are
    reproducible bit for bit for a fixed (seed, shots, batches) on any
    number of CPUs.
    """
    n = setup.n_sources
    g = _propagator(setup)
    picks = _alias_picks(setup.sources)
    streams = np.random.SeedSequence(seed).spawn(2)  # phases, picks
    sizes = batch_sizes(shots, batches).tolist()
    starts = np.cumsum(sizes) - sizes
    chunk = min(_chunk_shots(n, len(g), setup.n_detectors), sizes[0])

    def run(first: int, stop: int):  # the sums of batches first..stop-1
        phase_rng, pick_rng = (_generator_at(s, int(starts[first]) * n) for s in streams)
        views = _workspace(chunk, n, len(g), setup.n_detectors, picks)
        # an overflowing intensity is refused by the report (the setting is per thread)
        with np.errstate(over="ignore", invalid="ignore"):
            for size in sizes[first:stop]:
                total = None
                for begin in range(0, size, chunk):
                    u, f, w, amps, flags, x, y, out, offsets = views(min(chunk, size - begin))
                    _phasors(phase_rng.random(out=u), x, f, w)
                    if picks:
                        _pick_amplitudes(pick_rng.random(out=u), picks, offsets, f, amps, flags)
                        x[..., 0] *= amps
                        x[..., 1] *= amps
                    sums = batch_sums(_intensities(x, g, y, out).T)
                    total = sums if total is None else tuple(a + b for a, b in zip(total, sums))
                yield total

    workers = _worker_count(len(sizes), sizes[0] * n)
    edges = [len(sizes) * w // workers for w in range(workers + 1)]
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
