"""Quantum photon-statistics engine.

Closed-form mean intensities and pair products for phase-averaged product
input states evolving through an m x m unitary. They differ from the classical
ones only by a term linear in the photon number, the fingerprint of number
quantization, so both engines evaluate one kernel, weighted by <n_a> and
var_a - <n_a>. An independent brute-force oracle evaluates the same values from
the Fock amplitudes of output-mode annihilation operators applied to whole
blocks of truncated product configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical_engine import classical_gbar
from .errors import DegenerateSetupError, DimensionError, OracleLimitError, PreconditionError
from .errors import check_detectors, check_energy_scale, check_integer, check_real
from .interferometer import UnitaryMatrix
from .report import CorrelationReport, active_positions, assemble_report
from .sources import PhotonStatistics

DEFAULT_PHOTON_LIMIT = 6
DEFAULT_PRUNE_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class QuantumSetup:
    """Unitary evolution, per-port photon statistics, monitored outputs.

    Unused input ports carry vacuum statistics; ``detectors`` selects the
    monitored output modes (all of them by default), the rows ``transfer`` of
    the unitary. Photons of all ports share one mode: ``overlap`` is None.
    """

    unitary: UnitaryMatrix
    stats: tuple[PhotonStatistics, ...]
    detectors: tuple[int, ...] | None = None
    energy_scale: float = 1.0
    overlap = None

    def __post_init__(self):
        m = self.unitary.dim
        stats = tuple(self.stats)
        if len(stats) != m:
            raise DimensionError(f"need one PhotonStatistics per mode: {m} != {len(stats)}")
        detectors = tuple(range(m)) if self.detectors is None else tuple(self.detectors)
        if any(isinstance(d, bool) or not isinstance(d, (int, np.integer)) for d in detectors):
            raise DimensionError(f"detector indices must be integers, got {detectors!r}")
        if len(set(detectors)) != len(detectors) or any(not 0 <= d < m for d in detectors):
            raise DimensionError(f"detector indices must be distinct and in range({m}), got {detectors!r}")
        check_detectors(len(detectors), "monitored detectors")
        check_energy_scale(self.energy_scale)
        transfer = self.unitary.matrix[list(detectors)]  # rows of a checked unitary, copied
        transfer.setflags(write=False)
        object.__setattr__(self, "stats", stats)
        object.__setattr__(self, "detectors", detectors)
        object.__setattr__(self, "transfer", transfer)

    @property
    def n_modes(self) -> int:
        return self.unitary.dim

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-port mean photon number <n> and number weight var - <n>, negative
        exactly for sub-Poissonian statistics: the term that beats the classical bound."""
        nbar = np.array([q.mean for q in self.stats])
        return nbar, np.array([q.number_weight for q in self.stats])


quantum_gbar = classical_gbar


def _lowered_norms(occ: np.ndarray, rows: np.ndarray, pairs, modes) -> tuple[np.ndarray, np.ndarray]:
    """Squared norms (K, D) of b_i|occ> and (K, D(D-1)/2) of b_i b_j|occ>, i < j.

    ``occ`` is a (K, m) block of occupations, ``rows`` the (D, m) monitored
    rows of U: b_i = sum_a U_ia a_a; ``pairs`` and ``modes`` index i < j and
    a < b. With x_ia = U_ia sqrt(n_a), b_i|occ> has amplitude x_ia on |occ - e_a>;
    b_i b_j|occ> has x_ja x_ib + x_jb x_ia on |occ - e_a - e_b> for a < b,
    which both lowering orders reach, and U_ia U_ja sqrt(n_a (n_a - 1)) on |occ - 2 e_a>.
    """
    (i, j), (a, b) = pairs, modes
    n = occ.astype(float)
    x = rows * np.sqrt(n)[:, None, :]
    xi, xj = x[:, i], x[:, j]
    apart = xj[..., a] * xi[..., b] + xj[..., b] * xi[..., a]
    together = (rows[i] * rows[j]) * np.sqrt(n * (n - 1))[:, None, :]
    amps = np.concatenate([apart, together], axis=-1)
    return (x.conj() * x).real.sum(-1), (amps.conj() * amps).real.sum(-1)


# The oracle evaluates configurations in blocks whose amplitude array, complex
# (rows, detector pairs, lowered states), fits in this many bytes; with the
# kernel's temporaries a block takes a few times that, whatever the cutoffs.
ORACLE_BLOCK_BYTES = 1 << 18


def _product_blocks(pmfs: list[np.ndarray], prune_tol: float, rows: int):
    """Yield (occupations, probabilities, pruned mass) for blocks of at most
    ``rows`` kept configurations of the product pmf, in lexicographic order,
    and a last, empty block. Depth-first over chunks of prefixes, each
    extended by one source as an array. A prefix below ``prune_tol`` bounds
    its completions, so its subtree is skipped and its probability summed into
    the pruned mass, which stays exactly zero when nothing is pruned. A prefix
    of probability exactly 0 is neither kept nor pruned, whatever ``prune_tol``.
    """
    m, pruned = len(pmfs), 0.0
    # a chunk of prefixes extends to at most ORACLE_BLOCK_BYTES of occupations
    steps = [max(1, ORACLE_BLOCK_BYTES // (8 * m * p.size)) for p in pmfs[1:]] + [rows]
    stack = [(np.empty((1, 0), int), np.ones(1))]
    while stack:
        occ, prob = stack.pop()
        joint = prob[:, None] * pmfs[occ.shape[1]]
        keep = (joint >= prune_tol) & (joint > 0)
        pruned += float(joint[~keep].sum())
        parent, n = np.nonzero(keep)
        occ, prob = np.column_stack([occ[parent], n]), joint[parent, n]
        step = steps[occ.shape[1] - 1]
        chunks = [(occ[k : k + step], prob[k : k + step]) for k in range(0, n.size, step)]
        if occ.shape[1] < m:
            stack.extend(reversed(chunks))
            continue
        for chunk in chunks:
            yield *chunk, pruned
            pruned = 0.0
    yield np.empty((0, m), int), np.empty(0), pruned


def oracle_gbar(
    setup: QuantumSetup,
    photon_limit: int = DEFAULT_PHOTON_LIMIT,
    prune_tol: float = DEFAULT_PRUNE_TOL,
) -> CorrelationReport:
    """Normalized pair average computed entirely through the Fock oracle.

    Averages the pure-state oracle values over the product photon-number
    distribution a block at a time, checking each block against
    ``photon_limit`` before computing its amplitudes. The report records the
    kept configurations and the pruned probability mass. Fock inputs keep one
    configuration, with probability 1: the oracle of that pure state. When
    pruning leaves fewer than two of the detectors that the setup lights
    receiving light, it raises :class:`OracleLimitError` naming ``prune_tol``;
    a ``prune_tol`` that is not a finite real >= 0 raises ``PreconditionError``.
    """
    photon_limit = check_integer(photon_limit, "photon_limit")
    if not 0 <= (prune_tol := check_real(prune_tol, "prune_tol")) < np.inf:
        raise PreconditionError(f"prune_tol must be finite and >= 0, got {prune_tol!r}")
    det, m = setup.detectors, setup.n_modes
    upper, modes = np.triu_indices(len(det), 1), np.triu_indices(m, 1)
    means, products, pruned, kept = np.zeros(len(det)), np.zeros((len(det),) * 2), 0.0, 0
    block_rows = max(1, ORACLE_BLOCK_BYTES // (16 * upper[0].size * m * (m + 1) // 2))
    for occ, probs, mass in _product_blocks([q.pmf for q in setup.stats], prune_tol, block_rows):
        over = np.flatnonzero(occ.sum(axis=1) > photon_limit)
        if over.size:
            raise OracleLimitError(
                f"configuration {tuple(int(n) for n in occ[over[0]])} exceeds the oracle"
                f" budget of {photon_limit} photons; raise photon_limit or lower the source cutoffs"
            )
        block_means, block_pairs = _lowered_norms(occ, setup.transfer, upper, modes)
        means += probs @ block_means
        products[upper] += probs @ block_pairs
        pruned += mass
        kept += probs.size
    if pruned > 0:
        try:
            active_positions(means)
        except DegenerateSetupError:
            # a setup that lights fewer than two detectors anyway is refused as such
            active_positions(np.abs(setup.transfer) ** 2 @ setup.weights()[0])
            raise OracleLimitError(
                f"prune_tol = {prune_tol!r} pruned probability mass {pruned:.3g}, and the kept"
                " configurations light fewer than two detectors; lower prune_tol"
            ) from None
    e = setup.energy_scale
    return assemble_report(
        det, means, products, "oracle", pruned_mass=pruned, configurations=kept, energy_scale=e
    )
