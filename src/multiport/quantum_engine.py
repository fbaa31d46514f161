"""Quantum photon-statistics engine.

Closed-form mean intensities and pair products for phase-averaged product
input states evolving through an m x m unitary, plus an independent
brute-force oracle that evaluates the same expectation values by applying
output-mode annihilation operators to truncated Fock states.

The closed form differs from the classical engine only by a term linear in
the photon number, the fingerprint of number quantization; everything else
maps onto the classical expressions with <n_a> in place of <|A_a|^2>. Both
engines therefore evaluate one kernel, weighted by <n_a> and var_a - <n_a>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical_engine import _pair_matrix
from .errors import DimensionError, OracleLimitError
from .interferometer import UnitaryMatrix
from .report import CorrelationReport, assemble_report
from .sources import PhotonStatistics

DEFAULT_PHOTON_LIMIT = 6
DEFAULT_PRUNE_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class QuantumSetup:
    """Unitary evolution, per-port photon statistics, monitored outputs.

    Unused input ports carry vacuum statistics; ``detectors`` selects the
    monitored output modes (all of them by default).
    """

    unitary: UnitaryMatrix
    stats: tuple[PhotonStatistics, ...]
    detectors: tuple[int, ...] | None = None
    energy_scale: float = 1.0

    def __post_init__(self):
        m = self.unitary.dim
        stats = tuple(self.stats)
        if len(stats) != m:
            raise DimensionError(f"need one PhotonStatistics per mode: {m} != {len(stats)}")
        detectors = tuple(range(m)) if self.detectors is None else tuple(self.detectors)
        if len(set(detectors)) != len(detectors):
            raise DimensionError("detector indices must be distinct")
        if any(not 0 <= d < m for d in detectors):
            raise DimensionError(f"detector indices out of range for {m} modes")
        if len(detectors) < 2:
            raise DimensionError("need at least two monitored detectors")
        if not (self.energy_scale > 0):
            raise DimensionError("energy scale must be positive")
        object.__setattr__(self, "stats", stats)
        object.__setattr__(self, "detectors", detectors)

    @property
    def n_modes(self) -> int:
        return self.unitary.dim


def _closed_form(setup: QuantumSetup) -> tuple[np.ndarray, np.ndarray]:
    nbar = np.array([q.mean for q in setup.stats])
    var = np.array([q.variance for q in setup.stats])
    rows = setup.unitary.matrix[list(setup.detectors)]
    return _pair_matrix(rows, nbar, var - nbar)


def quantum_intensity_means(setup: QuantumSetup) -> np.ndarray:
    """Mean intensity per monitored detector: E * sum_a |U_ia|^2 <n_a>."""
    return setup.energy_scale * _closed_form(setup)[0]


def quantum_pair_correlator(setup: QuantumSetup, i: int, j: int) -> float:
    """Mean intensity product <I_i I_j> for monitored output modes i != j.

    The per-source contribution carries variance minus mean, so it is
    negative exactly for sub-Poissonian statistics; that negative term is
    what lets quantum inputs beat the classical bound.
    """
    if i == j:
        raise DimensionError("pair correlator needs two distinct detectors")
    if i not in setup.detectors or j not in setup.detectors:
        raise DimensionError(f"detectors ({i}, {j}) are not monitored")
    pos = setup.detectors.index
    e = setup.energy_scale
    return e * e * float(_closed_form(setup)[1][pos(i), pos(j)])


def quantum_gbar(setup: QuantumSetup) -> CorrelationReport:
    """Closed-form normalized pair average over the active monitored detectors."""
    means, products = _closed_form(setup)
    return assemble_report(
        setup.detectors, means, products, "analytic", energy_scale=setup.energy_scale
    )


def _annihilate(states: dict[tuple, complex], row: np.ndarray) -> dict[tuple, complex]:
    """Apply sum_a row[a] * a_hat_a to a dict of Fock amplitudes."""
    out: dict[tuple, complex] = {}
    for occ, amp in states.items():
        for a, coeff in enumerate(row):
            n = occ[a]
            if n == 0 or coeff == 0:
                continue
            lowered = occ[:a] + (n - 1,) + occ[a + 1 :]
            out[lowered] = out.get(lowered, 0j) + amp * coeff * math.sqrt(n)
    return out


def _norm_sq(states: dict[tuple, complex]) -> float:
    return float(sum(abs(a) ** 2 for a in states.values()))


def fock_oracle_pair_correlator(
    unitary: UnitaryMatrix,
    occupation,
    i: int,
    j: int,
    energy_scale: float = 1.0,
    photon_limit: int = DEFAULT_PHOTON_LIMIT,
) -> float:
    """Brute-force <I_i I_j> for a Fock input |n_1 ... n_m>.

    Builds b_i b_j |occupation> by explicit annihilation-operator action and
    returns E^2 times its squared norm (the normal-ordered expectation
    value). Independent of the closed-form route: no moment algebra is used.
    """
    occ = tuple(int(n) for n in occupation)
    m = unitary.dim
    if len(occ) != m:
        raise DimensionError(f"occupation length {len(occ)} != {m} modes")
    if any(n < 0 for n in occ):
        raise DimensionError("occupation numbers must be >= 0")
    if i == j or not (0 <= i < m and 0 <= j < m):
        raise DimensionError(f"need two distinct detectors in range, got ({i}, {j})")
    total = sum(occ)
    if total > photon_limit:
        raise OracleLimitError(
            f"{total} photons exceed the oracle budget of {photon_limit}"
        )
    u = unitary.matrix
    lowered = _annihilate(_annihilate({occ: 1.0 + 0j}, u[j]), u[i])
    return energy_scale * energy_scale * _norm_sq(lowered)


def _fock_intensity_mean(u: np.ndarray, occ: tuple, i: int) -> float:
    return _norm_sq(_annihilate({occ: 1.0 + 0j}, u[i]))


def _product_configurations(stats: tuple[PhotonStatistics, ...], prune_tol: float):
    """Yield (occupation, probability) over the product pmf.

    Depth-first with prefix-probability pruning: once a prefix's probability
    drops below ``prune_tol`` every completion is below it too, so the whole
    subtree is skipped and yielded as (None, its probability). Summing those
    keeps the pruned mass exactly zero when nothing is pruned, where 1 minus
    the kept total would carry rounding.
    """

    def rec(prefix: tuple, prob: float):
        if len(prefix) == len(stats):
            yield prefix, prob
            return
        for n, p in enumerate(stats[len(prefix)].pmf):
            joint = prob * p
            if joint < prune_tol:
                yield None, joint
                continue
            yield from rec(prefix + (n,), joint)

    yield from rec((), 1.0)


def oracle_gbar(
    setup: QuantumSetup,
    photon_limit: int = DEFAULT_PHOTON_LIMIT,
    prune_tol: float = DEFAULT_PRUNE_TOL,
) -> CorrelationReport:
    """Normalized pair average computed entirely through the Fock oracle.

    Averages the pure-state oracle values over the product photon-number
    distribution, pruning negligible configurations; the pruned probability
    mass is recorded on the report.
    """
    det = setup.detectors
    u = setup.unitary.matrix
    n_det = len(det)
    means = np.zeros(n_det)
    prods = np.zeros((n_det, n_det))
    pruned = 0.0
    for occ, prob in _product_configurations(setup.stats, prune_tol):
        if occ is None:
            pruned += prob
            continue
        if sum(occ) > photon_limit:
            raise OracleLimitError(
                f"configuration {occ} exceeds the oracle budget of {photon_limit} photons;"
                " raise photon_limit or lower the source cutoffs"
            )
        for a, d in enumerate(det):
            means[a] += prob * _fock_intensity_mean(u, occ, d)
        for a in range(n_det):
            for b in range(a + 1, n_det):
                prods[a, b] += prob * fock_oracle_pair_correlator(
                    setup.unitary, occ, det[a], det[b], photon_limit=photon_limit
                )
    return assemble_report(
        det, means, prods, "oracle", pruned_mass=pruned, energy_scale=setup.energy_scale
    )
