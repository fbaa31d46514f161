"""Shared generators for randomized property tests."""

import numpy as np
import pytest

import multiport as mp


def report_values(report) -> list[float]:
    """An engine's whole answer, flat: i, j and ratio of each active pair, then
    every intensity mean. A pair product is <I_i I_j> = ratio * mean_i * mean_j."""
    return [x for pair in report.pair_ratios for x in pair] + [float(v) for v in report.intensity_means]


def random_classical_source(rng, max_levels: int = 4) -> mp.ClassicalSource:
    k = int(rng.integers(1, max_levels + 1))
    probs = rng.dirichlet(np.ones(k))
    amps = rng.uniform(0.1, 2.0, k)
    return mp.ClassicalSource(probs, amps)


def random_classical_setup(rng, max_sources: int = 6, max_detectors: int = 6) -> mp.ClassicalSetup:
    n = int(rng.integers(1, max_sources + 1))
    m = int(rng.integers(2, max_detectors + 1))
    transfer = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    sources = tuple(random_classical_source(rng) for _ in range(n))
    return mp.ClassicalSetup(transfer, sources)


def random_super_poissonian_stats(rng) -> mp.PhotonStatistics:
    """Statistics with eta <= 0 (thermal, squeezed, or boundary coherent)."""
    kind = rng.integers(0, 3)
    if kind == 0:
        return mp.thermal(float(rng.uniform(0.2, 1.5)), 80)
    if kind == 1:
        return mp.squeezed_vacuum(float(rng.uniform(0.2, 0.8)), 60)
    return mp.coherent(float(rng.uniform(0.2, 2.0)), 40)


def random_quantum_setup_eta_nonpositive(rng, max_modes: int = 6) -> mp.QuantumSetup:
    m = int(rng.integers(2, max_modes + 1))
    unitary = mp.random_unitary(m, int(rng.integers(0, 2**31)))
    stats = tuple(random_super_poissonian_stats(rng) for _ in range(m))
    n_det = int(rng.integers(2, m + 1))
    detectors = tuple(int(d) for d in rng.choice(m, size=n_det, replace=False))
    return mp.QuantumSetup(unitary, stats, detectors=detectors)


def random_psi_configuration(rng, max_vectors: int = 6, max_dim: int = 6) -> mp.PsiConfiguration:
    m = int(rng.integers(2, max_vectors + 1))
    n = int(rng.integers(1, max_dim + 1))
    raw = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return mp.PsiConfiguration(raw / np.linalg.norm(raw, axis=1, keepdims=True))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
