"""Inputs and reference values shared by the workloads."""

from __future__ import annotations

import numpy as np

import multiport as mp

import checks
import reference as ref
from harness import Op

QUANTUM = {
    "fock": mp.fock,
    "coherent": lambda mean: mp.coherent(mean, 40),
    "thermal": lambda mean: mp.thermal(mean, 80),
    "squeezed": lambda r: mp.squeezed_vacuum(r, 60),
}
SOURCES = {**QUANTUM, "fixed": mp.fixed_source, "pseudo-thermal": mp.pseudo_thermal_source}


def build(spec):
    """A source from a spec such as ("coherent", 0.7) or ("fixed", 1.2)."""
    kind, *args = spec
    return SOURCES[kind](*args)


def expected_ratios(setup) -> dict:
    """The benchmark's own pair ratios for a classical or quantum setup."""
    if isinstance(setup, mp.QuantumSetup):
        moments = [ref.photon_moments(q.pmf) for q in setup.stats]
        transfer, detectors, overlap = setup.unitary.matrix, setup.detectors, None
    else:
        moments = [ref.classical_moments(s.probabilities, s.amplitudes) for s in setup.sources]
        transfer, detectors = setup.transfer, None
        overlap = None if setup.overlap is None else setup.overlap.matrix
    m2, m4 = zip(*moments)
    return ref.pair_ratios(*ref.means_and_products(transfer, m2, m4, overlap), detectors)


def lit_sources(setup) -> int:
    if isinstance(setup, mp.QuantumSetup):
        return sum(1 for q in setup.stats if ref.photon_moments(q.pmf)[0] > 0)
    return sum(
        1 for s in setup.sources if ref.classical_moments(s.probabilities, s.amplitudes)[0] > 0
    )


def mc_op(name, specs, unitary, shots, seed, overlap=None, batches=100):
    """Monte Carlo estimate of a classical setup, checked against the closed form."""
    m = len(specs)

    def run(tr):
        with tr.span("sources.build"):
            sources = tuple(build(s) for s in specs)
            ov = None if overlap is None else mp.OverlapMatrix(overlap)
        with tr.span("interferometer.build"):
            u = unitary()
        setup = mp.ClassicalSetup(u.matrix, sources, overlap=ov)
        with tr.span("classical_engine.mc", m=m, overlap=overlap is not None, shots=shots):
            return setup, mp.mc_estimate_gbar(setup, shots, seed, batches=batches)

    def check(result, done):
        setup, rep = result
        checks.mc_agrees(rep, ref.gbar(expected_ratios(setup)))

    return Op(name, run, check, shots=shots, sampling=True)


def haar(m, seed):
    return lambda: mp.random_unitary(m, seed)


def random_classical_specs(rng, m):
    return [
        ("fixed", float(rng.uniform(0.3, 1.5)))
        if rng.random() < 0.5
        else ("pseudo-thermal", float(rng.uniform(0.2, 2.0)))
        for _ in range(m)
    ]


def random_overlap(rng, n, rank=3):
    """Mode overlaps of unit vectors in C^rank: Hermitian, PSD, unit diagonal."""
    v = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    gram = v @ v.conj().T
    np.fill_diagonal(gram, 1.0)
    return gram
