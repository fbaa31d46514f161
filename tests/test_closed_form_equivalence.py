"""The array kernel against the per-pair loops it replaced.

``reference_*`` below are the former per-pair closed forms and report loop,
kept here only as an independent route. Every seeded setup must give the same
active detectors, pair labels, pair ratios and gbar within 1e-12.
"""

import numpy as np
import pytest

from conftest import random_classical_source

import multiport as mp
from multiport.report import RELATIVE_EXCLUSION

TOL = 1e-12


def reference_classical_pair(setup, i, j):
    m2 = np.array([mp.classical_moments(s)[0] for s in setup.sources])
    m4 = np.array([mp.classical_moments(s)[1] for s in setup.sources])
    t, e = setup.transfer, setup.energy_scale
    means = e * (np.abs(t) ** 2 @ m2)
    b = t[i] * t[j].conj() * m2
    if setup.overlap is None:
        interference = abs(b.sum()) ** 2 - (np.abs(b) ** 2).sum()
    else:
        w = np.abs(setup.overlap.matrix) ** 2
        interference = float((b.conj() @ w @ b).real) - (np.abs(b) ** 2).sum()
    fluctuation = float(np.abs(t[i]) ** 2 @ (np.abs(t[j]) ** 2 * (m4 - m2**2)))
    return means, float(means[i] * means[j] + e**2 * (interference + fluctuation))


def reference_quantum_pair(setup, i, j):
    nbar = np.array([q.mean for q in setup.stats])
    var = np.array([(np.arange(q.pmf.size) - q.mean) ** 2 @ q.pmf for q in setup.stats])
    u, e = setup.unitary.matrix, setup.energy_scale
    mean_i = e * float(np.abs(u[i]) ** 2 @ nbar)
    mean_j = e * float(np.abs(u[j]) ** 2 @ nbar)
    b = u[i] * u[j].conj() * nbar
    interference = abs(b.sum()) ** 2 - (np.abs(b) ** 2).sum()
    number_term = float(np.abs(u[i]) ** 2 @ (np.abs(u[j]) ** 2 * (var - nbar)))
    return float(mean_i * mean_j + e**2 * (interference + number_term))


def reference_report(detectors, means, pair_product):
    """(active labels, [(i, j, ratio)], gbar) by the former per-pair loop."""
    top = float(np.max(means))
    active = [k for k, v in enumerate(means) if v > RELATIVE_EXCLUSION * top and top > 0]
    ratios = [
        (detectors[a], detectors[b], pair_product(a, b) / (means[a] * means[b]))
        for x, a in enumerate(active)
        for b in active[x + 1 :]
    ]
    gbar = sum(r for _, _, r in ratios) / len(ratios)
    return tuple(detectors[a] for a in active), ratios, gbar


def pair_products(report):
    """(i, j, <I_i I_j>) for each active pair: ratio * mean_i * mean_j."""
    means = dict(zip(report.detectors, report.intensity_means))
    return [(i, j, r * means[i] * means[j]) for i, j, r in report.pair_ratios]


def assert_matches(report, reference):
    active, ratios, gbar = reference
    assert report.active_detectors == active
    assert [(i, j) for i, j, _ in report.pair_ratios] == [(i, j) for i, j, _ in ratios]
    got = np.array([r for _, _, r in report.pair_ratios])
    want = np.array([r for _, _, r in ratios])
    assert np.max(np.abs(got - want)) <= TOL
    assert abs(report.gbar - gbar) <= TOL


def random_unitary_or_ftm(rng, m):
    return mp.ftm(m) if rng.random() < 0.4 else mp.random_unitary(m, int(rng.integers(2**31)))


def random_overlap(rng, n):
    vecs = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    gram = vecs @ vecs.conj().T
    gram = (gram + gram.conj().T) / 2
    np.fill_diagonal(gram, 1.0)
    return mp.OverlapMatrix(gram)


def classical_case(seed):
    """Square or rectangular Haar/FTM transfers, M <= 16, with the features
    of the seed's residues: overlaps, a detector subset (row selection),
    energy scale != 1, and a dark detector (a zero row)."""
    rng = np.random.default_rng([seed, 1])
    m = int(rng.integers(2, 17))
    transfer = random_unitary_or_ftm(rng, m).matrix
    if seed % 3 == 1:  # detector subset
        rows = rng.choice(m, size=int(rng.integers(2, m + 1)), replace=False)
        transfer = transfer[np.sort(rows)]
    n = int(rng.integers(1, m + 1))
    transfer = transfer[:, :n]
    if seed % 5 == 2:  # one dark detector
        transfer = np.insert(transfer, int(rng.integers(transfer.shape[0] + 1)), 0.0, axis=0)
    sources = tuple(random_classical_source(rng) for _ in range(n))
    overlap = random_overlap(rng, n) if seed % 2 == 0 else None
    energy = 1.0 if seed % 4 == 3 else float(rng.uniform(0.1, 50.0))
    return mp.ClassicalSetup(transfer, sources, overlap=overlap, energy_scale=energy)


def random_stats(rng):
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return mp.fock(int(rng.integers(0, 4)))
    if kind == 1:
        return mp.coherent(float(rng.uniform(0.1, 2.0)), 40)
    if kind == 2:
        return mp.thermal(float(rng.uniform(0.1, 1.5)), 80)
    if kind == 3:
        return mp.squeezed_vacuum(float(rng.uniform(0.1, 0.8)), 60)
    return mp.PhotonStatistics(rng.dirichlet(np.ones(4)))


def quantum_case(seed):
    """Haar/FTM unitaries, M <= 16, mixed statistics, unordered detector
    subsets, energy scale != 1, and a dark mode fed only by vacuum."""
    rng = np.random.default_rng([seed, 2])
    m = int(rng.integers(2, 17))
    unitary = random_unitary_or_ftm(rng, m)
    stats = [random_stats(rng) for _ in range(m)]
    stats[int(rng.integers(m))] = mp.fock(1)  # at least one lit input
    if seed % 5 == 2:  # one dark detector: an uncoupled port with vacuum
        unitary = mp.direct_sum(unitary, mp.ftm(1))
        stats.append(mp.fock(0))
        m += 1
    detectors = None
    if seed % 3 == 1:
        detectors = tuple(int(d) for d in rng.choice(m, size=int(rng.integers(2, m + 1)), replace=False))
        if seed % 5 == 2 and m - 1 not in detectors:
            detectors += (m - 1,)
    energy = 1.0 if seed % 4 == 3 else float(rng.uniform(0.1, 50.0))
    return mp.QuantumSetup(unitary, tuple(stats), detectors=detectors, energy_scale=energy)


@pytest.mark.parametrize("seed", range(30))
def test_classical_gbar_matches_pair_loop(seed):
    setup = classical_case(seed)
    means, _ = reference_classical_pair(setup, 0, 0)
    reference = reference_report(
        tuple(range(setup.n_detectors)),
        means,
        lambda a, b: reference_classical_pair(setup, a, b)[1],
    )
    report = mp.classical_gbar(setup)
    assert_matches(report, reference)
    assert np.max(np.abs(report.intensity_means - means)) <= TOL * np.max(means)
    for i, j, product in pair_products(report):
        assert product == pytest.approx(reference_classical_pair(setup, i, j)[1], rel=TOL)


@pytest.mark.parametrize("seed", range(30))
def test_quantum_gbar_matches_pair_loop(seed):
    setup = quantum_case(seed)
    det = setup.detectors
    nbar = np.array([q.mean for q in setup.stats])
    means = setup.energy_scale * (np.abs(setup.unitary.matrix[list(det)]) ** 2 @ nbar)
    reference = reference_report(
        det, means, lambda a, b: reference_quantum_pair(setup, det[a], det[b])
    )
    report = mp.quantum_gbar(setup)
    assert_matches(report, reference)
    assert np.max(np.abs(report.intensity_means - means)) <= TOL * np.max(means)
    for i, j, product in pair_products(report):
        assert product == pytest.approx(
            reference_quantum_pair(setup, i, j), rel=TOL, abs=TOL * np.max(means) ** 2
        )


@pytest.mark.parametrize("seed", range(30))
def test_setups_share_one_read_surface(seed):
    classical, quantum = classical_case(seed), quantum_case(seed)
    assert classical.detectors == tuple(range(classical.n_detectors))
    assert np.array_equal(quantum.transfer, quantum.unitary.matrix[list(quantum.detectors)])
    assert quantum.overlap is None
    for setup in (classical, quantum):
        assert setup.transfer.dtype == complex
        with pytest.raises(ValueError):
            setup.transfer[0, 0] = 0.0

    p = [s.probabilities for s in classical.sources]
    a2 = [s.amplitudes**2 for s in classical.sources]
    m2 = np.array([pk @ ak for pk, ak in zip(p, a2)])
    m4 = np.array([pk @ ak**2 for pk, ak in zip(p, a2)])
    w, f = classical.weights()
    np.testing.assert_allclose(w, m2, rtol=TOL)
    np.testing.assert_allclose(f, m4 - m2**2, rtol=TOL, atol=TOL * np.max(m4))
    assert np.all(f >= -TOL * np.max(m4))

    photons = [np.arange(q.pmf.size) for q in quantum.stats]
    nbar = np.array([q.pmf @ k for q, k in zip(quantum.stats, photons)])
    var = np.array([q.pmf @ (k - mean) ** 2 for q, k, mean in zip(quantum.stats, photons, nbar)])
    w, f = quantum.weights()
    np.testing.assert_allclose(w, nbar, rtol=TOL)
    np.testing.assert_allclose(f, var - nbar, rtol=1e-10, atol=1e-10 * max(1.0, np.max(nbar)))


def test_cases_cover_the_required_features():
    classical = [classical_case(s) for s in range(30)]
    quantum = [quantum_case(s) for s in range(30)]
    sizes = [s.n_detectors for s in classical] + [s.n_modes for s in quantum]
    assert max(sizes) >= 15
    assert any(s.overlap is not None for s in classical)
    assert any(s.overlap is None for s in classical)
    assert any(np.all(s.transfer == 0, axis=1).any() for s in classical)
    assert any(s.detectors != tuple(range(s.n_modes)) for s in quantum)
    assert any(s.energy_scale != 1.0 for s in classical + quantum)
    ftm_like = [s for s in quantum if np.allclose(np.abs(s.unitary.matrix) ** 2, 1 / s.n_modes)]
    assert ftm_like
    excluded = [
        s for s in classical if len(mp.classical_gbar(s).active_detectors) < s.n_detectors
    ] + [s for s in quantum if len(mp.quantum_gbar(s).active_detectors) < len(s.detectors)]
    assert excluded
