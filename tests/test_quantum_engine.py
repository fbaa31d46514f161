import itertools

import numpy as np
import pytest

from conftest import random_quantum_setup_eta_nonpositive

from multiport import (
    ClassicalSetup,
    DegenerateSetupError,
    DimensionError,
    OracleLimitError,
    QuantumSetup,
    UnitaryMatrix,
    classical_gbar,
    classical_intensity_means,
    classical_min,
    classical_pair_correlator,
    coherent,
    eta,
    fixed_source,
    fock,
    fock_oracle_pair_correlator,
    ftm,
    oracle_gbar,
    quantum_gbar,
    quantum_intensity_means,
    quantum_pair_correlator,
    random_unitary,
    thermal,
)


def hom_setup():
    return QuantumSetup(ftm(2), (fock(1), fock(1)))


# ----------------------------------------------------------- intensity means


def test_means_two_photons_on_splitter():
    assert np.allclose(quantum_intensity_means(hom_setup()), [1.0, 1.0], atol=1e-14)


def test_means_identity_routing():
    # identity unitary keeps photons in their input mode
    setup = QuantumSetup(UnitaryMatrix(np.eye(2)), (fock(2), fock(0)))
    assert np.allclose(quantum_intensity_means(setup), [2.0, 0.0], atol=1e-14)


def test_means_match_classical_for_coherent(rng):
    u = random_unitary(3, 11)
    stats = tuple(coherent(m, 40) for m in (0.4, 1.1, 0.7))
    qsetup = QuantumSetup(u, stats)
    csetup = ClassicalSetup(u.matrix, tuple(fixed_source(np.sqrt(q.mean)) for q in stats))
    assert np.allclose(
        quantum_intensity_means(qsetup), classical_intensity_means(csetup), atol=1e-12
    )


# ----------------------------------------------------------- pair correlator


def test_hom_dip_is_exactly_zero():
    setup = hom_setup()
    assert quantum_pair_correlator(setup, 0, 1) == pytest.approx(0.0, abs=1e-14)
    assert quantum_gbar(setup).gbar == pytest.approx(0.0, abs=1e-14)


def test_single_photon_cannot_fire_both_detectors():
    setup = QuantumSetup(ftm(2), (fock(1), fock(0)))
    assert quantum_pair_correlator(setup, 0, 1) == pytest.approx(0.0, abs=1e-14)


def test_coherent_inputs_reduce_to_classical():
    setup = QuantumSetup(ftm(2), (coherent(1.0, 30), coherent(1.0, 30)))
    classical = ClassicalSetup(
        ftm(2).matrix,
        tuple(fixed_source(np.sqrt(q.mean)) for q in setup.stats),
    )
    assert quantum_pair_correlator(setup, 0, 1) == pytest.approx(
        classical_pair_correlator(classical, 0, 1), abs=1e-12
    )


def test_pair_correlator_requires_monitored_distinct():
    setup = QuantumSetup(ftm(3), (fock(1),) * 3, detectors=(0, 1))
    with pytest.raises(DimensionError):
        quantum_pair_correlator(setup, 0, 0)
    with pytest.raises(DimensionError):
        quantum_pair_correlator(setup, 0, 2)


# ----------------------------------------------------------- gbar


@pytest.mark.parametrize("m", range(2, 9))
def test_single_photons_on_ftm(m):
    setup = QuantumSetup(ftm(m), tuple(fock(1) for _ in range(m)))
    assert quantum_gbar(setup).gbar == pytest.approx(1 - 2 / m, abs=1e-12)


@pytest.mark.parametrize("m", range(2, 7))
def test_thermal_inputs_on_ftm(m):
    setup = QuantumSetup(ftm(m), tuple(thermal(1.0, 60) for _ in range(m)))
    assert quantum_gbar(setup).gbar == pytest.approx(1.0, abs=1e-6)


def test_coherent_inputs_sit_at_classical_bound():
    setup = QuantumSetup(ftm(4), tuple(coherent(1.0, 30) for _ in range(4)))
    assert quantum_gbar(setup).gbar == pytest.approx(classical_min(4, 4), abs=1e-9)


def test_symmetric_minimum_formula(rng):
    for m in range(2, 9):
        for stats in (fock(1), coherent(1.0, 30), thermal(1.0, 60)):
            setup = QuantumSetup(ftm(m), tuple(stats for _ in range(m)))
            expected = 1 - (1 + eta(stats)) / m
            assert quantum_gbar(setup).gbar == pytest.approx(expected, abs=1e-12)


def test_detector_subset_restricts_pairs():
    setup = QuantumSetup(ftm(4), tuple(fock(1) for _ in range(4)), detectors=(0, 2, 3))
    report = quantum_gbar(setup)
    assert report.detectors == (0, 2, 3)
    assert {(i, j) for i, j, _ in report.pair_ratios} == {(0, 2), (0, 3), (2, 3)}


def test_all_vacuum_is_degenerate():
    setup = QuantumSetup(ftm(2), (fock(0), fock(0)))
    with pytest.raises(DegenerateSetupError):
        quantum_gbar(setup)


def test_setup_validation():
    with pytest.raises(DimensionError):
        QuantumSetup(ftm(2), (fock(1),))
    with pytest.raises(DimensionError):
        QuantumSetup(ftm(2), (fock(1), fock(1)), detectors=(0, 0))
    with pytest.raises(DimensionError):
        QuantumSetup(ftm(2), (fock(1), fock(1)), detectors=(0,))
    with pytest.raises(DimensionError):
        QuantumSetup(ftm(2), (fock(1), fock(1)), detectors=(0, 5))


# ----------------------------------------------------------- invariants


def test_balanced_losses_cancel(rng):
    u = random_unitary(4, 19)
    means = [0.3, 0.9, 1.4, 0.5]
    base = QuantumSetup(u, tuple(coherent(m, 40) for m in means))
    brighter = QuantumSetup(u, tuple(coherent(2.5 * m, 60) for m in means))
    attenuated = QuantumSetup(u, tuple(coherent(m, 40) for m in means), energy_scale=0.1)
    reference = quantum_gbar(base).gbar
    assert quantum_gbar(brighter).gbar == pytest.approx(reference, abs=1e-12)
    assert quantum_gbar(attenuated).gbar == pytest.approx(reference, abs=1e-12)


def test_coherent_reduction_random_unitaries(rng):
    for k in range(20):
        m = int(rng.integers(2, 5))
        u = random_unitary(m, 300 + k)
        means = rng.uniform(0.2, 1.5, m)
        quantum = QuantumSetup(u, tuple(coherent(x, 40) for x in means))
        classical = ClassicalSetup(
            u.matrix, tuple(fixed_source(np.sqrt(q.mean)) for q in quantum.stats)
        )
        assert quantum_gbar(quantum).gbar == pytest.approx(
            classical_gbar(classical).gbar, abs=1e-12
        )


def test_super_poissonian_inputs_respect_classical_bound(rng):
    for _ in range(500):
        setup = random_quantum_setup_eta_nonpositive(rng)
        report = quantum_gbar(setup)
        n_active = sum(1 for q in setup.stats if q.mean > 0)
        bound = classical_min(n_active, len(report.active_detectors))
        assert report.gbar >= bound - 1e-9


# ----------------------------------------------------------- fock oracle


def test_oracle_hom_bunching():
    assert fock_oracle_pair_correlator(ftm(2), (1, 1), 0, 1) == pytest.approx(0.0, abs=1e-14)


def test_oracle_single_photon():
    assert fock_oracle_pair_correlator(ftm(2), (1, 0), 0, 1) == pytest.approx(0.0, abs=1e-14)


def test_oracle_matches_formula_on_random_instances(rng):
    for k in range(100):
        m = int(rng.integers(2, 4))
        u = random_unitary(m, 700 + k)
        occupation = tuple(int(n) for n in rng.integers(0, 3, m))
        stats = tuple(fock(n) for n in occupation)
        setup = QuantumSetup(u, stats)
        i, j = rng.choice(m, size=2, replace=False)
        formula = quantum_pair_correlator(setup, int(i), int(j))
        oracle = fock_oracle_pair_correlator(u, occupation, int(i), int(j))
        assert abs(formula - oracle) <= 1e-10 * max(1.0, abs(formula), abs(oracle))


def test_oracle_equivalence_exhaustive_small_instances():
    for m in (2, 3):
        u = random_unitary(m, 41 + m)
        occupations = [
            occ
            for occ in itertools.product(range(5), repeat=m)
            if sum(occ) <= 4
        ]
        for occ in occupations:
            setup = QuantumSetup(u, tuple(fock(n) for n in occ))
            for i in range(m):
                for j in range(i + 1, m):
                    formula = quantum_pair_correlator(setup, i, j)
                    oracle = fock_oracle_pair_correlator(u, occ, i, j)
                    assert abs(formula - oracle) <= 1e-10 * max(1.0, abs(formula))


def test_oracle_budget_and_validation():
    with pytest.raises(OracleLimitError):
        fock_oracle_pair_correlator(ftm(2), (4, 4), 0, 1)
    # budget is configurable
    value = fock_oracle_pair_correlator(ftm(2), (4, 4), 0, 1, photon_limit=8)
    assert value > 0
    with pytest.raises(DimensionError):
        fock_oracle_pair_correlator(ftm(2), (1, 1, 1), 0, 1)
    with pytest.raises(DimensionError):
        fock_oracle_pair_correlator(ftm(2), (1, 1), 1, 1)


def test_oracle_gbar_single_photons():
    report = oracle_gbar(hom_setup())
    assert report.provenance == "oracle"
    assert report.gbar == pytest.approx(0.0, abs=1e-14)
    assert report.pruned_mass == pytest.approx(0.0, abs=1e-15)


def test_oracle_gbar_mixed_inputs_match_formula():
    setup = QuantumSetup(ftm(2), (coherent(0.7, 25), thermal(0.4, 40)))
    report = oracle_gbar(setup, photon_limit=70)
    assert report.pruned_mass < 1e-12
    assert report.gbar == pytest.approx(quantum_gbar(setup).gbar, abs=1e-9)


def test_oracle_gbar_respects_budget():
    setup = QuantumSetup(ftm(2), (coherent(1.0, 30), coherent(1.0, 30)))
    with pytest.raises(OracleLimitError):
        oracle_gbar(setup, photon_limit=4)


@pytest.mark.parametrize("scale", [1e-300, 1e160, 1e300])
def test_ratios_do_not_depend_on_energy_scale(scale):
    u = random_unitary(3, 17)
    stats = (fock(1), fock(2), fock(1))
    base = QuantumSetup(u, stats)
    scaled = QuantumSetup(u, stats, energy_scale=scale)
    for run in (quantum_gbar, oracle_gbar):
        reference, report = run(base), run(scaled)
        assert report.pair_ratios == reference.pair_ratios
        assert np.array_equal(report.intensity_means, scale * reference.intensity_means)
    assert np.array_equal(quantum_intensity_means(scaled), scale * quantum_intensity_means(base))
