import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_quantum_setup_eta_nonpositive, report_values

import multiport.quantum_engine as quantum_engine

from multiport import (
    ClassicalSetup,
    DegenerateSetupError,
    DimensionError,
    OracleLimitError,
    PhotonStatistics,
    PreconditionError,
    QuantumSetup,
    TruncationError,
    UnitaryMatrix,
    classical_gbar,
    classical_min,
    coherent,
    direct_sum,
    eta,
    fixed_source,
    fock,
    ftm,
    nonclassicality_witness,
    oracle_gbar,
    quantum_gbar,
    random_unitary,
    squeezed_vacuum,
    symmetric_quantum_min,
    thermal,
)
from multiport.report import assemble_report


def hom_setup():
    return QuantumSetup(ftm(2), (fock(1), fock(1)))


def assert_routes_agree(setup, rel, abs):
    """The oracle's pair ratios and means are the closed form's, or, with no
    light at all, both routes refuse the setup."""
    if not any(q.mean > 0 for q in setup.stats):
        for route in (quantum_gbar, oracle_gbar):
            with pytest.raises(DegenerateSetupError):
                route(setup)
        return
    expected = report_values(quantum_gbar(setup))
    assert report_values(oracle_gbar(setup)) == pytest.approx(expected, rel=rel, abs=abs)


# ----------------------------------------------------------- intensity means


def test_means_two_photons_on_splitter():
    assert np.allclose(quantum_gbar(hom_setup()).intensity_means, [1.0, 1.0], atol=1e-14)


def test_means_identity_routing():
    # identity unitary keeps photons in their input mode; one lit detector
    # has no pair to report, by either route
    setup = QuantumSetup(UnitaryMatrix(np.eye(2)), (fock(2), fock(0)))
    for route in (quantum_gbar, oracle_gbar):
        with pytest.raises(DegenerateSetupError):
            route(setup)
    setup = QuantumSetup(UnitaryMatrix(np.eye(3)), (fock(2), fock(1), fock(0)))
    for route in (quantum_gbar, oracle_gbar):
        assert np.allclose(route(setup).intensity_means, [2.0, 1.0, 0.0], atol=1e-14)


def test_means_match_classical_for_coherent(rng):
    u = random_unitary(3, 11)
    stats = tuple(coherent(m, 40) for m in (0.4, 1.1, 0.7))
    qsetup = QuantumSetup(u, stats)
    csetup = ClassicalSetup(u.matrix, tuple(fixed_source(np.sqrt(q.mean)) for q in stats))
    assert np.allclose(
        quantum_gbar(qsetup).intensity_means, classical_gbar(csetup).intensity_means, atol=1e-12
    )


# ----------------------------------------------------------- pair correlator


def test_hom_dip_is_exactly_zero():
    report = quantum_gbar(hom_setup())
    assert report_values(report) == pytest.approx([0, 1, 0.0, 1.0, 1.0], abs=1e-14)
    assert report.gbar == pytest.approx(0.0, abs=1e-14)


def test_single_photon_cannot_fire_both_detectors():
    setup = QuantumSetup(ftm(2), (fock(1), fock(0)))
    assert report_values(quantum_gbar(setup)) == pytest.approx([0, 1, 0.0, 0.5, 0.5], abs=1e-14)


def test_coherent_inputs_reduce_to_classical():
    setup = QuantumSetup(ftm(2), (coherent(1.0, 30), coherent(1.0, 30)))
    classical = ClassicalSetup(
        ftm(2).matrix,
        tuple(fixed_source(np.sqrt(q.mean)) for q in setup.stats),
    )
    assert report_values(quantum_gbar(setup)) == pytest.approx(
        report_values(classical_gbar(classical)), abs=1e-12
    )


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


@pytest.mark.parametrize("m", range(2, 6))
@pytest.mark.parametrize("stats", [fock(1), fock(2), coherent(1.0, 30)], ids=["fock1", "fock2", "coherent"])
def test_symmetric_quantum_min_is_the_haar_minimum(m, stats):
    # identical inputs with eta >= 0 on every port: no Haar unitary goes below
    # the bound, and the Fourier interferometer attains it
    bound = symmetric_quantum_min(m, eta(stats))
    for seed in range(40):
        setup = QuantumSetup(random_unitary(m, seed), tuple(stats for _ in range(m)))
        assert quantum_gbar(setup).gbar >= bound - 1e-12
    assert quantum_gbar(QuantumSetup(ftm(m), tuple(stats for _ in range(m)))).gbar == pytest.approx(
        bound, abs=1e-12
    )


def test_weak_coherent_light_is_refused_not_certified():
    # means of 1e-160 photons: their products leave the normal float range
    setup = QuantumSetup(ftm(3), tuple(coherent(1e-160, 40) for _ in range(3)))
    with pytest.raises(DegenerateSetupError, match="rescale"):
        quantum_gbar(setup)


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


@pytest.mark.parametrize("scale", [math.inf, math.nan])
def test_setup_refuses_a_non_finite_energy_scale(scale):
    with pytest.raises(DimensionError, match="positive and finite"):
        QuantumSetup(ftm(2), (fock(1),) * 2, energy_scale=scale)


@pytest.mark.parametrize("scale", [True, np.bool_(True), "2", 2j, None])
def test_setups_refuse_an_energy_scale_that_is_not_a_real(scale):
    # True was taken as 1, and "2" raised a bare TypeError
    with pytest.raises(PreconditionError, match="energy_scale"):
        QuantumSetup(ftm(2), (fock(1),) * 2, energy_scale=scale)
    with pytest.raises(PreconditionError, match="energy_scale"):
        ClassicalSetup(ftm(2).matrix, (fixed_source(1.0),) * 2, energy_scale=scale)


@pytest.mark.parametrize("detectors", [(0.5, 2), (0.0, 2.0), (True, 2), (np.bool_(False), 2)])
def test_setup_refuses_detector_labels_that_are_not_integers(detectors):
    with pytest.raises(DimensionError, match="integers"):
        QuantumSetup(ftm(3), (fock(1),) * 3, detectors=detectors)


def test_numpy_integer_detector_labels_are_accepted():
    report = quantum_gbar(QuantumSetup(ftm(3), (fock(1),) * 3, detectors=np.array([0, 2])))
    assert report.detectors == (0, 2)


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
    report = oracle_gbar(hom_setup())
    assert report.configurations == 1
    assert report_values(report) == pytest.approx([0, 1, 0.0, 1.0, 1.0], abs=1e-14)


def test_oracle_single_photon():
    report = oracle_gbar(QuantumSetup(ftm(2), (fock(1), fock(0))))
    assert report_values(report) == pytest.approx([0, 1, 0.0, 0.5, 0.5], abs=1e-14)


def test_oracle_matches_formula_on_random_instances(rng):
    for k in range(100):
        m = int(rng.integers(2, 4))
        u = random_unitary(m, 700 + k)
        occupation = tuple(int(n) for n in rng.integers(0, 3, m))
        stats = tuple(fock(n) for n in occupation)
        setup = QuantumSetup(u, stats)
        rng.choice(m, size=2, replace=False)  # a detector pair, drawn so the instances stay the same
        assert_routes_agree(setup, rel=1e-10, abs=1e-10)


def test_oracle_equivalence_exhaustive_small_instances():
    for m in (2, 3):
        u = random_unitary(m, 41 + m)
        occupations = [
            occ
            for occ in itertools.product(range(5), repeat=m)
            if sum(occ) <= 4
        ]
        for occ in occupations:
            assert_routes_agree(QuantumSetup(u, tuple(fock(n) for n in occ)), rel=1e-10, abs=1e-10)


def test_oracle_budget_and_validation():
    setup = QuantumSetup(ftm(2), (fock(4), fock(4)))
    with pytest.raises(OracleLimitError):
        oracle_gbar(setup)
    # budget is configurable
    assert oracle_gbar(setup, photon_limit=8).gbar > 0
    with pytest.raises(DimensionError):
        QuantumSetup(ftm(2), (fock(1),) * 3)
    with pytest.raises(DimensionError):
        QuantumSetup(ftm(2), (fock(1), fock(1)), detectors=(1, 1))


@pytest.mark.parametrize("prune_tol", [0.3, 1])
def test_oracle_blames_prune_tol_when_it_removed_the_light(prune_tol):
    # at these tolerances no configuration of three coherent inputs is kept
    setup = QuantumSetup(ftm(3), (coherent(0.5, 12),) * 3)
    with pytest.raises(OracleLimitError, match="prune_tol .* pruned probability mass"):
        oracle_gbar(setup, prune_tol=prune_tol)


@pytest.mark.parametrize("prune_tol", [math.nan, math.inf, -math.inf, -1e-300, True, "x", None])
def test_oracle_refuses_a_prune_tol_that_is_not_a_tolerance(prune_tol):
    # NaN and inf pruned everything and then blamed the pruned mass; a string
    # raised numpy's bare UFuncTypeError
    setup = QuantumSetup(ftm(2), (coherent(0.5, 12),) * 2)
    with pytest.raises(PreconditionError, match="prune_tol"):
        oracle_gbar(setup, prune_tol=prune_tol)
    assert oracle_gbar(setup, photon_limit=24, prune_tol=0).pruned_mass == 0


def test_oracle_blames_a_dark_setup_not_prune_tol():
    # detector 1 never receives light; the thermal tail is pruned all the same
    setup = QuantumSetup(direct_sum(ftm(1), ftm(1)), (thermal(1.0, 80), fock(0)))
    with pytest.raises(DegenerateSetupError, match="fewer than two detectors"):
        oracle_gbar(setup, photon_limit=100)


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


# ----------------------------------------------------------- reference oracle
# The reference oracle: one configuration at a time, b_i b_j|occ> built as a
# dict of Fock amplitudes. The batched kernel is checked against it.


def annihilate(states: dict[tuple, complex], row: np.ndarray) -> dict[tuple, complex]:
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


def norm_sq(states: dict[tuple, complex]) -> float:
    return float(sum(abs(a) ** 2 for a in states.values()))


def reference_mean(u, occ, i):
    return norm_sq(annihilate({occ: 1.0 + 0j}, u[i]))


def reference_pair(u, occ, i, j):
    return norm_sq(annihilate(annihilate({occ: 1.0 + 0j}, u[j]), u[i]))


def reference_configurations(stats, prune_tol):
    """(occupation, probability) depth-first, (None, mass) per pruned subtree;
    a subtree of probability exactly 0 is neither kept nor pruned."""

    def rec(prefix, prob):
        if len(prefix) == len(stats):
            yield prefix, prob
            return
        for n, p in enumerate(stats[len(prefix)].pmf):
            joint = prob * p
            if joint == 0:
                continue
            if joint < prune_tol:
                yield None, joint
                continue
            yield from rec(prefix + (n,), joint)

    yield from rec((), 1.0)


def reference_oracle(setup, photon_limit=6, prune_tol=1e-14):
    det, u = setup.detectors, setup.unitary.matrix
    means, prods = np.zeros(len(det)), np.zeros((len(det), len(det)))
    pruned, kept = 0.0, 0
    for occ, prob in reference_configurations(setup.stats, prune_tol):
        if occ is None:
            pruned += prob
            continue
        if sum(occ) > photon_limit:
            raise OracleLimitError(f"configuration {occ} exceeds the oracle budget")
        kept += 1
        for a, d in enumerate(det):
            means[a] += prob * reference_mean(u, occ, d)
            for b in range(a + 1, len(det)):
                prods[a, b] += prob * reference_pair(u, occ, d, det[b])
    return assemble_report(
        det,
        means,
        prods,
        "oracle",
        pruned_mass=pruned,
        configurations=kept,
        energy_scale=setup.energy_scale,
    )


def assert_reports_match(report, reference, tol=1e-12):
    assert report.active_detectors == reference.active_detectors
    assert [p[:2] for p in report.pair_ratios] == [p[:2] for p in reference.pair_ratios]
    np.testing.assert_allclose(
        [p[2] for p in report.pair_ratios], [p[2] for p in reference.pair_ratios], rtol=tol
    )
    np.testing.assert_allclose(report.intensity_means, reference.intensity_means, rtol=tol)
    assert report.gbar == pytest.approx(reference.gbar, rel=tol, abs=tol)
    assert report.pruned_mass == pytest.approx(reference.pruned_mass, rel=tol, abs=0.0)
    assert report.configurations == reference.configurations


# ----------------------------------------------------------- batched oracle


@pytest.mark.parametrize("m", [2, 3, 4])
def test_kernel_matches_reference_on_every_small_fock_state(m):
    # every occupation with at most 4 photons, n_a >= 2 included, in one block
    occupations = [occ for occ in itertools.product(range(5), repeat=m) if sum(occ) <= 4]
    block = np.array(occupations)
    rng = np.random.default_rng(90 + m)
    for trial in range(3):
        u = random_unitary(m, 500 + 10 * m + trial).matrix
        size = m if trial == 0 else int(rng.integers(2, m + 1))
        det = tuple(int(d) for d in rng.permutation(m)[:size])
        i, j = np.triu_indices(len(det), 1)
        modes = np.triu_indices(m, 1)
        means, pairs = quantum_engine._lowered_norms(block, u[list(det)], (i, j), modes)
        for k, occ in enumerate(occupations):
            ref_means = [reference_mean(u, occ, d) for d in det]
            ref_pairs = [reference_pair(u, occ, det[a], det[b]) for a, b in zip(i, j)]
            np.testing.assert_allclose(means[k], ref_means, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(pairs[k], ref_pairs, rtol=1e-12, atol=1e-15)


def test_public_pair_correlator_matches_reference():
    u = random_unitary(4, 77)
    for occ in itertools.product(range(3), repeat=4):
        setup = QuantumSetup(u, tuple(fock(n) for n in occ), energy_scale=2.5)
        if not any(occ):
            for route in (oracle_gbar, reference_oracle):
                with pytest.raises(DegenerateSetupError):
                    route(setup, photon_limit=8)
            continue
        report = oracle_gbar(setup, photon_limit=8)
        assert report.configurations == 1 and report.pruned_mass == 0.0
        expected = report_values(reference_oracle(setup, photon_limit=8))
        assert report_values(report) == pytest.approx(expected, rel=1e-12, abs=1e-14)


def three_mixed_sources():
    return coherent(0.6, 12), thermal(0.2, 12), squeezed_vacuum(0.3, 16)


def mixed_setups():
    custom = PhotonStatistics(np.array([0.5, 0.3, 0.0, 0.2]))
    four_mode = QuantumSetup(
        random_unitary(4, 31),
        (fock(2), coherent(0.3, 10), custom, thermal(0.2, 12)),
        detectors=(3, 0, 2),
        energy_scale=0.7,
    )
    return [
        (QuantumSetup(ftm(3), three_mixed_sources()), 1e-14),
        (QuantumSetup(ftm(3), three_mixed_sources()), 1e-5),
        (four_mode, 0.0),
        (four_mode, 1e-9),
        (QuantumSetup(random_unitary(2, 5), (fock(1), custom)), 0.0),
    ]


@pytest.mark.parametrize("case", range(5))
def test_oracle_gbar_matches_reference_loop(case):
    setup, prune_tol = mixed_setups()[case]
    report = oracle_gbar(setup, photon_limit=40, prune_tol=prune_tol)
    reference = reference_oracle(setup, photon_limit=40, prune_tol=prune_tol)
    assert_reports_match(report, reference)
    if prune_tol == 0.0:
        assert report.pruned_mass == 0.0 and reference.pruned_mass == 0.0
    else:
        assert report.pruned_mass > 0.0


@pytest.mark.parametrize("rows", [1, 7, None])
def test_block_boundaries_do_not_change_the_oracle(monkeypatch, rows):
    setup = QuantumSetup(ftm(3), three_mixed_sources())
    default = oracle_gbar(setup, photon_limit=40)
    if rows is not None:
        # one row of the 3-detector, 3-mode amplitude array takes 16 * 3 * 6 bytes
        monkeypatch.setattr(quantum_engine, "ORACLE_BLOCK_BYTES", rows * 16 * 3 * 6)
    assert_reports_match(oracle_gbar(setup, photon_limit=40), default)


@pytest.mark.parametrize("rows", [1, 7, 1000])
def test_product_blocks_stream_the_reference_enumeration(monkeypatch, rows):
    # a small budget splits the prefixes of every source into several chunks
    monkeypatch.setattr(quantum_engine, "ORACLE_BLOCK_BYTES", rows * 16 * 3 * 6)
    stats = three_mixed_sources()
    blocks = list(quantum_engine._product_blocks([q.pmf for q in stats], 1e-12, rows))
    assert all(0 < len(occ) <= rows for occ, _, _ in blocks[:-1]) and len(blocks[-1][0]) == 0
    expected = list(reference_configurations(stats, 1e-12))
    kept = [(occ, p) for occ, p in expected if occ is not None]
    assert [tuple(int(n) for n in row) for occ, _, _ in blocks for row in occ] == [
        occ for occ, _ in kept
    ]
    np.testing.assert_allclose(np.concatenate([p for _, p, _ in blocks]), [p for _, p in kept])
    pruned = sum(p for occ, p in expected if occ is None)
    assert sum(mass for _, _, mass in blocks) == pytest.approx(pruned, rel=1e-12)


def test_photon_limit_is_checked_before_any_amplitude(monkeypatch):
    def no_amplitudes(*args):
        raise AssertionError("amplitudes computed for a block over the photon limit")

    setup = QuantumSetup(ftm(2), (coherent(1.0, 30), coherent(1.0, 30)))
    first = next(
        occ for occ, _ in reference_configurations(setup.stats, 1e-14)
        if occ is not None and sum(occ) > 4
    )
    monkeypatch.setattr(quantum_engine, "_lowered_norms", no_amplitudes)
    with pytest.raises(OracleLimitError, match=re.escape(str(first))):
        oracle_gbar(setup, photon_limit=4)


def test_oracle_reports_its_configuration_count():
    setup = QuantumSetup(ftm(3), (fock(1), coherent(0.5, 12), thermal(0.2, 12)))
    report = oracle_gbar(setup, photon_limit=30, prune_tol=0.0)
    assert report.configurations == 13 * 13
    assert report.to_dict()["configurations"] == 13 * 13
    assert "configurations" not in quantum_gbar(setup).to_dict()


def test_oracle_never_enumerates_a_configuration_of_probability_zero():
    assert oracle_gbar(QuantumSetup(ftm(3), (fock(2),) * 3), prune_tol=0.0).configurations == 1
    # (2, 5) has probability 0, so it must not trip the photon limit of 6
    binary = PhotonStatistics(np.array([0.5, 0.5, 0, 0, 0, 0]))
    report = oracle_gbar(QuantumSetup(ftm(2), (binary, binary)), photon_limit=6, prune_tol=0.0)
    assert report.configurations == 4 and report.pruned_mass == 0.0


pmfs = st.lists(st.integers(0, 10), min_size=1, max_size=5).filter(any)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    weights=st.lists(pmfs, min_size=2, max_size=3),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
def test_oracle_equals_closed_form_property(weights, seed, data):
    m = len(weights)
    stats = tuple(PhotonStatistics(np.array(w, float) / sum(w)) for w in weights)
    assume(any(q.mean > 0 for q in stats))
    det = data.draw(st.permutations(range(m)))[: data.draw(st.integers(2, m))]
    setup = QuantumSetup(random_unitary(m, seed), stats, detectors=tuple(det))
    report = oracle_gbar(setup, photon_limit=4 * m, prune_tol=0.0)
    closed = quantum_gbar(setup)
    assert report.pruned_mass == 0.0
    assert report.gbar == pytest.approx(closed.gbar, rel=1e-10, abs=1e-10)
    for (_, _, r), (_, _, c) in zip(report.pair_ratios, closed.pair_ratios):
        assert r == pytest.approx(c, rel=1e-10, abs=1e-10)


def test_coherent_light_at_an_accepted_cutoff_is_classical_compatible():
    # the cross-check's oracle input: truncation leaves gbar 2.4e-12 below
    # the bound, within the boundary margin
    rep = quantum_gbar(QuantumSetup(ftm(3), (coherent(0.5, 12),) * 3))
    verdict = nonclassicality_witness(rep, 3, 3)
    assert 0 < verdict.margin < 1e-11 and verdict.classification == "classical-compatible"


def test_weak_coherent_light_does_not_certify_through_rounding():
    # with variance - mean read as the difference of two rounded moments, gbar
    # carried noise of order eps / mean: weak lasers beside a dark port certified
    for x in np.logspace(-14, -3, 100):
        rep = quantum_gbar(QuantumSetup(ftm(2), (coherent(x, 40), fock(0))))
        assert nonclassicality_witness(rep, 1, 2).classification != "nonclassical", x


def accepts(law, x, cutoff):
    try:
        law(x, cutoff)
    except TruncationError:
        return False
    return True


@st.composite
def truncated_laws(draw, tops, max_cutoff):
    """A coherent, thermal or squeezed law (mean or r up to its ``tops``
    entry) at its smallest accepted cutoff or just above, where truncation
    lowers the variance the most."""
    name = draw(st.sampled_from(sorted(tops)))
    law = {"coherent": coherent, "thermal": thermal, "squeezed": squeezed_vacuum}[name]
    x = tops[name] * 10 ** draw(st.floats(-14, 0))
    cutoff = next(c for c in itertools.count() if accepts(law, x, c)) + draw(st.integers(0, 2))
    assume(cutoff <= max_cutoff and accepts(law, x, cutoff))
    return law(x, cutoff)


def assert_never_nonclassical(report, stats):
    lit = sum(q.mean > 0 for q in stats)
    verdict = nonclassicality_witness(report, lit, len(report.active_detectors))
    assert verdict.classification != "nonclassical", verdict


CLOSED_FORM_TOPS = {"coherent": 15.0, "thermal": 15.0, "squeezed": 1.5}
ORACLE_TOPS = {"coherent": 1.2, "thermal": 0.3, "squeezed": 0.28}  # cutoffs up to 15


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(2, 4).flatmap(
        lambda m: st.lists(truncated_laws(CLOSED_FORM_TOPS, 400), min_size=m, max_size=m)
    )
)
def test_accepted_cutoffs_never_certify_through_the_closed_form(stats):
    assume(any(q.mean > 0 for q in stats))
    assert_never_nonclassical(quantum_gbar(QuantumSetup(ftm(len(stats)), tuple(stats))), stats)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(truncated_laws(ORACLE_TOPS, 15), min_size=2, max_size=2))
def test_accepted_cutoffs_never_certify_through_the_exact_oracle(stats):
    assume(any(q.mean > 0 for q in stats))
    report = oracle_gbar(QuantumSetup(ftm(2), tuple(stats)), photon_limit=30, prune_tol=0.0)
    assert report.pruned_mass == 0.0
    assert_never_nonclassical(report, stats)
