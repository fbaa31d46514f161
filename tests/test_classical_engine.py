import math
import sys
import threading

import numpy as np
import pytest

from conftest import random_classical_setup, report_values

import multiport.classical_engine as engine

from multiport import (
    ClassicalSetup,
    ClassicalSource,
    DegenerateSetupError,
    DimensionError,
    InsufficientSamplesError,
    OverlapMatrix,
    classical_gbar,
    classical_min,
    classical_moments,
    fixed_source,
    ftm,
    mc_estimate_gbar,
    pseudo_thermal_source,
)
from multiport.report import DEFAULT_BATCHES, batch_sizes, batch_sums, report_from_batches


def hom_setup(energy_scale=1.0):
    return ClassicalSetup(
        ftm(2).matrix, (fixed_source(1.0), fixed_source(1.0)), energy_scale=energy_scale
    )


# ----------------------------------------------------------- intensity means


def test_means_balanced_splitter():
    assert np.allclose(classical_gbar(hom_setup()).intensity_means, [1.0, 1.0], atol=1e-14)


def test_means_single_source_identity():
    # one lit detector has no pair to report
    with pytest.raises(DegenerateSetupError):
        classical_gbar(ClassicalSetup(np.eye(2)[:, :1], (fixed_source(1.3),)))
    # with a second lit detector the unlit one still reads exactly zero
    setup = ClassicalSetup(np.array([[1.0], [1.0], [0.0]]), (fixed_source(1.3),))
    means = classical_gbar(setup).intensity_means
    assert means[:2] == pytest.approx([1.3**2, 1.3**2], abs=1e-14)
    assert means[2] == 0.0


def test_means_scale_linearly_with_energy():
    assert np.allclose(
        classical_gbar(hom_setup(energy_scale=2.0)).intensity_means,
        2 * classical_gbar(hom_setup()).intensity_means,
        atol=1e-14,
    )


@pytest.mark.parametrize("scale", [1e-300, 1e160, 1e300])
def test_ratios_do_not_depend_on_energy_scale(rng, scale):
    # the scale multiplies only the reported means: closed form and Monte
    # Carlo ratios are the same numbers as at unit scale, bit for bit
    base = random_classical_setup(rng)
    scaled = ClassicalSetup(base.transfer, base.sources, energy_scale=scale)
    for run in (classical_gbar, lambda s: mc_estimate_gbar(s, 2000, seed=3)):
        reference, report = run(base), run(scaled)
        assert report.pair_ratios == reference.pair_ratios
        assert report.gbar == reference.gbar and report.stderr == reference.stderr
        assert np.array_equal(report.intensity_means, scale * reference.intensity_means)


# ----------------------------------------------------------- pair correlator


def test_hom_pair_correlator_saturates_bound():
    # one pair (0, 1) with ratio 1/2, and means 1, 1: <I_0 I_1> = 1/2
    report = classical_gbar(hom_setup())
    assert report_values(report) == pytest.approx([0, 1, 0.5, 1.0, 1.0], abs=1e-14)
    assert report.gbar == pytest.approx(0.5, abs=1e-14)


def test_pseudo_thermal_pair_correlator():
    # <|A|^4> = 2 <|A|^2>^2 doubles the fluctuation budget and lifts the
    # ratio to 1; exact for the two-point {0, sqrt(2)} ensemble
    two_point = ClassicalSource(np.array([0.5, 0.5]), np.array([0.0, np.sqrt(2.0)]))
    setup = ClassicalSetup(ftm(2).matrix, (two_point, two_point))
    assert report_values(classical_gbar(setup)) == pytest.approx([0, 1, 1.0, 1.0, 1.0], abs=1e-14)
    smooth = pseudo_thermal_source(1.0, levels=48)
    setup2 = ClassicalSetup(ftm(2).matrix, (smooth, smooth))
    (_, _, ratio), = classical_gbar(setup2).pair_ratios
    assert ratio == pytest.approx(1.0, abs=1e-12)
    # sampled cross-check of the same prediction
    mc = mc_estimate_gbar(setup2, shots=10**5, seed=21)
    assert abs(mc.gbar - 1.0) <= 3 * mc.stderr


def test_zero_overlap_kills_interference():
    overlap = OverlapMatrix(np.eye(2))
    setup = ClassicalSetup(ftm(2).matrix, (fixed_source(1.0), fixed_source(1.0)), overlap=overlap)
    assert report_values(classical_gbar(setup)) == pytest.approx([0, 1, 1.0, 1.0, 1.0], abs=1e-14)


@pytest.mark.parametrize("v", [0.0, 0.3, 0.7, 1.0])
def test_overlap_interpolates_hom_dip(v):
    overlap = OverlapMatrix(np.array([[1.0, v], [v, 1.0]]))
    setup = ClassicalSetup(ftm(2).matrix, (fixed_source(1.0), fixed_source(1.0)), overlap=overlap)
    assert report_values(classical_gbar(setup)) == pytest.approx([0, 1, 1 - v**2 / 2, 1.0, 1.0], abs=1e-12)


# ----------------------------------------------------------- gbar


@pytest.mark.parametrize("m", range(2, 9))
def test_ftm_with_equal_fixed_sources_reaches_bound(m):
    setup = ClassicalSetup(ftm(m).matrix, tuple(fixed_source(1.0) for _ in range(m)))
    assert classical_gbar(setup).gbar == pytest.approx(1 - 1 / m, abs=1e-12)


def test_single_source_gbar_is_one():
    transfer = np.array([[0.6], [0.8j], [0.3 + 0.1j]])
    setup = ClassicalSetup(transfer, (fixed_source(2.0),))
    report = classical_gbar(setup)
    assert report.gbar == pytest.approx(1.0, abs=1e-12)
    assert report.provenance == "analytic"


def test_two_sources_on_three_port_ftm():
    # only the first two columns drive sources; matches the N=2, M=3 bound
    setup = ClassicalSetup(ftm(3).matrix[:, :2], (fixed_source(1.0), fixed_source(1.0)))
    report = classical_gbar(setup)
    assert report.gbar == pytest.approx(0.75, abs=1e-12)
    assert report.gbar == pytest.approx(classical_min(2, 3), abs=1e-12)


def test_gbar_report_consistency():
    report = classical_gbar(hom_setup())
    ratios = [r for _, _, r in report.pair_ratios]
    assert report.gbar == pytest.approx(sum(ratios) / len(ratios), abs=1e-15)
    assert report.active_detectors == (0, 1)


def test_dark_detector_is_excluded():
    transfer = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]]) / np.sqrt(2)
    setup = ClassicalSetup(transfer, (fixed_source(1.0), fixed_source(1.0)))
    report = classical_gbar(setup)
    assert report.active_detectors == (0, 1)
    assert len(report.pair_ratios) == 1


def test_degenerate_setup_raises():
    setup = ClassicalSetup(np.zeros((3, 1)), (fixed_source(1.0),))
    with pytest.raises(DegenerateSetupError):
        classical_gbar(setup)


def three_fixed_sources(amplitude):
    return ClassicalSetup(ftm(3).matrix, tuple(fixed_source(amplitude) for _ in range(3)))


@pytest.mark.parametrize("amplitude", [1e-80, 1e-81, 1e80])
def test_intensities_outside_the_float_range_are_refused(amplitude):
    # at 1e-80 the pair products went subnormal and read 0.666502, below the
    # bound 2/3; at 1e-81 and 1e80 the report's gbar was NaN
    with pytest.raises(DegenerateSetupError, match="rescale"):
        classical_gbar(three_fixed_sources(amplitude))


@pytest.mark.parametrize("amplitude,shots,seed", [(1e-80, 10**6, 3), (1e-100, 10**4, 0)])
def test_mc_of_weak_light_is_refused(amplitude, shots, seed):
    with pytest.raises(DegenerateSetupError, match="rescale"):
        mc_estimate_gbar(three_fixed_sources(amplitude), shots, seed)


def test_setup_validation():
    with pytest.raises(DimensionError):
        ClassicalSetup(np.eye(2), (fixed_source(1.0),))
    with pytest.raises(DimensionError):
        ClassicalSetup(np.eye(2), (fixed_source(1.0), fixed_source(1.0)), energy_scale=0.0)
    with pytest.raises(DimensionError):
        ClassicalSetup(
            np.eye(2),
            (fixed_source(1.0), fixed_source(1.0)),
            overlap=OverlapMatrix(np.eye(3)),
        )


# ----------------------------------------------------------- invariants


def test_scale_invariance(rng):
    for _ in range(20):
        setup = random_classical_setup(rng, max_sources=4, max_detectors=4)
        scaled_sources = tuple(
            ClassicalSource(s.probabilities, s.amplitudes * np.sqrt(3.7))
            for s in setup.sources
        )
        scaled = ClassicalSetup(setup.transfer, scaled_sources, energy_scale=0.25)
        a, b = classical_gbar(setup), classical_gbar(scaled)
        assert a.gbar == pytest.approx(b.gbar, abs=1e-12)
        for (i, j, r1), (i2, j2, r2) in zip(a.pair_ratios, b.pair_ratios):
            assert (i, j) == (i2, j2)
            assert r1 == pytest.approx(r2, abs=1e-12)


def test_bound_respected_on_random_setups(rng):
    for _ in range(500):
        setup = random_classical_setup(rng)
        report = classical_gbar(setup)
        bound = classical_min(setup.n_sources, len(report.active_detectors))
        assert report.gbar >= bound - 1e-9


def test_fixing_intensities_never_increases_gbar(rng):
    for _ in range(50):
        setup = random_classical_setup(rng, max_sources=4, max_detectors=4)
        before = classical_gbar(setup).gbar
        for a in range(setup.n_sources):
            sources = list(setup.sources)
            m2, _ = classical_moments(sources[a])
            sources[a] = fixed_source(np.sqrt(m2))
            after = classical_gbar(ClassicalSetup(setup.transfer, tuple(sources))).gbar
            assert after <= before + 1e-12


# ----------------------------------------------------------- monte carlo


def test_mc_hom_matches_analytic():
    report = mc_estimate_gbar(hom_setup(), shots=10**6, seed=20260810)
    assert report.provenance == "monte-carlo"
    assert report.stderr <= 0.005
    assert abs(report.gbar - 0.5) <= 3 * report.stderr


def test_mc_single_source_exact():
    setup = ClassicalSetup(np.array([[0.6], [0.8]]), (fixed_source(1.0),))
    report = mc_estimate_gbar(setup, shots=10**5, seed=3)
    assert report.gbar == pytest.approx(1.0, abs=1e-12)
    assert report.stderr <= 1e-12


def test_mc_agrees_with_analytic_on_random_setups(rng):
    for k in range(20):
        setup = random_classical_setup(rng, max_sources=4, max_detectors=4)
        mc = mc_estimate_gbar(setup, shots=10**5, seed=5000 + k)
        exact = classical_gbar(setup).gbar
        assert abs(mc.gbar - exact) <= 3 * mc.stderr


def same_report(a, b) -> bool:
    """Whole reports equal bit for bit, the intensity means included."""
    return a.to_dict() == b.to_dict() and a.intensity_means.tobytes() == b.intensity_means.tobytes()


def test_mc_deterministic_and_seed_sensitive():
    a = mc_estimate_gbar(hom_setup(), shots=5000, seed=9)
    b = mc_estimate_gbar(hom_setup(), shots=5000, seed=9)
    c = mc_estimate_gbar(hom_setup(), shots=5000, seed=10)
    assert same_report(a, b)
    assert a.gbar != c.gbar


def test_mc_overlap_sampling_matches_analytic():
    overlap = OverlapMatrix(np.array([[1.0, 0.6], [0.6, 1.0]]))
    setup = ClassicalSetup(
        ftm(2).matrix, (fixed_source(1.0), fixed_source(1.0)), overlap=overlap
    )
    report = mc_estimate_gbar(setup, shots=2 * 10**5, seed=77)
    expected = classical_gbar(setup).gbar
    assert expected == pytest.approx(1 - 0.36 / 2, abs=1e-12)
    assert abs(report.gbar - expected) <= 3 * report.stderr


def test_mc_error_shrinks_as_root_shots():
    # quadrupling the shots should roughly halve the RMS error
    setup = hom_setup()
    exact = 0.5
    shot_levels = [10**4, 4 * 10**4, 16 * 10**4]
    rms = []
    for shots in shot_levels:
        errors = [
            mc_estimate_gbar(setup, shots=shots, seed=100 + rep).gbar - exact
            for rep in range(10)
        ]
        rms.append(np.sqrt(np.mean(np.square(errors))))
    slope = np.polyfit(np.log(shot_levels), np.log(rms), 1)[0]
    assert -0.75 <= slope <= -0.25


def test_mc_requires_two_shots():
    with pytest.raises(InsufficientSamplesError):
        mc_estimate_gbar(hom_setup(), shots=1, seed=0)


def test_column_major_transfer_and_overlap_are_accepted():
    sources = tuple(fixed_source(1.0) for _ in range(3))
    overlap = OverlapMatrix(np.asfortranarray(np.eye(3)))
    setup = ClassicalSetup(ftm(3).matrix.T, sources, overlap=overlap)
    assert classical_gbar(setup).gbar == pytest.approx(1.0, abs=1e-12)


def test_mc_one_batch_has_no_stderr():
    with pytest.raises(InsufficientSamplesError):
        mc_estimate_gbar(hom_setup(), shots=1000, seed=0, batches=1)


# ----------------------------------------------------------- internal modes


def per_mode_intensities(setup, fields):
    """The independent route for overlaps: each field carries its source's unit
    mode vector, the detected field is their vector sum and the intensity its
    squared norm."""
    modes = setup.overlap.mode_vectors()
    per_mode = np.einsum("ia,sak->sik", setup.transfer, fields[:, :, None] * modes[None])
    return (np.abs(per_mode) ** 2).sum(axis=2)


def random_overlap(rng, n, rank):
    vectors = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return OverlapMatrix(vectors @ vectors.conj().T)


@pytest.mark.parametrize("full_rank", [False, True])
@pytest.mark.parametrize("shape", [(3, 3), (16, 16), (5, 3), (2, 6)])
def test_internal_mode_rows_match_the_per_mode_vector_sum(monkeypatch, shape, full_rank):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    transfer = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    overlap = random_overlap(rng, shape[1], shape[1] if full_rank else 2)
    sources = tuple(pseudo_thermal_source(0.5 + 0.1 * a) for a in range(shape[1]))
    setup = ClassicalSetup(transfer, sources, overlap=overlap)
    propagate, seen = engine._intensities, []

    def recording(setup, fields, rows):
        intensities = propagate(setup, fields, rows)
        seen.append((fields.copy(), intensities))
        return intensities

    monkeypatch.setattr(engine, "_intensities", recording)
    monkeypatch.setattr(engine, "_worker_count", lambda batches, draws: 1)
    # batches of 1, 3 and 10^4 shots; the last crosses several row blocks
    for shots, batches in [(3, 3), (9, 3), (20000, 2)]:
        mc_estimate_gbar(setup, shots, 5, batches)
    assert {len(fields) for fields, _ in seen} == {1, 3, 10000}
    for fields, intensities in seen:
        np.testing.assert_allclose(intensities, per_mode_intensities(setup, fields), rtol=1e-12, atol=0)


def test_a_rank_two_overlap_propagates_two_internal_modes(monkeypatch):
    # numerically zero eigencolumns of the overlap are no internal modes
    rng = np.random.default_rng(12)
    transfer = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    sources = tuple(pseudo_thermal_source(0.5 + 0.1 * a) for a in range(6))
    setup = ClassicalSetup(transfer, sources, overlap=random_overlap(rng, 6, 2))
    propagate, shapes = engine._intensities, set()

    def recording(setup, fields, rows):
        shapes.add(rows.shape)
        return propagate(setup, fields, rows)

    monkeypatch.setattr(engine, "_intensities", recording)
    report = mc_estimate_gbar(setup, 20000, 3)
    assert shapes == {(2 * 4, 6)}
    vals, vecs = np.linalg.eigh(setup.overlap.matrix)
    every = vecs * np.sqrt(np.clip(vals, 0.0, None))
    monkeypatch.setattr(OverlapMatrix, "mode_vectors", lambda self: every)
    every_column = mc_estimate_gbar(setup, 20000, 3)
    assert shapes == {(2 * 4, 6), (6 * 4, 6)}
    np.testing.assert_allclose(
        [report.gbar, report.stderr, *report_values(report)],
        [every_column.gbar, every_column.stderr, *report_values(every_column)],
        rtol=1e-12, atol=0,
    )


# ----------------------------------------------------------- serial reference
# The reference for the threaded sampler: the serial loop it replaced, one
# batch after another from a single pass over both Philox streams, through the
# same rows: the transfer matrix, or with overlaps one row per detector and
# internal mode, W[(i, k), a] = T_ia v_ak.


def reference_mc(setup, shots, seed, batches=DEFAULT_BATCHES):
    rows = setup.transfer
    if setup.overlap is not None:
        rows = (rows[:, None, :] * setup.overlap.mode_vectors().T).reshape(-1, setup.n_sources)
    phase_ss, pick_ss = np.random.SeedSequence(seed).spawn(2)
    phase_rng = np.random.Generator(np.random.Philox(phase_ss))
    pick_rng = np.random.Generator(np.random.Philox(pick_ss))

    def blocks():
        n = setup.n_sources
        for size in batch_sizes(shots, batches):
            phases = phase_rng.uniform(0.0, 2.0 * np.pi, size=(size, n))
            picks = pick_rng.random(size=(size, n))
            amps = np.empty((size, n))
            for a, src in enumerate(setup.sources):
                cum = np.cumsum(src.probabilities)
                idx = np.minimum(np.searchsorted(cum, picks[:, a], side="right"), cum.size - 1)
                amps[:, a] = src.amplitudes[idx]
            fields = amps * np.exp(1j * phases)
            # a sum over one internal mode is exact, so it needs no branch here
            yield (np.abs(fields @ rows.T) ** 2).reshape(size, setup.n_detectors, -1).sum(axis=2)

    return report_from_batches(map(batch_sums, blocks()), "monte-carlo", setup.energy_scale)


def bit_identity_setups():
    three_level = ClassicalSource(np.array([0.2, 0.3, 0.5]), np.array([0.0, 1.0, 2.0]))
    overlap = OverlapMatrix(np.array([[1.0, 0.6, 0.2], [0.6, 1.0, 0.3], [0.2, 0.3, 1.0]]))
    return {
        "fixed": ClassicalSetup(ftm(3).matrix, (fixed_source(np.sqrt(0.5)),) * 3),
        "pseudo-thermal": ClassicalSetup(ftm(4).matrix, (pseudo_thermal_source(0.12),) * 4),
        "custom": ClassicalSetup(
            ftm(3).matrix, (three_level, fixed_source(0.0), pseudo_thermal_source(2.0, levels=5))
        ),
        "sixteen-modes": ClassicalSetup(
            ftm(16).matrix, tuple(pseudo_thermal_source(0.3 + 0.1 * k) for k in range(16))
        ),
        "fixed-overlap": ClassicalSetup(ftm(3).matrix, (fixed_source(1.0),) * 3, overlap=overlap),
        "mixed-overlap": ClassicalSetup(
            ftm(3).matrix, (three_level, fixed_source(0.7), pseudo_thermal_source(1.0)), overlap=overlap
        ),
    }


# (shots, batches): fewer shots than batches, one-shot batches whose first rows
# sit at every offset mod 4 of the four-draw Philox block, uneven sizes, and
# batches propagated in several row blocks
SHOT_LAYOUTS = [(3, 5), (9, 9), (1001, 7), (20003, 10), (30001, 3)]


def test_shot_layouts_start_batches_at_every_offset_in_a_philox_block():
    # every offset a first row can have: all four with an odd source count
    for setup in bit_identity_setups().values():
        offsets = set()
        for shots, batches in SHOT_LAYOUTS:
            sizes = batch_sizes(shots, batches)
            offsets |= {int(start) * setup.n_sources % 4 for start in np.cumsum(sizes) - sizes}
        assert offsets == set(range(0, 4, math.gcd(setup.n_sources, 4)))
    assert any(len(set(batch_sizes(*layout))) > 1 for layout in SHOT_LAYOUTS)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", list(bit_identity_setups()))
def test_threaded_mc_is_bit_identical_to_the_serial_loop(monkeypatch, name, workers):
    monkeypatch.setattr(engine, "_worker_count", lambda batches, draws: workers)
    setup = bit_identity_setups()[name]
    for shots, batches in SHOT_LAYOUTS:
        for seed in (4, 2**31 - 1):
            expected = reference_mc(setup, shots, seed, batches)
            assert same_report(mc_estimate_gbar(setup, shots, seed, batches), expected)


@pytest.mark.parametrize("n_sources", range(1, 6))
def test_seeked_streams_give_the_rows_of_one_full_draw(n_sources):
    rows = 9
    for stream in np.random.SeedSequence(7).spawn(2):
        full = np.random.Generator(np.random.Philox(stream))
        phases = full.uniform(0.0, 2.0 * np.pi, size=(rows, n_sources))
        picks = full.random(size=(rows, n_sources))
        for start in range(rows):
            seeked = engine._generator_at(stream, start * n_sources)
            tail = seeked.uniform(0.0, 2.0 * np.pi, size=(rows - start, n_sources))
            assert tail.tobytes() == phases[start:].tobytes()
            seeked = engine._generator_at(stream, (rows + start) * n_sources)
            tail = seeked.random(size=(rows - start, n_sources))
            assert tail.tobytes() == picks[start:].tobytes()


def test_worker_count_is_one_for_small_batches_and_never_above_the_batches():
    assert engine._worker_count(100, engine._THREADED_BATCH_DRAWS - 1) == 1
    assert 1 <= engine._worker_count(100, 10**5) <= 100
    assert engine._worker_count(1, 10**5) == 1


def test_thread_map_runs_each_index_once_under_fast_switching():
    seen, results = [], []

    def square(k):
        seen.append(k)
        return k * k

    def stress():
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results.extend(engine._map_in_threads(square, 8))
        finally:
            sys.setswitchinterval(previous)

    runner = threading.Thread(target=stress)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert sorted(seen) == list(range(8))
    assert results == [k * k for k in range(8)]


def test_one_worker_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(engine, "_worker_count", lambda batches, draws: 1)
    monkeypatch.setattr(engine.threading, "Thread", no_thread)
    setup = bit_identity_setups()["fixed"]
    assert same_report(mc_estimate_gbar(setup, 1001, 4, 7), reference_mc(setup, 1001, 4, 7))


def test_a_failing_batch_fails_the_estimate(monkeypatch):
    monkeypatch.setattr(engine, "_worker_count", lambda batches, draws: 2)

    def fail(*args):
        raise MemoryError("batch")

    monkeypatch.setattr(engine, "_intensities", fail)
    with pytest.raises(MemoryError, match="batch"):
        mc_estimate_gbar(hom_setup(), shots=1000, seed=0)
