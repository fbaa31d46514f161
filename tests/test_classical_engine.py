import math
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_classical_setup, report_values

import multiport.classical_engine as engine

from multiport import (
    ClassicalSetup,
    ClassicalSource,
    DegenerateSetupError,
    DimensionError,
    InsufficientSamplesError,
    OverlapMatrix,
    PreconditionError,
    classical_gbar,
    classical_min,
    classical_moments,
    fixed_source,
    ftm,
    mc_estimate_gbar,
    nonclassicality_witness,
    pseudo_thermal_source,
)
from multiport.bounds import T_TAIL, student_t_two_sided
from multiport.report import DEFAULT_BATCHES, assemble_report, batch_sizes, batch_sums, report_from_batches


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


@pytest.mark.parametrize("amplitude", [1e-80, 1e-81, 1e80, 1e200])
def test_intensities_outside_the_float_range_are_refused(amplitude):
    # at 1e-80 the pair products went subnormal and read 0.666502, below the
    # bound 2/3; at 1e-81 and 1e80 the report's gbar was NaN
    with pytest.raises(DegenerateSetupError, match="rescale"):
        classical_gbar(three_fixed_sources(amplitude))


@pytest.mark.parametrize("amplitude,shots,seed", [(1e-80, 10**6, 3), (1e-100, 10**4, 0)])
def test_mc_of_weak_light_is_refused(amplitude, shots, seed):
    with pytest.raises(DegenerateSetupError, match="rescale"):
        mc_estimate_gbar(three_fixed_sources(amplitude), shots, seed)


def test_mc_of_overflowing_light_is_refused():
    # the squared amplitudes leave the float range; a RuntimeWarning fails the test
    with pytest.raises(DegenerateSetupError, match="rescale"):
        mc_estimate_gbar(three_fixed_sources(1e200), 10**4, 0)


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


@pytest.mark.parametrize("scale", [math.inf, math.nan])
def test_setup_refuses_a_non_finite_energy_scale(scale):
    with pytest.raises(DimensionError, match="positive and finite"):
        ClassicalSetup(ftm(2).matrix, (fixed_source(1.0),) * 2, energy_scale=scale)


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
    # in each of two batches: a one-shot batch has the ratio 1 at every pair
    for shots in (1, 3):
        with pytest.raises(InsufficientSamplesError, match="2 batches of >= 2 shots"):
            mc_estimate_gbar(hom_setup(), shots=shots, seed=0)
    assert mc_estimate_gbar(hom_setup(), shots=4, seed=0).batches == 2


def test_mc_refuses_a_seed_that_is_not_a_nonnegative_integer():
    # None drew fresh OS entropy and True was taken as 1; -1 and 1.5 raised
    # numpy's own ValueError and TypeError
    for seed in (None, True, -1, 1.5):
        with pytest.raises(PreconditionError, match="seed"):
            mc_estimate_gbar(hom_setup(), 10**4, seed)


@pytest.mark.parametrize(
    "counts", [{"shots": 1e4}, {"batches": 2.5}, {"shots": True}, {"batches": np.True_}, {"shots": "1000"}]
)
def test_mc_refuses_counts_that_are_not_integers(counts):
    # 1e4 shots and 2.5 batches raised a bare TypeError, True shots an
    # InsufficientSamplesError that printed "got True"
    with pytest.raises(PreconditionError, match=next(iter(counts))):
        mc_estimate_gbar(hom_setup(), seed=0, **{"shots": 1000, "batches": 10, **counts})


def test_mc_takes_numpy_integer_counts_and_seed():
    expected = mc_estimate_gbar(hom_setup(), 1000, 3, 10)
    assert same_report(mc_estimate_gbar(hom_setup(), np.int64(1000), np.uint32(3), np.int32(10)), expected)
    for shots, batches in [(-5, 10), (1000, 0), (np.int64(1), 10)]:
        with pytest.raises(InsufficientSamplesError):
            mc_estimate_gbar(hom_setup(), shots, 0, batches)


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


def record_fields(monkeypatch):
    """Run estimates on one thread and record each chunk's fields (shots x
    N) and intensities (shots x M) as the propagation sees them."""
    propagate, seen = engine._detected_intensities, []

    def recording(z, rows, y, out):
        intensities = propagate(z, rows, y, out)
        seen.append((z.T.copy(), intensities.T.copy()))
        return intensities

    monkeypatch.setattr(engine, "_detected_intensities", recording)
    monkeypatch.setattr(engine, "_worker_count", lambda batches, draws: 1)
    return seen


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
    seen = record_fields(monkeypatch)
    # batches of 2, 3 and 10^4 shots; the last spans several chunks at 16 sources
    for shots, batches in [(6, 3), (9, 3), (20000, 2)]:
        mc_estimate_gbar(setup, shots, 5, batches)
    chunk = engine._chunk_shots(shape[1], len(engine._detection_rows(setup)), shape[0])
    lengths = [len(fields) for fields, _ in seen]
    assert lengths[:6] == [2, 2, 2, 3, 3, 3]
    assert lengths[6:] == 2 * ([chunk] * (10000 // chunk) + [10000 % chunk] * (10000 % chunk > 0))
    for fields, intensities in seen:
        np.testing.assert_allclose(intensities, per_mode_intensities(setup, fields), rtol=1e-12, atol=0)


def test_a_rank_two_overlap_propagates_two_internal_modes(monkeypatch):
    # numerically zero eigencolumns of the overlap are no internal modes
    rng = np.random.default_rng(12)
    transfer = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    sources = tuple(pseudo_thermal_source(0.5 + 0.1 * a) for a in range(6))
    setup = ClassicalSetup(transfer, sources, overlap=random_overlap(rng, 6, 2))
    propagate, shapes = engine._detected_intensities, set()

    def recording(z, rows, y, out):
        shapes.add(rows.shape)  # a complex row per internal mode and detector
        return propagate(z, rows, y, out)

    monkeypatch.setattr(engine, "_detected_intensities", recording)
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


# ----------------------------------------------------------- phase-grid oracle


def grid_oracle_report(setup, points=3):
    """The classical report by exact enumeration: source 0 at phase 0, every
    other source at ``points`` equally spaced phases, and every amplitude
    level with its probability, propagated by the engine's own detection
    rows. I_i I_j is a trigonometric polynomial of degree at most 2 in each
    phase, and sums of K-th roots of unity vanish below order K, so 3 points
    give the exact means and pair products; 2 do not."""
    n = setup.n_sources
    turn = np.exp(2j * np.pi * np.arange(points) / points)
    factors = [(np.ones(1), np.ones(1))] + [(np.full(points, 1 / points), turn)] * (n - 1)
    factors += [(s.probabilities, s.amplitudes if s.amplitudes.size > 1 else np.ones(1)) for s in setup.sources]
    picks = [g.ravel() for g in np.meshgrid(*[np.arange(p.size) for p, _ in factors], indexing="ij")]
    prob = np.prod([p[k] for (p, _), k in zip(factors, picks)], axis=0)
    values = np.array([v[k] for (_, v), k in zip(factors, picks)], dtype=complex)
    z = values[:n] * values[n:]  # one column per configuration
    rows = engine._detection_rows(setup)
    intensities = engine._detected_intensities(
        z, rows, np.empty((len(rows), prob.size), complex), np.empty((setup.n_detectors, prob.size))
    )
    products = (intensities * prob) @ intensities.T
    return assemble_report(setup.detectors, intensities @ prob, products, "analytic", setup.energy_scale)


def random_small_source(rng):
    kind = rng.integers(3)
    if kind == 0:
        return fixed_source(float(rng.uniform(0.3, 2.0)))
    if kind == 1:
        return pseudo_thermal_source(float(rng.uniform(0.2, 2.0)), levels=3)
    return ClassicalSource(rng.dirichlet(np.ones(2)), rng.uniform(0.1, 2.0, 2))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 4), m=st.integers(2, 5), overlap=st.booleans(), seed=st.integers(0, 2**32 - 1)
)
def test_the_phase_grid_is_an_exact_classical_oracle(n, m, overlap, seed):
    # non-unitary transfers; the overlaps have a random rank
    rng = np.random.default_rng(seed)
    transfer = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    sources = tuple(random_small_source(rng) for _ in range(n))
    v = random_overlap(rng, n, int(rng.integers(1, n + 1))) if overlap else None
    setup = ClassicalSetup(transfer, sources, overlap=v, energy_scale=float(rng.uniform(0.5, 2.0)))
    grid, closed = grid_oracle_report(setup), classical_gbar(setup)
    assert grid.active_detectors == closed.active_detectors
    np.testing.assert_allclose(
        [grid.gbar, *report_values(grid)], [closed.gbar, *report_values(closed)], rtol=1e-12, atol=0
    )


def test_a_two_point_phase_grid_misses():
    # on 2 points exp(2i phase) = 1, so the order-2 terms of I_i I_j do not average out
    rng = np.random.default_rng(7)
    transfer = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    setup = ClassicalSetup(transfer, tuple(fixed_source(1.0) for _ in range(3)))
    closed = classical_gbar(setup).gbar
    assert grid_oracle_report(setup).gbar == pytest.approx(closed, rel=1e-14)
    assert abs(grid_oracle_report(setup, points=2).gbar - closed) > 1e-3


# ----------------------------------------------------------- draw rule


GRID = 4096  # the turns of the engine's phase table


def run_phasors(u):
    """The engine's phasors of the draws u (shots x n), as rows (n x shots)."""
    z = np.empty(u.T.shape, complex)
    engine._phasors(u.copy(), np.empty(z.shape, np.int64), z)
    return z


def quadrant_reduced(u):
    """cos 2 pi u and sin 2 pi u to about 2e-16: the nearest quarter turn is
    taken off exactly, so numpy sees angles of at most pi / 4."""
    quarter = np.rint(4 * u)
    angle = 2 * np.pi * (u - quarter / 4)
    c, s = np.cos(angle), np.sin(angle)
    turn = quarter.astype(int) % 4
    cos = np.choose(turn, [c, -s, -c, s])
    sin = np.choose(turn, [s, c, -s, -c])
    return cos, sin


@pytest.mark.parametrize("draws", ["philox", "edges"])
def test_table_phasors_match_numpy(draws):
    # 10^6 random turns of the 4096-point grid, or every turn once
    if draws == "philox":
        k = np.random.Generator(np.random.Philox(8)).integers(0, GRID, 10**6)
    else:
        k = np.arange(GRID)
    u = k / GRID  # exact: the draw of turn k
    z = run_phasors(u[:, None])[0]
    assert np.max(np.abs(z.real - np.cos(2 * np.pi * u))) <= 1e-15
    assert np.max(np.abs(z.imag - np.sin(2 * np.pi * u))) <= 1e-15
    # numpy's own error is mostly the rounding of 2 pi u; without it the
    # table rule is within two units in the last place
    exact_cos, exact_sin = quadrant_reduced(u)
    assert np.max(np.abs(z.real - exact_cos)) <= 4.5e-16
    assert np.max(np.abs(z.imag - exact_sin)) <= 4.5e-16
    assert np.all(np.abs(z.real) <= 1) and np.all(np.abs(z.imag) <= 1)
    assert np.array_equal(z, reference_phasors(u))


def test_a_draw_takes_the_grid_turn_below_it():
    k = np.arange(GRID)
    u = np.concatenate([[1.0 - 2.0**-53, 2.0**-53], k / GRID, np.nextafter(k / GRID, 1.0)])
    below = np.nextafter(k[k > 0] / GRID, 0.0)  # in the turn before k
    assert np.array_equal(run_phasors(u[:, None])[0], reference_phasors(u))
    assert np.array_equal(run_phasors(below[:, None])[0], run_phasors((k[k > 0] - 1)[:, None] / GRID)[0])
    assert run_phasors(np.array([[1.0 - 2.0**-53]]))[0, 0] == engine._TURNS[4095]
    # a chunk of several sources: row a holds column a of the draws
    u = np.random.Generator(np.random.Philox(9)).random((7, 3))
    assert np.array_equal(run_phasors(u), reference_phasors(u).T)


def test_turn_table_is_exact_at_the_quarter_turns():
    assert list(engine._TURNS[:: 2**10]) == [1, 1j, -1, -1j]
    assert list(run_phasors(np.array([[0.0], [0.25], [0.5], [0.75]]))[0]) == [1, 1j, -1, -1j]


@pytest.mark.parametrize("name", ["fixed", "pseudo-thermal", "custom", "mixed-overlap"])
def test_source_zero_keeps_phase_zero(monkeypatch, name):
    # row 0 of the fields is source 0's amplitude: 1 where it is folded into
    # the detection rows (one level), else its pick; the other rows are
    # their sources' picks times grid phasors
    setup = bit_identity_setups()[name]
    seen = record_fields(monkeypatch)
    mc_estimate_gbar(setup, 3001, 6, 3)
    fields = np.concatenate([fields for fields, _ in seen])
    assert len(fields) == 3001
    levels = [src.amplitudes if src.amplitudes.size > 1 else np.ones(1) for src in setup.sources]
    assert np.all(fields[:, 0].imag == 0) and np.all(np.isin(fields[:, 0].real, levels[0]))
    for a in range(1, setup.n_sources):
        amplitude = np.abs(fields[:, a])
        nearest = levels[a][np.argmin(np.abs(amplitude[:, None] - levels[a]), axis=1)]
        np.testing.assert_allclose(amplitude, nearest, rtol=1e-15, atol=0)
    if setup.sources[0].amplitudes.size == 1:
        assert np.all(fields[:, 0] == 1)


def complex_fsum(z):
    return complex(math.fsum(z.real), math.fsum(z.imag))


@pytest.mark.parametrize("m", range(1, 9))
def test_grid_phasors_have_the_moments_of_a_uniform_phase(m):
    # for a uniform phase E z^m = 0 at 0 < m < 4096: the sum of the table's
    # m-th powers vanishes to rounding, so the means (order 2) and the
    # variances (order 4) of the estimator are those of continuous phases
    z = np.ones(GRID, complex)
    for _ in range(m):
        z *= engine._TURNS
    assert abs(complex_fsum(z)) <= 1e-12


def implied_probabilities(q, alias):
    cells = q.size
    mass = [[] for _ in range(cells)]
    for j in range(cells):
        mass[j].append(q[j])
        mass[alias[j]].append(1.0 - q[j])
    return np.array([math.fsum(m) / cells for m in mass])


@pytest.mark.parametrize(
    "p",
    [
        pseudo_thermal_source(1.0).probabilities,
        pseudo_thermal_source(0.3, levels=5).probabilities,
        np.array([0.2, 0.3, 0.5]),
        np.array([0.0, 0.25, 0.0, 0.75]),
        np.array([0.5, 0.0, 0.5]),
        np.array([1.0, 0.0, 0.0]),
        np.array([1.0 / 3, 1.0 / 3, 1.0 / 3, 0.0, 0.0, 0.0, 0.0]),
        np.random.default_rng(3).dirichlet(np.ones(48)),
    ],
)
def test_alias_tables_imply_the_source_probabilities(p):
    q, alias = engine._alias_table(p)
    assert np.all((q >= 0) & (q <= 1))
    implied = implied_probabilities(q, alias)
    assert np.max(np.abs(implied - p)) <= 1e-15
    assert np.all(implied[p == 0] == 0.0)  # exactly: a zero-probability level is never picked


def test_alias_picks_pad_the_sources_to_one_cell_count():
    # the pick tables give each amplitude its probability; a one-level
    # source's amplitude is folded into the propagation, so it picks 1
    three_level = ClassicalSource(np.array([0.2, 0.3, 0.5]), np.array([0.0, 1.0, 2.0]))
    sources = (three_level, fixed_source(0.7), pseudo_thermal_source(1.0, levels=5))
    cells, q, amplitudes = engine._alias_picks(sources)
    cells = int(cells)
    assert cells == 5 and q.size == amplitudes.size == 2 * 3 * 5
    for a, src in enumerate(sources):
        mass = {}
        for c in range(a * cells, (a + 1) * cells):
            keep, (own, alias) = q[2 * c], amplitudes[2 * c : 2 * c + 2]
            mass[own] = mass.get(own, 0.0) + keep / cells
            mass[alias] = mass.get(alias, 0.0) + (1 - keep) / cells
        expected = dict(zip(src.amplitudes, src.probabilities)) if src.amplitudes.size > 1 else {1.0: 1.0}
        assert set(expected) <= set(mass)
        assert all(abs(mass[amp] - expected.get(amp, 0.0)) <= 1e-15 for amp in mass)
    assert engine._alias_picks((fixed_source(1.0), fixed_source(2.0))) is None


@pytest.mark.parametrize("cells", list(range(1, 65)) + [1000, 4097])
def test_the_last_draw_picks_from_the_last_cell(cells):
    t = np.array([1.0 - 2.0**-53, 0.0]) * cells
    assert list(np.floor(t)) == [cells - 1, 0]


def test_picks_follow_the_source_probabilities():
    # 2e5 picks of a three-level source with a zero-probability level
    source = ClassicalSource(np.array([0.25, 0.0, 0.75]), np.array([1.0, 2.0, 3.0]))
    picks = engine._alias_picks((source,))
    v = np.random.Generator(np.random.Philox(1)).random((200000, 1))
    t, out, index = np.empty(v.T.shape), np.empty(v.T.shape), np.empty(v.T.shape, np.int64)
    amps = engine._pick_amplitudes(v.copy(), picks, np.zeros((1, 1)), t, out, index)[0]
    assert np.array_equal(amps, reference_amplitudes(v, picks)[:, 0])
    counts = np.array([np.count_nonzero(amps == level) for level in (1.0, 2.0, 3.0)])
    assert counts[1] == 0
    assert abs(counts[0] - 50000) <= 5 * np.sqrt(200000 * 0.25 * 0.75)


# ----------------------------------------------------------- memory and calibration


RSS_SCRIPT = """
import os, sys
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
import multiport as mp
setup = mp.ClassicalSetup(mp.ftm(3).matrix, (mp.fixed_source(1.0),) * 3)
mp.mc_estimate_gbar(setup, int(sys.argv[1]), 4, batches=20)
print(open("/proc/self/status").read().split("VmHWM:")[1].split()[0])
"""


def peak_rss_kb(shots):
    """The peak RSS of an estimate in a fresh process, on one CPU and one
    BLAS thread: each sampler thread has a workspace, of which a batch smaller
    than a chunk (5,000 shots here) touches less. It is VmHWM: ru_maxrss
    keeps the forking parent's peak across exec."""
    src = Path(engine.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", RSS_SCRIPT, str(shots)],
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin", "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return int(done.stdout.split()[-1])


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_peak_memory_does_not_grow_with_shots():
    # 40x the shots: 5,000 and 200,000 shots per batch; whole-batch arrays
    # grew the peak from 37 to 79 MB (chunks: 0.8 MB)
    assert peak_rss_kb(4 * 10**6) - peak_rss_kb(10**5) <= 2048


def binomial_band(n, p, tail):
    """The counts (low, high) outside which Binomial(n, p) lies with
    probability at most ``tail`` on each side."""
    logs = [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) for k in range(n + 1)]
    pmf = [math.exp(c + k * math.log(p) + (n - k) * math.log1p(-p)) for k, c in enumerate(logs)]
    cdf = np.cumsum(pmf)
    return int(np.searchsorted(cdf, tail, side="right")), int(np.searchsorted(cdf, 1 - tail))


def test_student_t_tail_matches_known_values():
    assert student_t_two_sided(1.0, 1) == pytest.approx(0.5, abs=1e-15)
    stats = pytest.importorskip("scipy.stats")
    for df in (1, 2, 3, 4, 19, 20, 99, 100):
        assert student_t_two_sided(3.0, df) == pytest.approx(2 * stats.t.sf(3.0, df), rel=1e-12)


CALIBRATION_SEEDS = 200
CERTIFICATE_SEEDS = 2000


@pytest.mark.parametrize("batches", [20, 100])
@pytest.mark.parametrize("kind", ["fixed", "pseudo-thermal"])
def test_mc_misses_by_three_stderr_at_the_student_t_rate(kind, batches):
    # The batch-means statistic is Student-t with batches - 1 degrees of
    # freedom, so |gbar - exact| > 3 stderr at rate 2 P(T > 3): 0.71% at 20
    # batches, 0.34% at 100, and the bands are 0..8 and 0..5 misses of 200.
    # A count leaves its band with probability below 2e-4 (below 1e-3 for
    # the four cases together). A stderr half the true one would miss about
    # 15% of the time, some 30 seeds.
    source = fixed_source(1.0) if kind == "fixed" else pseudo_thermal_source(1.0, levels=8)
    setup = ClassicalSetup(ftm(2).matrix, (source, source))
    exact = classical_gbar(setup).gbar
    misses = sum(
        abs((r := mc_estimate_gbar(setup, 100 * batches, seed, batches)).gbar - exact) > 3 * r.stderr
        for seed in range(CALIBRATION_SEEDS)
    )
    low, high = binomial_band(CALIBRATION_SEEDS, student_t_two_sided(3.0, batches - 1), 1e-4)
    assert low <= misses <= high


def test_mc_at_the_bound_certifies_at_the_nominal_rate():
    # Classical HOM sits exactly at the bound 1/2, so every certificate is
    # false. 100 shots in the default 100 batches were cut into batches of one
    # shot, whose stderr is 0: 947 of 2,000 seeds certified. In 50 batches of
    # two shots the rule's one-sided tail is T_TAIL = 1.35e-3, 2.7 seeds; the
    # count leaves its band, 0..11, with probability below 1e-4.
    hom = hom_setup()
    certified = sum(
        nonclassicality_witness(mc_estimate_gbar(hom, 100, seed), 2, 2).classification == "nonclassical"
        for seed in range(CERTIFICATE_SEEDS)
    )
    low, high = binomial_band(CERTIFICATE_SEEDS, T_TAIL, 1e-4)
    assert low <= certified <= high


# ----------------------------------------------------------- serial reference
# The reference for the threaded, chunked sampler: one batch after another
# from a single pass over both PCG64 streams, each batch in chunks of
# _chunk_shots shots whose sums add up in order. The fields follow the draw
# rule in plain expressions: source 0 keeps phase 0, the others take the
# table phasors of their phase draws, and all are multiplied by their alias
# picks when some source has several levels. They propagate through the
# engine's detection rows, which the internal-mode tests check against the
# vector sum.


def reference_phasors(u):
    """exp(2 pi i k / 4096) of the grid turns k = floor(4096 u) below the
    draws u, from the engine's table."""
    return engine._TURNS[np.floor(u * GRID).astype(np.int64)]


def reference_amplitudes(v, picks):
    """The level amplitudes that the draws v pick from the alias tables."""
    cells, q, amplitudes = picks
    t = v * cells
    j = np.floor(t)
    cell = (np.arange(v.shape[1]) * cells + j).astype(int)
    return amplitudes[2 * cell + (t - j >= q[2 * cell])]


def reference_mc(setup, shots, seed, batches=DEFAULT_BATCHES):
    n, m = setup.n_sources, setup.n_detectors
    rows = engine._detection_rows(setup)
    picks = engine._alias_picks(setup.sources)
    chunk = engine._chunk_shots(n, len(rows), m)
    phase_ss, pick_ss = np.random.SeedSequence(seed).spawn(2)
    phase_rng = np.random.Generator(np.random.PCG64(phase_ss))
    pick_rng = np.random.Generator(np.random.PCG64(pick_ss))

    def batch(size):
        total = None
        for begin in range(0, size, chunk):
            shots = min(chunk, size - begin)
            fields = np.ones((n, shots), complex)
            fields[1:] = reference_phasors(phase_rng.random((shots, n - 1))).T
            if picks is not None:
                fields *= reference_amplitudes(pick_rng.random((shots, n)), picks).T
            # squares summed over internal modes, real and imaginary parts apart
            modes = (rows @ fields).reshape(-1, m, shots)
            intensities = sum(a.real**2 for a in modes) + sum(a.imag**2 for a in modes)
            sums = batch_sums(intensities.T)
            total = sums if total is None else tuple(a + b for a, b in zip(total, sums))
        return total

    return report_from_batches(map(batch, batch_sizes(shots, batches)), "monte-carlo", setup.energy_scale)


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


# (shots, batches): two-shot batches, fewer shots than two per batch (9 shots
# make 4 batches), uneven sizes, and batches of several chunks
SHOT_LAYOUTS = [(8, 4), (9, 9), (1001, 7), (20003, 10), (30001, 2)]


def test_shot_layouts_cover_uneven_two_shot_and_multi_chunk_batches():
    layouts = [batch_sizes(*layout) for layout in SHOT_LAYOUTS]
    assert any(len(set(sizes)) > 1 for sizes in layouts)
    assert any(np.all(sizes == 2) for sizes in layouts)
    assert any(len(sizes) < batches for sizes, (_, batches) in zip(layouts, SHOT_LAYOUTS))
    for setup in bit_identity_setups().values():
        chunk = engine._chunk_shots(setup.n_sources, len(engine._detection_rows(setup)), setup.n_detectors)
        assert any(sizes[0] > chunk for sizes in layouts)


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
    # a shot takes n - 1 draws of the phase stream and n of the pick stream
    rows = 18
    for stream, width in zip(np.random.SeedSequence(7).spawn(2), (n_sources - 1, n_sources)):
        full = np.random.Generator(np.random.PCG64(stream)).random(size=(rows, width))
        for start in range(rows):
            seeked = engine._generator_at(stream, start * width)
            tail = seeked.random(size=(rows - start, width))
            assert tail.tobytes() == full[start:].tobytes()


def test_seeks_far_into_a_stream_match_advancing_in_steps():
    # one 64-bit output per double, so a seek is exact at any offset
    stream = np.random.SeedSequence(7).spawn(2)[1]
    for k in range(5):
        stepped = np.random.PCG64(stream).advance(2**40).advance(k)
        seeked = engine._generator_at(stream, 2**40 + k)
        assert seeked.bit_generator.state == stepped.state
        assert seeked.random(4).tobytes() == np.random.Generator(stepped).random(4).tobytes()


def test_worker_count_is_one_for_small_batches_and_never_above_the_batches():
    assert engine._worker_count(100, engine._THREADED_BATCH_DRAWS - 1) == 1
    assert 1 <= engine._worker_count(100, 10**5) <= 100
    assert engine._worker_count(1, 10**5) == 1


def test_threaded_mc_is_bit_identical_under_fast_switching(monkeypatch):
    monkeypatch.setattr(engine, "_worker_count", lambda batches, draws: 3)
    setup = bit_identity_setups()["fixed"]
    results = []

    def stress():
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results.append(mc_estimate_gbar(setup, 1001, 4, 7))
        finally:
            sys.setswitchinterval(previous)

    runner = threading.Thread(target=stress)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert len(results) == 1 and same_report(results[0], reference_mc(setup, 1001, 4, 7))


def test_one_worker_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(engine, "_worker_count", lambda batches, draws: 1)
    monkeypatch.setattr(threading, "Thread", no_thread)
    setup = bit_identity_setups()["fixed"]
    assert same_report(mc_estimate_gbar(setup, 1001, 4, 7), reference_mc(setup, 1001, 4, 7))


def test_a_failing_batch_fails_the_estimate(monkeypatch):
    monkeypatch.setattr(engine, "_worker_count", lambda batches, draws: 2)

    def fail(*args):
        raise MemoryError("batch")

    monkeypatch.setattr(engine, "_detected_intensities", fail)
    with pytest.raises(MemoryError, match="batch"):
        mc_estimate_gbar(hom_setup(), shots=1000, seed=0)
