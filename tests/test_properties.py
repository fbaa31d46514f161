"""Property tests of the classical bound: the closed form, its symmetries and
its scale, the sampled estimates' scale, and the optimizer.

Setups are drawn by hypothesis (derandomized, so every run checks the same
examples): up to 6 detectors and 6 sources, fixed, pseudo-thermal and dark
sources, dark detectors, and optional mode overlaps of any rank.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from multiport import (
    ClassicalSetup,
    ClassicalSource,
    DegenerateSetupError,
    OverlapMatrix,
    ShotRecord,
    classical_gbar,
    classical_min,
    classical_moments,
    correlation_report_from_records,
    fixed_source,
    ftm,
    mc_estimate_gbar,
    multistart_minimize,
    nonclassicality_witness,
    pseudo_thermal_source,
)
from multiport.bounds import NONCLASSICAL

PROPERTIES = settings(derandomize=True, max_examples=300, deadline=None)
# for properties whose every example samples shots or runs an optimizer
FEW = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def classical_setups(draw):
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    transfer = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    transfer[sorted(draw(st.sets(st.integers(0, m - 1), max_size=m - 2)))] = 0
    sources = []
    for _ in range(n):
        kind = draw(st.sampled_from(["fixed", "pseudo-thermal", "dark"]))
        strength = draw(st.floats(0.1, 3.0))
        if kind == "pseudo-thermal":
            sources.append(pseudo_thermal_source(strength))
        else:
            sources.append(fixed_source(strength if kind == "fixed" else 0.0))
    overlap = None
    if draw(st.booleans()):
        rank = draw(st.integers(1, n))
        vectors = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        overlap = OverlapMatrix(vectors @ vectors.conj().T)
    setup = ClassicalSetup(transfer, tuple(sources), overlap=overlap)
    assume(any(classical_moments(s)[0] > 0 for s in setup.sources))
    return setup


def gbar(setup):
    return classical_gbar(setup).gbar


@PROPERTIES
@given(classical_setups())
def test_classical_gbar_never_below_the_bound(setup):
    report = classical_gbar(setup)
    lit = sum(classical_moments(s)[0] > 0 for s in setup.sources)
    assert report.gbar >= classical_min(lit, len(report.active_detectors)) - 1e-12


@PROPERTIES
@given(classical_setups(), st.data())
def test_gbar_is_invariant_under_detector_permutation(setup, data):
    perm = data.draw(st.permutations(range(setup.n_detectors)))
    permuted = ClassicalSetup(setup.transfer[list(perm)], setup.sources, overlap=setup.overlap)
    assert gbar(permuted) == pytest.approx(gbar(setup), rel=1e-12)


@PROPERTIES
@given(classical_setups(), st.data())
def test_gbar_is_invariant_under_source_permutation(setup, data):
    perm = list(data.draw(st.permutations(range(setup.n_sources))))
    overlap = None if setup.overlap is None else OverlapMatrix(setup.overlap.matrix[perm][:, perm])
    sources = tuple(setup.sources[a] for a in perm)
    permuted = ClassicalSetup(setup.transfer[:, perm], sources, overlap=overlap)
    assert gbar(permuted) == pytest.approx(gbar(setup), rel=1e-12)


@PROPERTIES
@given(classical_setups(), st.integers(0, 2**32 - 1))
def test_gbar_is_invariant_under_row_and_column_phases(setup, seed):
    rng = np.random.default_rng(seed)
    rows = np.exp(2j * np.pi * rng.random(setup.n_detectors))
    columns = np.exp(2j * np.pi * rng.random(setup.n_sources))
    phased = ClassicalSetup(rows[:, None] * setup.transfer * columns, setup.sources, overlap=setup.overlap)
    assert gbar(phased) == pytest.approx(gbar(setup), rel=1e-12)


@PROPERTIES
@given(classical_setups(), st.floats(1e-3, 1e3))
def test_gbar_is_invariant_under_a_global_intensity_scale(setup, scale):
    # every field amplitude times sqrt(scale): every intensity times scale
    sources = tuple(ClassicalSource(s.probabilities, np.sqrt(scale) * s.amplitudes) for s in setup.sources)
    scaled = ClassicalSetup(setup.transfer, sources, overlap=setup.overlap)
    assert gbar(scaled) == pytest.approx(gbar(setup), rel=1e-12)


def intensity_scaled(setup, exponent):
    """``setup`` with every intensity times 10**exponent."""
    amplitude = 10.0 ** (exponent / 2)
    sources = tuple(ClassicalSource(s.probabilities, amplitude * s.amplitudes) for s in setup.sources)
    return ClassicalSetup(setup.transfer, sources, overlap=setup.overlap)


def same_gbar_or_refused(report_of, unit, lit_sources):
    """``report_of()`` keeps the unit-scale report's gbar or raises
    DegenerateSetupError, and never certifies."""
    try:
        report = report_of()
    except DegenerateSetupError:
        return
    assert report.gbar == pytest.approx(unit.gbar, rel=1e-12)
    verdict = nonclassicality_witness(report, lit_sources, len(report.active_detectors))
    assert verdict.classification != NONCLASSICAL


def lit(setup):
    return sum(classical_moments(s)[0] > 0 for s in setup.sources)


@PROPERTIES
@given(classical_setups(), st.integers(-170, 150))
def test_an_extreme_intensity_scale_keeps_gbar_or_is_refused(setup, exponent):
    # products of means below the normal floats lose their digits, past the
    # largest one they overflow: refused, never a certificate
    scaled = intensity_scaled(setup, exponent)
    same_gbar_or_refused(lambda: classical_gbar(scaled), classical_gbar(setup), lit(setup))


# three unequal sources on a phased three-port, 2000 shots in 20 batches
SAMPLED = ClassicalSetup(
    ftm(3).matrix * np.exp(1j * np.array([0.0, 0.7, 1.9])),
    (fixed_source(1.0), pseudo_thermal_source(0.6), fixed_source(0.4)),
)


@FEW
@given(st.integers(-170, 150))
@example(-158)  # products of means subnormal
@example(-165)  # zero
@example(155)  # past the largest float
def test_an_extreme_intensity_scale_keeps_the_mc_estimate_or_is_refused(exponent):
    unit = mc_estimate_gbar(SAMPLED, 2000, 7, batches=20)
    scaled = intensity_scaled(SAMPLED, exponent)
    same_gbar_or_refused(lambda: mc_estimate_gbar(scaled, 2000, 7, batches=20), unit, 3)


@FEW
@given(st.integers(-170, 150))
@example(-158)  # products of means subnormal
@example(-165)  # zero
@example(155)  # past the largest float
def test_an_extreme_intensity_scale_keeps_the_records_estimate_or_is_refused(exponent):
    rng = np.random.default_rng(7)
    fields = np.array([1.0, 0.8, 0.5]) * np.exp(2j * np.pi * rng.random((2000, 3)))
    shots = np.abs(fields @ SAMPLED.transfer.T) ** 2
    unit = correlation_report_from_records([ShotRecord(k, row) for k, row in enumerate(shots)], 20)
    scaled = [ShotRecord(k, 10.0**exponent * row) for k, row in enumerate(shots)]
    same_gbar_or_refused(lambda: correlation_report_from_records(scaled, 20), unit, 3)


@FEW
@given(st.integers(1, 5), st.integers(2, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_no_restart_ends_below_the_classical_bound(n_sources, n_detectors, restarts, seed):
    result = multistart_minimize(n_sources, n_detectors, restarts=restarts, seed=seed)
    assert min(result.restart_values) >= classical_min(n_sources, n_detectors) - 1e-12
