"""Property tests of the classical closed form: the bound and its symmetries.

Setups are drawn by hypothesis (derandomized, so every run checks the same
examples): up to 6 detectors and 6 sources, fixed, pseudo-thermal and dark
sources, dark detectors, and optional mode overlaps of any rank.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multiport import (
    ClassicalSetup,
    ClassicalSource,
    OverlapMatrix,
    classical_gbar,
    classical_min,
    classical_moments,
    fixed_source,
    pseudo_thermal_source,
)

PROPERTIES = settings(derandomize=True, max_examples=300, deadline=None)


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
