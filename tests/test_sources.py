import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import multiport.cli as cli
from multiport import (
    ClassicalSource,
    ConfigError,
    InvalidStatisticsError,
    MatrixValidationError,
    OverlapMatrix,
    PhotonStatistics,
    PreconditionError,
    TruncationError,
    UndefinedEtaError,
    classical_moments,
    coherent,
    eta,
    fixed_source,
    fock,
    is_sub_poissonian,
    pseudo_thermal_source,
    squeezed_vacuum,
    thermal,
)
from multiport.sources import TAIL_TOL


def summed_moments(stats):
    """Independent moment oracle: plain python sum over the pmf."""
    mean = sum(n * p for n, p in enumerate(stats.pmf))
    second = sum(n * n * p for n, p in enumerate(stats.pmf))
    return mean, second


# ---------------------------------------------------------------- fock


def test_fock_vacuum():
    q = fock(0)
    assert q.mean == 0.0
    assert q.cutoff == 0


def test_fock_one_eta():
    assert eta(fock(1)) == 1.0


def test_fock_two_eta_from_moment_oracle():
    q = fock(2)
    mean, second = summed_moments(q)
    assert (mean, second) == (2.0, 4.0)
    assert eta(q) == pytest.approx(0.5, abs=1e-15)


def test_fock_rejects_negative():
    with pytest.raises(InvalidStatisticsError):
        fock(-1)


# ---------------------------------------------------------------- coherent


def test_coherent_eta_is_zero():
    assert abs(eta(coherent(1.0, 30))) < 1e-9


def test_coherent_zero_is_vacuum():
    assert np.array_equal(coherent(0, 0).pmf, fock(0).pmf)


def test_coherent_boundary_counts_as_sub_poissonian():
    # variance equals mean for Poisson statistics and the test is non-strict
    assert is_sub_poissonian(coherent(2.0, 40))
    assert is_sub_poissonian(coherent(1.0, 30))


def test_coherent_moments_match_poisson():
    q = coherent(1.3, 40)
    mean, second = summed_moments(q)
    assert mean == pytest.approx(1.3, abs=1e-12)
    assert second - mean**2 == pytest.approx(1.3, abs=1e-12)


def test_coherent_insufficient_cutoff():
    with pytest.raises(TruncationError):
        coherent(5.0, 4)


# ---------------------------------------------------------------- thermal


def test_thermal_eta_minus_one():
    q = thermal(1.0, 60)
    mean, second = summed_moments(q)
    variance = second - mean**2
    # Bose-Einstein closed form: variance = mean + mean^2
    assert variance == pytest.approx(mean + mean**2, abs=1e-9)
    assert eta(q) == pytest.approx(-1.0, abs=1e-6)


def test_thermal_zero_is_vacuum():
    assert np.array_equal(thermal(0, 0).pmf, fock(0).pmf)


def test_thermal_not_sub_poissonian():
    assert not is_sub_poissonian(thermal(0.5, 60))


def test_thermal_insufficient_cutoff():
    with pytest.raises(TruncationError):
        thermal(1.0, 5)


# ---------------------------------------------------------------- squeezed


def test_squeezed_zero_is_vacuum():
    assert np.array_equal(squeezed_vacuum(0, 0).pmf, fock(0).pmf)


def test_squeezed_is_super_poissonian():
    assert eta(squeezed_vacuum(0.5, 60)) < 0
    assert not is_sub_poissonian(squeezed_vacuum(0.5, 60))


def test_squeezed_eta_closed_form():
    q = squeezed_vacuum(0.5, 60)
    nbar = np.sinh(0.5) ** 2
    mean, second = summed_moments(q)
    assert mean == pytest.approx(nbar, abs=1e-12)
    # variance = 2 nbar (nbar + 1) gives eta = -2 - 1/nbar
    assert eta(q) == pytest.approx(-2.0 - 1.0 / nbar, abs=1e-6)


def test_squeezed_odd_terms_vanish():
    q = squeezed_vacuum(0.7, 41)
    assert np.all(q.pmf[1::2] == 0)


def test_squeezed_insufficient_cutoff():
    with pytest.raises(TruncationError):
        squeezed_vacuum(1.5, 6)


# each constructor with its real parameter and that parameter's name
REAL_PARAMETERS = {
    "coherent": (lambda x: coherent(x, 40), "coherent mean"),
    "thermal": (lambda x: thermal(x, 80), "thermal mean"),
    "squeezed_vacuum": (lambda x: squeezed_vacuum(x, 60), "squeezing parameter"),
    "pseudo_thermal_source": (pseudo_thermal_source, "mean intensity"),
}


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("law", REAL_PARAMETERS)
def test_a_source_parameter_is_refused_by_name_unless_finite_and_non_negative(law, value):
    # inf passed the old x < 0 test: coherent(inf) warned first, squeezed_vacuum(inf)
    # asked for a larger cutoff, and NaN was refused as a non-finite pmf
    build, name = REAL_PARAMETERS[law]
    with pytest.raises(InvalidStatisticsError, match=f"{name} must be finite and >= 0"):
        build(value)


@pytest.mark.parametrize("law", [coherent, thermal])
def test_a_cutoff_that_fakes_sub_poissonian_light_is_refused(law):
    # the dropped tail is 5e-13, but the rescaled law lives on {0, 1}: eta = 1
    with pytest.raises(TruncationError, match="sub-Poissonian"):
        law(1e-6, 1)
    assert eta(law(1e-6, 3)) <= 1e-10


def test_coherent_above_mean_11_6_needs_more_than_cutoff_40():
    assert eta(coherent(11.5, 40)) == pytest.approx(8.2e-11, rel=0.01)
    with pytest.raises(TruncationError, match="sub-Poissonian"):
        coherent(11.6, 40)
    with pytest.raises(TruncationError, match="sub-Poissonian"):
        coherent(12, 40)


@pytest.mark.parametrize("law", [coherent, thermal, squeezed_vacuum])
def test_weak_light_is_accepted_at_the_default_cutoff(law):
    # coherent light's mean - variance is 0: as the difference of two rounded
    # moments its sign is rounding alone, which once refused weak lasers at any
    # cutoff; a mean whose square is subnormal is kept as well
    for x in np.concatenate([np.logspace(-14, -5, 200), [1e-155, 1e-160, 1e-200]]):
        law(x, 40)


def test_accepted_cutoffs_keep_the_law_eta_within_the_tail_tolerance():
    assert eta(coherent(0.5, 12)) == pytest.approx(7.1e-12, rel=0.01)
    assert eta(squeezed_vacuum(0.8, 60)) == pytest.approx(-2.0 - 1.0 / np.sinh(0.8) ** 2, abs=1e-8)


# ---------------------------------------------------------------- eta / sub-poissonian


def test_eta_binary_mixture_is_one():
    q = PhotonStatistics(np.array([0.9, 0.1]))
    assert eta(q) == pytest.approx(1.0, abs=1e-12)


def test_eta_undefined_for_vacuum():
    with pytest.raises(UndefinedEtaError):
        eta(fock(0))


def test_fock_three_sub_poissonian():
    assert is_sub_poissonian(fock(3))


def test_eta_never_exceeds_one(rng):
    for _ in range(1000):
        size = int(rng.integers(2, 10))
        q = PhotonStatistics(rng.dirichlet(np.ones(size)))
        if q.mean == 0:
            continue
        assert eta(q) <= 1.0 + 1e-12


def test_eta_equals_one_only_on_binary_support(rng):
    for _ in range(200):
        p1 = rng.uniform(0.05, 0.95)
        binary = PhotonStatistics(np.array([1 - p1, p1]))
        assert eta(binary) == pytest.approx(1.0, abs=1e-12)
        # at least 1% of the mass above n = 1 forces eta strictly below 1
        size = int(rng.integers(3, 9))
        pmf = rng.dirichlet(np.ones(size))
        pmf[2:] += 0.01
        q = PhotonStatistics(pmf / pmf.sum())
        assert eta(q) < 1.0 - 1e-9


def test_sub_poissonian_iff_eta_nonnegative(rng):
    for _ in range(500):
        size = int(rng.integers(2, 10))
        q = PhotonStatistics(rng.dirichlet(np.ones(size)))
        if q.mean == 0:
            continue
        assert is_sub_poissonian(q) == (eta(q) >= -TAIL_TOL)


# the smallest mean whose square is a normal float
NORMAL_MEAN = math.sqrt(np.finfo(float).tiny)
LAWS = {
    "coherent": (coherent, 15.0),
    "thermal": (thermal, 15.0),
    # squeezed vacuum takes r, of mean sinh(r)^2
    "squeezed": (lambda mean, cutoff: squeezed_vacuum(math.asinh(math.sqrt(mean)), cutoff), 4.0),
}


def accepts(law, mean, cutoff):
    try:
        law(mean, cutoff)
    except TruncationError:
        return False
    return True


@st.composite
def accepted_laws(draw):
    """(name, law): a Fock law, or a coherent, thermal or squeezed law of mean
    from NORMAL_MEAN up to its top, at its smallest accepted cutoff or above."""
    name = draw(st.sampled_from(["fock", *sorted(LAWS)]))
    if name == "fock":
        return name, fock(draw(st.integers(0, 30)))
    law, top = LAWS[name]
    mean = NORMAL_MEAN * (top / NORMAL_MEAN) ** draw(st.floats(0, 1))
    cutoff = next(c for c in itertools.count() if accepts(law, mean, c)) + draw(st.integers(0, 30))
    assume(accepts(law, mean, cutoff))
    return name, law(mean, cutoff)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(accepted_laws())
@example(("thermal", thermal(1e-7, 40)))
@example(("thermal", thermal(1e-6, 40)))
def test_only_coherent_and_fock_laws_are_sub_poissonian(named):
    # eta is -1 for thermal light at every mean; a tolerance on variance - mean
    # in absolute terms called weak lamps sub-Poissonian. Cutoff 0 may leave
    # weak light as vacuum, which is Fock 0.
    name, q = named
    expected = name in ("coherent", "fock") or q.mean == 0
    assert is_sub_poissonian(q) == expected, (name, q.mean, q.cutoff)


def test_pmf_validation():
    with pytest.raises(InvalidStatisticsError):
        PhotonStatistics(np.array([0.5, -0.5, 1.0]))
    with pytest.raises(InvalidStatisticsError):
        PhotonStatistics(np.array([0.5, 0.4]))
    with pytest.raises(InvalidStatisticsError, match="1-D"):
        PhotonStatistics(np.full((2, 2), 0.25))
    with pytest.raises(InvalidStatisticsError, match="non-finite"):
        PhotonStatistics(np.array([np.nan, 1.0]))


# ---------------------------------------------------------------- classical sources


def test_classical_moments_fixed():
    assert classical_moments(fixed_source(1.0)) == (1.0, 1.0)


def test_classical_moments_two_point():
    src = ClassicalSource(np.array([0.5, 0.5]), np.array([0.0, np.sqrt(2.0)]))
    m2, m4 = classical_moments(src)
    assert m2 == pytest.approx(1.0, abs=1e-15)
    assert m4 == pytest.approx(2.0, abs=1e-15)


def test_pseudo_thermal_matches_exponential_quadrature():
    from scipy.integrate import quad

    mean_intensity = 1.7
    src = pseudo_thermal_source(mean_intensity, levels=32)
    m2, m4 = classical_moments(src)
    ref2, _ = quad(lambda x: x * np.exp(-x / mean_intensity) / mean_intensity, 0, 60)
    ref4, _ = quad(lambda x: x**2 * np.exp(-x / mean_intensity) / mean_intensity, 0, 90)
    assert m2 == pytest.approx(ref2, rel=1e-9)
    assert m4 == pytest.approx(ref4, rel=1e-9)
    assert m4 == pytest.approx(2 * m2**2, rel=1e-12)


def test_pseudo_thermal_levels_stop_at_the_last_finite_quadrature():
    assert pseudo_thermal_source(1.0, 186).probabilities.size == 186
    with np.errstate(all="ignore"):
        assert not np.all(np.isfinite(np.polynomial.laguerre.laggauss(187)[1]))


def no_quadrature(deg):
    raise AssertionError(f"laggauss({deg}) called")


@pytest.mark.parametrize("levels", [187, 10**9])
def test_unrepresentable_levels_are_refused_before_the_quadrature(monkeypatch, levels):
    # 10**9 levels would ask numpy for a 10**9 x 10**9 companion matrix first
    monkeypatch.setattr(np.polynomial.laguerre, "laggauss", no_quadrature)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidStatisticsError, match="exceed 186"):
            pseudo_thermal_source(1.0, levels)


def test_a_pseudo_thermal_rule_is_built_once_per_level_count(monkeypatch):
    first = pseudo_thermal_source(0.5, 7)
    monkeypatch.setattr(np.polynomial.laguerre, "laggauss", no_quadrature)
    second = pseudo_thermal_source(2.0, 7)
    assert np.array_equal(first.probabilities, second.probabilities)
    assert np.allclose(second.amplitudes**2, 4 * first.amplitudes**2, rtol=1e-15, atol=0)
    with pytest.raises(PreconditionError, match="levels must be an integer"):
        pseudo_thermal_source(1.0, 7.0)  # a float count is refused, not read from 7's entry


def test_classical_fourth_moment_cauchy_schwarz(rng):
    from conftest import random_classical_source

    for _ in range(300):
        src = random_classical_source(rng)
        m2, m4 = classical_moments(src)
        assert m4 >= m2**2 - 1e-12


def test_classical_source_validation():
    with pytest.raises(InvalidStatisticsError):
        ClassicalSource(np.array([0.7, 0.7]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidStatisticsError):
        ClassicalSource(np.array([0.5, 0.5]), np.array([1.0, -1.0]))
    with pytest.raises(InvalidStatisticsError):
        ClassicalSource(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(InvalidStatisticsError, match="at least 2 quadrature levels"):
        pseudo_thermal_source(1.0, 1)


# ---------------------------------------------------------------- overlap matrices


def test_overlap_accepts_valid_gram_matrix():
    v = OverlapMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert v.dim == 2


def test_overlap_mode_vectors_reproduce_gram(rng):
    # build a genuine Gram matrix from random unit vectors
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    gram = raw @ raw.conj().T
    np.fill_diagonal(gram, 1.0)
    v = OverlapMatrix(gram)
    modes = v.mode_vectors()
    again = modes @ modes.conj().T
    assert np.max(np.abs(again - gram)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(modes, axis=1) - 1.0)) < 1e-12


def test_overlap_validation():
    with pytest.raises(MatrixValidationError):
        OverlapMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))  # not Hermitian
    with pytest.raises(MatrixValidationError):
        OverlapMatrix(np.array([[0.9, 0.0], [0.0, 1.0]]))  # diagonal != 1
    with pytest.raises(MatrixValidationError):
        OverlapMatrix(np.array([[1.0, 1.2], [1.2, 1.0]]))  # entry above 1
    not_psd = np.array([[1.0, 0.8, -0.8], [0.8, 1.0, 0.8], [-0.8, 0.8, 1.0]])
    assert np.min(np.linalg.eigvalsh(not_psd)) < -0.1
    with pytest.raises(MatrixValidationError):
        OverlapMatrix(not_psd)
    with pytest.raises(MatrixValidationError):
        OverlapMatrix(np.ones(3))  # not 2-D
    with pytest.raises(MatrixValidationError, match="square"):
        OverlapMatrix(np.eye(2, 3))
    with pytest.raises(MatrixValidationError):
        OverlapMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))


# ---------------------------------------------------------------- records


def read_quantum_record(record):
    """A quantum source record, read as the CLI reads it."""
    return cli._Fields(record).build(cli._PHOTON_KINDS)


def read_classical_record(record):
    """A classical source record, read as the CLI reads it."""
    return cli._Fields(record).build(cli._CLASSICAL_KINDS)


def test_photon_statistics_records_round_trip():
    cases = [
        ({"kind": "fock", "n": 2}, fock(2)),
        ({"kind": "vacuum"}, fock(0)),
        ({"kind": "coherent", "mean": 0.8, "cutoff": 30}, coherent(0.8, 30)),
        ({"kind": "thermal", "mean": 0.5, "cutoff": 70}, thermal(0.5, 70)),
        ({"kind": "squeezed", "r": 0.3, "cutoff": 40}, squeezed_vacuum(0.3, 40)),
        ({"kind": "custom", "pmf": [0.25, 0.75]}, PhotonStatistics(np.array([0.25, 0.75]))),
    ]
    for record, expected in cases:
        got = read_quantum_record(record)
        assert np.allclose(got.pmf, expected.pmf, atol=1e-15)


def test_photon_statistics_record_errors():
    with pytest.raises(ConfigError):
        read_quantum_record({"kind": "laser"})
    with pytest.raises(ConfigError):
        read_quantum_record({"kind": "fock"})
    with pytest.raises(InvalidStatisticsError):
        read_quantum_record({"kind": "custom", "pmf": [0.5, 0.2]})


def test_classical_source_records():
    fixed = read_classical_record({"kind": "fixed", "amplitude": 1.5})
    assert classical_moments(fixed) == (2.25, 2.25**2)
    custom = read_classical_record(
        {"kind": "custom", "realizations": [[0.5, 0.0], [0.5, 1.0]]}
    )
    assert classical_moments(custom) == (0.5, 0.5)
    pseudo = read_classical_record({"kind": "pseudo-thermal", "mean_intensity": 1.0})
    m2, m4 = classical_moments(pseudo)
    assert m4 == pytest.approx(2 * m2**2, rel=1e-12)
    with pytest.raises(ConfigError):
        read_classical_record({"kind": "custom", "realizations": [[0.5], [0.5]]})
    with pytest.raises(ConfigError):
        read_classical_record({"kind": "sunlight"})
