import pickle

import numpy as np
import pytest

from multiport import (
    ClassicalSetup,
    DimensionError,
    InvalidStatisticsError,
    PreconditionError,
    QuantumSetup,
    classical_min,
    coherent,
    divisibility_threshold,
    divisibility_witness,
    eta,
    fixed_source,
    fock,
    ftm,
    mc_estimate_gbar,
    nonclassicality_witness,
    optimal_configuration,
    oracle_gbar,
    pseudo_thermal_source,
    squeezed_vacuum,
    symmetric_quantum_min,
    thermal,
)
from multiport.bounds import BOUNDARY_MARGIN, MIN_CERTIFY_BATCHES, T_TAIL, _t_critical


# ----------------------------------------------------------- counts

# Every public count of the library, as (function, arguments, the count's name).
COUNTS = [
    (ftm, {"m": 3}, "m"),
    (fock, {"n": 2}, "n"),
    (coherent, {"mean": 0.5, "cutoff": 40}, "cutoff"),
    (thermal, {"mean": 0.5, "cutoff": 80}, "cutoff"),
    (squeezed_vacuum, {"r": 0.3, "cutoff": 60}, "cutoff"),
    (pseudo_thermal_source, {"mean_intensity": 1.0, "levels": 8}, "levels"),
    (oracle_gbar, {"setup": QuantumSetup(ftm(2), (fock(1), fock(1))), "photon_limit": 4}, "photon_limit"),
    (optimal_configuration, {"n_sources": 2, "n_detectors": 3}, "n_sources"),
    (optimal_configuration, {"n_sources": 2, "n_detectors": 3}, "n_detectors"),
    (classical_min, {"n_sources": 2, "n_detectors": 3}, "n_sources"),
    (classical_min, {"n_sources": 2, "n_detectors": 3}, "n_detectors"),
    (symmetric_quantum_min, {"n_detectors": 3, "eta": 0.5}, "n_detectors"),
    (divisibility_threshold, {"n_modes": 4, "eta": 0.5}, "n_modes"),
    (nonclassicality_witness, {"gbar": 0.3, "n_sources": 2, "n_detectors": 3}, "n_sources"),
    (nonclassicality_witness, {"gbar": 0.3, "n_sources": 2, "n_detectors": 3}, "n_detectors"),
    (divisibility_witness, {"gbar": 0.5, "n_modes": 4, "eta": 1.0}, "n_modes"),
]
COUNT_IDS = [f"{function.__name__}-{name}" for function, _, name in COUNTS]


@pytest.mark.parametrize("function, arguments, name", COUNTS, ids=COUNT_IDS)
@pytest.mark.parametrize("count", [True, 2.0, 2.5, "2", None])
def test_a_count_is_an_integer_and_never_a_bool_or_float(function, arguments, name, count):
    # numpy coerced these: nonclassicality_witness(0.55, 1.5, 2) certified
    # against a threshold no whole number of sources gives, and ftm(True)
    # built a 1-mode interferometer
    with pytest.raises(PreconditionError, match=f"{name} must be an integer"):
        function(**{**arguments, name: count})


@pytest.mark.parametrize("function, arguments, name", COUNTS, ids=COUNT_IDS)
def test_a_numpy_integer_count_gives_the_same_result(function, arguments, name):
    numpy_count = function(**{**arguments, name: np.int64(arguments[name])})
    assert pickle.dumps(numpy_count) == pickle.dumps(function(**arguments))


def test_a_fractional_source_count_never_certifies():
    # N = 1.5 read as the threshold 0.667, which 0.55 is below; N = 2 gives 0.5
    with pytest.raises(PreconditionError, match="n_sources must be an integer"):
        nonclassicality_witness(0.55, 1.5, 2)
    assert nonclassicality_witness(0.55, 2, 2).classification == "classical-compatible"


# ----------------------------------------------------------- classical bound


def test_classical_min_known_values():
    assert classical_min(2, 2) == 0.5
    assert classical_min(2, 3) == 0.75
    assert classical_min(5, 3) == pytest.approx(2 / 3, abs=1e-15)


def test_classical_min_single_source():
    for m in range(2, 10):
        assert classical_min(1, m) == 1.0


def test_classical_min_rejects_bad_dimensions():
    with pytest.raises(DimensionError):
        classical_min(2, 1)
    with pytest.raises(DimensionError):
        classical_min(0, 3)


def test_classical_min_branches_agree_at_diagonal():
    for m in range(2, 65):
        low = 1.0 - (m - 1) / (m * (m - 1))
        high = 1.0 - 1.0 / m
        assert abs(low - high) <= 1e-15
        assert classical_min(m, m) == pytest.approx(high, abs=1e-15)


def test_classical_min_monotone_and_bounded():
    for m in range(2, 65):
        values = [classical_min(n, m) for n in range(1, 3 * m)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert all(0.5 <= v <= 1.0 for v in values)


# ----------------------------------------------------------- quantum minimum


def test_symmetric_quantum_min_known_values():
    assert symmetric_quantum_min(2, 1.0) == 0.0
    assert symmetric_quantum_min(3, 1.0) == pytest.approx(1 / 3, abs=1e-15)


def test_symmetric_quantum_min_poissonian_matches_classical():
    for m in range(2, 20):
        assert symmetric_quantum_min(m, 0.0) == pytest.approx(classical_min(m, m), abs=1e-15)


def test_quantum_hierarchy_below_classical():
    for m in range(2, 30):
        for eta in (0.0, 0.25, 0.5, 1.0):
            assert symmetric_quantum_min(m, eta) <= classical_min(m, m) + 1e-15


def test_symmetric_quantum_min_validation():
    with pytest.raises(InvalidStatisticsError):
        symmetric_quantum_min(3, 1.5)
    with pytest.raises(DimensionError):
        symmetric_quantum_min(1, 0.5)


# ----------------------------------------------------------- divisibility


def test_divisibility_threshold_known_values():
    for eta in (0.0, 0.3, 1.0):
        assert divisibility_threshold(2, eta) == 1.0
    assert divisibility_threshold(4, 1.0) == pytest.approx(2 / 3, abs=1e-15)


def test_divisibility_strictly_above_quantum_minimum():
    # holds for every m >= 2 whenever eta > -1
    for m in range(2, 65):
        for eta in (-0.99, -0.5, 0.0, 0.5, 1.0):
            assert divisibility_threshold(m, eta) > symmetric_quantum_min(m, eta)


def test_divisibility_threshold_validation():
    with pytest.raises(DimensionError):
        divisibility_threshold(1, 0.5)
    with pytest.raises(InvalidStatisticsError):
        divisibility_threshold(4, 1.2)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "threshold",
    [
        lambda eta: symmetric_quantum_min(4, eta),
        lambda eta: divisibility_threshold(4, eta),
        lambda eta: divisibility_witness(0.5, 4, eta),
    ],
    ids=["symmetric_quantum_min", "divisibility_threshold", "divisibility_witness"],
)
def test_a_non_finite_eta_is_refused(threshold, value):
    # divisibility_witness(0.5, 4, nan) was classical-compatible with a NaN
    # threshold, and symmetric_quantum_min(4, -inf) was inf
    with pytest.raises(InvalidStatisticsError, match="eta must be finite"):
        threshold(value)


# ----------------------------------------------------------- witnesses


def test_hom_witness_is_nonclassical():
    verdict = nonclassicality_witness(0.0, 2, 2)
    assert verdict.classification == "nonclassical"
    assert verdict.threshold == 0.5
    assert verdict.margin == 0.5


def test_boundary_is_not_a_violation():
    verdict = nonclassicality_witness(0.5, 2, 2)
    assert verdict.classification == "classical-compatible"
    assert verdict.margin == 0.0


def test_noisy_margin_is_inconclusive():
    verdict = nonclassicality_witness(0.45, 2, 2, stderr=0.03)
    assert verdict.classification == "inconclusive"
    assert verdict.margin == pytest.approx(0.05, abs=1e-15)
    assert verdict.confidence_sigmas == pytest.approx(0.05 / 0.03, abs=1e-12)


def test_clear_margin_with_small_stderr_certifies():
    verdict = nonclassicality_witness(0.3, 2, 2, stderr=0.01)
    assert verdict.classification == "nonclassical"
    assert verdict.confidence_sigmas > 3


def test_margin_below_threshold_with_noise_is_compatible():
    verdict = nonclassicality_witness(0.9, 2, 2, stderr=0.01)
    assert verdict.classification == "classical-compatible"


def test_margin_identity():
    for gbar in (0.0, 0.21, 0.5, 0.77):
        verdict = nonclassicality_witness(gbar, 3, 4)
        assert verdict.margin == verdict.threshold - verdict.gbar


def test_divisibility_witness_certifies_ftm_value():
    verdict = divisibility_witness(0.5, 4, 1.0)
    assert verdict.classification == "indivisible-certified"
    assert verdict.threshold == pytest.approx(2 / 3, abs=1e-15)


def test_divisibility_witness_boundary_and_above():
    assert divisibility_witness(2 / 3, 4, 1.0).classification == "classical-compatible"
    above = divisibility_witness(0.7, 4, 1.0)
    assert above.classification == "classical-compatible"
    assert above.margin < 0


def test_divisibility_witness_rejects_negative_eta():
    with pytest.raises(PreconditionError):
        divisibility_witness(0.5, 4, -0.1)


def test_verdict_serialization_and_summary():
    verdict = nonclassicality_witness(0.4, 2, 2, stderr=0.01)
    data = verdict.to_dict()
    assert data["classification"] == "nonclassical"
    assert data["margin"] == pytest.approx(0.1, abs=1e-15)
    assert "nonclassical" in verdict.one_line()


@pytest.mark.parametrize("gbar, stderr", [(0.49, float("nan")), (float("nan"), 0.01), (0.1, float("inf")), (float("-inf"), None)])
def test_non_finite_inputs_never_certify(gbar, stderr):
    with pytest.raises(PreconditionError):
        nonclassicality_witness(gbar, 2, 2, stderr=stderr)
    with pytest.raises(PreconditionError):
        divisibility_witness(gbar, 4, 1.0, stderr=stderr)


def test_negative_stderr_never_certifies():
    # below zero, the sigma rule's inconclusive band shrank to BOUNDARY_MARGIN
    assert nonclassicality_witness(0.45, 2, 2, stderr=0.5).classification == "inconclusive"
    with pytest.raises(PreconditionError, match="stderr >= 0"):
        nonclassicality_witness(0.45, 2, 2, stderr=-0.5)
    with pytest.raises(PreconditionError, match="stderr >= 0"):
        divisibility_witness(0.5, 4, 1.0, stderr=-1.0)


@pytest.mark.parametrize("batches", [None, MIN_CERTIFY_BATCHES])
def test_enough_batches_certify(batches):
    assert nonclassicality_witness(0.3, 2, 2, stderr=0.01, batches=batches).classification == (
        "nonclassical"
    )
    assert divisibility_witness(0.5, 4, 1.0, stderr=0.01, batches=batches).classification == (
        "indivisible-certified"
    )


@pytest.mark.parametrize("batches", [None, MIN_CERTIFY_BATCHES])
@pytest.mark.parametrize("sigmas,expected", [(2.95, "inconclusive"), (3.05, "certified")])
def test_the_sigma_rule_at_its_edge(batches, sigmas, expected):
    # the margin sits sigmas / 3 of the way to the rule: 3 standard errors
    # without a batch count, t(19) = 3.4472 with 20 batches; a rule 2% off
    # flips one of these verdicts
    stderr, rule = 0.01, 3.0 if batches is None else 3.4472
    margin = sigmas / 3.0 * rule * stderr
    verdict = nonclassicality_witness(0.5 - margin, 2, 2, stderr=stderr, batches=batches)
    assert verdict.classification == {"certified": "nonclassical"}.get(expected, expected)
    assert verdict.confidence_sigmas == pytest.approx(margin / stderr, abs=1e-9)
    threshold = divisibility_threshold(4, 1.0)
    verdict = divisibility_witness(threshold - margin, 4, 1.0, stderr=stderr, batches=batches)
    assert verdict.classification == {"certified": "indivisible-certified"}.get(expected, expected)


@pytest.mark.parametrize(
    "batches, sigmas, expected",
    [(20, 3.2, "inconclusive"), (100, 3.05, "inconclusive"), (100, 3.1, "nonclassical"),
     (1000, 3.2, "nonclassical"), (10**6, 3.005, "inconclusive"), (10**6, 3.01, "nonclassical")],
)
def test_a_batch_count_reads_the_student_t_rule(batches, sigmas, expected):
    # 3.2 standard errors certified at 20 batches, where margin / stderr at
    # the bound exceeds 3 at 0.37%; t(99) = 3.078, and above 1,000 degrees
    # of freedom t(1000) = 3.0075 holds
    verdict = nonclassicality_witness(0.5 - sigmas * 0.01, 2, 2, stderr=0.01, batches=batches)
    assert verdict.classification == expected
    verdict = divisibility_witness(2 / 3 - sigmas * 0.01, 4, 1.0, stderr=0.01, batches=batches)
    assert verdict.classification == {"nonclassical": "indivisible-certified"}.get(expected, expected)


@pytest.mark.parametrize("batches", [True, 25.0, "25"])
def test_a_batch_count_is_an_integer(batches):
    # the t rule reads batches - 1 degrees of freedom; None means unknown
    with pytest.raises(PreconditionError, match="batches must be an integer"):
        nonclassicality_witness(0.3, 2, 2, stderr=0.01, batches=batches)


def test_the_t_critical_value_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    assert T_TAIL == pytest.approx(1.3499e-3, rel=1e-4)
    assert _t_critical(19) == pytest.approx(3.447, abs=5e-4)
    for df in range(1, 1001):
        assert _t_critical(df) == pytest.approx(stats.t.isf(T_TAIL, df), rel=1e-9, abs=0)


@pytest.mark.parametrize("batches", [2, MIN_CERTIFY_BATCHES - 1])
def test_few_batches_withhold_every_certificate(batches):
    verdict = nonclassicality_witness(0.3, 2, 2, stderr=0.01, batches=batches)
    assert verdict.classification == "inconclusive"
    assert verdict.margin == pytest.approx(0.2, abs=1e-15)
    verdict = divisibility_witness(0.5, 4, 1.0, stderr=0.01, batches=batches)
    assert verdict.classification == "inconclusive"


@pytest.mark.parametrize("batches", [2, 25])
def test_a_batch_count_needs_its_stderr(batches):
    # batches say the gbar is an estimate: without its stderr, 25 batches
    # certified 0.3 as if it were exact
    with pytest.raises(PreconditionError, match="batches"):
        nonclassicality_witness(0.3, 2, 2, batches=batches)
    with pytest.raises(PreconditionError, match="batches"):
        divisibility_witness(0.5, 4, 1.0, batches=batches)


@pytest.mark.parametrize("batches", [3, 5])
def test_library_witness_never_certifies_few_batches_at_the_bound(batches):
    # classical HOM sits exactly at the bound 1/2, so every certificate is
    # false; without the batch count the 3-sigma rule certified 51 and 16 of
    # 1000 seeds
    hom = ClassicalSetup(ftm(2).matrix, (fixed_source(1.0), fixed_source(1.0)))
    certified = 0
    for seed in range(1000):
        rep = mc_estimate_gbar(hom, 300, seed, batches=batches)
        assert rep.batches == batches
        verdict = nonclassicality_witness(rep.gbar, 2, 2, stderr=rep.stderr, batches=rep.batches)
        certified += verdict.classification == "nonclassical"
    assert certified == 0


def test_report_supplies_its_own_stderr_and_batches():
    hom = ClassicalSetup(ftm(2).matrix, (fixed_source(1.0), fixed_source(1.0)))
    rep = mc_estimate_gbar(hom, 300, 0, batches=5)
    for witness, args in ((nonclassicality_witness, (2, 2)), (divisibility_witness, (2, 1.0))):
        scalar = witness(rep.gbar, *args, stderr=rep.stderr, batches=rep.batches)
        assert witness(rep, *args) == scalar
        for extra in ({"stderr": rep.stderr}, {"batches": rep.batches}):
            with pytest.raises(PreconditionError):
                witness(rep, *args, **extra)


def test_report_refuses_a_detector_count_it_does_not_have():
    # three equal fixed sources on ftm(3) sit at the bound 2/3; a threshold
    # for 30 detectors would certify this classical light as nonclassical
    rep = mc_estimate_gbar(ClassicalSetup(ftm(3).matrix, (fixed_source(1.0),) * 3), 200_000, 1)
    assert nonclassicality_witness(rep, 3, 3).classification == "inconclusive"
    with pytest.raises(PreconditionError):
        nonclassicality_witness(rep, 3, 30)
    with pytest.raises(PreconditionError):
        divisibility_witness(rep, 4, 1.0)


def test_pruned_oracle_report_never_certifies():
    # two coherent inputs sit exactly on the bound 1/2; pruning at 1e-12
    # biases the oracle's gbar by 3.2e-10, beyond BOUNDARY_MARGIN, so the bare
    # number certifies falsely
    light = coherent(1, 40)
    rep = oracle_gbar(QuantumSetup(ftm(2), (light, light)), photon_limit=80, prune_tol=1e-12)
    assert rep.pruned_mass > 0 and rep.gbar < 0.5 - BOUNDARY_MARGIN
    assert nonclassicality_witness(rep.gbar, 2, 2).classification == "nonclassical"
    assert nonclassicality_witness(rep, 2, 2).classification == "inconclusive"
    assert divisibility_witness(rep.gbar, 2, eta(light)).classification == "indivisible-certified"
    assert divisibility_witness(rep, 2, eta(light)).classification == "inconclusive"
