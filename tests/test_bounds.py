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
    ftm,
    mc_estimate_gbar,
    nonclassicality_witness,
    oracle_gbar,
    symmetric_quantum_min,
)
from multiport.bounds import BOUNDARY_MARGIN, MIN_CERTIFY_BATCHES


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
    # a rule of 2.9 or 3.1 standard errors flips one of these verdicts
    stderr = 0.01
    verdict = nonclassicality_witness(0.5 - sigmas * stderr, 2, 2, stderr=stderr, batches=batches)
    assert verdict.classification == {"certified": "nonclassical"}.get(expected, expected)
    assert verdict.confidence_sigmas == pytest.approx(sigmas, abs=1e-9)
    threshold = divisibility_threshold(4, 1.0)
    verdict = divisibility_witness(threshold - sigmas * stderr, 4, 1.0, stderr=stderr, batches=batches)
    assert verdict.classification == {"certified": "indivisible-certified"}.get(expected, expected)


@pytest.mark.parametrize("batches", [2, MIN_CERTIFY_BATCHES - 1])
def test_few_batches_withhold_every_certificate(batches):
    for stderr in (0.01, None):
        verdict = nonclassicality_witness(0.3, 2, 2, stderr=stderr, batches=batches)
        assert verdict.classification == "inconclusive"
        assert verdict.margin == pytest.approx(0.2, abs=1e-15)
        verdict = divisibility_witness(0.5, 4, 1.0, stderr=stderr, batches=batches)
        assert verdict.classification == "inconclusive"


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
