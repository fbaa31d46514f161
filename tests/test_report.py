import numpy as np
import pytest

from multiport import (
    ClassicalSetup,
    ClassicalSource,
    ShotRecord,
    classical_gbar,
    correlation_report_from_records,
    fixed_source,
    ftm,
    mc_estimate_gbar,
    random_unitary,
)
from multiport import DegenerateSetupError
from multiport.report import CorrelationReport, batch_sums, report_from_batches


def sample_report():
    setup = ClassicalSetup(ftm(3).matrix, tuple(fixed_source(1.0) for _ in range(3)))
    return classical_gbar(setup)


def test_dict_round_trips_through_json():
    import json

    data = json.loads(json.dumps(sample_report().to_dict()))
    assert data["provenance"] == "analytic"
    assert data["gbar"] == pytest.approx(2 / 3, abs=1e-12)
    assert data["active_detectors"] == [0, 1, 2]
    assert len(data["pair_ratios"]) == 3


def test_gbar_must_match_ratio_mean():
    # a non-finite gbar is refused too: NaN compares unequal to everything;
    # near 1e5 the tolerance is relative, 1e-12 of gbar
    nan, inf = float("nan"), float("inf")
    for ratio, gbar in [(0.5, 0.9), (1e5, 1e5 * (1 + 1e-10)), (nan, nan), (inf, inf)]:
        with pytest.raises(ValueError):
            CorrelationReport(
                detectors=(0, 1),
                intensity_means=np.array([1.0, 1.0]),
                active_detectors=(0, 1),
                pair_ratios=((0, 1, ratio),),
                gbar=gbar,
                provenance="analytic",
            )


def test_large_ratios_match_their_mean_to_relative_rounding():
    # ratios near 1e5, whose pairwise and sequential sums differ by 1.5e-11:
    # an absolute 1e-12 refused this valid report with a bare ValueError
    rare = ClassicalSource([1 - 1e-6, 1e-6], [0.0, 1.0])
    report = classical_gbar(ClassicalSetup(random_unitary(8, 3).matrix, (rare,) * 8))
    ratios = [r for _, _, r in report.pair_ratios]
    assert report.gbar > 1e5
    assert report.gbar == pytest.approx(sum(ratios) / len(ratios), rel=1e-12, abs=0)


EIGHT = {"detectors": tuple(range(8)), "intensity_means": np.ones(8), "active_detectors": tuple(range(8))}


@pytest.mark.parametrize(
    "fields,error",
    [
        ({"provenance": "guessed"}, ValueError),
        ({"pair_ratios": (), "gbar": 0.0}, DegenerateSetupError),
        # one pair's ratio read against eight active detectors certified at M = 8
        ({"active_detectors": tuple(range(8)), "pair_ratios": ((0, 1, 0.8),), "gbar": 0.8}, ValueError),
        ({**EIGHT, "pair_ratios": ((0, 1, 0.8),), "gbar": 0.8}, ValueError),
        ({"pair_ratios": ((1, 0, 0.5),)}, ValueError),
        (
            {**EIGHT, "active_detectors": (0, 1, 2), "pair_ratios": ((0, 2, 0.5), (0, 1, 0.5), (1, 2, 0.5))},
            ValueError,
        ),
        ({"active_detectors": (0, 5), "pair_ratios": ((0, 5, 0.5),)}, ValueError),
        ({"intensity_means": np.array([1.0])}, ValueError),
        ({"intensity_means": np.ones(3)}, ValueError),
    ],
)
def test_a_report_refuses_an_unknown_provenance_and_no_pairs(fields, error):
    report = {
        "detectors": (0, 1),
        "intensity_means": np.array([1.0, 1.0]),
        "active_detectors": (0, 1),
        "pair_ratios": ((0, 1, 0.5),),
        "gbar": 0.5,
        "provenance": "analytic",
    }
    with pytest.raises(error):
        CorrelationReport(**{**report, **fields})


def test_measured_report_from_records():
    rng = np.random.default_rng(12)
    phases = rng.uniform(0, 2 * np.pi, (4000, 2))
    data = np.abs(np.exp(1j * phases) @ ftm(2).matrix.T) ** 2
    records = [ShotRecord(k, row) for k, row in enumerate(data)]
    report = correlation_report_from_records(records)
    assert report.provenance == "measured"
    assert report.stderr is not None
    assert abs(report.gbar - 0.5) <= 3 * report.stderr
    assert {(i, j) for i, j, _ in report.pair_ratios} == {(0, 1)}


def test_batch_reports_record_their_batch_count():
    setup = ClassicalSetup(ftm(3).matrix, tuple(fixed_source(1.0) for _ in range(3)))
    # 30 shots in 50 batches: min(batches, shots // 2) batches of two shots
    assert mc_estimate_gbar(setup, shots=30, seed=1, batches=50).batches == 15
    report = mc_estimate_gbar(setup, shots=3000, seed=1, batches=7)
    assert report.batches == 7 and report.to_dict()["batches"] == 7
    records = [ShotRecord(k, [1.0 + k % 3, 2.0, 1.5]) for k in range(120)]
    assert correlation_report_from_records(records, batches=8).batches == 8
    analytic = sample_report()
    assert analytic.batches is None and "batches" not in analytic.to_dict()


def test_batch_report_sums_a_generator_of_uneven_blocks():
    data = np.random.default_rng(3).exponential(size=(50, 3))
    cuts = [(0, 7), (7, 30), (30, 50)]
    blocks = (data[a:b] for a, b in cuts)
    report = report_from_batches(map(batch_sums, blocks), "measured", energy_scale=2.0)

    def pair_average(block):
        mean = block.mean(axis=0)
        products = block.T @ block / len(block)
        return np.mean([products[i, j] / (mean[i] * mean[j]) for i, j in [(0, 1), (0, 2), (1, 2)]])

    per_batch = [pair_average(data[a:b]) for a, b in cuts]
    assert report.batches == 3
    assert report.gbar == pytest.approx(pair_average(data), rel=1e-12)
    assert report.stderr == pytest.approx(np.std(per_batch, ddof=1) / np.sqrt(3), rel=1e-12)
    assert np.allclose(report.intensity_means, 2.0 * data.mean(axis=0), rtol=1e-12)
