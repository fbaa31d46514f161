import codecs
import io

import numpy as np
import pytest

from multiport import (
    DegenerateSetupError,
    InsufficientSamplesError,
    MatrixValidationError,
    PreconditionError,
    ShotRecord,
    correlation_report_from_records,
    estimate_gbar_from_records,
    ftm,
    nonclassicality_witness,
    read_shot_records,
)


def synthesize_hom_shots(n_shots, seed, amplitude=1.0):
    """Phase-randomized classical fields on a balanced splitter."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0, 2 * np.pi, (n_shots, 2))
    fields = amplitude * np.exp(1j * phases)
    out = fields @ ftm(2).matrix.T
    return np.abs(out) ** 2


def records_from_matrix(data):
    return [ShotRecord(k, row) for k, row in enumerate(data)]


def test_estimate_recovers_analytic_hom_value():
    data = synthesize_hom_shots(20000, seed=42)
    estimate = estimate_gbar_from_records(records_from_matrix(data))
    assert abs(estimate.gbar - 0.5) <= 3 * estimate.stderr
    assert estimate.shots == 20000
    assert estimate.active_detectors == (0, 1)


def test_constant_shots_give_unity_and_zero_error():
    data = np.tile([2.0, 3.0, 1.0], (500, 1))
    estimate = estimate_gbar_from_records(records_from_matrix(data))
    assert estimate.gbar == pytest.approx(1.0, abs=1e-12)
    assert estimate.stderr <= 1e-12


def test_unit_invariance():
    data = synthesize_hom_shots(5000, seed=3)
    base = estimate_gbar_from_records(records_from_matrix(data))
    scaled = estimate_gbar_from_records(records_from_matrix(7.3 * data))
    assert scaled.gbar == pytest.approx(base.gbar, abs=1e-12)
    assert scaled.stderr == pytest.approx(base.stderr, abs=1e-12)


def test_too_few_records():
    data = synthesize_hom_shots(99, seed=1)
    with pytest.raises(InsufficientSamplesError):
        estimate_gbar_from_records(records_from_matrix(data))


def test_degenerate_data():
    dark = np.zeros((200, 3))
    dark[:, 0] = 1.0  # only one detector lit
    with pytest.raises(DegenerateSetupError):
        estimate_gbar_from_records(records_from_matrix(dark))
    with pytest.raises(DegenerateSetupError):
        estimate_gbar_from_records(records_from_matrix(np.zeros((200, 3))))


def test_mismatched_records_rejected():
    records = records_from_matrix(np.ones((200, 2)))
    records.append(ShotRecord(200, np.ones(3)))
    with pytest.raises(MatrixValidationError):
        estimate_gbar_from_records(records)


def test_record_validation():
    with pytest.raises(MatrixValidationError):
        ShotRecord(0, np.array([1.0, -0.5]))
    with pytest.raises(MatrixValidationError):
        ShotRecord(0, np.array([1.0, np.nan]))
    with pytest.raises(MatrixValidationError):
        ShotRecord(0, [])


def test_boundary_data_is_inconclusive_not_certified():
    # classical HOM sits exactly at the (2, 2) bound: the witness must not
    # convert estimator noise into a certification
    data = synthesize_hom_shots(20000, seed=8)
    estimate = estimate_gbar_from_records(records_from_matrix(data))
    verdict = nonclassicality_witness(estimate.gbar, 2, 2, stderr=estimate.stderr)
    assert verdict.classification == "inconclusive"


# ----------------------------------------------------------- reader


def test_reader_whitespace_and_header():
    lines = [
        "det_a det_b det_c",
        "1.0 2.0 3.0",
        "4.0 5.0 6.0",
        "",
        "# a comment",
        "7.0 8.0 9.0",
    ]
    records, rejected = read_shot_records(lines)
    assert rejected == 0
    assert len(records) == 3
    assert np.array_equal(records[1].intensities, [4.0, 5.0, 6.0])


def test_reader_detects_commas():
    records, rejected = read_shot_records(["1.0,2.0", "3.0,4.0"])
    assert rejected == 0
    assert np.array_equal(records[0].intensities, [1.0, 2.0])
    # a CSV header decides the delimiter for the whole file
    records, rejected = read_shot_records(["a,b,c", "1,2,3", "4 5 6", "7,8,9"])
    assert [r.intensities.tolist() for r in records] == [[1, 2, 3], [7, 8, 9]]
    assert rejected == 1


def test_a_comma_in_a_later_row_rejects_only_that_row():
    records, rejected = read_shot_records(["1 2 3", "4,5 6", "7 8 9", "1 1 1"])
    assert [r.intensities.tolist() for r in records] == [[1, 2, 3], [7, 8, 9], [1, 1, 1]]
    assert rejected == 1
    # a malformed first row still decides the delimiter
    records, rejected = read_shot_records(["1 x 2", "1,2 3", "4 5 6"])
    assert len(records) == 1 and rejected == 2


def test_reader_rejects_bad_shots():
    lines = [
        "1.0 2.0",
        "3.0",  # missing detector
        "4.0 nan",  # non-finite
        "5.0 -1.0",  # negative
        "6.0 seven",  # unparseable
        "8.0 9.0",
    ]
    records, rejected = read_shot_records(lines)
    assert len(records) == 2
    assert rejected == 4


def test_reader_from_file(tmp_path):
    path = tmp_path / "shots.txt"
    path.write_text("1.0 2.0\n3.0 4.0\n")
    records, rejected = read_shot_records(str(path))
    assert len(records) == 2 and rejected == 0
    records, rejected = read_shot_records(path)
    assert len(records) == 2 and rejected == 0


@pytest.mark.parametrize(
    "text", ["1.0 2.0\n3.0 4.0\n", "1.0,2.0\n3.0,4.0\n", "a b\n1.0 2.0\n3.0 4.0\n", "a,b\n1.0,2.0\n3.0,4.0\n"]
)
def test_reader_skips_a_byte_order_mark(tmp_path, text):
    # a UTF-8 BOM, as spreadsheet CSV exports write, belongs to no record
    path = tmp_path / "shots.csv"
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    # a path, a file the caller opened as utf-8, and a list of lines
    with open(path, encoding="utf-8") as fh:
        for lines in (path, fh, io.StringIO("\ufeff" + text), ("\ufeff" + text).splitlines()):
            records, rejected = read_shot_records(lines)
            assert [r.intensities.tolist() for r in records] == [[1.0, 2.0], [3.0, 4.0]]
            assert rejected == 0
    # only the first line can open with one
    assert read_shot_records(["1 2", "\ufeff3 4"])[1] == 1


def test_reader_takes_a_str_as_a_path_never_as_record_text():
    with pytest.raises(FileNotFoundError):
        read_shot_records("1 2 3")


def test_reader_counts_malformed_first_row_as_rejected():
    records, rejected = read_shot_records(["1 x 2", "1 2 3", "4 5 6"])
    assert len(records) == 2
    assert rejected == 1
    records, rejected = read_shot_records(["a b c", "1 2 3"])
    assert len(records) == 1 and rejected == 0
    # a row of labels after it is no header: rejected, and the detector
    # count comes from the first data row
    records, rejected = read_shot_records(["1 2 x", "a b", "1 2", "4 5"])
    assert len(records) == 2 and rejected == 2
    records, rejected = read_shot_records(["1 2 x", "a b c", "1 2", "4 5"])
    assert [r.intensities.tolist() for r in records] == [[1, 2], [4, 5]] and rejected == 2


def test_estimate_is_a_projection_of_the_report():
    records = records_from_matrix(synthesize_hom_shots(3000, seed=4))
    report = correlation_report_from_records(records, batches=30)
    estimate = estimate_gbar_from_records(records, batches=30)
    assert (estimate.gbar, estimate.stderr) == (report.gbar, report.stderr)
    assert estimate.active_detectors == report.active_detectors
    assert estimate.shots == 3000


def test_one_batch_has_no_stderr():
    records = records_from_matrix(synthesize_hom_shots(500, seed=2))
    with pytest.raises(InsufficientSamplesError):
        correlation_report_from_records(records, batches=1)


@pytest.mark.parametrize("batches", [2.5, np.float64(4.0), True])
def test_a_batch_count_that_is_not_an_integer_is_refused(batches):
    # 2.5 and 4.0 raised a bare TypeError, True an InsufficientSamplesError
    records = records_from_matrix(synthesize_hom_shots(500, seed=2))
    with pytest.raises(PreconditionError, match="batches"):
        correlation_report_from_records(records, batches=batches)


@pytest.mark.parametrize("scale", [1e-165, 1e160])
def test_records_outside_the_float_range_are_refused(scale):
    # at 1e-165 the pair products underflow and the report's gbar was NaN
    data = scale * synthesize_hom_shots(2000, seed=5)
    with pytest.raises(DegenerateSetupError, match="rescale"):
        correlation_report_from_records(records_from_matrix(data))
