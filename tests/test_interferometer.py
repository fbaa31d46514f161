import cmath

import numpy as np
import pytest

from multiport import (
    DimensionError,
    MatrixValidationError,
    PreconditionError,
    UnitaryMatrix,
    direct_sum,
    ftm,
    matrix_from_text,
    matrix_to_text,
    random_unitary,
)
from multiport.interferometer import as_complex_matrix, unitarity_defect


def test_ftm_one_is_identity():
    assert np.array_equal(ftm(1).matrix, np.array([[1.0 + 0j]]))


def test_ftm_two_is_balanced_beam_splitter():
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.max(np.abs(ftm(2).matrix - expected)) < 1e-15


def test_ftm_three_matches_entry_formula():
    # independent construction: evaluate the entry formula one cell at a time
    expected = np.empty((3, 3), dtype=complex)
    for j in range(3):
        for a in range(3):
            expected[j, a] = cmath.exp(2j * cmath.pi * j * a / 3) / cmath.sqrt(3)
    got = ftm(3).matrix
    assert np.max(np.abs(got - expected)) < 1e-15
    omega = cmath.exp(2j * cmath.pi / 3)
    assert abs(got[1, 1] - omega / np.sqrt(3)) < 1e-15
    assert abs(got[2, 1] - omega**2 / np.sqrt(3)) < 1e-15
    assert unitarity_defect(got) < 1e-12


def test_ftm_rejects_zero_modes():
    with pytest.raises(DimensionError):
        ftm(0)
    with pytest.raises(DimensionError):
        random_unitary(0, 1)


@pytest.mark.parametrize("m", list(range(1, 65)))
def test_ftm_unitary_and_evenly_split(m):
    u = ftm(m).matrix
    assert unitarity_defect(u) <= 1e-12
    assert np.max(np.abs(np.abs(u) - 1 / np.sqrt(m))) <= 1e-15


def test_direct_sum_of_trivial_blocks_is_identity():
    u = direct_sum(ftm(1), ftm(1))
    assert np.array_equal(u.matrix, np.eye(2, dtype=complex))


def test_direct_sum_block_structure():
    u = direct_sum(ftm(2), ftm(2))
    assert u.dim == 4
    assert np.array_equal(u.matrix[:2, 2:], np.zeros((2, 2)))
    assert np.array_equal(u.matrix[2:, :2], np.zeros((2, 2)))
    assert np.max(np.abs(u.matrix[:2, :2] - ftm(2).matrix)) == 0


@pytest.mark.parametrize("seed", range(10))
def test_direct_sum_preserves_unitarity(seed):
    rng = np.random.default_rng(seed)
    u1 = random_unitary(int(rng.integers(1, 5)), seed)
    u2 = random_unitary(int(rng.integers(1, 5)), seed + 1000)
    combined = direct_sum(u1, u2)
    assert unitarity_defect(combined.matrix) <= 1e-12
    # off-block entries are exactly zero
    m1 = u1.dim
    assert np.all(combined.matrix[:m1, m1:] == 0)
    assert np.all(combined.matrix[m1:, :m1] == 0)


def test_random_unitary_deterministic():
    assert np.array_equal(random_unitary(3, 42).matrix, random_unitary(3, 42).matrix)


def test_random_unitary_changes_with_seed():
    assert not np.array_equal(random_unitary(3, 42).matrix, random_unitary(3, 43).matrix)


@pytest.mark.parametrize("seed", [None, True, -1, 1.5, np.float64(2.0), "1"])
def test_random_unitary_refuses_a_seed_that_is_not_a_nonnegative_integer(seed):
    # None drew fresh OS entropy and True was taken as 1; -1 and 1.5 raised
    # numpy's own ValueError and TypeError
    with pytest.raises(PreconditionError, match="seed"):
        random_unitary(3, seed)


@pytest.mark.parametrize("m", [2.5, 3.0, True, None, "3"])
def test_random_unitary_refuses_a_dimension_that_is_not_an_integer(m):
    # 2.5 raised a bare TypeError, and True was taken as 1
    with pytest.raises(PreconditionError, match="m must be an integer"):
        random_unitary(m, 1)


def test_random_unitary_takes_numpy_integer_dimensions():
    assert np.array_equal(random_unitary(np.int64(3), 42).matrix, random_unitary(3, 42).matrix)


def test_random_unitary_takes_numpy_integer_seeds():
    assert np.array_equal(random_unitary(3, np.int64(42)).matrix, random_unitary(3, 42).matrix)


def test_random_unitary_invariants_many_seeds():
    for seed in range(100):
        m = 2 + seed % 5
        u = random_unitary(m, seed).matrix
        assert unitarity_defect(u) <= 1e-12
        assert np.max(np.abs(np.linalg.norm(u, axis=0) - 1.0)) <= 1e-12


def test_unitary_matrix_rejects_non_unitary():
    with pytest.raises(MatrixValidationError):
        UnitaryMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(DimensionError):
        UnitaryMatrix(np.ones((2, 3)))


def test_matrix_text_round_trip_is_exact():
    rng = np.random.default_rng(7)
    for shape in [(1, 1), (2, 3), (5, 5)]:
        matrix = rng.standard_normal(shape) * np.pi + 1j * rng.standard_normal(shape) / 3
        text = matrix_to_text(matrix)
        assert text.splitlines()[0] == f"{shape[0]} {shape[1]}"
        assert np.array_equal(matrix_from_text(text), matrix)


def test_matrix_text_round_trip_unitary():
    u = random_unitary(4, 0).matrix
    assert np.array_equal(matrix_from_text(matrix_to_text(u)), u)


def test_matrix_text_rejects_malformed():
    with pytest.raises(MatrixValidationError):
        matrix_from_text("2 2\n1 0 0 0\n")  # too few numbers
    with pytest.raises(MatrixValidationError):
        matrix_from_text("not a matrix")
    with pytest.raises(MatrixValidationError):
        matrix_from_text("")
    with pytest.raises(DimensionError):
        matrix_from_text("0 2")


def test_a_matrix_is_two_dimensional_and_non_empty():
    with pytest.raises(MatrixValidationError, match="2-D"):
        as_complex_matrix(np.ones(3))
    with pytest.raises(DimensionError):
        as_complex_matrix(np.zeros((0, 2)))


def test_column_major_matrices_are_accepted():
    permuted = ftm(3).matrix[:, [2, 0, 1]]
    assert np.array_equal(UnitaryMatrix(permuted).matrix, permuted)
    transposed = np.asfortranarray(ftm(3).matrix)
    assert np.array_equal(UnitaryMatrix(transposed).matrix, ftm(3).matrix)
    with pytest.raises(MatrixValidationError):
        UnitaryMatrix(np.asfortranarray([[np.nan, 0], [0, 1]]))
