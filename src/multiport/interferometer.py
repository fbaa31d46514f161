"""Transfer matrices and unitaries describing linear multiport evolutions.

Rows index output ports (detectors), columns index input ports (sources).
Formulas in docstrings use 1-based port labels; code is 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MatrixValidationError, check_integer, check_seed

# Max-norm tolerance on U^dag U - 1: tight enough to catch construction bugs,
# loose enough for accumulated floating-point error up to m = 64.
UNITARITY_TOL = 1e-12


def as_complex_matrix(entries, what: str = "matrix") -> np.ndarray:
    """``entries`` as a validated, read-only 2-D complex array: the first check
    of every matrix the library takes (transfer, unitary, configuration, overlap).

    Raises:
        MatrixValidationError: on non-finite entries or a non-2D shape.
        DimensionError: if either dimension is zero.
    """
    arr = np.array(entries, dtype=complex)
    if arr.ndim != 2:
        raise MatrixValidationError(f"{what} must be 2-D, got shape {arr.shape}")
    rows, cols = arr.shape
    if rows < 1 or cols < 1:
        raise DimensionError(f"{what} must have at least one row and one column")
    if not np.all(np.isfinite(arr)):
        raise MatrixValidationError(f"{what} contains NaN or Inf entries")
    arr.setflags(write=False)
    return arr


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-norm of U^dag U - 1 for a square matrix."""
    dim = matrix.shape[0]
    return float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim))))


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """A validated m x m unitary; immutable and safe to share across threads."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = as_complex_matrix(self.matrix, "unitary")
        if arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"unitary must be square, got shape {arr.shape}")
        defect = unitarity_defect(arr)
        if defect > UNITARITY_TOL:
            raise MatrixValidationError(
                f"matrix is not unitary: max |U^dag U - 1| = {defect:.3e}"
            )
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def ftm(m: int) -> UnitaryMatrix:
    """Fourier-transform interferometer on ``m`` modes.

    Entry (j, a), 1-based, is exp(2*pi*i*(j-1)*(a-1)/m)/sqrt(m): every input
    is split evenly over all outputs with phases spread uniformly over 2*pi.
    """
    m = check_integer(m, "m")
    if m < 1:
        raise DimensionError("Fourier-transform matrix needs m >= 1")
    k = np.arange(m)
    # reduce the integer exponent mod m before multiplying by 2*pi/m so the
    # trig arguments stay in [0, 2*pi) and entries keep full precision
    phase = np.outer(k, k) % m
    return UnitaryMatrix(np.exp(2j * np.pi * phase / m) / np.sqrt(m))


def direct_sum(u1: UnitaryMatrix, u2: UnitaryMatrix) -> UnitaryMatrix:
    """Block-diagonal composition of two unitaries.

    The result describes two interferometers operating side by side with no
    coupling; off-block entries are exactly zero.
    """
    m1, m2 = u1.dim, u2.dim
    out = np.zeros((m1 + m2, m1 + m2), dtype=complex)
    out[:m1, :m1] = u1.matrix
    out[m1:, m1:] = u2.matrix
    return UnitaryMatrix(out)


def random_unitary(m: int, seed: int) -> UnitaryMatrix:
    """Haar-distributed random unitary, deterministic for a fixed seed (a
    non-negative integer, else ``PreconditionError``; so is a dimension ``m``
    that is not an integer).

    QR of a complex Ginibre matrix with the R diagonal's phases absorbed
    into Q (Mezzadri's construction).
    """
    m = check_integer(m, "m")
    if m < 1:
        raise DimensionError("random unitary needs m >= 1")
    rng = np.random.default_rng(check_seed(seed))
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return UnitaryMatrix(q * (d / np.abs(d)))


def matrix_to_text(matrix) -> str:
    """Serialize a matrix: 'rows cols' line, then rows of 're im' pairs.

    Entries are written with 17 significant digits so the round trip is exact.
    """
    arr = as_complex_matrix(matrix)
    rows, cols = arr.shape
    lines = [f"{rows} {cols}"]
    for row in arr:
        lines.append(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> np.ndarray:
    """Parse the text format produced by :func:`matrix_to_text`."""
    tokens = text.split()
    if len(tokens) < 2:
        raise MatrixValidationError("matrix text is empty")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
        values = [float(t) for t in tokens[2:]]
    except ValueError as exc:
        raise MatrixValidationError(f"malformed matrix text: {exc}") from None
    if rows < 1 or cols < 1:
        raise DimensionError(f"matrix text declares invalid shape {rows}x{cols}")
    if len(values) != 2 * rows * cols:
        raise MatrixValidationError(
            f"matrix text declares {rows}x{cols} but carries {len(values)} numbers"
        )
    flat = np.array(values).reshape(rows * cols, 2)
    return as_complex_matrix((flat[:, 0] + 1j * flat[:, 1]).reshape(rows, cols))


def save_matrix(matrix, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(matrix_to_text(matrix))


def load_matrix(path) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        return matrix_from_text(fh.read())
