"""Turning measured intensity records into pair-average estimates.

The estimator is the ratio-of-means form: all per-detector and per-pair
averages are taken over the full sample before any ratio is formed, matching
the definition of the pair average. Uncertainty comes from recomputing the
same statistic on equal contiguous batches of shots.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientSamplesError, MatrixValidationError
from .report import DEFAULT_BATCHES, CorrelationReport, batch_sizes, batch_sums, report_from_batches

MIN_RECORDS = 100


@dataclass(frozen=True, eq=False)
class ShotRecord:
    """One experimental shot: simultaneous intensity readouts at M detectors."""

    shot_id: int
    intensities: np.ndarray

    def __post_init__(self):
        arr = np.array(self.intensities, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise MatrixValidationError("intensities must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise MatrixValidationError("intensities must be finite and >= 0")
        arr.setflags(write=False)
        object.__setattr__(self, "intensities", arr)


@dataclass(frozen=True)
class GbarEstimate:
    """Pair-average estimate from measured shots.

    Invariant under rescaling all intensities by a common constant, so the
    detectors' (shared) units never matter.
    """

    gbar: float
    stderr: float
    shots: int
    active_detectors: tuple[int, ...]


def correlation_report_from_records(
    records: Sequence[ShotRecord], batches: int = DEFAULT_BATCHES
) -> CorrelationReport:
    """Full per-pair correlation report of measured shots (provenance 'measured')."""
    if len(records) < MIN_RECORDS:
        raise InsufficientSamplesError(
            f"need at least {MIN_RECORDS} records, got {len(records)}"
        )
    if len({r.intensities.size for r in records}) != 1:
        raise MatrixValidationError("all records must cover the same detectors")
    data = np.stack([r.intensities for r in records])
    blocks = np.split(data, np.cumsum(batch_sizes(len(data), batches))[:-1])
    return report_from_batches(map(batch_sums, blocks), "measured")


def estimate_gbar_from_records(
    records: Sequence[ShotRecord], batches: int = DEFAULT_BATCHES
) -> GbarEstimate:
    """The summary of :func:`correlation_report_from_records`, whose report is
    what the witnesses take in place of ``gbar``."""
    report = correlation_report_from_records(records, batches=batches)
    return GbarEstimate(report.gbar, report.stderr, report.shots, report.active_detectors)


def _number(field: str) -> float | None:
    try:
        return float(field)
    except ValueError:
        return None


def read_shot_records(
    lines: Iterable[str] | str | os.PathLike, delimiter: str | None = None
) -> tuple[list[ShotRecord], int]:
    """Parse intensity records, one shot per line, split at ``delimiter`` or,
    without one, at commas if the first line has any, else at whitespace.

    ``lines`` may be a path (a ``str`` is always a path, never record text)
    or an iterable of lines; a byte-order mark opening the first line is
    skipped. An optional first line of non-numeric labels is a header and
    fixes the detector count; a line of labels anywhere else is rejected.
    Shots with a wrong column count or unparseable, negative or non-finite
    values are rejected, not imputed; the rejected count is returned too.
    """
    if isinstance(lines, (str, os.PathLike)):
        with open(lines, encoding="utf-8") as fh:
            return read_shot_records(fh, delimiter)
    records: list[ShotRecord] = []
    rejected = 0
    n_columns: int | None = None
    for k, line in enumerate(lines):
        line = (line.removeprefix("\ufeff") if k == 0 else line).strip()  # a byte-order mark is not data
        if not line or line.startswith("#"):
            continue
        first = n_columns is None and not rejected  # the first non-comment line
        if delimiter is None and first and "," in line:
            delimiter = ","
        fields = [_number(f) for f in line.split(delimiter)]
        if None in fields:
            if first and all(f is None for f in fields):
                n_columns = len(fields)  # header with detector labels
            else:
                rejected += 1
            continue
        if n_columns is None:
            n_columns = len(fields)
        if len(fields) != n_columns:
            rejected += 1
            continue
        try:
            records.append(ShotRecord(shot_id=len(records), intensities=fields))
        except MatrixValidationError:  # a negative or non-finite intensity
            rejected += 1
    return records, rejected
