"""Correlation reports shared by the classical and quantum engines.

A report carries per-detector mean intensities, the normalized pair products
<I_i I_j> / (<I_i> <I_j>) for every active detector pair, and their average.
Detectors whose mean intensity is negligible relative to the brightest one
are excluded so the ratios stay well defined. Reports are built from arrays:
the means and the matrix of pair products. Monte Carlo and measured records
share one batch estimator, :func:`report_from_batches`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateSetupError, InsufficientSamplesError

# A detector is active when its mean exceeds this fraction of the brightest
# detector's mean; relative so the criterion is independent of units.
RELATIVE_EXCLUSION = 1e-12

PROVENANCES = ("analytic", "monte-carlo", "oracle", "measured")

# Batches behind a batch-means stderr when the caller names no count.
DEFAULT_BATCHES = 100

_FLOAT_RANGE = (
    "intensities outside the normal float range (in the sample or a batch): rescale"
    " them, or use fewer batches if a batch is dark at an active detector"
)


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """Pair-intensity correlation summary.

    ``detectors`` lists the monitored output indices (aligned with
    ``intensity_means``); ``active_detectors`` is the subset that survived
    exclusion, and ``pair_ratios`` holds (i, j, ratio) for active i < j.
    ``gbar`` is the arithmetic mean of the ratios. The fields that default to
    ``None`` are deterministic diagnostics, written only when set: ``shots``
    and ``batches`` count the shots and batches behind a batch-means
    ``stderr``; the oracle records its kept product ``configurations`` and the
    ``pruned_mass`` of the ones it skipped. A report is the input of the
    witnesses in :mod:`multiport.bounds`, which read its diagnostics.
    """

    detectors: tuple[int, ...]
    intensity_means: np.ndarray
    active_detectors: tuple[int, ...]
    pair_ratios: tuple[tuple[int, int, float], ...]
    gbar: float
    provenance: str
    stderr: float | None = None
    pruned_mass: float | None = None
    batches: int | None = None
    configurations: int | None = None
    shots: int | None = None

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        ratios = [r for _, _, r in self.pair_ratios]
        if not ratios:
            raise DegenerateSetupError("a report needs at least one detector pair")
        if not abs(self.gbar - sum(ratios) / len(ratios)) <= 1e-12:  # also refuses NaN
            raise ValueError("gbar must be finite and equal the mean of the pair ratios")

    def to_dict(self) -> dict:
        out = {
            "detectors": list(self.detectors),
            "intensity_means": [float(v) for v in self.intensity_means],
            "active_detectors": list(self.active_detectors),
            "pair_ratios": [[i, j, r] for i, j, r in self.pair_ratios],
            "gbar": self.gbar,
            "provenance": self.provenance,
        }
        for f in fields(self):
            if f.default is None and getattr(self, f.name) is not None:
                out[f.name] = getattr(self, f.name)
        return out


def active_positions(means: np.ndarray) -> np.ndarray:
    """Positions whose mean intensity exceeds the relative exclusion threshold.

    Raises:
        DegenerateSetupError: if the brightest mean is not finite (an
            intensity overflowed), or fewer than two positions are active.
    """
    top = float(np.max(means)) if means.size else 0.0
    if not np.isfinite(top):
        raise DegenerateSetupError(_FLOAT_RANGE)
    active = np.flatnonzero(means > RELATIVE_EXCLUSION * top) if top > 0 else np.array([], int)
    if active.size < 2:
        raise DegenerateSetupError(
            "fewer than two detectors receive light; the pair average needs >= 2"
        )
    return active


def _pair_ratios(means: np.ndarray, products: np.ndarray, active: np.ndarray) -> tuple:
    """The active position pairs (a, b), a < b, and their normalized products
    ``products[..., a, b] / (means[..., a] * means[..., b])``; leading axes
    (one per batch, say) broadcast.

    Raises:
        DegenerateSetupError: if a product of active means is not a normal
            float, where the ratios lose their digits, or a ratio is not finite.
    """
    a, b = np.triu_indices(active.size, 1)
    a, b = active[a], active[b]
    with np.errstate(all="ignore"):
        norms = means[..., a] * means[..., b]
        ratios = products[..., a, b] / norms
    if not np.all((norms >= np.finfo(float).tiny) & (norms < np.inf) & np.isfinite(ratios)):
        raise DegenerateSetupError(_FLOAT_RANGE)
    return a, b, ratios


def assemble_report(
    detectors: Sequence[int],
    means: np.ndarray,
    products: np.ndarray,
    provenance: str,
    energy_scale: float = 1.0,
    **diagnostics,
) -> CorrelationReport:
    """Apply detector exclusion and average the normalized pair products.

    ``products[a, b]`` must hold <I_a I_b> for positions a < b into
    ``detectors``/``means``; the diagonal and lower triangle are not read.
    Means and products are at unit energy scale, which the ratios do not
    depend on; the report's intensity means are ``energy_scale * means``.
    ``diagnostics`` (``stderr``, ``shots``, ...) pass to the report unchanged.
    """
    detectors = tuple(int(d) for d in detectors)
    means = np.asarray(means, dtype=float)
    active = active_positions(means)
    a, b, ratios = _pair_ratios(means, products, active)
    # a mean past the largest float is refused where the report is written
    with np.errstate(over="ignore"):
        scaled = energy_scale * means
    scaled.setflags(write=False)
    return CorrelationReport(
        detectors=detectors,
        intensity_means=scaled,
        active_detectors=tuple(detectors[k] for k in active),
        pair_ratios=tuple(
            (detectors[i], detectors[j], float(r)) for i, j, r in zip(a, b, ratios)
        ),
        gbar=float(ratios.mean()),
        provenance=provenance,
        **diagnostics,
    )


def batch_sizes(shots: int, batches: int) -> np.ndarray:
    """Sizes of ``min(batches, shots)`` contiguous batches, the first
    ``shots % n`` one shot larger, as :func:`numpy.array_split` cuts them."""
    n = min(batches, shots)
    if n < 2:
        raise InsufficientSamplesError(f"a batch-means stderr needs >= 2 batches, got {n}")
    base, extra = divmod(shots, n)
    return np.array([base + 1] * extra + [base] * (n - extra))


def batch_stderr(values: Sequence[float]) -> float:
    """Standard error of the mean from per-batch statistic values."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise InsufficientSamplesError(f"a batch-means stderr needs >= 2 batches, got {arr.size}")
    return float(np.sqrt(arr.var(ddof=1) / arr.size))


def batch_sums(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The sums of intensities and of intensity products of one batch's
    (shots x M) detector intensities, and its shot count."""
    # a product with ones: block.sum(axis=0) was 25x slower on a 10^4 x 3 block
    return np.ones(len(block)) @ block, block.T @ block, len(block)


def report_from_batches(
    batches: Iterable[tuple], provenance: str, energy_scale: float = 1.0
) -> CorrelationReport:
    """Report of shots in batches, with a batch-means stderr.

    Each item is one batch's :func:`batch_sums`, in batch order; only these
    sums are kept, so a lazy iterable holds one batch at a time. The report
    records the shot and batch counts.
    Monte Carlo and measured records share this estimator.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without noise
        sums, products, counts = zip(*batches)
    sum_i, sum_prod, sizes = np.array(sums), np.array(products), np.array(counts)
    shots = sizes.sum()
    means = sum_i.sum(axis=0) / shots
    count = sizes[:, None]
    *_, per_batch = _pair_ratios(sum_i / count, sum_prod / count[..., None], active_positions(means))
    return assemble_report(
        range(means.size),
        means,
        sum_prod.sum(axis=0) / shots,
        provenance,
        stderr=batch_stderr(per_batch.mean(axis=-1)),
        energy_scale=energy_scale,
        batches=int(sizes.size),
        shots=int(shots),
    )
