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
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateSetupError, InsufficientSamplesError, check_integer

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
    exclusion, and ``pair_ratios`` holds (i, j, ratio) for every pair of
    active detectors, in ``itertools.combinations`` order, else ValueError.
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
        # the witnesses read M from the active detectors: the ratios must be of all their pairs
        pairs, active = [(i, j) for i, j, _ in self.pair_ratios], self.active_detectors
        known = set(active) <= set(self.detectors) and len(self.intensity_means) == len(self.detectors)
        if not known or pairs != list(combinations(active, 2)):
            raise ValueError("a report needs one mean per detector and the ratios of all active pairs")
        # relative: numpy's pairwise mean and this sum round large ratios apart; NaN fails too
        if not abs(self.gbar - sum(ratios) / len(ratios)) <= 1e-12 * max(1.0, abs(self.gbar)):
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
    """Sizes of ``n = min(batches, shots // 2)`` contiguous batches, the first ``shots % n``
    one shot larger, as :func:`numpy.array_split` cuts them: a one-shot batch's ratio is 1
    at every pair, a stderr of 0. Counts that are not integers raise ``PreconditionError``."""
    n = min(check_integer(batches, "batches"), check_integer(shots, "shots") // 2)
    if n < 2:
        raise InsufficientSamplesError(f"a stderr needs >= 2 batches of >= 2 shots, got {shots}, {batches}")
    base, extra = divmod(shots, n)
    return np.array([base + 1] * extra + [base] * (n - extra))


def batch_sums(block: np.ndarray, ones=None, scratch=None) -> tuple[np.ndarray, np.ndarray, int]:
    """The sums of intensities and of intensity products of one batch's
    (shots x M) detector intensities, and its shot count, as BLAS products:
    on 10^4 x 3, ``block.sum(axis=0)`` took 25x as long as the product with
    ones, and ``block.T @ block``, which numpy sends to syrk, 3x the GEMM
    with a copy of the block. A caller with a workspace passes the ``ones``
    (shots) and the ``scratch`` for the copy (of the block's shape and
    strides); else both are allocated."""
    if ones is None:
        ones, scratch = np.ones(len(block)), np.empty_like(block)
    np.copyto(scratch, block)
    return ones @ block, block.T @ scratch, len(block)


def report_from_batches(
    batches: Iterable[tuple], provenance: str, energy_scale: float = 1.0
) -> CorrelationReport:
    """Report of shots in batches, with a batch-means stderr.

    Each item is one batch's :func:`batch_sums`, in batch order, for batches
    cut by :func:`batch_sizes`; only these sums are kept, so a lazy iterable
    holds one batch at a time. The report records the shot and batch counts.
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
        stderr=float(np.sqrt(per_batch.mean(axis=-1).var(ddof=1) / sizes.size)),
        energy_scale=energy_scale,
        batches=int(sizes.size),
        shots=int(shots),
    )
