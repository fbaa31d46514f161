"""Closed-form thresholds and verdict logic.

Three thresholds: the classical lower bound on the pair average for N
stochastic field sources and M detectors, the minimum reachable by symmetric
quantum inputs on an M-mode Fourier interferometer, and the minimum
achievable by any interferometer that splits into two independent blocks.
Measuring below a threshold (beyond statistical doubt) certifies the
corresponding property.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import DimensionError, InvalidStatisticsError, PreconditionError
from .report import CorrelationReport
from .sources import TAIL_TOL

# Certification requires the margin to exceed this many standard errors when
# an uncertainty is supplied; the one rule, not a parameter.
SIGMA_RULE = 3.0

# A verdict whose stderr is a batch-means estimate certifies only when it rests
# on at least this many batches. With b batches, margin / stderr at the bound
# is Student-t with b - 1 degrees of freedom, whose tail beyond 3 is heavier
# than the normal one the sigma rule assumes: 0.75% at df = 9 and 0.37% at
# df = 19, against 0.135%. Below 20 batches false certificates at the bound
# grow quickly (2.0% at df = 4, 4.8% at df = 2).
MIN_CERTIFY_BATCHES = 20

# Margins within this absolute epsilon count as boundary values, which are
# attainable and therefore never violations. It covers the rounding of the
# thresholds and the eta a source's cutoff may add, since gbar >= classical_min
# - max_a max(eta_a, 0): truncation alone cannot certify.
BOUNDARY_MARGIN = TAIL_TOL

CLASSICAL_COMPATIBLE = "classical-compatible"
NONCLASSICAL = "nonclassical"
INDIVISIBLE = "indivisible-certified"
INCONCLUSIVE = "inconclusive"


def classical_min(n_sources: int, n_detectors: int) -> float:
    """Least pair average reachable with stochastic classical fields.

    1 - (N-1)/(N(M-1)) for N <= M and 1 - 1/M for N >= M; the branches agree
    at N = M. Saturated by equal fixed-intensity inputs on a
    Fourier-transform interferometer (which ignores the surplus sources when
    N > M).
    """
    if n_detectors < 2:
        raise DimensionError("the pair average needs at least 2 detectors")
    if n_sources < 1:
        raise DimensionError("need at least one source")
    if n_sources <= n_detectors:
        return 1.0 - (n_sources - 1) / (n_sources * (n_detectors - 1))
    return 1.0 - 1.0 / n_detectors


def _check_eta(eta: float) -> None:
    if eta > 1.0:
        raise InvalidStatisticsError(
            f"eta = {eta!r} > 1 is impossible for integer photon numbers"
        )


def symmetric_quantum_min(n_detectors: int, eta: float) -> float:
    """Minimum pair average for identical quantum inputs on every port:
    1 - (1 + eta)/M, reached on the M-mode Fourier interferometer. It is the
    minimum over interferometers only for eta >= 0: super-Poissonian inputs
    go below it on other unitaries."""
    if n_detectors < 2:
        raise DimensionError("the pair average needs at least 2 detectors")
    _check_eta(eta)
    return 1.0 - (1.0 + eta) / n_detectors


def divisibility_threshold(n_modes: int, eta: float) -> float:
    """Minimum pair average for an interferometer split into two independent
    blocks, fed with m identical inputs of the given eta and fully monitored:
    1 - (1 + eta)(m-2)/(m(m-1))."""
    if n_modes < 2:
        raise DimensionError("divisibility needs at least 2 modes")
    _check_eta(eta)
    return 1.0 - (1.0 + eta) * (n_modes - 2) / (n_modes * (n_modes - 1))


@dataclass(frozen=True)
class WitnessVerdict:
    """Comparison of a measured or computed pair average with a threshold.

    ``margin`` is threshold - gbar; positive margin means the threshold is
    violated. A certifying classification additionally requires the margin to
    clear ``SIGMA_RULE`` standard errors when a standard error is present.
    """

    gbar: float
    threshold: float
    margin: float
    classification: str
    stderr: float | None = None
    confidence_sigmas: float | None = None

    def to_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}

    def one_line(self) -> str:
        detail = f"gbar={self.gbar:.6g} vs threshold={self.threshold:.6g}"
        if self.stderr is not None:
            detail += f" (stderr={self.stderr:.2g})"
        return f"{self.classification}: {detail}, margin={self.margin:.6g}"


def _verdict(
    gbar: float | CorrelationReport,
    threshold: float,
    stderr: float | None,
    certified: str,
    batches: int | None,
    n_detectors: int,
) -> WitnessVerdict:
    pruned_mass = None
    if isinstance(gbar, CorrelationReport):
        if stderr is not None or batches is not None:
            raise PreconditionError("a report supplies its own stderr and batches")
        # a threshold for more detectors than the report averaged is too lenient
        active = len(gbar.active_detectors)
        if n_detectors != active:
            raise PreconditionError(f"the report has {active} active detectors, not {n_detectors}")
        gbar, stderr, batches, pruned_mass = gbar.gbar, gbar.stderr, gbar.batches, gbar.pruned_mass
    # a negative stderr would shrink the sigma rule's band to BOUNDARY_MARGIN
    if not math.isfinite(gbar) or (stderr is not None and not 0 <= stderr < math.inf):
        raise PreconditionError(f"a verdict needs a finite gbar and stderr >= 0, got {gbar}, {stderr}")
    margin = threshold - gbar
    sigmas = None
    if stderr is None:
        classification = certified if margin > BOUNDARY_MARGIN else CLASSICAL_COMPATIBLE
    else:
        if stderr > 0:
            sigmas = margin / stderr
        if abs(margin) <= max(SIGMA_RULE * stderr, BOUNDARY_MARGIN):
            classification = INCONCLUSIVE
        elif margin > 0:
            classification = certified
        else:
            classification = CLASSICAL_COMPATIBLE
    # a stderr from few batches is itself too uncertain for the sigma rule, and
    # a pruned enumeration is biased by an amount no stderr measures
    if (batches is not None and batches < MIN_CERTIFY_BATCHES) or pruned_mass:
        classification = INCONCLUSIVE
    return WitnessVerdict(
        gbar=gbar,
        threshold=threshold,
        margin=margin,
        classification=classification,
        stderr=stderr,
        confidence_sigmas=sigmas,
    )


def nonclassicality_witness(
    gbar: float | CorrelationReport,
    n_sources: int,
    n_detectors: int,
    stderr: float | None = None,
    batches: int | None = None,
) -> WitnessVerdict:
    """Compare a pair average against the classical bound for (N, M).

    A value below the bound cannot be produced by independent stochastic
    classical fields, whatever the linear evolution. ``batches`` is the
    number of batches behind a batch-means ``stderr``; below
    ``MIN_CERTIFY_BATCHES`` the verdict is inconclusive.

    ``gbar`` may be a :class:`CorrelationReport`, which supplies its own
    ``stderr`` and ``batches`` (passing them too is an error), must have
    ``n_detectors`` active detectors and never certifies with a positive
    ``pruned_mass``; a bare number does not know about batches or pruning
    unless they are passed with it.
    """
    threshold = classical_min(n_sources, n_detectors)
    return _verdict(gbar, threshold, stderr, NONCLASSICAL, batches, n_detectors)


def divisibility_witness(
    gbar: float | CorrelationReport,
    n_modes: int,
    eta: float,
    stderr: float | None = None,
    batches: int | None = None,
) -> WitnessVerdict:
    """Compare a pair average against the two-block divisibility threshold.

    Stated for m identical inputs with eta >= 0 and all m outputs monitored;
    a value below the threshold certifies that the evolution cannot split
    into two independent subblocks. A report as ``gbar`` and ``batches`` act
    as in :func:`nonclassicality_witness`, with ``n_modes`` active detectors.
    """
    if eta < 0:
        raise PreconditionError(
            "the divisibility criterion is stated for sub-Poissonian inputs (eta >= 0)"
        )
    threshold = divisibility_threshold(n_modes, eta)
    return _verdict(gbar, threshold, stderr, INDIVISIBLE, batches, n_modes)
