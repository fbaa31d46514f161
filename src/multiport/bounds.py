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
import numbers
from dataclasses import asdict, dataclass
from functools import cache
from typing import TYPE_CHECKING

from .errors import TAIL_TOL, InvalidStatisticsError, PreconditionError
from .errors import check_counts, check_detectors, check_integer, check_real

if TYPE_CHECKING:
    from .report import CorrelationReport

# Certification requires the margin to exceed this many standard errors when
# the stderr comes without a batch count. With b batches, margin / stderr at
# the bound is Student-t with b - 1 degrees of freedom, so the rule becomes the
# t critical value at the same one-sided tail: 3.447 at 20 batches, 3.078 at 100.
SIGMA_RULE = 3.0
T_TAIL = 0.5 * math.erfc(SIGMA_RULE / math.sqrt(2))
# More degrees of freedom read this many's critical value, 3.0075 (the limit is 3).
T_MAX_DF = 1000

# A verdict whose stderr is a batch-means estimate certifies only when it rests
# on at least this many batches, however large its margin: below 20 batches
# the stderr itself is too uncertain to rest a certificate on.
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
    n_sources, n_detectors = check_counts(n_sources, n_detectors)
    if n_sources <= n_detectors:
        return 1.0 - (n_sources - 1) / (n_sources * (n_detectors - 1))
    return 1.0 - 1.0 / n_detectors


def _check_eta(eta: float) -> float:
    if not math.isfinite(eta := check_real(eta, "eta")):
        raise InvalidStatisticsError(f"eta must be finite, got {eta!r}")
    if eta > 1.0:
        raise InvalidStatisticsError(f"eta = {eta!r} > 1 is impossible for integer photon numbers")
    return eta


def symmetric_quantum_min(n_detectors: int, eta: float) -> float:
    """Minimum pair average for identical quantum inputs on every port:
    1 - (1 + eta)/M, reached on the M-mode Fourier interferometer. It is the
    minimum over interferometers only for eta >= 0: super-Poissonian inputs
    go below it on other unitaries."""
    n_detectors, eta = check_detectors(n_detectors, "n_detectors"), _check_eta(eta)
    return 1.0 - (1.0 + eta) / n_detectors


def divisibility_threshold(n_modes: int, eta: float) -> float:
    """Minimum pair average for an interferometer split into two independent
    blocks, fed with m identical inputs of the given eta and fully monitored:
    1 - (1 + eta)(m-2)/(m(m-1))."""
    n_modes, eta = check_detectors(n_modes, "n_modes"), _check_eta(eta)
    return 1.0 - (1.0 + eta) * (n_modes - 2) / (n_modes * (n_modes - 1))


@dataclass(frozen=True)
class WitnessVerdict:
    """Comparison of a measured or computed pair average with a threshold.

    ``margin`` is threshold - gbar; positive margin means the threshold is
    violated. A certifying classification additionally requires the margin to
    clear the Student-t critical value for ``batches - 1`` degrees of freedom
    in standard errors when a standard error and its batch count are present,
    and ``SIGMA_RULE`` standard errors when the batch count is unknown.
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


def student_t_two_sided(t: float, df: int) -> float:
    """P(|T| > t) for Student's t with df degrees of freedom, from the finite
    series of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df) in
    the powers df % 2, df % 2 + 2, .., df - 2 of cos theta."""
    theta = math.atan(t / math.sqrt(df))
    term, series = math.cos(theta) ** (df % 2), 0.0
    for k in range(df % 2, df - 1, 2):
        series += term
        term *= math.cos(theta) ** 2 * (k + 1) / (k + 2)
    if df % 2:
        return 1 - 2 / math.pi * (theta + math.sin(theta) * series)
    return 1 - math.sin(theta) * series


@cache
def _t_critical(df: int) -> float:
    """The t with P(T > t) = ``T_TAIL`` at df degrees of freedom, bisected above ``SIGMA_RULE``."""
    low, high = SIGMA_RULE, 2 * SIGMA_RULE
    while student_t_two_sided(high, df) > 2 * T_TAIL:
        low, high = high, 2 * high
    while low < (mid := (low + high) / 2) < high:
        low, high = (mid, high) if student_t_two_sided(mid, df) > 2 * T_TAIL else (low, mid)
    return high


def _verdict(
    gbar: float | CorrelationReport,
    threshold: float,
    stderr: float | None,
    certified: str,
    batches: int | None,
    n_detectors: int,
) -> WitnessVerdict:
    pruned_mass = None
    if not isinstance(gbar, numbers.Real):
        from .report import CorrelationReport  # loaded already wherever a report exists

        if isinstance(gbar, CorrelationReport):
            if stderr is not None or batches is not None:
                raise PreconditionError("a report supplies its own stderr and batches")
            # a threshold for more detectors than the report averaged is too lenient
            active = len(gbar.active_detectors)
            if n_detectors != active:
                raise PreconditionError(f"the report has {active} active detectors, not {n_detectors}")
            gbar, stderr, batches, pruned_mass = gbar.gbar, gbar.stderr, gbar.batches, gbar.pruned_mass
    gbar = check_real(gbar, "gbar")
    stderr = None if stderr is None else check_real(stderr, "stderr")
    # a negative stderr would shrink the rule's band to BOUNDARY_MARGIN
    if not math.isfinite(gbar) or (stderr is not None and not 0 <= stderr < math.inf):
        raise PreconditionError(f"a verdict needs a finite gbar and stderr >= 0, got {gbar}, {stderr}")
    if stderr is None and batches is not None:  # an estimate judged as exact could certify
        raise PreconditionError(f"batches = {batches!r} counts the batches of a stderr, and none was given")
    margin = threshold - gbar
    sigmas = margin / stderr if stderr else None
    few = batches is not None and check_integer(batches, "batches") < MIN_CERTIFY_BATCHES
    band = BOUNDARY_MARGIN
    if stderr is not None and not few:
        rule = SIGMA_RULE if batches is None else _t_critical(min(batches - 1, T_MAX_DF))
        band = max(rule * stderr, BOUNDARY_MARGIN)
    # a stderr from few batches is itself too uncertain for the t rule, and
    # a pruned enumeration is biased by an amount no stderr measures
    if few or pruned_mass:
        classification = INCONCLUSIVE
    elif margin > band:
        classification = certified
    elif margin < -band or stderr is None:
        classification = CLASSICAL_COMPATIBLE
    else:
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
    threshold = divisibility_threshold(n_modes, eta)
    if eta < 0:
        raise PreconditionError(
            "the divisibility criterion is stated for sub-Poissonian inputs (eta >= 0)"
        )
    return _verdict(gbar, threshold, stderr, INDIVISIBLE, batches, n_modes)
