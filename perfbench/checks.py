"""Checks applied to multiport's outputs, outside the timed section of each
operation. Each check raises :class:`CheckFailed` on a wrong output."""

from __future__ import annotations

import json
import math

# Largest |oracle gbar - closed form| accepted. The oracle drops product
# configurations below its prune tolerance (1e-14); on the cross-check inputs
# that biases gbar by up to about 1e-9.
ORACLE_TOL = 1e-7
# Tolerance between two evaluations of one closed form that sum in another order.
CLOSED_FORM_TOL = 1e-9
# Monte Carlo must agree with the closed form within this many standard errors.
MC_SIGMAS = 6.0


class CheckFailed(Exception):
    """An output is wrong."""


class KnownFault(Exception):
    """An operation shows a fault of the program named in the benchmark's
    README; the operation counts as failed, not as wrong."""


def close(actual: float, expected: float, tol: float, what: str) -> None:
    if not (math.isfinite(actual) and abs(actual - expected) <= tol * max(1.0, abs(expected))):
        raise CheckFailed(f"{what}: {actual!r} != {expected!r} (tol {tol:g})")


def pair_ratios_match(report, expected: dict, tol: float = CLOSED_FORM_TOL) -> None:
    """The report's (i, j, ratio) rows and its gbar equal ``expected``."""
    got = {(i, j): r for i, j, r in report.pair_ratios}
    if set(got) != set(expected):
        raise CheckFailed(f"pairs differ: {len(got)} reported, {len(expected)} expected")
    for key, value in expected.items():
        close(got[key], value, tol, f"pair {key} ratio")
    close(report.gbar, sum(expected.values()) / len(expected), tol, "gbar")


def not_below(value: float, bound: float, what: str, tol: float = 1e-12) -> None:
    if not value >= bound - tol:
        raise CheckFailed(f"{what}: {value!r} below {bound!r}")


def classification(verdict, expected: str | None = None, forbidden: str | None = None) -> None:
    got = verdict.classification
    if expected is not None and got != expected:
        raise CheckFailed(f"verdict {got!r}, expected {expected!r}")
    if forbidden is not None and got == forbidden:
        raise CheckFailed(f"verdict {got!r} must not be issued here")


def mc_agrees(report, expected: float, sigmas: float = MC_SIGMAS) -> None:
    """A Monte Carlo estimate lies within ``sigmas`` finite, positive
    standard errors of the closed form."""
    err = report.stderr
    if err is None or not (math.isfinite(err) and err > 0):
        raise CheckFailed(f"stderr {err!r} is not finite and > 0")
    if not abs(report.gbar - expected) <= sigmas * err:
        raise CheckFailed(
            f"gbar {report.gbar!r} is {abs(report.gbar - expected) / err:.2f} stderr"
            f" from {expected!r}"
        )


def same_report(a, b) -> None:
    """Two reports are identical bit for bit."""
    if a.to_dict() != b.to_dict() or a.intensity_means.tobytes() != b.intensity_means.tobytes():
        raise CheckFailed("repeated Monte Carlo run differs")


def equal(actual, expected, what: str) -> None:
    if actual != expected:
        raise CheckFailed(f"{what}: {actual!r} != {expected!r}")


def minimum_at_bound(value: float, bound: float) -> None:
    """A minimized pair average sits on the closed-form classical bound."""
    if not bound - 1e-9 <= value <= bound + 1e-6:
        raise CheckFailed(f"minimum {value!r} outside [{bound - 1e-9!r}, {bound + 1e-6!r}]")


def strict_json(text: bytes) -> dict:
    """Parse a report as strict JSON: no NaN or Infinity tokens."""

    def refuse(token):
        raise CheckFailed(f"report holds the non-JSON token {token}")

    try:
        return json.loads(text, parse_constant=refuse)
    except ValueError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None
