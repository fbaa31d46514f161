"""Exception types shared across the toolkit, and the argument checks that
several modules make."""

import math
import numbers


class MultiportError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(MultiportError, ValueError):
    """Matrix or setup dimensions are invalid or mutually inconsistent."""


class MatrixValidationError(MultiportError, ValueError):
    """A matrix has non-finite entries or violates a structural invariant."""


class TruncationError(MultiportError, ValueError):
    """A photon-number cutoff leaves more tail mass than tolerated."""


class UndefinedEtaError(MultiportError, ValueError):
    """The sub-Poissonian parameter is undefined (zero mean photon number)."""


class InvalidStatisticsError(MultiportError, ValueError):
    """Photon statistics outside the physically allowed range (eta > 1)."""


class DegenerateSetupError(MultiportError, ValueError):
    """Fewer than two detectors receive light; the pair average is undefined."""


class InsufficientSamplesError(MultiportError, ValueError):
    """Not enough shots or records for the requested estimate."""


class OracleLimitError(MultiportError, ValueError):
    """Photon budget of the brute-force Fock oracle exceeded."""


class PreconditionError(MultiportError, ValueError):
    """An operation was called outside its stated domain."""


class ConfigError(MultiportError, ValueError):
    """Experiment configuration is malformed or inconsistent."""


def check_integer(value, name: str) -> int:
    """``value`` as an int, if it is an integer: Python's or numpy's, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise PreconditionError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_detectors(count, name: str) -> int:
    """``count`` as an int, if a pair average has that many detectors: at least 2."""
    if (count := check_integer(count, name)) < 2:
        raise DimensionError(f"a pair average needs at least 2 {name}, got {count}")
    return count


def check_counts(n_sources, n_detectors) -> tuple[int, int]:
    """(N sources, M detectors) as ints, if a pair average has them: N >= 1, M >= 2."""
    n_sources = check_integer(n_sources, "n_sources")
    n_detectors = check_detectors(n_detectors, "n_detectors")
    if n_sources < 1:
        raise DimensionError(f"need at least 1 source, got n_sources={n_sources}")
    return n_sources, n_detectors


def check_real(value, name: str) -> float:
    """``value`` as a float, if it is a real number: Python's or numpy's, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise PreconditionError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_energy_scale(scale) -> None:
    """An energy scale multiplies every intensity: it must be positive and finite."""
    if not 0 < check_real(scale, "energy_scale") < math.inf:
        raise DimensionError(f"energy_scale must be positive and finite, got {scale!r}")


def check_seed(seed) -> int:
    """A seed as an int. Only a non-negative integer seeds a reproducible
    result: numpy would take None as fresh OS entropy."""
    seed = check_integer(seed, "seed")
    if seed < 0:
        raise PreconditionError(f"seed must be non-negative, got {seed}")
    return seed
