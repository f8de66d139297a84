"""Exception taxonomy shared across the package, and the number rules behind ConfigError.

The rules live here, beside the error they raise, so that every module can
apply them without importing another: model to configs and model files, cli
to reports, data to window sizes, hippo, koopman and legendre to orders, block
lengths and step sizes.
"""

import sys

# int64's largest: the most any integer of a config, a model file or a report holds
INT_MAX = 2**63 - 1


class KoobaError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(KoobaError):
    """Invalid configuration, flags, or construction arguments."""


class InputError(KoobaError):
    """Runtime input outside the documented contract."""


class NumericalError(KoobaError):
    """A numerical operation left its validity envelope."""


class DegenerateCoefficientsError(NumericalError):
    """Leading polynomial coefficient too small to form a companion system."""


class TrainingAbortedError(KoobaError):
    """Training produced a non-finite loss and stopped."""


def is_finite_number(v) -> bool:
    """A finite JSON number: an int or float, not a bool, NaN, an infinity or
    an integer beyond the float range; the rule for model files and reports."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def check_positive(name: str, v) -> None:
    """Raise ConfigError, naming the value as name, unless is_finite_number(v) and v > 0."""
    if not (is_finite_number(v) and v > 0):
        raise ConfigError(f"{name} must be a positive finite number, got {v!r}")


def is_integer(v) -> bool:
    """An int, not a bool, within int64's range: the integer rule for configs,
    model files, reports, window sizes, orders and block lengths."""
    return isinstance(v, int) and not isinstance(v, bool) and -INT_MAX - 1 <= v <= INT_MAX


def check_integer(name: str, v, least: int) -> None:
    """Raise ConfigError, naming the value as name, unless is_integer(v) and v >= least."""
    if not (is_integer(v) and v >= least):
        raise ConfigError(f"{name} must be an integer from {least} to {INT_MAX}, got {v!r}")
