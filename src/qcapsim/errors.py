"""Exception and warning types shared across the package."""

import math


class NonPositiveTemperature(ValueError):
    """Temperature must be strictly positive (kelvin)."""


class NonPositiveThickness(ValueError):
    """Dielectric thickness must be strictly positive (meters)."""


class NonPositiveArea(ValueError):
    """Capacitor area must be strictly positive (square meters)."""


class CutoffNotConverged(RuntimeError):
    """Fock-basis truncation check failed: eigenvalues still move with cutoff."""


class AmbiguousResonance(ValueError):
    """Both hopping and parametric resonance conditions matched within tolerance."""


class SingularSystem(RuntimeError):
    """Linear solve hit a zero pivot or failed the residual contract."""


class ConfigError(ValueError):
    """Malformed run configuration (unknown keys, bad values, missing file)."""


def config_number(key: str, value, *, whole: bool = False):
    """A config-file number: an int or a float but not a bool, finite, and
    whole (returned as an int) when ``whole``; else ConfigError (exit 2)."""
    try:
        number = float(value) if type(value) in (int, float) else None
    except OverflowError:  # an int beyond the float range
        number = math.inf
    finite = number is not None and math.isfinite(number)
    if not finite or (whole and number % 1):
        kind = "a whole number" if whole and (finite or number is None) else "a finite number"
        got = f"{value} ({type(value).__name__})"
        raise ConfigError(f"config key '{key}' must be {kind}, got {got}")
    return int(number) if whole else number


class PerturbativeRegimeExceeded(UserWarning):
    """tau*omega is large enough that perturbative estimates are unreliable."""
