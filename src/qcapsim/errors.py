"""Exception and warning types shared across the package."""


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


class PerturbativeRegimeExceeded(UserWarning):
    """tau*omega is large enough that perturbative estimates are unreliable."""
