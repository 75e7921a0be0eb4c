"""Exception and warning types shared across the package."""


class CutoffNotConverged(RuntimeError):
    """Fock-basis truncation check failed: eigenvalues still move with cutoff."""


class SingularSystem(RuntimeError):
    """Linear solve hit a zero pivot or failed the residual contract."""


class ConfigError(ValueError):
    """Malformed run configuration (unknown keys, bad values, missing file)."""


class PerturbativeRegimeExceeded(UserWarning):
    """tau*omega is large enough that perturbative estimates are unreliable."""
