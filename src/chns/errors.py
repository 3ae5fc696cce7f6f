"""Exception types shared across the package."""


class ChnsError(Exception):
    """Base class for all package-specific errors."""


class InvariantViolation(ChnsError):
    """A field or state violates a structural invariant (shape, wall rows, finiteness)."""


class NonpositiveViscosity(ChnsError):
    """Viscosity field contains entries <= 0."""


class AssumptionViolated(ChnsError):
    """A certified potential/viscosity bound fails on the sample set."""

    def __init__(self, items, message=""):
        self.items = tuple(items)
        super().__init__(message or f"assumption check failed for {', '.join(self.items)}")


class SolverDiverged(ChnsError):
    """A step of the solver or of the evolutionary lift produced non-finite values."""


class CFLViolation(ChnsError):
    """Time step exceeds the stability bound for the explicit terms."""


class ModeMismatch(ChnsError):
    """A diagnostics context's mode and lift disagree, or its mode is unknown;
    or a diagnostic is requested of a context that does not provide its inputs."""


class MisalignedSeries(ChnsError):
    """Two time series passed to a comparison do not share a time grid."""


class ConfigError(ChnsError):
    """Base for run-configuration problems (exit code 1 territory)."""


class ParseError(ConfigError):
    """Config file could not be read or tokenized; carries location context."""


class ValidationError(ConfigError):
    """Config parsed but violates the schema; lists all offending keys."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))
