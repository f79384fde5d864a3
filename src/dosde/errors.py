"""Exception hierarchy shared by all dosde modules."""


class DosdeError(Exception):
    """Base class for every error raised by this package."""


class InvalidEnsemble(DosdeError):
    """Ensemble matrix is empty, misshapen, or contains non-finite entries."""


class ShapeMismatch(DosdeError):
    """Two ensembles (or an ensemble and an operator) disagree in shape."""


class InvalidBoundInput(DosdeError):
    """A closed-form bound was called with arguments outside its domain."""


class SingularRowGram(DosdeError):
    """U U^T is numerically singular; the row projector is undefined."""


class SingularGram(DosdeError):
    """The coefficient Gram matrix fell below the invertibility threshold.

    Carries the offending report so callers can inspect the spectrum.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NonFiniteState(DosdeError):
    """A stepper produced NaN or Inf state entries."""


class RankDeficient(DosdeError):
    """The second-moment spectrum has fewer usable modes than requested."""


class UnknownModel(DosdeError):
    """Requested builtin model name is not registered."""


class BadParams(DosdeError):
    """Builtin model parameters are missing, unknown, or out of range."""


class AssumptionViolated(DosdeError):
    """Probing found drift/diffusion behaviour outside the declared constants."""


class OverflowingDims(DosdeError):
    """Requested noise tensor exceeds the configured memory budget."""


class NoFloorDeclared(DosdeError):
    """Model declares no uniform noise floor (sigma_B = 0)."""


class InsufficientData(DosdeError):
    """A regression-based estimator has too few usable points."""


class ParseError(DosdeError):
    """Config text could not be parsed; carries a 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class ValidationError(DosdeError):
    """Parsed config failed validation; names the offending field."""

    def __init__(self, message, field=None):
        if field is not None:
            message = "%s: %s" % (field, message)
        super().__init__(message)
        self.field = field
