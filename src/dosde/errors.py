"""Exception hierarchy shared by all dosde modules."""


class DosdeError(Exception):
    """Base class for every error raised by this package."""


class InvalidEnsemble(DosdeError):
    """Ensemble matrix is empty, misshapen, or contains non-finite entries."""


class ShapeMismatch(DosdeError):
    """Two ensembles (or an ensemble and an operator) disagree in shape."""


class InvalidBoundInput(DosdeError):
    """A closed-form bound was called with arguments outside its domain."""


class SingularGram(DosdeError):
    """A Gram matrix fell below the invertibility threshold: the coefficient
    Gram C_Y, or the row Gram U U^T of ``kernels.projector_row``.

    Carries the offending report so callers can inspect the spectrum.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NonFiniteState(DosdeError):
    """A stepper produced NaN or Inf state entries."""


class RankDeficient(DosdeError):
    """The second-moment spectrum has fewer usable modes than requested."""


class BadParams(DosdeError):
    """A builtin model was asked for by an unregistered name, or with
    parameters that are unknown, non-finite or out of range."""


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
