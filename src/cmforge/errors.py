"""Exception hierarchy shared across the package.

The command line front end maps these onto stable exit codes, so new error
types should subclass one of the existing branches rather than Exception.
"""


class CMForgeError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(CMForgeError):
    """Invalid caller-supplied input (bad discriminant, residue, prime, ...)."""


class UndefinedValuationError(ParameterError):
    """Valuation of zero requested."""


class InternalError(CMForgeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class IntegralityError(InternalError):
    """A quantity that must be an integer turned out not to be."""


class EnumerationExhaustedError(InternalError):
    """A bounded search ended before the expected count was reached."""


class PrecisionError(CMForgeError):
    """Numeric evaluation could not reach the requested precision."""

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class IllConditionedError(PrecisionError):
    """Two CM values coincide to working precision."""


class SeriesRequiredError(ParameterError):
    """Fourier coefficient data is needed for this prime but none was supplied."""


class InfeasibleError(CMForgeError):
    """Not enough interpolation data exists to build the class polynomial."""


class NonIntegralMagnitudeError(CMForgeError):
    """A norm magnitude needed as an integer has non-integral exponents."""


class DegenerateDataError(CMForgeError):
    """Interpolation data has duplicate X values."""


class SignResolutionError(CMForgeError):
    """No sign assignment produced a monic integer polynomial."""


class AmbiguousSignsError(SignResolutionError):
    """Several sign assignments produced distinct integer polynomials."""

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)
