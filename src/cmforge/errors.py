"""Exception hierarchy shared across the package.

The command line front end maps these onto stable exit codes.  A class
exists only for an outcome a caller tells apart: a new failure raises the
class of its outcome with its own message, and a new outcome subclasses one
of these branches rather than Exception.
"""


class CMForgeError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(CMForgeError):
    """Invalid caller-supplied input (bad discriminant, residue, prime, a
    valuation of zero, a prime with no closed form and no coefficient file)."""


class InternalError(CMForgeError):
    """An internal consistency check failed (a quantity that must be an
    integer is not, a bounded search ends early); indicates a bug, not bad
    input."""


class PrecisionError(CMForgeError):
    """Numeric evaluation could not reach the requested precision, or two
    CM values coincide to working precision."""


class InfeasibleError(CMForgeError):
    """Not enough interpolation data exists to build the class polynomial."""


class NonIntegralMagnitudeError(CMForgeError):
    """A norm magnitude needed as an integer has non-integral exponents."""


class SignResolutionError(CMForgeError):
    """No sign assignment produced a monic integer polynomial, or the X
    values cannot determine one (duplicate or vanishing X)."""


class AmbiguousSignsError(SignResolutionError):
    """Several sign assignments produced distinct integer polynomials."""

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)
