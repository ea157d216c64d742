"""Exception types shared across the package."""

__all__ = [
    "DegenerateMapError",
    "InconsistentParametersError",
    "NotASquareError",
    "NotApplicableError",
    "PadicDynError",
    "PoleHitError",
    "PrecisionError",
    "PrimeMismatchError",
    "UnsupportedCaseError",
    "VerificationError",
]


class PadicDynError(Exception):
    """Base class for all errors raised by this package."""


class PrimeMismatchError(PadicDynError, ValueError):
    """Two values with different primes were combined."""


class NotASquareError(PadicDynError, ValueError):
    """A p-adic square root was requested for a non-square."""


class PrecisionError(PadicDynError, ArithmeticError):
    """A truncated computation cannot proceed soundly.

    Raised when dividing by a value indistinguishable from zero at the
    current precision, or when a result would carry no significant digits.
    """


class PoleHitError(PadicDynError, ArithmeticError):
    """A map was evaluated at a pole of its denominator."""

    def __init__(self, point):
        self.point = point
        super().__init__(f"pole hit: denominator vanishes at {point}")


class DegenerateMapError(PadicDynError, ValueError):
    """Map parameters violate a nondegeneracy requirement (e.g. ac = 0)."""


class InconsistentParametersError(PadicDynError, ValueError):
    """Pole norms are not integer powers of p (odd valuation of a with
    2*v(c) >= v(a)); the denominator's roots lie outside Q_p."""


class UnsupportedCaseError(PadicDynError, ValueError):
    """Input is valid but falls in a regime this package does not analyze."""

    def __init__(self, message, label=None):
        self.label = label
        super().__init__(message)


class NotApplicableError(PadicDynError, ValueError):
    """A formula's hypothesis is not met (e.g. displacement at r = |c|_p)."""


class VerificationError(PadicDynError, AssertionError):
    """A sampled verification found a counterexample.

    Carries the counterexample so failures are reproducible.
    """

    def __init__(self, message, counterexample=None):
        self.counterexample = counterexample
        super().__init__(message)


def _verify(condition: bool, message: str, counterexample=None) -> None:
    """Raise VerificationError unless ``condition`` holds (unlike ``assert``,
    this check also runs under ``python -O``)."""
    if not condition:
        raise VerificationError(message, counterexample=counterexample)
