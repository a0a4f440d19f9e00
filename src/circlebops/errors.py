"""Exception types raised by the library.

Every failure mode that corresponds to a mathematical degeneracy (a vanishing
pivot, a multiple root, a coordinate colliding with a singularity, ...) gets
its own class so callers can distinguish "your input is outside the generic
class" from plain bugs.  All inherit from :class:`CircleBopsError`.
"""


class CircleBopsError(Exception):
    """Base class for all library errors."""


class ConfigInvalid(CircleBopsError):
    """Run configuration failed validation."""


# -- weight construction -----------------------------------------------------

class DuplicateSingularity(CircleBopsError):
    """Two singularities coincide (regular class needs distinct zeros)."""


class NonnegativeIntegerResidue(CircleBopsError):
    """A residue is a nonnegative integer, outside the generic class."""


class MissingCanonicalPoint(CircleBopsError):
    """Canonical placement requires singularities at 0 and 1."""


class NotSingleValued(CircleBopsError):
    """Weight does not return to its starting value after one circuit."""


# -- moment machinery --------------------------------------------------------

class SingularStep(CircleBopsError):
    """A recurrence pivot or trajectory denominator fell below the floor.

    Attributes carry the structured report: ``index`` (the step), ``factor``
    (which denominator vanished) and ``value``.
    """

    def __init__(self, message, index=None, factor=None, value=None):
        super().__init__(message)
        self.index = index
        self.factor = factor
        self.value = value


class NonConvergent(CircleBopsError):
    """Quadrature refinement stalled before reaching tolerance."""


class WindowTooSmall(CircleBopsError):
    """Requested moment indices lie outside the available window."""


# -- determinantal / spectral layer ------------------------------------------

class DegenerateDeterminant(CircleBopsError):
    """A Toeplitz determinant vanished; the bi-orthogonal system fails here."""


class DegreeBoundViolated(CircleBopsError):
    """Extracted spectral coefficient has out-of-band series coefficients."""


class SamplePointOnSingularity(CircleBopsError):
    """An evaluation point collided with a singularity or root."""


class SingularityCollision(CircleBopsError):
    """W' vanished at a singularity during residue-matrix assembly."""


class EvaluationAtRootOfTheta(CircleBopsError):
    """Scalar ODE coefficients requested at a zero of the off-diagonal entry."""


# -- canonical coordinates ---------------------------------------------------

class MultipleRoot(CircleBopsError):
    """A root derivative fell below the degeneracy floor."""


class CoordinateOnSingularity(CircleBopsError):
    """A canonical coordinate collided with a fixed singularity."""


class SingularTransform(CircleBopsError):
    """Canonical transformation undefined (a singularity sits at 1)."""


class RootMatchingAmbiguous(CircleBopsError):
    """Nearest-neighbour pairing of root sets was not unambiguous."""


# -- discrete recurrences ----------------------------------------------------

class ZeroDenominator(CircleBopsError):
    """A closed-form inversion denominator vanished."""


class ThetaVanishesAtOne(CircleBopsError):
    """The off-diagonal spectral polynomial vanished at z = 1."""


class ZeroRNRatio(CircleBopsError):
    """Reflection-coefficient ratio vanished during tau recovery."""
