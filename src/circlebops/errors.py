"""Exception types, one class per cause of an abort; the message names the
site.  Argument errors of the library's functions are ``ValueError``.
"""


class CircleBopsError(Exception):
    """Base class for all library errors."""


class ConfigInvalid(CircleBopsError):
    """Bad input: a configuration, a command argument, or weight data
    outside the regular class."""


class Degenerate(CircleBopsError):
    """The system degenerates at a level (a vanishing determinant or
    denominator, a multiple root, ...)."""


class SingularStep(Degenerate):
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
