"""The precision plan: every guard-bit rule and threshold, in one place.

A moment sequence fixes its plan from the working precision p when it is
built (``Plan.of``), and everything over the sequence reads its thresholds
there, each computed once at p; code that holds no sequence reads
``Plan.of(mp.prec)``.  Three rules stay functions of the precision of the
context that forms a product: ``GUARD_BITS`` (``mputil.guarded``),
``spectral_depth`` and ``grid_cap``.  Nothing here is set from outside.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf

from .record import FrozenRecord

# extra bits over a context's precision; a sequence works at p plus twice
# these, so that its values are honest at p for badly scaled windows
GUARD_BITS = 48
# extra bits of a spectral grid below its vector's largest coefficient
CONV_GUARD_BITS = 16


def spectral_depth() -> int:
    """How far below its largest part's top bit a spectral grid reaches."""
    return mp.prec + CONV_GUARD_BITS


def grid_cap() -> int:
    """How far below the top bit of ``Grid.of``'s largest part its cap lies."""
    return 2 * mp.prec + 64


class Plan(FrozenRecord):
    """The bits and thresholds of one working precision p, each threshold
    computed at p; the comment beside each names its reader."""

    _fields = ("working", "sequence", "lu_floor", "denominator_floor",
               "degeneracy_floor", "band_alarm", "flow_radius",
               "flow_tolerance", "quadrature_tolerance",
               "quadrature_acceptance", "closure_tolerance")

    def __init__(self, working: int):
        p, two, ten = working, mpf(2), mpf(10)
        with mp.workprec(p):
            self._init(
                working=p, sequence=p + 2 * GUARD_BITS,
                lu_floor=two ** (-(3 * p // 4)),        # oracle h_k
                denominator_floor=ten ** (-(p // 2)),   # discrete_garnier
                degeneracy_floor=ten ** (-(p // 3)),    # Garnier coordinates
                band_alarm=ten ** (-(p // 4) + 2),      # spectral bands
                # deform: the circle radius r (exact); the four-point rule
                # errs near r^4 = 2^-(3p/4), roundoff near 2^-p / r
                flow_radius=Fraction(1, 2 ** (3 * p // 16)),
                flow_tolerance=two ** (-(3 * p // 4) + 32),
                # moment_quadrature: trapezoid, tanh-sinh, single-valuedness
                quadrature_tolerance=two ** (-p + 12),
                quadrature_acceptance=ten ** 6 * two ** (-p + 12),
                closure_tolerance=two ** (-p // 2))

    @classmethod
    def of(cls, working: int) -> "Plan":
        """The plan of ``working`` bits, built once per precision."""
        if working not in _PLANS:
            _PLANS[working] = cls(working)
        return _PLANS[working]


_PLANS = {}     # bits -> Plan; each a frozen value of its key alone
