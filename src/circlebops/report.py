"""Residual bookkeeping for the identity suite.

Each verified identity yields a ``CheckResult`` carrying a short code (the
same code the CLI report and the acceptance suite print), the level it was
evaluated at, the relative residual and the tolerance it was judged against.

The relative residuals of the checks are measured by three helpers:
``rel_residual`` (|sum of terms| / max |term|), ``vector_residual`` (the
same, coefficient-wise over vectors) and ``rel_error`` (|got - want| /
|want|).  Each takes a floor under its scale, which keeps a tiny scale from
inflating the measure but makes the check absolute for any quantity below
the floor.  Floors in use: 1 (I0, l:lambda, the endpoint checks,
2ODE:p2asym, Ham:dual, the dg state and lambda-path deltas, dGarnier:ham,
the deformation and flow checks), 1e-30 (tau:I, An:pf), 1e-40 (OTeq); the
rest pass none.  Checks whose scale is none of these say why at their site.
Their scales, and most custom ones, are a ``largest_abs``: exact squared
magnitudes find the largest term, and abs() is taken only of that term and
its near-ties, which gives max(abs(t) for t in terms) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_int

from .mputil import to_mpc


@dataclass
class CheckResult:
    label: str                 # identity code, e.g. "rrCf:a"
    residual: mpf
    tol: mpf
    n: int | None = None
    passed: bool = True
    gauge_invariant: bool = True
    note: str = ""

    @classmethod
    def make(cls, label, residual, tol, n=None, gauge_invariant=True, note=""):
        residual = mpf(residual)
        tol = mpf(tol)
        return cls(label=label, residual=residual, tol=tol, n=n,
                   passed=bool(residual < tol),
                   gauge_invariant=gauge_invariant, note=note)


def worst(results) -> mpf:
    return max((r.residual for r in results), default=mpf(0))


def all_passed(results) -> bool:
    return all(r.passed for r in results)


def failures(results):
    return [r for r in results if not r.passed]


# ---------------------------------------------------------------------------
# residual measures
# ---------------------------------------------------------------------------

def _square(t):
    """|t|^2 = m 2^e exactly, as (m, e), for a finite mpc, mpf or int."""
    if isinstance(t, mpc):
        (_, a, ea, _), (_, b, eb, _) = t._mpc_
    else:
        (_, a, ea, _), b, eb = (t._mpf_ if isinstance(t, mpf)
                                else from_int(t)), 0, 0
    if not b:
        return a * a, 2 * ea
    if not a:
        return b * b, 2 * eb
    e = min(ea, eb)
    return (a * a << 2 * (ea - e)) + (b * b << 2 * (eb - e)), 2 * e


def largest_abs(terms) -> mpf:
    """max(abs(t) for t in terms), or 0, with abs() of few terms.

    Exact squares on one integer grid find the largest term.  abs() rounds
    (an mpc's through ``mpf_hypot``, which truncates the square to prec + 4
    bits first) monotonically in the exact square, so only terms whose
    square is within a relative 2^-prec of the largest can round to the
    maximum: abs() is taken of those alone.
    """
    sq = [_square(t) for t in terms]
    e0 = min((e for _, e in sq), default=0)
    sq = [m << (e - e0) for m, e in sq]
    top, prec = max(sq, default=0), mp.prec
    return max((abs(t) for t, s in zip(terms, sq) if (top - s) << prec <= top),
               default=mpf(0))


def _ratio(err, scale, floor) -> mpf:
    scale = max(scale, floor)
    if scale:
        return err / scale
    return mpf(0) if not err else mpf("inf")


def rel_residual(terms, floor=0) -> mpf:
    """|sum of terms| / max(|term|.., floor); 0 for no or only zero terms.

    The sum starts from the first term, not from 0, so a term carrying
    guard bits is not rounded before it meets the others: for the two terms
    [a, -b] the sum is exactly a - b.
    """
    if not terms:
        return mpf(0)
    return _ratio(abs(sum(terms[1:], terms[0])), largest_abs(terms), floor)


def vector_residual(vectors, floor=0) -> mpf:
    """Largest |sum| over the coefficient positions of vectors summing to
    zero, against their largest |coefficient| or the floor.

    Vectors may differ in length.  Each position is summed from its first
    coefficient, as in ``rel_residual``, so coefficients carrying guard bits
    are not rounded to the working precision before they cancel.
    """
    cols = [[to_mpc(c) for c in col]
            for col in zip_longest(*vectors, fillvalue=0)]
    scale = largest_abs([c for col in cols for c in col])
    err = largest_abs([sum(col[1:], col[0]) for col in cols])
    return _ratio(err, scale, floor)


def rel_error(got, want, floor=0) -> mpf:
    """|got - want| / max(|want|, floor), inf if that scale is 0 and got is
    not want; over equal-length lists, the worst difference over the largest
    |want|."""
    if not isinstance(want, (list, tuple)):
        return _ratio(abs(got - want), abs(want), floor)
    if len(got) != len(want):
        raise ValueError("rel_error needs lists of equal length")
    err = largest_abs([g - w for g, w in zip(got, want)])
    return _ratio(err, largest_abs(want), floor)
