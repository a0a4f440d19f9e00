"""Exact Gaussian-rational arithmetic.

The identity suite wants a handful of computations carried out with no
rounding at all: expanding weight polynomials from exact singularity data,
round-tripping the moment recurrence, and cross-checking the LU determinant
against cofactor expansion at small sizes.  ``QC`` is a minimal field element
``re + im*i`` over :class:`fractions.Fraction` supporting exactly the
operations the polynomial and recurrence code uses, so that code can run
unchanged over exact or floating scalars.

``round_mantissa`` is the one rounding of an exact binary value onto an mpf,
for every exact-to-mpc read of the package (``round_rational`` divides).
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import fzero


class QC:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # the field operations pass Fractions, which need no conversion
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # ---- ring/field operations ----

    def __add__(self, other):
        other = _coerce(other)
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce(other)
        return QC(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return QC(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return QC((self.re * other.re + self.im * other.im) / d,
                  (self.im * other.re - self.re * other.im) / d)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return QC(1) / self ** (-k)
        out, base = QC(1), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # ---- predicates / conversions ----

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def to_mpc(self) -> mpmath.mpc:
        """The value with each part correctly rounded, to nearest at
        mp.prec (``round_rational``): one rounding of the exact quotient,
        the same as mpf(p) / q whenever the numerator p fits in mp.prec
        bits."""
        prec = mp.prec
        return mp.make_mpc((
            round_rational(self.re.numerator, self.re.denominator, prec),
            round_rational(self.im.numerator, self.im.denominator, prec)))

    def __repr__(self):
        return f"QC({self.re!r}, {self.im!r})"


def round_mantissa(v: int, e: int, prec: int) -> tuple:
    """v 2^e for an exact int v as a raw mpf, rounded to nearest with ties
    to even at prec bits: bit for bit ``libmp.from_man_exp(v, e, prec,
    round_nearest)``, with the bit counts taken in C (``int.bit_length``,
    ``v & -v``) where mpmath's pure-Python normalisation bisects for them.
    """
    if not v:
        return fzero
    sign, v = (1, -v) if v < 0 else (0, v)
    n = v.bit_length() - prec
    if n > 0:
        # t ends in the half bit: round up past it, and a tie to even
        t, e = v >> (n - 1), e + n
        v = (t >> 1) + (1 if t & 1 and (
            t & 2 or (v & -v).bit_length() < n) else 0)
    z = (v & -v).bit_length() - 1
    return sign, v >> z, e + z, v.bit_length() - z


def round_mpc(re: int, im: int, e: int, prec: int) -> mpmath.mpc:
    """(re + i im) 2^e as an mpc, each part rounded once to nearest at
    prec (``round_mantissa``)."""
    return mp.make_mpc((round_mantissa(re, e, prec),
                        round_mantissa(im, e, prec)))


def round_rational(p: int, q: int, prec: int, exp: int = 0) -> tuple:
    """p 2^exp / q for q > 0 as a raw mpf, correctly rounded to nearest at
    prec: the value of ``libmp.from_rational`` (exp = 0) and of
    ``mpf_div(from_man_exp(p, exp), from_int(q), prec, round_nearest)``.

    The quotient is taken to prec + 2 bits or more, with a sticky bit for
    a nonzero remainder, which decides every rounding as the exact value
    would.
    """
    if not p:
        return fzero
    shift = prec + 2 - p.bit_length() + q.bit_length()
    if shift >= 0:
        quo, rem = divmod(abs(p) << shift, q)
    else:
        quo, rem = divmod(abs(p), q << -shift)
    man = 2 * quo + (1 if rem else 0)
    return round_mantissa(-man if p < 0 else man, exp - shift - 1, prec)


def _coerce(x) -> QC:
    if isinstance(x, QC):
        return x
    if isinstance(x, (int, Fraction)):
        return QC(x)
    raise TypeError(f"cannot coerce {type(x).__name__} into QC")


def det_cofactor(rows):
    """Determinant by cofactor expansion.  O(n!) - the small-n micro-oracle."""
    n = len(rows)
    if n == 0:
        return QC(1)
    if n == 1:
        return rows[0][0]
    total = QC(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total
