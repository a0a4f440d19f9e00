"""Dense polynomial and truncated-series arithmetic.

Coefficient lists are ascending in the variable.  The polynomial helpers are
written against bare field operations (+, -, *, /) so the same code runs over
exact Gaussian rationals and over mpc.

``OffsetSeries`` models a truncated expansion  sum_k c[k] z^(offset+k)  used
for the associated functions, whose expansions start at a level-dependent
power.  It keeps every c[k] as Python-int real and imaginary mantissas on
one binary exponent, so ``mul_poly``, ``add``, ``scale`` and ``diff`` are
exact integer operations, and ``coeff``, ``window`` and ``coeffs`` round to
mpc once, to nearest at the reader's mp.prec.  A vector goes on a grid in
three places: ``from_poly``, ``conv_fixed`` (both of its vectors) and
``mul_poly`` (its polynomial), each time mp.prec + 16 bits below the
largest coefficient of that vector (``_on_grid``; a series already on a
coarser grid is kept as it is).  Accuracy rule: one gridded product is off
by at most about len 2^-(prec+16) max|a| max|b| (prec of the call that
gridded it); sums, derivatives and integer scalings add nothing, and a read
adds one rounding at the reader's precision.  A coefficient far below its
vector's largest keeps only the digits above that grid.

``peval_grid`` evaluates a polynomial held exactly on a ``report.Grid`` at a
point by Horner's rule in integers, and rounds the real and imaginary parts
of the exact value once each; the checks' point tables use it.  ``peval``
remains the field-generic evaluator (root polishing, exact Gaussian
rationals).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import add, mul

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, fzero, round_nearest

from .mputil import to_mpc
from .report import Grid, largest_abs


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def ptrim(p):
    """Drop trailing zero coefficients (keeping at least the constant)."""
    k = len(p)
    while k > 1 and not p[k - 1]:
        k -= 1
    return list(p[:k])


def pdeg(p) -> int:
    p = ptrim(p)
    if len(p) == 1 and not p[0]:
        return -1
    return len(p) - 1


def padd(a, b):
    n = max(len(a), len(b))
    out = []
    for k in range(n):
        x = a[k] if k < len(a) else 0
        y = b[k] if k < len(b) else 0
        out.append(x + y)
    return out


def psub(a, b):
    return padd(a, [-c for c in b])


def pscale(a, s):
    return [c * s for c in a]


def pmul(a, b):
    if not a or not b:
        return [0]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def pshift(a, k: int):
    """Multiply by z^k (k >= 0)."""
    return [0] * k + list(a)


def pdiff(a):
    if len(a) <= 1:
        return [0 * a[0]] if a else [0]
    return [a[k] * k for k in range(1, len(a))]


def peval(a, z):
    out = 0
    for c in reversed(a):
        out = out * z + c
    return out


def peval_grid(g: Grid, z) -> mpc:
    """The polynomial with the exact coefficients ``g`` at the point z.

    Horner's rule runs in integers on the grids of g and z, so the value is
    exact; its real and imaginary parts are then rounded once each, to
    nearest at mp.prec.
    """
    zg = Grid.of([z])
    if g.exp is None or zg.exp is None:
        return mpc(mpf("nan"), mpf("nan"))
    zr, zi, ez = zg.re[0], zg.im[0], zg.exp
    if ez > 0:
        zr, zi, ez = zr << ez, zi << ez, 0
    # sum_k c_k z^k 2^(-d ez) = Horner over c_k 2^((d-k)(-ez)), d = deg
    re, im, d = g.re[-1], g.im[-1], len(g) - 1
    for k in range(d - 1, -1, -1):
        s = (d - k) * -ez
        re, im = (re * zr - im * zi + (g.re[k] << s),
                  re * zi + im * zr + (g.im[k] << s))
    exp, prec = g.exp + d * ez, mp.prec
    return mp.make_mpc((from_man_exp(re, exp, prec, round_nearest),
                        from_man_exp(im, exp, prec, round_nearest)))


def pdivmod_linear(a, root):
    """Divide by the monic linear factor (z - root); returns (quotient, rem)."""
    q = [0] * (len(a) - 1)
    acc = a[-1]
    for k in range(len(a) - 2, -1, -1):
        q[k] = acc
        acc = a[k] + acc * root
    return q, acc


def pdiv_exact_linear(a, root):
    """Synthetic division by (z - root) where the remainder is known to vanish
    up to rounding; the remainder is discarded."""
    q, _ = pdivmod_linear(a, root)
    return q


def elementary_symmetric(values):
    """e_0..e_m of the given values."""
    e = [1]
    for v in values:
        e = padd(e, pshift(pscale(e, v), 1))
    return e


# ---------------------------------------------------------------------------
# mpc-facing helpers
# ---------------------------------------------------------------------------

def pmax_abs(p) -> mpf:
    return largest_abs([to_mpc(c) for c in p])


# ---------------------------------------------------------------------------
# truncated series on an integer grid
# ---------------------------------------------------------------------------

# extra bits of an integer grid below a vector's largest coefficient
CONV_GUARD_BITS = 16


@dataclass
class OffsetSeries:
    """Truncated series  sum_k (re[k] + i im[k]) 2^exp z^(offset + k).

    ``re`` and ``im`` are Python ints on the one binary exponent ``exp``.
    """

    offset: int
    re: list
    im: list
    exp: int = 0

    @classmethod
    def from_poly(cls, coeffs) -> "OffsetSeries":
        """The polynomial sum_k coeffs[k] z^k on its grid (``_on_grid``,
        mp.prec + 16 bits); ``coeffs`` is a coefficient list or a series
        from z^0."""
        grid = _on_grid(coeffs, mp.prec + CONV_GUARD_BITS)
        if grid is None:
            return cls(0, [0] * len(coeffs), [0] * len(coeffs))
        return cls(0, *grid)

    def __len__(self) -> int:
        return len(self.re)

    @property
    def top(self) -> int:
        """Largest represented power."""
        return self.offset + len(self.re) - 1

    def coeff(self, power: int) -> mpc:
        """The coefficient of z^power, rounded to nearest at mp.prec."""
        k = power - self.offset
        if not 0 <= k < len(self.re):
            return mpc(0)
        prec = mp.prec
        return mp.make_mpc((
            from_man_exp(self.re[k], self.exp, prec, round_nearest),
            from_man_exp(self.im[k], self.exp, prec, round_nearest)))

    def window(self, lo: int, hi: int) -> list:
        """Coefficients of z^lo .. z^hi as mpc, each rounded once."""
        return [self.coeff(p) for p in range(lo, hi + 1)]

    @property
    def coeffs(self) -> "Rounded":
        return Rounded(self)

    def diff(self) -> "OffsetSeries":
        off = self.offset
        re = [(off + k) * v for k, v in enumerate(self.re)]
        im = [(off + k) * v for k, v in enumerate(self.im)]
        if off == 0:
            return OffsetSeries(0, re[1:] or [0], im[1:] or [0], self.exp)
        return OffsetSeries(off - 1, re, im, self.exp)

    def mul_poly(self, p, top: int) -> "OffsetSeries":
        """Multiply by a polynomial, truncating above power ``top``.

        ``p`` is a coefficient list or a series from z^0; it goes on its
        grid (``_on_grid``, mp.prec + 16 bits) and the product of the two
        grids is exact.
        """
        count = max(top - self.offset + 1, 0)
        grid = _on_grid(p, mp.prec + CONV_GUARD_BITS)
        if grid is None:
            return OffsetSeries(self.offset, [0] * count, [0] * count,
                                self.exp)
        pr, pi, exp = grid
        return OffsetSeries(self.offset,
                            *_conv(self.re, self.im, pr, pi, 0, count),
                            self.exp + exp)

    def add(self, other: "OffsetSeries") -> "OffsetSeries":
        off = min(self.offset, other.offset)
        exp = min(self.exp, other.exp)
        size = max(self.top, other.top) - off + 1
        re, im = [0] * size, [0] * size
        for s in (self, other):
            shift, at = s.exp - exp, s.offset - off
            for k, (x, y) in enumerate(zip(s.re, s.im), at):
                re[k] += x << shift
                im[k] += y << shift
        return OffsetSeries(off, re, im, exp)

    def scale(self, s: int) -> "OffsetSeries":
        """Multiply by the integer ``s``."""
        return OffsetSeries(self.offset, [s * v for v in self.re],
                            [s * v for v in self.im], self.exp)


class Rounded(Sequence):
    """The coefficients of a series as a sequence of mpc, each rounded when
    it is read, at the reader's mp.prec (``OffsetSeries.coeff``)."""

    def __init__(self, series: OffsetSeries):
        self._series = series

    def __len__(self) -> int:
        return len(self._series)

    def __getitem__(self, k: int) -> mpc:
        return self._series.coeff(self._series.offset + range(len(self))[k])


def _on_grid(vec, bits: int):
    """(re, im, exp): Python-int mantissas of ``vec`` on the grid 2^exp.

    ``vec`` is a list of scalars or an ``OffsetSeries`` from z^0 (the
    mantissas carry no powers, so a series elsewhere is refused).  ``exp``
    sits ``bits`` below the top bit of the largest real or imaginary part;
    each part is rounded to the nearest grid point (a series already on a
    coarser grid keeps its own).  Returns None for an empty or all-zero
    vector.
    """
    if isinstance(vec, OffsetSeries):
        if vec.offset:
            raise ValueError(
                f"a polynomial series starts at z^0, not z^{vec.offset}")
        top = max(map(abs, vec.re + vec.im), default=0).bit_length()
        if not top:
            return None
        shift = top - bits
        if shift <= 0:
            return vec.re, vec.im, vec.exp
        half = 1 << (shift - 1)
        re, im = ([(v + half) >> shift if v >= 0 else -((half - v) >> shift)
                   for v in part] for part in (vec.re, vec.im))
        return re, im, vec.exp + shift
    parts = []
    for x in vec:
        if isinstance(x, mpc):
            parts.extend(x._mpc_)
        elif isinstance(x, mpf):
            parts.extend((x._mpf_, fzero))
        else:
            parts.extend(to_mpc(x)._mpc_)
    tops = []
    for _, man, e, bc in parts:
        if man:
            tops.append(e + bc)
        elif e:
            raise ValueError("non-finite coefficient in a series product")
    if not tops:
        return None
    exp = max(tops) - bits
    ints = []
    for sign, man, e, _ in parts:
        shift = e - exp
        if shift >= 0:
            v = man << shift
        else:
            v = (man + (1 << (-shift - 1))) >> -shift
        ints.append(-v if sign else v)
    return ints[0::2], ints[1::2], exp


def _conv(ar, ai, br, bi, lo: int, hi: int):
    """(re, im) of c_t = sum_i a_i b_{t-i} for lo <= t < hi, in ints.

    Three real sums per complex product (Gauss), each output summed on its
    own.
    """
    asum = list(map(add, ar, ai))
    # b reversed, so that b_{t-i} over ascending i is a forward slice; each
    # sum stops where the shorter of its two slices ends
    br, bi, bsum = br[::-1], bi[::-1], list(map(add, br, bi))[::-1]
    lb = len(br)
    re, im = [], []
    for t in range(lo, hi):
        i0, j0 = (t - lb + 1, 0) if t >= lb else (0, lb - 1 - t)
        rr = sum(map(mul, ar[i0:t + 1], br[j0:]))
        ii = sum(map(mul, ai[i0:t + 1], bi[j0:]))
        ss = sum(map(mul, asum[i0:t + 1], bsum[j0:]))
        re.append(rr - ii)
        im.append(ss - rr - ii)
    return re, im


def conv_fixed(a, b, lo: int, hi: int) -> OffsetSeries:
    """c_t = sum_i a_i b_{t-i} for lo <= t < hi, as the series
    sum_t c_t z^t from z^lo.

    Both vectors go onto their own integer grid, mp.prec + 16 bits below
    their largest coefficient (``_on_grid``); the sums are exact.
    """
    count = max(hi - lo, 0)
    ga, gb = _on_grid(a, mp.prec + CONV_GUARD_BITS), \
        _on_grid(b, mp.prec + CONV_GUARD_BITS)
    if ga is None or gb is None:
        return OffsetSeries(lo, [0] * count, [0] * count)
    return OffsetSeries(lo, *_conv(ga[0], ga[1], gb[0], gb[1], lo, hi),
                        ga[2] + gb[2])
