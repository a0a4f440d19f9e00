"""Residual bookkeeping for the identity suite, and the one exact grid that
its measures and the spectral series share.

A check family yields (label, residual) evaluations and takes no
tolerance.  ``judge`` alone turns them into ``CheckResult``s: one per label
(the short code the CLI report and the acceptance suite print), carrying
the largest residual of the label's evaluations, the level they were made
at, the tolerance it was judged against and the label's note from the one
table ``NOTES``.

The relative residuals of the checks are measured by three helpers:
``rel_residual`` (|sum of terms| / max |term|), ``vector_residual`` (the
same, coefficient-wise over vectors: the coefficient lattice and the
polynomial identities An:pf and 2ODE:a/b) and ``rel_error`` (|got - want| /
|want|).  Each takes a floor under its scale, which keeps a tiny scale from
inflating the measure but makes the check absolute for any quantity below
the floor.  Floors in use: 1 (I0, l:lambda, the endpoint checks,
2ODE:p2asym, Ham:dual, the dg state and lambda-path deltas, dGarnier:ham,
the deformation and flow checks), 1e-30 (tau:I, An:pf), 1e-40 (OTeq); the
rest pass none.  Checks whose scale is none of these say why at their site.

``Grid`` is the one exact integer-mantissa type: sum_k (re[k] + i im[k])
2^exp z^(offset + k) with Python-int mantissas on one binary exponent, for
a check's terms, a polynomial or a truncated series (``polys.OffsetSeries``
is this class).  Sums (aligned in offset and exponent), the product
(``Grid.conv``), derivatives, negation and shifts are exact, and
``coeff``, ``window`` and ``coeffs`` round a coefficient to mpc once, to
nearest at the reader's mp.prec, and ``dot`` is an exact dot product
rounded once per part (the Szego step's); every such rounding, and
``sqrt_ratio``'s, is ``exact.round_mantissa``.

The product has two exact integer paths, chosen by the operand lengths
alone, so both give the same integers.  Most of the checks' products have
a factor of at most ``SHORT_FACTOR`` (4) coefficients: a scalar or short
multiplier times a vector.  For those, each coefficient of the short
factor adds its multiple of the other factor to the output in one slice,
an overhead per short coefficient.  Longer products sum each output term
on its own with Gauss's three real sums, an overhead per output term but
fewer products.

Two policies put a vector on a grid:

- the checks' path, ``Grid.of``, is exact up to the cap: a part more than
  ``plan.grid_cap()`` bits below the largest goes onto that coarser grid
  first (in a sum, so does an addend wholly that far below), so a grid
  cannot blow up; a non-finite term gives a grid whose ``exp`` is None,
  and the measures give it an infinite residual.
- the spectral path, ``Grid.from_poly`` (the oracle's series and the
  polynomial of ``mul_poly``), puts the vector ``plan.spectral_depth()``
  bits below its largest coefficient (a grid already coarser is kept as
  it is) and refuses a non-finite coefficient with ``ValueError``.
  Accuracy rule: one gridded product is off by at most about
  len 2^-(prec+16) max|a| max|b| (prec of the call that gridded it);
  sums, derivatives and negation add nothing, and a read adds one rounding
  at the reader's precision.  A coefficient far below its vector's largest
  keeps only the digits above that grid.

The three measures put their terms on one grid (``Grid.of``); their sums
(and, for ``vector_residual``, the products of multiplier polynomials and
vectors) are exact, the error and the scale are compared as exact squared
magnitudes (``squares``), the floor as an exact square, and the residual
sqrt(err^2 / max(scale^2, floor^2)) is rounded once, to nearest at
mp.prec (``sqrt_ratio``).

Custom scales are mostly a ``largest_abs``: exact squared magnitudes on one
grid find the largest term, and abs() is taken only of that term and its
near-ties, which gives max(abs(t) for t in terms) bit for bit; a
non-finite term gives +inf.  ``ratio`` divides a residual by such a scale
and gives +inf when either is not finite, where inf/inf would be a nan that
max() and the tolerance comparisons drop.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import count
from operator import add, mul, sub

from mpmath import isfinite, mp, mpc, mpf
from mpmath.libmp import from_int, fzero

from .exact import round_mantissa, round_mpc
from .mputil import abs_square, exceeds, to_mpc
from .plan import grid_cap, spectral_depth
from .record import Record


class CheckResult(Record):
    _fields = ("label", "residual", "tol", "n", "passed", "note")

    def __init__(self, label: str, residual, tol, n: int | None = None,
                 note: str = ""):
        self.label = label          # identity code, e.g. "rrCf:a"
        self.residual = mpf(residual)
        self.tol = mpf(tol)
        self.n = n
        # judged once here: reports read it several times per check
        self.passed = self.residual < self.tol
        self.note = note


# the note a check carries in the reports, by label
NOTES = {
    "degree": "out-of-band series mass",
    "An:trace": "Tr A_{n,j} = -rho_j at nonzero points",
    "An:pf": "partial-fraction reconstruction",
    "sum2:b": "with z_j weight",
    "Tsum:d": "constant term uses 2V(0), from the residue computation",
    "dGarnier:ham": "advanced-level roots",
    "tau:lambda-paths": "two recovery recurrences",
}


def judge(evaluations, tol, n=None) -> list:
    """The checks of a family's (label, residual) evaluations at level n:
    one per label, in the order the labels first appear, carrying the
    largest residual of its evaluations (folded from the first, so a lone
    evaluation keeps its value) and its note from ``NOTES``."""
    worst = {}
    for label, residual in evaluations:
        if label not in worst or residual > worst[label]:
            worst[label] = residual
    return [CheckResult(label, residual, tol, n, NOTES.get(label, ""))
            for label, residual in worst.items()]


def all_passed(results) -> bool:
    return all(r.passed for r in results)


def failures(results):
    return [r for r in results if not r.passed]


# ---------------------------------------------------------------------------
# the exact grid
# ---------------------------------------------------------------------------

def _round_shift(v: int, shift: int) -> int:
    """v 2^-shift rounded to the nearest integer (ties away from zero)."""
    half = 1 << (shift - 1)
    return (v + half) >> shift if v >= 0 else -((half - v) >> shift)


# A factor of at most this many coefficients is multiplied by the short
# path of ``Grid.conv``.  The checks' products are mostly scalar or
# two-to-four-term multipliers times a vector; past this length the Gauss
# path's fewer products outweigh its per-output-term slicing.
SHORT_FACTOR = 4


def _conv_short(ar, ai, br, bi, lo: int, hi: int):
    """Terms lo..hi-1 of the product of a (short) and b: each nonzero
    coefficient x of a adds x b to its window of the output in one slice,
    with 4 real products per term for a complex x and 2 for a real one.
    The first writes its window, which is still zero, without the add."""
    n, lb = hi - lo, len(br)
    re, im = [0] * n, [0] * n
    fresh = True
    for i, xr, xi in zip(count(-lo), ar, ai):
        j0 = -i if i < 0 else 0
        j1 = n - i if n - i < lb else lb
        if j0 >= j1 or not (xr or xi):
            continue
        u, v = (br, bi) if j1 - j0 == lb else (br[j0:j1], bi[j0:j1])
        if xi:
            pr = map(sub, map(xr.__mul__, u), map(xi.__mul__, v))
            pi = map(add, map(xr.__mul__, v), map(xi.__mul__, u))
        else:
            pr, pi = map(xr.__mul__, u), map(xr.__mul__, v)
        o0, o1 = i + j0, i + j1
        if fresh:
            re[o0:o1], im[o0:o1] = pr, pi
            fresh = False
        else:
            re[o0:o1] = map(add, re[o0:o1], pr)
            im[o0:o1] = map(add, im[o0:o1], pi)
    return re, im


def _conv_gauss(ar, ai, br, bi, lo: int, hi: int):
    """Terms lo..hi-1 of the product of a and b, each summed on its own
    from three real sums (Gauss)."""
    asum = list(map(add, ar, ai))
    # b reversed, so that b_{t-i} over ascending i is a forward slice;
    # each sum stops where the shorter of its two slices ends
    br, bi = br[::-1], bi[::-1]
    bsum = list(map(add, br, bi))
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


class Grid:
    """sum_k (re[k] + i im[k]) 2^exp z^(offset + k), held exactly with
    Python-int mantissas on one binary exponent; the module docstring gives
    its two policies (``of``, ``from_poly``) and the cap.  A grid with a
    non-finite term has ``exp`` None, and so has everything formed from it.
    """

    __slots__ = ("re", "im", "exp", "offset")

    def __init__(self, re: list, im: list, exp, offset: int = 0):
        self.re, self.im, self.exp, self.offset = re, im, exp, offset

    def __len__(self) -> int:
        return len(self.re)

    @classmethod
    def of(cls, terms) -> "Grid":
        """mpc, mpf and int terms exactly; anything else (QC, Fraction,
        float) through its ``to_mpc`` image.

        One pass finds the top bit and the lowest exponent; when every part
        lies within the cap of the top, the mantissas go onto the lowest
        exponent as they are, and only otherwise does the cap's rounding
        pass run."""
        parts = []
        for t in terms:
            if isinstance(t, mpc):
                parts.extend(t._mpc_)
            elif isinstance(t, mpf):
                parts.extend((t._mpf_, fzero))
            elif isinstance(t, int):
                parts.extend((from_int(t), fzero))
            else:
                parts.extend(to_mpc(t)._mpc_)
        top = lo = None
        for _, man, e, bc in parts:
            if man:
                if top is None or e + bc > top:
                    top = e + bc
                if lo is None or e < lo:
                    lo = e
            elif e:
                return cls.nonfinite(len(parts) // 2)
        if top is None:
            return cls([0] * (len(parts) // 2), [0] * (len(parts) // 2), 0)
        if top - lo <= grid_cap():
            ints = [(-man if sign else man) << (e - lo) if man else 0
                    for sign, man, e, _ in parts]
            return cls(ints[0::2], ints[1::2], lo)
        coarse = top - grid_cap()
        lo = min(e if e + bc > coarse else coarse
                 for _, man, e, bc in parts if man)
        ints = []
        for sign, man, e, bc in parts:
            if not man:
                v = 0
            elif e + bc > coarse:
                v = man << (e - lo)
            else:
                v = _round_shift(man, coarse - e) << (coarse - lo)
            ints.append(-v if sign else v)
        return cls(ints[0::2], ints[1::2], lo)

    @classmethod
    def from_poly(cls, p) -> "Grid":
        """The polynomial p, a coefficient list or a grid from z^0, on the
        spectral grid (``spectral_depth``), each part rounded to nearest (a
        grid already coarser keeps its own).  A non-finite coefficient
        raises ``ValueError``."""
        g = p if isinstance(p, Grid) else cls.of(p)
        if g.offset:
            raise ValueError(
                f"a polynomial series starts at z^0, not z^{g.offset}")
        if g.exp is None:
            raise ValueError("non-finite coefficient in a series product")
        top = g.top_bit()
        if top is None:
            return g
        return g.to(max(g.exp, top - spectral_depth()))

    @classmethod
    def nonfinite(cls, size: int) -> "Grid":
        return cls([0] * size, [0] * size, None)

    @property
    def top(self) -> int:
        """The largest represented power."""
        return self.offset + len(self.re) - 1

    def top_bit(self):
        """The top bit of the largest part, or None for an all-zero grid."""
        big = max(map(abs, self.re + self.im), default=0)
        return self.exp + big.bit_length() if big else None

    def to(self, exp: int) -> "Grid":
        """The same values on the grid 2^exp, rounded to nearest if it is
        coarser."""
        if self.exp is None or exp == self.exp:
            return self
        if exp < self.exp:
            s = self.exp - exp
            return Grid([v << s for v in self.re], [v << s for v in self.im],
                        exp, self.offset)
        s = exp - self.exp
        return Grid([_round_shift(v, s) for v in self.re],
                    [_round_shift(v, s) for v in self.im], exp, self.offset)

    def __add__(self, other: "Grid") -> "Grid":
        return add_grids([self, other])

    def __neg__(self) -> "Grid":
        return Grid([-v for v in self.re], [-v for v in self.im], self.exp,
                    self.offset)

    def __sub__(self, other: "Grid") -> "Grid":
        return add_grids([self, -other])

    def __mul__(self, other: "Grid") -> "Grid":
        return self.conv(other, 0, len(self) + len(other) - 1)

    def conv(self, other: "Grid", lo: int, hi: int) -> "Grid":
        """The terms c_t z^(offset + t), lo <= t < hi, of the product, with
        offset the sum of the two and c_t = sum_i a_i b_{t-i} in ints.

        Two exact paths, chosen by the operand lengths alone.  When a factor
        has at most ``SHORT_FACTOR`` coefficients, each of its coefficients
        x adds x b to the output window in one slice (``_conv_short``): the
        overhead is per short coefficient.  Otherwise each output term is
        summed on its own from three real sums per complex product (Gauss):
        the overhead is per output term, and the products are fewer.
        """
        if self.exp is None or other.exp is None:
            return Grid.nonfinite(max(hi - lo, 0))
        a, b = (self, other) if len(self) <= len(other) else (other, self)
        kernel = _conv_short if len(a) <= SHORT_FACTOR else _conv_gauss
        re, im = kernel(a.re, a.im, b.re, b.im, lo, hi)
        return Grid(re, im, self.exp + other.exp,
                    self.offset + other.offset + lo)

    def dot(self, other: "Grid", start: int = 0) -> mpc:
        """sum_k a_k b_(start+k) over the coefficients both grids hold
        there (b the other grid's), summed exactly in integers and rounded
        once per part, to nearest at mp.prec.

        This is ``mpmath.fdot``'s value of the same products: fdot forms
        them exactly and sums them with ``mpf_sum``, which drops only terms
        more than 2 prec bits below its running sum, then rounds once.
        """
        if self.exp is None or other.exp is None:
            raise ValueError("non-finite value on an exact grid")
        ar, ai, br, bi = self.re, self.im, other.re[start:], other.im[start:]
        rr, ii = sum(map(mul, ar, br)), sum(map(mul, ai, bi))
        ri, ir = sum(map(mul, ar, bi)), sum(map(mul, ai, br))
        return round_mpc(rr - ii, ri + ir, self.exp + other.exp, mp.prec)

    def mul_poly(self, p, top: int) -> "Grid":
        """Multiply by the polynomial p (``from_poly``), truncating above
        power ``top``."""
        return self.conv(Grid.from_poly(p), 0, max(top - self.offset + 1, 0))

    def shift(self, k: int) -> "Grid":
        """Multiply by z^k (k >= 0)."""
        return Grid([0] * k + self.re, [0] * k + self.im, self.exp,
                    self.offset)

    def diff(self) -> "Grid":
        """The derivative."""
        off = self.offset
        re = [(off + k) * v for k, v in enumerate(self.re)]
        im = [(off + k) * v for k, v in enumerate(self.im)]
        if off:
            return Grid(re, im, self.exp, off - 1)
        return Grid(re[1:] or [0], im[1:] or [0], self.exp)

    def coeff(self, power: int) -> mpc:
        """The coefficient of z^power, rounded to nearest at mp.prec."""
        k = power - self.offset
        if not 0 <= k < len(self.re):
            return mpc(0)
        return round_mpc(self.re[k], self.im[k], self.exp, mp.prec)

    def window(self, lo: int, hi: int) -> list:
        """Coefficients of z^lo .. z^hi as mpc, each rounded once."""
        return [self.coeff(p) for p in range(lo, hi + 1)]

    @property
    def coeffs(self) -> "Rounded":
        return Rounded(self)


class Rounded(Sequence):
    """The coefficients of a grid as a sequence of mpc, each rounded when it
    is read, at the reader's mp.prec (``Grid.coeff``)."""

    def __init__(self, grid: Grid):
        self._grid = grid

    def __len__(self) -> int:
        return len(self._grid)

    def __getitem__(self, k: int) -> mpc:
        return self._grid.coeff(self._grid.offset + range(len(self))[k])


def _common(grids) -> list:
    """The grids on one exponent, the finest of those not all zero, after
    a grid whose largest part lies at or below the cap has gone onto the
    cap's grid; None if one of them is non-finite."""
    exps = [g.exp for g in grids]
    if None in exps:
        return None
    if min(exps) == max(exps):
        return grids
    tops = [g.top_bit() for g in grids]
    if all(t is None for t in tops):
        return [g.to(exps[0]) for g in grids]
    coarse = max(t for t in tops if t is not None) - grid_cap()
    grids = [g.to(coarse) if t is not None and t <= coarse else g
             for g, t in zip(grids, tops)]
    lo = min(g.exp for g, t in zip(grids, tops) if t is not None)
    return [g.to(lo) for g in grids]


def add_grids(grids) -> Grid:
    """The exact sum of the grids, power by power."""
    off = min(g.offset for g in grids)
    size = max(g.offset + len(g) for g in grids) - off
    common = _common(grids)
    if common is None:
        return Grid.nonfinite(size)
    re, im = [0] * size, [0] * size
    for g in common:
        for k, (x, y) in enumerate(zip(g.re, g.im), g.offset - off):
            re[k] += x
            im[k] += y
    return Grid(re, im, common[0].exp, off)


def product(*factors) -> Grid:
    """The exact polynomial product of the factors: scalars (constant
    polynomials), coefficient lists or tuples, or grids."""
    out = None
    for f in factors:
        if not isinstance(f, Grid):
            f = Grid.of(f if isinstance(f, (list, tuple)) else [f])
        out = f if out is None else out * f
    return out


# ---------------------------------------------------------------------------
# residual measures
# ---------------------------------------------------------------------------

def largest_abs(terms) -> mpf:
    """max(abs(t) for t in terms), or 0, with abs() of few terms; +inf if
    a term is not finite.

    Exact squares on one integer grid (``Grid.of``) find the largest term.
    abs() rounds (an mpc's through ``mpf_hypot``, which truncates the square
    to prec + 4 bits first) monotonically in the exact square, so only
    terms whose square is within a relative 2^-prec of the largest can round
    to the maximum: abs() is taken of those alone.
    """
    g = Grid.of(terms)
    if g.exp is None:
        return mpf("inf")
    sq = list(squares(g.re, g.im))
    top, prec = max(sq, default=0), mp.prec
    return max((abs(t) for t, s in zip(terms, sq) if (top - s) << prec <= top),
               default=mpf(0))


def ratio(x, *scales) -> mpf:
    """x / max(scales), a residual against a custom scale, or 0 when every
    scale vanishes; +inf if x or a scale is not finite.

    A non-finite scale (from ``largest_abs``) would otherwise give inf/inf
    = nan, which max() and the comparisons silently drop.
    """
    if not all(map(isfinite, (x,) + scales)):
        return mpf("inf")
    scale = max(scales)
    return x / scale if scale > 0 else mpf(0)


def squares(re: list, im: list):
    """The exact squared magnitudes re[k]^2 + im[k]^2, formed in C; re and
    im are read twice each, so they are sequences, not iterators."""
    return map(add, map(mul, re, re), map(mul, im, im))


def sqrt_ratio(err: int, scale: int, exp: int, floor=0) -> mpf:
    """sqrt(err / max(scale, floor^2)), for the exact squares err and scale
    on the grid 2^exp, rounded once, to nearest at mp.prec."""
    floor = abs_square(floor if isinstance(floor, (int, mpf))
                       else to_mpc(floor))
    scale, sexp = floor if exceeds(floor, (scale, exp)) else (scale, exp)
    if not err:
        return mpf(0)
    if not scale:
        return mpf("inf")
    prec = mp.prec
    # err / scale = (q + a fraction) 2^t, with q of 2 prec + 6 bits or more
    # and t even, so that sqrt(q) has prec + 3 bits and the fraction and
    # the rest of the root only decide a sticky bit
    a = max(0, 2 * prec + 7 - err.bit_length() + scale.bit_length())
    a += (exp - sexp - a) % 2
    q, rest = divmod(err << a, scale)
    r = math.isqrt(q)
    sticky = 1 if rest or r * r != q else 0
    return mp.make_mpf(round_mantissa(2 * r + sticky,
                                      (exp - sexp - a) // 2 - 1, prec))


def rel_residual(terms, floor=0) -> mpf:
    """|sum of terms| / max(|term|.., floor); 0 for no or only zero terms."""
    if not terms:
        return mpf(0)
    g = Grid.of(terms)
    if g.exp is None:
        return mpf("inf")
    re, im = sum(g.re), sum(g.im)
    return sqrt_ratio(re * re + im * im, max(squares(g.re, g.im)),
                      2 * g.exp, floor)


def vector_residual(vectors, floor=0) -> mpf:
    """Largest |sum| over the coefficient positions of vectors summing to
    zero, against their largest |coefficient| or the floor.

    Each vector is a list of scalars, a ``Grid``, or a tuple of factors
    whose polynomial product (``product``) is formed exactly and counts as
    one vector.  Vectors may differ in length.
    """
    if not vectors:
        return mpf(0)
    grids = _common([v if isinstance(v, Grid) else
                     product(*v) if isinstance(v, tuple) else Grid.of(v)
                     for v in vectors])
    if grids is None:
        return mpf("inf")
    total = add_grids(grids)
    scale = max(max(squares(g.re, g.im), default=0) for g in grids)
    return sqrt_ratio(max(squares(total.re, total.im), default=0), scale,
                      2 * total.exp, floor)


def rel_error(got, want, floor=0) -> mpf:
    """|got - want| / max(|want|, floor), inf if that scale is 0 and got is
    not want; over equal-length lists, the worst difference over the largest
    |want|."""
    if not isinstance(want, (list, tuple)):
        got, want = [got], [want]
    elif len(got) != len(want):
        raise ValueError("rel_error needs lists of equal length")
    if not want:
        return mpf(0)
    n = len(want)
    g = Grid.of(list(got) + list(want))
    if g.exp is None:
        return mpf("inf")
    err = max(squares(list(map(sub, g.re[:n], g.re[n:])),
                      list(map(sub, g.im[:n], g.im[n:]))))
    return sqrt_ratio(err, max(squares(g.re[n:], g.im[n:])), 2 * g.exp,
                      floor)
