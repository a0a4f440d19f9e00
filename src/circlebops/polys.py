"""Dense polynomial and truncated-series arithmetic.

Coefficient lists are ascending in the variable.  The polynomial helpers are
written against bare field operations (+, -, *, /) so the same code runs over
exact Gaussian rationals and over mpc.

``OffsetSeries`` models a truncated expansion  sum_k c[k] z^(offset+k)  used
for the associated functions, whose expansions start at a level-dependent
power.  Its products are mpc-only: ``mul_poly`` is one call of
``conv_fixed``, which turns each operand into Python-int mantissas on one
shared binary grid, multiplies and accumulates in ints and rounds each
output once.  Accuracy rule: an input coefficient is carried to
2^-(prec+16) of the largest coefficient of its vector, so an output is
accurate to about len 2^-(prec+16) max|a| max|b|, plus its final rounding to
the working precision.  A coefficient far below its vector's largest keeps
only the digits above that grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, fzero, round_nearest

from .mputil import to_mpc


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
# truncated series with an offset
# ---------------------------------------------------------------------------

@dataclass
class OffsetSeries:
    """Truncated series  sum_k coeffs[k] * z^(offset + k)."""

    offset: int
    coeffs: list

    @property
    def top(self) -> int:
        """Largest represented power."""
        return self.offset + len(self.coeffs) - 1

    def coeff(self, power: int):
        k = power - self.offset
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0 * self.coeffs[0] if self.coeffs else 0

    def diff(self) -> "OffsetSeries":
        c = [(self.offset + k) * v for k, v in enumerate(self.coeffs)]
        if self.offset == 0:
            return OffsetSeries(0, c[1:] if len(c) > 1 else [0 * self.coeffs[0]])
        return OffsetSeries(self.offset - 1, c)

    def mul_poly(self, p, top: int) -> "OffsetSeries":
        """Multiply by a polynomial, truncating above power ``top``."""
        return OffsetSeries(self.offset, conv_fixed(
            self.coeffs, p, 0, max(top - self.offset + 1, 0)))

    def add(self, other: "OffsetSeries") -> "OffsetSeries":
        off = min(self.offset, other.offset)
        top = max(self.top, other.top)
        out = [0] * (top - off + 1)
        for k, v in enumerate(self.coeffs):
            out[self.offset - off + k] = out[self.offset - off + k] + v
        for k, v in enumerate(other.coeffs):
            out[other.offset - off + k] = out[other.offset - off + k] + v
        return OffsetSeries(off, out)

    def scale(self, s) -> "OffsetSeries":
        return OffsetSeries(self.offset, [c * s for c in self.coeffs])

    def window(self, lo: int, hi: int):
        """Coefficients of z^lo .. z^hi as a plain list."""
        return [self.coeff(p) for p in range(lo, hi + 1)]


# ---------------------------------------------------------------------------
# mpc-facing helpers
# ---------------------------------------------------------------------------

def pmax_abs(p) -> mpf:
    return max((abs(to_mpc(c)) for c in p), default=mpf(0))


# extra bits of the shared integer grid below a vector's largest coefficient
CONV_GUARD_BITS = 16


def _on_grid(vec, bits: int):
    """(re, im, exp): Python-int mantissas of ``vec`` on the grid 2^exp.

    ``exp`` sits ``bits`` below the top bit of the largest real or imaginary
    part; each part is rounded to the nearest grid point.  Returns None for
    an empty or all-zero vector.
    """
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


def conv_fixed(a, b, lo: int, hi: int) -> list:
    """c_t = sum_i a_i b_{t-i} for lo <= t < hi, as mpc.

    Both vectors go onto their own shared integer grid, mp.prec + 16 bits
    below their largest coefficient (``_on_grid``); every output is
    accumulated exactly in ints (three real sums per complex product) and
    rounded once to nearest at mp.prec.
    """
    if hi <= lo:
        return []
    zero = mpc(0)
    bits = mp.prec + CONV_GUARD_BITS
    ga, gb = _on_grid(a, bits), _on_grid(b, bits)
    if ga is None or gb is None:
        return [zero] * (hi - lo)
    ar, ai, ea = ga
    br, bi, eb = gb
    asum = list(map(add, ar, ai))
    # b reversed, so that b_{t-i} over ascending i is a forward slice
    br, bi, bsum = br[::-1], bi[::-1], list(map(add, br, bi))[::-1]
    la, lb = len(ar), len(br)
    exp, prec = ea + eb, mp.prec
    make = mp.make_mpc
    out = []
    for t in range(lo, hi):
        i0, i1 = max(0, t - lb + 1), min(la, t + 1)
        if i0 >= i1:
            out.append(zero)
            continue
        j0 = lb - 1 - t + i0
        j1 = j0 + i1 - i0
        rr = sum(map(mul, ar[i0:i1], br[j0:j1]))
        ii = sum(map(mul, ai[i0:i1], bi[j0:j1]))
        ss = sum(map(mul, asum[i0:i1], bsum[j0:j1]))
        out.append(make((from_man_exp(rr - ii, exp, prec, round_nearest),
                         from_man_exp(ss - rr - ii, exp, prec,
                                      round_nearest))))
    return out
