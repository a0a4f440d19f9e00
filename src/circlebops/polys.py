"""Dense polynomial and truncated-series arithmetic.

Coefficient lists are ascending in the variable.  The polynomial helpers are
written against bare field operations (+, -, *, /) so the same code runs over
exact Gaussian rationals and over mpc.

``OffsetSeries`` is ``report.Grid``, the one exact integer-mantissa type,
under the name the spectral path gives a truncated expansion
sum_k c[k] z^(offset+k) (the associated functions start at a
level-dependent power); ``report`` states its spectral policy and accuracy
rule.  ``conv_fixed`` is a window of the product of two vectors, each on
its spectral grid (``Grid.from_poly``).

``peval_grid`` evaluates a polynomial held exactly on a ``Grid`` at a point
by Horner's rule in integers, and rounds the real and imaginary parts of
the exact value once each (``Grid.coeff``); the checks' point tables use
it.  ``peval`` remains the field-generic evaluator (root polishing, exact
Gaussian rationals).
"""

from __future__ import annotations

from mpmath import mpc, mpf

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
    nearest at mp.prec (``Grid.coeff``).
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
    return Grid([re], [im], g.exp + d * ez).coeff(0)


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

# The spectral path's name for a series: ``report.Grid`` itself, which
# perfbench/layers.py wraps (``mul_poly``) and reads under this name.
OffsetSeries = Grid


def conv_fixed(a, b, lo: int, hi: int) -> Grid:
    """c_t = sum_i a_i b_{t-i} for lo <= t < hi, as the series
    sum_t c_t z^t from z^lo.

    Both vectors go onto their spectral grids, mp.prec + 16 bits below
    their largest coefficient (``Grid.from_poly``); the sums are exact.
    """
    return Grid.from_poly(a).conv(Grid.from_poly(b), lo, hi)
