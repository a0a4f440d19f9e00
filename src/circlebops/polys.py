"""Dense polynomial and truncated-series arithmetic.

Coefficient lists are ascending in the variable.  The polynomial helpers are
written against bare field operations (+, -, *, /) with int literals, so the
same code runs over exact Gaussian rationals and over mpc, as the level maps
of ``discrete_garnier`` do.

``OffsetSeries`` is ``report.Grid``, the one exact integer-mantissa type,
under the name the spectral path gives a truncated expansion
sum_k c[k] z^(offset+k) (the associated functions start at a
level-dependent power); ``report`` states its spectral policy and accuracy
rule.

``peval_grid`` evaluates a polynomial held exactly on a ``Grid`` at a point
by Horner's rule in integers, and rounds the real and imaginary parts of
the exact value once each (``Grid.coeff``); the checks' point tables use
it.  ``peval`` remains the field-generic evaluator (root polishing, exact
Gaussian rationals).
"""

from __future__ import annotations

from mpmath import mp, mpc, mpf

from .exact import round_mpc
from .mputil import to_mpc
from .plan import grid_cap
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
    nearest at mp.prec, as ``Grid.coeff`` rounds.  z goes onto its grid
    as ``Grid.of([z])`` puts it; that call itself runs only in the cap
    case, where z's parts lie so far apart that the smaller is rounded.
    """
    z = to_mpc(z)
    (s1, m1, e1, b1), (s2, m2, e2, b2) = z._mpc_
    if g.exp is None or (not m1 and e1) or (not m2 and e2):
        return mpc(mpf("nan"), mpf("nan"))
    if m1 and m2 and abs(e1 + b1 - e2 - b2) >= grid_cap():
        zg = Grid.of([z])
        zr, zi, ez = zg.re[0], zg.im[0], zg.exp
    else:
        ez = min(e1 if m1 else e2, e2 if m2 else e1)
        zr = (-m1 if s1 else m1) << (e1 - ez) if m1 else 0
        zi = (-m2 if s2 else m2) << (e2 - ez) if m2 else 0
    if ez > 0:
        zr, zi, ez = zr << ez, zi << ez, 0
    # sum_k c_k z^k 2^(-d ez) = Horner over c_k 2^((d-k)(-ez)), d = deg
    re, im, d = g.re[-1], g.im[-1], len(g) - 1
    for k in range(d - 1, -1, -1):
        s = (d - k) * -ez
        re, im = (re * zr - im * zi + (g.re[k] << s),
                  re * zi + im * zr + (g.im[k] << s))
    return round_mpc(re, im, g.exp + d * ez, mp.prec)


def pdiv_exact_linear(a, root):
    """The quotient of the synthetic division by (z - root), for a remainder
    known to vanish up to rounding."""
    q = [0] * (len(a) - 1)
    acc = a[-1]
    for k in range(len(a) - 2, -1, -1):
        q[k] = acc
        acc = a[k] + acc * root
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

