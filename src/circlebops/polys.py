"""Dense polynomial and truncated-series arithmetic.

Coefficient lists are ascending in the variable.  The helpers are written
against bare field operations (+, -, *, /) so the same code runs over exact
Gaussian rationals and over mpc; nothing here touches mpmath directly except
the residual-oriented utilities at the bottom.

``OffsetSeries`` models a truncated expansion  sum_k c[k] z^(offset+k)  used
for the associated functions, whose expansions start at a level-dependent
power.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mpf

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
        p = list(p)
        off = self.offset
        out = [0] * (top - off + 1) if top >= off else []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            pw = off + i
            if pw > top:
                break
            for j, q in enumerate(p):
                t = pw + j
                if t > top:
                    break
                if q:
                    out[t - off] = out[t - off] + c * q
        return OffsetSeries(off, out)

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
