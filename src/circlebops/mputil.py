"""Arbitrary-precision helpers shared by the whole pipeline.

Everything numerical runs on mpmath under a caller-chosen binary precision.
This module centralises: precision management, conversion of heterogeneous
inputs (ints, floats, Fractions, '3/8' strings, [re, im] pairs, QC) to mpc,
dense complex LU decomposition for determinants and Toeplitz solves, and
deterministic pseudo-random sample points.  Residual measures live in
``report``.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
import random

import mpmath
from mpmath import mp, mpf, mpc
from mpmath.libmp import from_int

from .errors import Degenerate
from .exact import QC
from .plan import GUARD_BITS


@contextmanager
def working_precision(bits: int):
    """Run a block at the given binary precision (>= 53)."""
    if bits < 53:
        raise ValueError("working precision below 53 bits is not supported")
    with mp.workprec(bits):
        yield


def guarded():
    """Context manager adding the guard bits to the caller's precision (the
    dense-LU and pairing references of ``bops``)."""
    return mp.extraprec(GUARD_BITS)


def to_mpc(x) -> mpc:
    """Coerce supported scalar encodings to mpc at current precision.

    An exact encoding (a QC, a Fraction, a fraction string or an [re, im]
    pair of them) is rounded once per part, from its exact value.
    """
    if isinstance(x, mpc):
        return x
    if isinstance(x, (QC, Fraction, str, list, tuple)):
        return parse_exact(x).to_mpc()
    if isinstance(x, complex):
        return mpc(x.real, x.imag)
    return mpc(x)


def parse_exact(x) -> QC:
    """Parse a scalar encoding into an exact QC.

    Accepts ints, Fractions, fraction strings, [re, im] pairs of the same,
    and floats (which are taken at their exact binary value); anything
    else raises ``Fraction``'s TypeError or ValueError.
    """
    if isinstance(x, QC):
        return x
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return QC(*x)
    return QC(x)


def abs_square(t) -> tuple:
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


def exceeds(x: tuple, y: tuple) -> bool:
    """m 2^e > m' 2^e' for the pairs x = (m, e), y = (m', e'), m, m' >= 0,
    exactly."""
    (m1, e1), (m2, e2) = x, y
    if not m1 or not m2:
        return m1 > m2
    t1, t2 = m1.bit_length() + e1, m2.bit_length() + e2
    if t1 != t2:
        return t1 > t2
    e = min(e1, e2)
    return m1 << (e1 - e) > m2 << (e2 - e)


# ---------------------------------------------------------------------------
# dense complex linear algebra (lists of lists of mpc)
# ---------------------------------------------------------------------------

def _eliminate(a, width: int):
    """Forward elimination with partial pivoting, in place, on the n rows
    of ``a`` over their first ``width`` columns (n, or n + 1 with a
    right-hand side); the pivots end on the diagonal.  Returns the number
    of row swaps, or None when a pivot vanishes outright."""
    n = len(a)
    swaps = 0
    for k in range(n):
        piv, pval = k, abs(a[k][k])
        for i in range(k + 1, n):
            m = abs(a[i][k])
            if m > pval:
                piv, pval = i, m
        if pval == 0:
            return None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            swaps += 1
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f != 0:
                row_i, row_k = a[i], a[k]
                for j in range(k + 1, width):
                    row_i[j] -= f * row_k[j]
    return swaps


def lu_det(rows) -> mpc:
    """Determinant via LU with partial pivoting.  Empty matrix gives 1."""
    a = [[to_mpc(v) for v in r] for r in rows]
    swaps = _eliminate(a, len(a))
    if swaps is None:
        return mpc(0)
    # a sign flip is exact, so the product may take all of them up front
    det = mpc(-1 if swaps % 2 else 1)
    for k in range(len(a)):
        det *= a[k][k]
    return det


def lu_solve(rows, rhs):
    """Solve a dense complex system; raises if a pivot vanishes outright."""
    n = len(rows)
    a = [[to_mpc(v) for v in r] + [to_mpc(rhs[i])] for i, r in enumerate(rows)]
    if _eliminate(a, n + 1) is None:
        raise Degenerate("singular linear system")
    x = [mpc(0)] * n
    for i in range(n - 1, -1, -1):
        s = a[i][n]
        for j in range(i + 1, n):
            s -= a[i][j] * x[j]
        x[i] = s / a[i][i]
    return x


# ---------------------------------------------------------------------------
# sample points and root matching
# ---------------------------------------------------------------------------

def sample_points(count: int, avoid, seed: int):
    """Deterministic points on the circle |z| = 1.37, redrawn away from
    ``avoid``.

    The radius is an arbitrary but frozen choice off the unit circle; points
    within 1e-6 of a singularity or root are replaced deterministically.
    Distances are compared as exact squares.
    """
    rng = random.Random(seed)
    avoid = [to_mpc(a) for a in avoid]
    pts = []
    r = mpf(1.37)
    two_pi = 2 * mp.pi
    near = abs_square(mpf(1e-6))
    while len(pts) < count:
        theta = mpf(rng.random()) * two_pi
        z = r * mpmath.exp(mpc(0, 1) * theta)
        if all(exceeds(abs_square(z - a), near) for a in avoid):
            pts.append(z)
    return pts


def match_roots(reference, perturbed):
    """Pair each reference root with its nearest perturbed partner.

    Keeps labels stable across a perturbed recomputation (sorting would swap
    them).  Raises if the assignment is not clearly one-to-one: when the
    nearest partner is more than a quarter as far as the second nearest.
    """
    if len(reference) != len(perturbed):
        raise Degenerate("root sets differ in size")
    remaining = list(range(len(perturbed)))
    out = []
    for q in reference:
        dists = sorted(remaining, key=lambda i: abs(perturbed[i] - q))
        best = dists[0]
        if len(dists) > 1:
            d0 = abs(perturbed[best] - q)
            d1 = abs(perturbed[dists[1]] - q)
            if d1 > 0 and d0 / d1 > 0.25 and d0 > 0:
                raise Degenerate(
                    f"ambiguous pairing near {q}: {d0} vs {d1}")
        out.append(perturbed[best])
        remaining.remove(best)
    return out
