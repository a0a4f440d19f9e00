"""Weight data for the regular semi-classical class on the unit circle.

A weight in this class has logarithmic derivative 2V(z)/W(z) with
W(z) = prod_j (z - z_j) built from distinct singular points z_j and residues
rho_j = 2V(z_j)/W'(z_j) that are never nonnegative integers.  Two placements
are supported:

* ``canonical``: z_0 = 0 and z_{M-1} = 1 are present, the remaining N = M - 2
  points t_1..t_N are the deformation variables;
* ``general``: any list of distinct points.

Construction happens in exact Gaussian-rational arithmetic so the coefficient
vectors of W and 2V (and the symmetric-function data e_l, m_l) do not depend
on expansion order; floating images are derived afterwards at the working
precision.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mp, mpf, mpc

from .errors import ConfigInvalid
from .exact import QC
from .mputil import parse_exact
from .polys import pdiff, peval
from .record import FrozenRecord, Memo


class WeightData(Memo, FrozenRecord):
    """Validated singularity/residue data, immutable after construction;
    its mpc images are formed once per working precision (``memo``)."""

    _fields = ("singularities", "residues", "placement")

    def __init__(self, singularities: tuple, residues: tuple,
                 placement: str):
        self._init(singularities=singularities,     # QC values, ordered
                   residues=residues,      # QC values, aligned with them
                   placement=placement,    # 'canonical' | 'general'
                   _memo={})

    @property
    def M(self) -> int:
        """Number of finite singularities."""
        return len(self.singularities)

    @property
    def N(self) -> int:
        """Number of free (deformation) singularities in canonical placement."""
        return self.M - 2

    @property
    def free_singularities(self) -> tuple:
        """Canonical placement: the t_j between 0 and 1 in the ordering."""
        return self.singularities[1:-1]

    def _mpc(self) -> tuple:
        return self.memo("mpc", lambda: (
            tuple(s.to_mpc() for s in self.singularities),
            tuple(r.to_mpc() for r in self.residues)))

    def singularities_mpc(self):
        return list(self._mpc()[0])

    def residues_mpc(self):
        return list(self._mpc()[1])


class PolyPair(Memo, FrozenRecord):
    """Coefficient data of W and 2V plus their symmetric-function vectors.

    ``e[l]`` are the elementary symmetric functions of all singularities
    (so e_M = 0 whenever the origin is singular) entering W with alternating
    signs, and ``m[l]`` are the coefficients of 2V in the matching
    convention:  [z^(M-l)] W = (-1)^l e_l,  [z^(M-1-l)] 2V = (-1)^l m_l.

    The mpc images (``W_mpc`` ...) and any other data derived from the pair
    are formed once per working precision (``memo``); each image call
    returns a fresh list.
    """

    _fields = ("weight", "W", "V2", "e", "m")

    def __init__(self, weight: WeightData, W: tuple, V2: tuple, e: tuple,
                 m: tuple):
        self._init(weight=weight,
                   W=W,        # exact QC coefficients, ascending, degree M
                   V2=V2,      # exact QC coefficients of 2V, degree <= M-1
                   e=e,        # e_0..e_M
                   m=m,        # m_0..m_{M-1}
                   _memo={})

    @property
    def M(self) -> int:
        return self.weight.M

    @property
    def N(self) -> int:
        return self.weight.N

    def _mpc(self) -> tuple:
        return self.memo("mpc", lambda: tuple(
            tuple(c.to_mpc() for c in vec)
            for vec in (self.W, self.V2, self.e, self.m)))

    def W_mpc(self):
        return list(self._mpc()[0])

    def V2_mpc(self):
        return list(self._mpc()[1])

    def e_mpc(self):
        return list(self._mpc()[2])

    def m_mpc(self):
        return list(self._mpc()[3])


def _is_nonneg_int(rho: QC) -> bool:
    return rho.im == 0 and rho.re.denominator == 1 and rho.re >= 0


def is_negative_int(rho: QC) -> bool:
    """A residue -q with q a positive integer: a pole of order q."""
    return rho.im == 0 and rho.re.denominator == 1 and rho.re < 0


def build_weight(singularities, residues, placement: str = "canonical",
                 validate: bool = True) -> WeightData:
    """Validate and freeze weight data.

    Inputs may be ints, Fractions, '3/8' strings, floats or [re, im] pairs;
    they are stored exactly.
    """
    if len(singularities) != len(residues):
        raise ValueError("singularities and residues must have equal length")
    zs = tuple(parse_exact(z) for z in singularities)
    rs = tuple(parse_exact(r) for r in residues)
    if placement not in ("canonical", "general"):
        raise ValueError(f"unknown placement {placement!r}")
    w = WeightData(zs, rs, placement)
    if not validate:
        return w
    if w.M < 2:
        raise ValueError("regular class needs at least two singularities")
    for i in range(w.M):
        for j in range(i + 1, w.M):
            if zs[i] == zs[j]:
                raise ConfigInvalid(
                    f"singularities {i} and {j} coincide")
    for j, rho in enumerate(rs):
        if _is_nonneg_int(rho):
            raise ConfigInvalid(
                f"residue {j} = {rho.re} is a nonnegative integer")
    if placement == "canonical":
        if zs[0] != QC(0):
            raise ConfigInvalid("canonical placement needs z_0 = 0")
        if zs[-1] != QC(1):
            raise ConfigInvalid("canonical placement needs z_last = 1")
        if rs[0] == QC(0):
            raise ConfigInvalid("canonical placement needs rho_0 != 0")
    return w


def build_poly_pair(weight: WeightData) -> PolyPair:
    """Expand W = prod (z - z_j) and 2V = W * sum rho_j/(z - z_j) exactly.

    The work is in Gaussian integers.  With D the common denominator of the
    singularities, Z_j = D z_j, the product P(u) = prod (u - Z_j) is
    D^M W(u/D), and its quotient by u - Z_j (exact integer synthetic
    division, O(M) per singularity) is D^(M-1) W/(z - z_j) at z = u/D.
    With R the common denominator of the residues, r_j = R rho_j, so

        W_k = P_k / D^(M-k),   (2V)_k = sum_j r_j Q_{j,k} / (R D^(M-1-k)),

    one Fraction per part of each coefficient.  e and m take their signs
    from the parity of l.
    """
    zs, rhos, M = weight.singularities, weight.residues, weight.M
    D = math.lcm(*(x.denominator for z in zs for x in (z.re, z.im)))
    R = math.lcm(*(x.denominator for r in rhos for x in (r.re, r.im)))
    roots = [(z.re.numerator * (D // z.re.denominator),
              z.im.numerator * (D // z.im.denominator)) for z in zs]
    pr, pi = [1], [0]                      # P, ascending
    for zr, zi in roots:                   # P (u - Z)
        nr, ni = [0] + pr, [0] + pi
        for k, (x, y) in enumerate(zip(pr, pi)):
            nr[k] -= zr * x - zi * y
            ni[k] -= zr * y + zi * x
        pr, pi = nr, ni
    sr, si = [0] * M, [0] * M              # R D^(M-1-k) (2V)_k
    for (zr, zi), rho in zip(roots, rhos):
        rr = rho.re.numerator * (R // rho.re.denominator)
        ri = rho.im.numerator * (R // rho.im.denominator)
        qr, qi = pr[M], pi[M]              # Q = P / (u - Z), from the top
        for k in range(M - 1, -1, -1):
            sr[k] += rr * qr - ri * qi
            si[k] += rr * qi + ri * qr
            qr, qi = pr[k] + zr * qr - zi * qi, pi[k] + zr * qi + zi * qr
    W = tuple(QC(Fraction(x, D ** (M - k)), Fraction(y, D ** (M - k)))
              for k, (x, y) in enumerate(zip(pr, pi)))
    V2 = tuple(QC(Fraction(x, R * D ** (M - 1 - k)),
                  Fraction(y, R * D ** (M - 1 - k)))
               for k, (x, y) in enumerate(zip(sr, si)))
    e = tuple(-W[M - l] if l % 2 else W[M - l] for l in range(M + 1))
    m = tuple(-V2[M - 1 - l] if l % 2 else V2[M - 1 - l] for l in range(M))
    return PolyPair(weight, W, V2, e, m)


def residue_identity_defect(pair: PolyPair, j: int) -> QC:
    """Exact value of 2V(z_j) - rho_j W'(z_j); zero for consistent data."""
    z = pair.weight.singularities[j]
    wp = peval(pdiff(list(pair.W)), z)
    return peval(list(pair.V2), z) - pair.weight.residues[j] * wp


# ---------------------------------------------------------------------------
# evaluation on the circle with continuous branch tracking
# ---------------------------------------------------------------------------

def _factor_log(z_j: mpc, theta: mpf, p0: mpf):
    """log of (e^(i theta) - z_j) with the argument continued from theta = 0.

    Closed-form unwinding: for |z_j| < 1 the argument is strictly increasing
    in theta (one full turn per circuit), for |z_j| > 1 it stays within less
    than pi of its start, and for |z_j| = 1 the chord formula gives the
    argument explicitly on the arc following the singular angle.
    """
    az = abs(z_j)
    if az == 1:
        alpha = mpmath.arg(z_j)
        th = theta if theta > alpha else theta + 2 * mp.pi
        s = 2 * mpmath.sin((th - alpha) / 2)
        return mpmath.log(s) + mpc(0, 1) * ((th + alpha) / 2 + mp.pi / 2)
    u = mpmath.exp(mpc(0, 1) * theta) - z_j
    p = mpmath.arg(u)
    if az < 1:
        phi = p if p >= p0 else p + 2 * mp.pi
    else:
        k = mpmath.nint((p0 - p) / (2 * mp.pi))
        phi = p + 2 * mp.pi * k
    return mpmath.log(abs(u)) + mpc(0, 1) * phi


def weight_on_circle(weight: WeightData, theta) -> mpc:
    """w(e^(i theta)) for a generalised-Jacobi weight, continuous in theta.

    Branches start from principal values at theta = 0+ and are continued
    along the contour, so the result is single-valued iff the weight is.
    """
    theta = mpf(theta)
    total = mpc(0)
    for z, rho in zip(weight.singularities_mpc(), weight.residues_mpc()):
        if z == 0:
            total += rho * mpc(0, 1) * theta
            continue
        if abs(z) == 1 and theta == mpmath.arg(z) % (2 * mp.pi):
            # sitting exactly on the singular point
            if mpmath.re(rho) > 0:
                return mpc(0)
            raise ConfigInvalid("evaluation at a non-integrable circle point")
        p0 = mpmath.arg(1 - z) if abs(z) != 1 else mpf(0)
        total += rho * _factor_log(z, theta, p0)
    return mpmath.exp(total)


def winding_phase(weight: WeightData) -> mpc:
    """Phase factor picked up across the contour seam at z = 1.

    Only strictly interior singularities contribute (a full turn of their
    residue each).  Branch points on the circle are zeros of W, so the
    integrand W w vanishes there and they never produce boundary terms: they
    do not enter the closure condition.
    """
    total = mpc(0)
    for z, rho in zip(weight.singularities_mpc(), weight.residues_mpc()):
        if abs(z) < 1:
            total += rho * 2 * mp.pi
    return mpmath.exp(mpc(0, 1) * total)


def single_valuedness_defect(weight: WeightData) -> mpf:
    """|phase factor - 1|; zero exactly when one circuit closes up."""
    return abs(winding_phase(weight) - 1)


def seam_shielded(weight: WeightData) -> bool:
    """True when z = 1 is itself singular, so the seam carries no boundary
    terms regardless of the winding phase (the canonical situation)."""
    return any(z == QC(1) for z in weight.singularities)


def eval_weight_on_circle(weight: WeightData, theta) -> mpc:
    """Continuous-branch evaluation of an integrable weight.

    The circle-singular residues must satisfy Re rho > -1 for the contour
    integral to exist; this is checked here because only the quadrature path
    calls this routine.  Single-valuedness is the caller's to check
    (``single_valuedness_defect``).
    """
    for z, rho in zip(weight.singularities_mpc(), weight.residues_mpc()):
        if abs(z) == 1 and mpmath.re(rho) <= -1:
            raise ConfigInvalid(
                "circle singularity with Re rho <= -1 is not integrable")
    return weight_on_circle(weight, theta)
