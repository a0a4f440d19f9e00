"""Two-sided moment sequences of semi-classical circle weights.

The Fourier coefficients w_k of a weight with logarithmic derivative 2V/W
satisfy the linear difference equation

    sum_k g_k(j) w_{j-k} = 0,      g_k(j) = (k - j) W_k + (2V)_{k-1},

obtained from exactness of d/dz [ z^{-j} W w ] under the contour integral
(W_k, (2V)_k are ascending coefficients; the (2V) term is absent at k = 0).
When the origin is singular W_0 = 0 and the equation shortens by one order,
leaving M - 1 free seed values; otherwise the order is M.

A sequence puts the exact W and 2V on one common denominator D once
(``integer_rows``), so the row at j is D g_k(j) = a_k - j b_k with a_k,
b_k Gaussian integers; the equation is homogeneous and D cancels from each
step.  A step then refuses a pivot at or below its relative floor,
|g_pivot| <= floor max_k |g_k|, compared as exact integer squares, forms
the sum of the row against the window as one exact dot product in
integers, and divides once, rounding each part of the quotient once at the
sequence's precision (``exact.round_rational``).  The exact
(Gaussian-rational) path uses the same integer rows.

``from_seeds`` populates a sequence from M - 1 (or M) consecutive seed
values and runs the recurrence in both directions.  In formal mode the
seeds are arbitrary; in quadrature mode they are contour integrals of an
honest single-valued weight, ``moment_quadrature``.

Weights whose residues are all negative integers have moments that are
finite residue sums, ``rational_weight_moments``;
``deform.rational_workspace`` seeds a sequence from them, evaluated at the
sequence's precision, for the deformation checks.  The
sums are exact in Gaussian integers, and each moment is rounded once
(``exact.round_rational``).  Per
pole on or outside the circle, the constant and the local Taylor series of
the other factors do not depend on k and are formed once; each k then
costs O(q) with an exact integer binomial.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mp, mpf, mpc

from .errors import ConfigInvalid, NonConvergent, SingularStep
from .exact import QC, round_rational
from .mputil import to_mpc
from .plan import Plan
from .polys import padd, pdiff, peval, pmul, pscale
from .record import FrozenRecord, Record
from .report import Grid, rel_residual
from .weights import PolyPair, WeightData, eval_weight_on_circle, \
    is_negative_int, seam_shielded, single_valuedness_defect

# relative pivot floors for recurrence steps
BACKWARD_PIVOT_FLOOR = 1e-3
FORWARD_PIVOT_FLOOR = 1e-12
# grid doublings of the trapezoid rule before a moment is given up
QUADRATURE_MAX_LEVEL = 16


def integer_rows(pair: PolyPair) -> tuple:
    """(D, a, b): the rows of the difference equation on one denominator.

    D is the least common denominator of the exact coefficients of W and
    2V, and D g_k(j) = a_k - j b_k with a_k = k D W_k + D (2V)_{k-1} and
    b_k = D W_k Gaussian integers, each given as its (re, im) int lists.
    The equation is homogeneous, so D cancels from every step.
    """
    D = math.lcm(*(x.denominator for c in pair.W + pair.V2
                   for x in (c.re, c.im)))

    def scaled(parts):
        return [int(x * D) for x in parts]

    br, bi = scaled(c.re for c in pair.W), scaled(c.im for c in pair.W)
    vr = [0] + scaled(c.re for c in pair.V2)
    vi = [0] + scaled(c.im for c in pair.V2)
    return (D, [k * b + v for k, (b, v) in enumerate(zip(br, vr))],
            [k * b + v for k, (b, v) in enumerate(zip(bi, vi))], br, bi)


def recurrence_row(pair: PolyPair, j) -> list:
    """Coefficients g_0..g_M of the difference equation at index j, exactly
    over Gaussian rationals, from the integer rows."""
    D, ar, ai, br, bi = integer_rows(pair)
    return [QC(Fraction(x - j * u, D), Fraction(y - j * v, D))
            for x, y, u, v in zip(ar, ai, br, bi)]


def free_moments(singularities) -> int:
    """How many consecutive moments the difference equation leaves free:
    M - 1 when the origin is among the (exact) singularities, M otherwise."""
    M = len(singularities)
    return M if all(singularities) else M - 1


def _rounded_quotient(terms, pr: int, pi: int) -> mpc:
    """-(sum_k g_k v_k) / (pr + i pi) for Gaussian-integer g_k and mpc v_k.

    The sum is exact in integers, on the finest binary exponent of the
    v_k; the quotient N / p = N conj(p) / |p|^2 is then rounded once per
    part, to nearest at mp.prec (``round_rational``).  A non-finite v_k
    raises ``ValueError``.
    """
    parts = [(gr, gi, *v._mpc_) for gr, gi, v in terms]
    fields = [f for *_, x, y in parts for f in (x, y)]
    if any(not man and e for _, man, e, _ in fields):     # inf or nan
        raise ValueError("non-finite moment in a recurrence step")
    lo = min((e for _, man, e, _ in fields if man), default=0)
    sr = si = 0
    for gr, gi, (s1, m1, e1, _), (s2, m2, e2, _) in parts:
        x = (-m1 if s1 else m1) << (e1 - lo) if m1 else 0
        y = (-m2 if s2 else m2) << (e2 - lo) if m2 else 0
        sr += gr * x - gi * y
        si += gr * y + gi * x
    den, prec = pr * pr + pi * pi, mp.prec
    return mp.make_mpc((round_rational(-(sr * pr + si * pi), den, prec, lo),
                        round_rational(sr * pi - si * pr, den, prec, lo)))


class MomentSequence(Record):
    """Contiguous window of moments with its generating recurrence.

    The precision ``plan`` is fixed when the sequence is built, from the
    working precision then in force.  Every moment the recurrence adds is
    computed at its sequence precision ``prec``, whoever asks, and the
    oracle over the sequence adopts it.  A sequence whose values are all QC
    is exact: its recurrence runs with no rounding.  The kind is read once,
    from the values it is built with.
    """

    _fields = ("pair", "values", "provenance", "plan")

    def __init__(self, pair: PolyPair, values: dict,
                 provenance: str = "seeded"):
        self.pair = pair
        self.values = values
        self.provenance = provenance
        self.plan = Plan.of(mp.prec)
        self._exact = bool(values) and all(isinstance(v, QC)
                                           for v in values.values())
        self._rows = integer_rows(pair)
        self._forward_pivot = pair.M - free_moments(pair.weight.singularities)

    @property
    def prec(self) -> int:
        return self.plan.sequence

    @property
    def k_min(self) -> int:
        return min(self.values)

    @property
    def k_max(self) -> int:
        return max(self.values)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_seeds(cls, pair: PolyPair, start: int, seeds) -> "MomentSequence":
        """The sequence with the seeds at start, start + 1, ..: exact when
        every seed is a QC; otherwise each is coerced with ``to_mpc``."""
        order = free_moments(pair.weight.singularities)
        if len(seeds) != order:
            raise ValueError(
                f"the difference equation leaves exactly {order} consecutive "
                f"moments free, got {len(seeds)} seeds")
        if not all(isinstance(v, QC) for v in seeds):
            seeds = [to_mpc(v) for v in seeds]
        return cls(pair, dict(enumerate(seeds, start)), provenance="seeded")

    # -- access / extension --------------------------------------------------

    def w(self, k: int):
        if k not in self.values:
            self.extend(k, k)
        return self.values[k]

    def extend(self, kmin: int, kmax: int) -> None:
        """Grow the window by recurrence steps (never recomputes seeds)."""
        with mp.workprec(self.prec):
            while self.k_max < kmax:
                self._step_forward()
            while self.k_min > kmin:
                self._step_backward()

    def _step_forward(self) -> None:
        top, pivot = self.k_max + 1, self._forward_pivot
        self.values[top] = self._solve(top + pivot, pivot, FORWARD_PIVOT_FLOOR)

    def _step_backward(self) -> None:
        bot = self.k_min - 1
        M = self.pair.M
        self.values[bot] = self._solve(bot + M, M, BACKWARD_PIVOT_FLOOR)

    def _solve(self, j: int, pivot: int, floor: float):
        """The moment w_{j-pivot} from sum_k g_k(j) w_{j-k} = 0, on the
        integer row D g_k(j) = a_k - j b_k.

        A float sequence refuses a pivot with |g_pivot| <= floor max_k |g_k|,
        compared as exact squares; an exact one refuses only a zero pivot.
        """
        D, ar, ai, br, bi = self._rows
        row = [(x - j * u, y - j * v) for x, y, u, v in zip(ar, ai, br, bi)]
        pr, pi = row[pivot]
        if self._exact:
            if not (pr or pi):
                raise SingularStep("exact resonance: pivot vanished",
                                   index=j, factor=f"g_{pivot}", value=0)
        else:
            num, den = floor.as_integer_ratio()
            if (pr * pr + pi * pi) * den * den <= \
                    max(x * x + y * y for x, y in row) * num * num:
                raise SingularStep(
                    f"resonant step at j={j}: pivot g_{pivot} below floor",
                    index=j, factor=f"g_{pivot}",
                    value=QC(Fraction(pr, D), Fraction(pi, D)))
        terms = []
        for k, (x, y) in enumerate(row):
            if k == pivot or not (x or y):
                continue
            if j - k not in self.values:
                raise ValueError(f"moment {j - k} unavailable for step")
            terms.append((x, y, self.values[j - k]))
        if self._exact:
            acc = sum((v * QC(x, y) for x, y, v in terms), QC(0))
            return -acc / QC(pr, pi)
        return _rounded_quotient(terms, pr, pi)

    # -- diagnostics ----------------------------------------------------------

    def equation_residual(self, j: int) -> mpf:
        """Relative residual of the difference equation at index j."""
        row = recurrence_row(self.pair, j)
        terms = []
        for k, g in enumerate(row):
            if not g:
                continue
            idx = j - k
            if idx not in self.values:
                raise ValueError(f"moment {idx} not in window")
            terms.append(to_mpc(g) * to_mpc(self.values[idx]))
        return rel_residual(terms)

    def max_residual(self) -> mpf:
        lo = self.k_min + self.pair.M
        out = mpf(0)
        for j in range(lo, self.k_max + 1):
            out = max(out, self.equation_residual(j))
        return out


class ReflectedMoments:
    """The moments of the reflected weight, w_k -> w_{-k}, as a view.

    Reads and extends the underlying sequence; the second polynomial family
    of a weight is the first family of its reflection.
    """

    def __init__(self, moments: MomentSequence):
        self.moments = moments

    def w(self, k: int):
        return self.moments.w(-k)

    def extend(self, kmin: int, kmax: int) -> None:
        self.moments.extend(-kmax, -kmin)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def moment_quadrature(weight: WeightData, k: int) -> mpc:
    """w_k by contour quadrature of a single-valued weight.

    Smooth weights (no singularity on the circle) use the periodic trapezoid
    rule with grid doubling until two successive grids agree to the plan's
    ``quadrature_tolerance``, relative; weights with circle singularities
    are integrated by tanh-sinh panels split at the singular angles.
    """
    plan = Plan.of(mp.prec)
    # a singular point at 1 shields the contour seam; otherwise the interior
    # windings must close up for the moments to be well defined
    if not seam_shielded(weight):
        defect = single_valuedness_defect(weight)
        if defect > plan.closure_tolerance:
            raise ConfigInvalid(
                f"weight not single-valued (defect {mpmath.nstr(defect, 6)})")

    circle_angles = sorted(
        mpmath.arg(z) % (2 * mp.pi)
        for z in weight.singularities_mpc() if abs(z) == 1)

    def f(theta):
        return eval_weight_on_circle(weight, theta) * \
            mpmath.exp(-mpc(0, 1) * k * theta)

    if not circle_angles:
        prev = None
        npts = 16
        for _ in range(QUADRATURE_MAX_LEVEL):
            h = 2 * mp.pi / npts
            total = mpc(0)
            for i in range(npts):
                total += f(i * h)
            total /= npts
            if prev is not None:
                scale = max(abs(total), mpf(1))
                if abs(total - prev) <= plan.quadrature_tolerance * scale:
                    return total
            prev = total
            npts *= 2
        raise NonConvergent(f"trapezoid stalled for moment {k}")

    # graded panels: tanh-sinh nodes cluster at panel endpoints, which we
    # place at the singular angles
    pts = []
    for a in circle_angles:
        if not pts or a > pts[-1]:
            pts.append(a)
    if pts[0] > 0:
        pts = [mpf(0)] + pts
    pts = pts + [2 * mp.pi]
    mids = []
    for i in range(len(pts) - 1):
        mids.extend([pts[i], (pts[i] + pts[i + 1]) / 2])
    mids.append(pts[-1])
    val, err = mpmath.quad(f, mids, error=True)
    val /= 2 * mp.pi
    err /= 2 * mp.pi
    if err > plan.quadrature_acceptance * max(abs(val), mpf(1)):
        raise NonConvergent(
            f"tanh-sinh error estimate too large for moment {k}")
    return val


# ---------------------------------------------------------------------------
# closed-form moments for integer-pole weights
# ---------------------------------------------------------------------------

def _gmul(a: tuple, b: tuple) -> tuple:
    """The product of two Gaussian integers given as (re, im)."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gpow(a: tuple, n: int) -> tuple:
    out = (1, 0)
    for _ in range(n):
        out = _gmul(out, a)
    return out


def _binomial_series(factors, nterms: int) -> Grid:
    """The integer coefficients of prod (1 - y_i u)^(-q_i) up to
    u^(nterms-1), for Gaussian integers y_i and positive q_i: the product
    of the series sum_s C(q_i + s - 1, s) y_i^s u^s, exactly."""
    out = Grid([1] + [0] * (nterms - 1), [0] * nterms, 0)
    for y, q in factors:
        re, im, power, c = [1], [0], (1, 0), 1
        for s in range(1, nterms):
            power, c = _gmul(power, y), c * (q + s - 1) // s
            re.append(c * power[0])
            im.append(c * power[1])
        out = out.conv(Grid(re, im, 0), 0, nterms)
    return out


def rational_weight_moments(weight: WeightData, kmin: int, kmax: int) -> dict:
    """Laurent coefficients of a weight whose residues are all negative ints,
    exact up to one rounding per part, to nearest at mp.prec.

    Such a weight w(z) = prod_j (z - z_j)^(-q_j) is rational, and its annulus
    coefficient w_k (interior poles inside, unit circle outside) is minus the
    residues of w(z) z^(-k-1) at the poles on or outside the circle and at
    infinity.  At z_o the residue is the t^(q_o - 1) coefficient of
    z_o^(-k-1) (1 + t/z_o)^(-k-1) C_o B_o(t), with the constant
    C_o = prod_{j != o} (z_o - z_j)^(-q_j) and the local series
    B_o(t) = prod_{j != o} (1 - x_j t)^(-q_j), x_j = -1/(z_o - z_j),
    neither of which depends on k: both are formed once per pole, and each
    k then costs O(q_o), sum_m C(k+m, m) (-1/z_o)^m b_{q_o-1-m} with the
    binomial an exact integer (a polynomial in k, so k + 1 <= 0 is
    covered).  At infinity the residue is nonzero only for k <= -sum_j q_j,
    and its series is formed only when the range reaches that far.

    The sum is finite, and it is formed exactly: with D the common
    denominator of the singularities, Z_j = D z_j are Gaussian integers,
    each x_j is a Gaussian integer over one common integer L_o, and every
    term is a Gaussian integer over a positive integer.  Each w_k is one
    such fraction, rounded once.
    """
    if not all(is_negative_int(r) for r in weight.residues):
        raise ValueError("closed-form moments need negative integer residues")
    qs = [-int(r.re) for r in weight.residues]
    total = sum(qs)
    D = math.lcm(*(x.denominator for z in weight.singularities
                   for x in (z.re, z.im)))
    Zs = [(z.re.numerator * (D // z.re.denominator),
           z.im.numerator * (D // z.im.denominator))
          for z in weight.singularities]
    # w_k = sum of fractions (re, im, den), summed on one denominator
    terms = {k: [] for k in range(kmin, kmax + 1)}
    if kmin <= -total:
        # -Res_inf is the z^(total+k) coefficient of prod (1 - z_j/z)^(-q_j):
        # alpha_r / D^r with alpha the integer series in Z_j
        tail = _binomial_series(
            [(Z, q) for Z, q in zip(Zs, qs) if Z != (0, 0)], -total - kmin + 1)
        for k in range(kmin, min(kmax, -total) + 1):
            r = -total - k
            terms[k].append((tail.re[r], tail.im[r], D ** r))
    for o, (Zo, qo) in enumerate(zip(Zs, qs)):
        mu = Zo[0] * Zo[0] + Zo[1] * Zo[1]             # |Z_o|^2
        if mu < D * D:                                 # inside the circle
            continue
        # 1/(z_o - z_j) = D conj(Delta_j) / |Delta_j|^2, Delta_j = Z_o - Z_j
        others = [((Zo[0] - Z[0], Z[1] - Zo[1]), q)
                  for j, (Z, q) in enumerate(zip(Zs, qs)) if j != o]
        sq = [d[0] * d[0] + d[1] * d[1] for d, _ in others]
        L = math.prod(sq)
        # C_o = gamma / G, and x_j = y_j / L
        gamma, G = (1, 0), 1
        factors = []
        for (d, q), m2 in zip(others, sq):
            gamma = _gmul(gamma, _gpow((D * d[0], D * d[1]), q))
            G *= m2 ** q
            factors.append(((-D * d[0] * (L // m2), -D * d[1] * (L // m2)),
                            q))
        beta = _binomial_series(factors, qo)           # b_r = beta_r / L^r
        # -1/z_o = -omega / mu; c_m = (-omega)^m mu^(q-1-m) L^m beta_{q-1-m}
        omega = (D * Zo[0], -D * Zo[1])
        cs, step = [], (1, 0)
        for m in range(qo):
            scale = mu ** (qo - 1 - m) * L ** m
            b = beta.re[qo - 1 - m], beta.im[qo - 1 - m]
            cs.append(_gmul(step, (scale * b[0], scale * b[1])))
            step = _gmul(step, (-omega[0], -omega[1]))
        den0 = G * (mu * L) ** (qo - 1)
        for k in terms:
            binom, (tr, ti) = 1, cs[0]
            for m in range(1, qo):
                binom = binom * (k + m) // m           # C(k+m, m)
                tr += binom * cs[m][0]
                ti += binom * cs[m][1]
            # z_o^(-k-1) = (omega / mu)^(k+1) = (Z_o / D)^(-k-1)
            if k + 1 >= 0:
                p, den = _gpow(omega, k + 1), den0 * mu ** (k + 1)
            else:
                p, den = _gpow(Zo, -k - 1), den0 * D ** (-k - 1)
            nr, ni = _gmul(gamma, _gmul((tr, ti), p))
            terms[k].append((-nr, -ni, den))
    prec = mp.prec
    out = {}
    for k, fracs in terms.items():
        nr, ni, den = 0, 0, 1
        for x, y, d in fracs:
            nr, ni, den = nr * d + x * den, ni * d + y * den, den * d
        out[k] = mp.make_mpc((round_rational(nr, den, prec),
                              round_rational(ni, den, prec)))
    return out


# ---------------------------------------------------------------------------
# the U polynomial and the moment generating function
# ---------------------------------------------------------------------------

class UPoly(FrozenRecord):
    """Coefficients u_0..u_{N+1} of U = W F' - 2V F."""

    _fields = ("u",)

    def __init__(self, u: tuple):
        self._init(u=u)


def build_U(moments: MomentSequence) -> UPoly:
    """U from the seed window, canonical placement.

    The endpoints collapse to u_0 = (-1)^N w_0 m_{N+1} and u_{N+1} = w_0 m_0;
    interior coefficients combine the seed moments with the recurrence
    weights, in the kind of the moments.
    """
    pair = moments.pair
    if free_moments(pair.weight.singularities) == pair.M:
        raise ValueError("closed-form U needs the origin among singularities")
    N = pair.N
    w = [moments.w(k) for k in range(0, N + 1)]
    _, _, e, m, _ = pair.data_like(w)
    u = [0] * (N + 2)
    u[0] = (-1) ** N * w[0] * m[N + 1]
    u[N + 1] = w[0] * m[0]
    for j in range(1, N + 1):
        s = (-1) ** (N - j) * w[0] * m[N + 1 - j]
        for l in range(0, j):
            s += 2 * (-1) ** (N + 1 - l) * \
                ((j - l) * e[N + 1 - l] - m[N + 1 - l]) * w[j - l]
        u[j] = s
    return UPoly(tuple(u))


def u_from_series(moments: MomentSequence) -> UPoly:
    """U extracted coefficient-by-coefficient from W F' - 2V F.

    Works in either placement; used as the independent route for testing the
    closed-form construction.
    """
    pair = moments.pair
    M = pair.M
    T = 2 * M + 4
    F = caratheodory_series(moments, T)
    W = pair.W_mpc()
    V2 = pair.V2_mpc()
    Fp = pdiff(F)
    lhs = padd(pmul(W, Fp), pscale(pmul(V2, F), mpc(-1)))
    return UPoly(tuple(lhs[:M]))


def caratheodory_series(moments: MomentSequence, nterms: int):
    """Taylor coefficients of F about 0:  F = w_0 + 2 sum_{k>=1} w_k z^k.

    The sign/index convention is pinned by the normalisation of the
    associated functions at level zero (their expansions must lead with
    coefficient one), which the test suite checks explicitly.
    """
    out = [to_mpc(moments.w(0))]
    for k in range(1, nterms):
        out.append(2 * to_mpc(moments.w(k)))
    return out


def caratheodory_ode_residual(moments: MomentSequence, upoly: UPoly,
                              z) -> mpf:
    """Relative residual of W F' = 2V F + U at an interior point, on the
    series of F truncated after 80 terms."""
    pair = moments.pair
    z = to_mpc(z)
    coeffs = caratheodory_series(moments, 80)
    F = peval(coeffs, z)
    Fp = peval(pdiff(coeffs), z)
    W = peval(pair.W_mpc(), z)
    V2 = peval(pair.V2_mpc(), z)
    U = peval(list(upoly.u), z)
    return rel_residual([W * Fp, -V2 * F, -U])
