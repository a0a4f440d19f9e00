"""The bi-orthogonal system, level by level, from the moment sequence.

Everything at level n is derived from the Toeplitz data of the moment
sequence w_k.  Two routes are kept side by side:

* determinants by one unpivoted LU factorisation of the leading Toeplitz
  block [w_{i-j}], grown by one border per level in O(n^2): I_{n+1} = I_n d_n
  with d_n the new pivot, the normalisation kappa_n = sqrt(I_n / I_{n+1}) up
  to a recorded sign gauge, and the degeneracy test of each level;
* the monic families P_n = phi_n / kappa_n and Q_n = phibar_n / kappa_n by
  Baxter's bi-orthogonal Szego step (J. Math. Anal. Appl. 2 (1961)),

      P_{k+1} = z P_k + a_k Q*_k,      Q_{k+1} = z Q_k + b_k P*_k,

  with Q*_k, P*_k the reversed coefficient lists, h_k = <P_k, k>
  (= I_{k+1} / I_k), a_k = -<P_k, -1> / h_k and b_k = -sum_j Q_j w_{1+j} / h_k.
  Each step costs O(k) moment products, against O(k^3) for a Toeplitz solve.

Both routes form every dot product exactly in integers and round it once
per part (``report.Grid.dot``): the factor keeps each row of L and column
of U as Gaussian-int mantissas on one exponent, and each Szego step pairs
its polynomials with one grid of the moment window.  That is the value
``mpmath.fdot`` gives, which forms the products exactly and sums them with
``mpf_sum``, dropping only terms more than 2 prec bits below its running
sum, before its one rounding.  The subtractions and divisions around the
dot products are mpc operations.

The system is symmetric under reflection of the weight, w_k -> w_{-k}: the
second family is the first family of the reflected moments
(``ReflectedMoments``), and the second-kind pairing <m, g> = sum_j g_j w_{j-m}
is the first-kind pairing over them.  So each route below is written once,
for the first family.  The tests compare the factor with ``toeplitz_det``, a
fresh pivoted LU determinant for each n, and the step with the
bordered-determinant form ``phi_from_determinant``, realised as an LU Toeplitz
solve and run on the moments or on their reflection.  The factor is generic
elimination and uses no Szego coefficient, so the identities that tie the
determinants to the families (I0, l:kappa, tau:I) compare two independent
computations.

The associated functions are truncated interior expansions

    eps_n(z)     =  2 sum_{m>=0} <phi_n, m> z^m,
    epsstar_n(z) = -2 sum_{m>=1} <m-bar, phibar_n> z^{n+m},

where <phi_n, m> = sum_j c_j w_{m-j} is the moment pairing that also drives
the orthogonality relations.  All pairings of one series are one convolution
of the coefficients with the moment window w_{-n} .. w_T (of the reflected
window for epsstar_n) by ``polys.conv_fixed``, on the one integer-mantissa
product kernel ``report.Grid.conv``.  The series stays in integers (the
factor +-2 is a sign and an exponent shift) on the spectral grid of the
oracle's precision.  A coefficient is accurate to 2^-(prec+16) of
max|c_j| max|w_k| over the window, not of itself, and rounds once, at its
reader's precision.  ``pairing_first``
computes one pairing by an mpmath sum; it is the orthogonality residual and
the tests' reference for the series.  At level zero these expansions reduce
to the defining normalisations kappa_0 [w_0 +- F], which pins the index
conventions; the test suite verifies the leading coefficients against the
closed forms.
"""

from __future__ import annotations

import functools

import mpmath
from mpmath import mp, mpf, mpc

from .errors import Degenerate
from .moments import MomentSequence, ReflectedMoments
from .mputil import guarded, lu_det, lu_solve, to_mpc
from .polys import conv_fixed
from .record import Record
from .report import Grid, largest_abs, ratio


class BopsLevel(Record):
    """All scalar and polynomial data of one level of the system."""

    _fields = ("n", "I", "I_next", "kappa", "gauge", "phi", "phibar")

    def __init__(self, n: int, I: mpc, I_next: mpc, kappa: mpc, gauge: int,
                 phi: list, phibar: list):
        self.n = n
        self.I = I                  # Toeplitz determinant at this level
        self.I_next = I_next
        self.kappa = kappa          # gauge * sqrt(I_n / I_{n+1})
        self.gauge = gauge
        self.phi = phi              # phi_n, ascending, length n+1
        self.phibar = phibar        # phibar_n, ascending

    @property
    def phistar(self) -> list:
        """phistar_n(z) = z^n phibar_n(1/z): reversed coefficients."""
        return list(reversed(self.phibar))

    @property
    def phi0(self) -> mpc:
        return self.phi[0]

    @property
    def phibar0(self) -> mpc:
        return self.phibar[0]

    @property
    def r(self) -> mpc:
        return self.phi[0] / self.kappa

    @property
    def rbar(self) -> mpc:
        return self.phibar[0] / self.kappa

    def _monic_coeff(self, coeffs, back: int) -> mpc:
        idx = self.n - back
        if idx < 0:
            return mpc(0)
        return coeffs[idx] / self.kappa

    @property
    def lam(self) -> mpc:
        return self._monic_coeff(self.phi, 1)

    @property
    def lambar(self) -> mpc:
        return self._monic_coeff(self.phibar, 1)

    @property
    def mu(self) -> mpc:
        return self._monic_coeff(self.phi, 2)

    @property
    def mubar(self) -> mpc:
        return self._monic_coeff(self.phibar, 2)

    @property
    def nu(self) -> mpc:
        return self._monic_coeff(self.phi, 3)

    @property
    def nubar(self) -> mpc:
        return self._monic_coeff(self.phibar, 3)


# ---------------------------------------------------------------------------
# module-level determinant operations
# ---------------------------------------------------------------------------

def toeplitz_det(moments: MomentSequence, n: int) -> mpc:
    """I_n = det[w_{i-j}]_{i,j=0..n-1} by a fresh pivoted LU; I_0 = 1."""
    moments.extend(-(n - 1) if n else 0, n - 1 if n else 0)
    with guarded():
        rows = [[to_mpc(moments.w(i - j)) for j in range(n)] for i in range(n)]
        return lu_det(rows)


def phi_from_determinant(moments, n: int) -> list:
    """Monic coefficients of phi_n/kappa_n (of phibar_n/kappa_n when
    ``moments`` is a ``ReflectedMoments`` view).

    The bordered determinant with bottom row (1, z, ..., z^n) expands to a
    Toeplitz solve of the orthogonality conditions against monomials below n.
    """
    if n == 0:
        return [mpc(1)]
    moments.extend(-n, n)
    with guarded():
        rows = [[to_mpc(moments.w(m - j)) for j in range(n)] for m in range(n)]
        rhs = [-to_mpc(moments.w(m - n)) for m in range(n)]
        try:
            low = lu_solve(rows, rhs)
        except Degenerate:
            raise Degenerate(
                f"I_{n} = 0: system does not exist at level {n}")
        return low + [mpc(1)]


# ---------------------------------------------------------------------------
# pairings and associated-function expansions
# ---------------------------------------------------------------------------

def pairing_first(moments, coeffs, m: int) -> mpc:
    """<f, m> = sum_j f_j w_{m-j}: integral of w f(zeta) zeta^{-m}.

    Over ``ReflectedMoments`` this is the second-kind pairing
    <m, f> = sum_j f_j w_{j-m}.
    """
    with guarded():
        return mpmath.fsum(
            (to_mpc(c) * to_mpc(moments.w(m - j))
             for j, c in enumerate(coeffs)), absolute=False)


def _pairings(moments, coeffs, lo: int, hi: int) -> Grid:
    """<f, lo + k> as coefficient k of a series, for lo + k <= hi.

    One convolution of f with the window w_{lo-n} .. w_hi (n = deg f) by
    ``conv_fixed``; its exact sums (from z^n) are renumbered from k = 0
    and rounded once onto the spectral grid, mp.prec + 16 bits below the
    largest (``Grid.from_poly``).
    """
    n = len(coeffs) - 1
    moments.extend(lo - n, hi)
    window = [moments.w(k) for k in range(lo - n, hi + 1)]
    sums = conv_fixed(coeffs, window, n, n + hi - lo + 1)
    return Grid.from_poly(Grid(sums.re, sums.im, sums.exp))


def epsilon_from_determinant(moments: MomentSequence, phi_coeffs,
                             truncation: int) -> Grid:
    """Interior expansion of eps_n up to z^truncation.

    For n >= 1 the coefficients below z^n vanish by orthogonality (kept: they
    double as a consistency alarm); the m = 0 term carries the level-zero
    normalisation.
    """
    s = _pairings(moments, phi_coeffs, 0, truncation)
    return Grid(s.re, s.im, s.exp + 1)                 # 2 <phi_n, m>


def epsilonstar_from_determinant(moments: MomentSequence, phibar_coeffs,
                                 truncation: int) -> Grid:
    """Interior expansion of epsstar_n (starts at z^{n+1}) up to
    z^truncation."""
    n = len(phibar_coeffs) - 1
    nterms = truncation - n
    if nterms < 1:
        return Grid([], [], 0, n + 1)
    s = _pairings(ReflectedMoments(moments), phibar_coeffs, -nterms, -1)
    # -2 <m-bar, phibar_n> for m = nterms .. 1, reversed to ascending powers
    return Grid([-v for v in reversed(s.re)], [-v for v in reversed(s.im)],
                s.exp + 1, n + 1)


# ---------------------------------------------------------------------------
# the cached oracle
# ---------------------------------------------------------------------------

def _query(method):
    """A public oracle query: one ``precision()`` context around it."""
    @functools.wraps(method)
    def run(self, *args):
        with self.precision():
            return method(self, *args)
    return run


def _cached_query(cache: str):
    """A public oracle query by level whose answers stay in the dict
    ``cache``: a cached answer passes ``check_precision()`` and is returned
    without entering the context."""
    def wrap(method):
        @functools.wraps(method)
        def run(self, n: int):
            got = getattr(self, cache).get(n)
            if got is None:
                with self.precision():
                    return method(self, n)
            self.check_precision()
            return got
        return run
    return wrap


class ToeplitzOracle:
    """Caches determinants, levels and expansions over one moment sequence.

    ``det(n)`` reads I_n off the LU factor of the leading Toeplitz block,
    which ``_grow_factor`` borders upward from the largest cached size.
    ``level(n)`` takes I_n, I_{n+1} and kappa_n from ``det`` and scales the
    monic pair of ``monic_pair(n)``, which the Szego step grows upward from
    the highest cached level.  Both routes form their dot products exactly
    in integers and round each once (``report.Grid.dot``), which gives
    ``mpmath.fdot``'s value.

    The oracle adopts the precision ``prec`` of its moment sequence.  Every
    value it caches is computed there, inside the one context that each
    public query enters (a cached ``det`` or ``level`` is returned without
    it), so no value depends on the precision of the query that reached it
    first; the eps-series keep the longest series formed so far, so their
    values depend on query order.  A query at a working precision other
    than the sequence's plan's ``working`` raises ``ValueError``, cached or
    not; the oracle's own calls, already at ``prec``, pass.  A determinant
    ratio below the plan's ``lu_floor`` times its neighbour counts as
    vanishing (zero computes as noise).

    ``gauge`` maps level -> +-1 and fixes the kappa_n sign; the default is
    the principal branch everywhere.
    """

    def __init__(self, moments: MomentSequence, gauge=None):
        self.moments = moments
        self.prec = moments.prec
        self._gauge = dict(gauge) if gauge else {}
        self._dets = {0: mpc(1)}                # I_n, n = 0, 1, ...
        # the LU factor: row m of L and column m of U above the diagonal as
        # grids, and the pivot d_m = U_{m,m}, m = 0, 1, ...
        self._lower = []
        self._upper = []
        self._pivots = []
        self._levels = {}
        self._monic = [([mpc(1)], [mpc(1)])]    # (P_k, Q_k), k = 0, 1, ...
        self._h = []                            # h_k = I_{k+1} / I_k
        self._eps = {}
        self._epsstar = {}

    def check_precision(self) -> None:
        """Refuse a caller at a precision other than the working one (or
        ``prec``, inside the oracle's own context)."""
        working = self.moments.plan.working
        if mp.prec not in (working, self.prec):
            raise ValueError(
                f"oracle built at {working} bits queried at {mp.prec} bits")

    def precision(self):
        """The context of ``prec``, refused to a caller at another working
        precision."""
        self.check_precision()
        return mp.workprec(self.prec)

    def gauge(self, n: int) -> int:
        return self._gauge.get(n, 1)

    @_cached_query("_dets")
    def det(self, n: int) -> mpc:
        """I_n = I_{n-1} d_{n-1}, from the LU factor grown to size n."""
        self._grow_factor(n)
        return self._dets[n]

    def _grow_factor(self, n: int) -> None:
        """Border the unpivoted LU factor of [w_{i-j}] up to size n.

        Leading minors nest only without row swaps, so no pivoting.  Size
        m + 1 adds the column U_{k,m} (forward substitution against L), the
        row L_{m,k} (against U) and the pivot d_m = U_{m,m}, in O(m^2).
        The row and the column under construction grow entry by entry on
        their grids, and each entry takes its dot product from the grids
        exactly, rounded once (``Grid.dot``).  Before stepping past d_k it
        applies the floor test of ``monic_pair``: d_0 == 0, or
        |d_k| < floor |d_{k-1}|.
        """
        rows, cols, pivots = self._lower, self._upper, self._pivots
        floor = self.moments.plan.lu_floor
        self.moments.extend(-(n - 1), n - 1)
        w = {k: to_mpc(self.moments.w(k)) for k in range(1 - n, n)}
        for m in range(len(cols), n):
            if m:
                d = pivots[m - 1]
                if d == 0 or (m > 1 and
                              abs(d) < floor * abs(pivots[m - 2])):
                    raise Degenerate(
                        f"determinant at level {m} vanishes to working "
                        f"precision; the LU factor stops here")
            col = Grid([], [], 0)
            for k in range(m):
                col.append(w[k - m] - rows[k].dot(col))
            row = Grid([], [], 0)
            for k in range(m):
                row.append((w[m - k] - row.dot(cols[k])) / pivots[k])
            d = w[0] - row.dot(col)
            rows.append(row)
            cols.append(col)
            pivots.append(d)
            self._dets[m + 1] = self._dets[m] * d

    @_query
    def monic_pair(self, n: int):
        """(phi_n, phibar_n) / kappa_n, ascending, by the bi-orthogonal step.

        The three pairings of a step are dot products (``Grid.dot``) with
        one grid of the moment window w_{-n} .. w_n, formed once per call
        by ``Grid.of`` (exact up to its cap), and with its reversal.
        Raises ``Degenerate`` at the first h_k that vanishes to
        working precision: h_0 == 0, or
        |h_k| < floor |h_{k-1}|, the same test ``level`` applies to
        I_{k+1} I_{k-1} / I_k^2.
        """
        pairs, hs = self._monic, self._h
        if n < len(pairs):
            return pairs[n]
        floor = self.moments.plan.lu_floor
        self.moments.extend(-n, n)
        window = Grid.of([self.moments.w(k) for k in range(-n, n + 1)])
        rev = Grid(window.re[::-1], window.im[::-1], window.exp)
        for k in range(len(pairs) - 1, n):
            P, Q = pairs[k]
            Pg, Qg = Grid.of(P), Grid.of(Q)
            h = Pg.dot(rev, n - k)                  # w_{k-j}: rev[n-k+j]
            if h == 0 or (k and abs(h) < floor * abs(hs[k - 1])):
                raise Degenerate(
                    f"determinant at level {k + 1} vanishes to working "
                    f"precision; the Szego step stops here")
            a = -Pg.dot(rev, n + 1) / h             # w_{-1-j}: rev[n+1+j]
            b = -Qg.dot(window, n + 1) / h          # w_{1+j}: window[n+1+j]
            P_next, Q_next = [mpc(0)] + P, [mpc(0)] + Q
            for i in range(k + 1):
                P_next[i] += a * Q[k - i]
                Q_next[i] += b * P[k - i]
            hs.append(h)
            pairs.append((P_next, Q_next))
        return pairs[n]

    @_cached_query("_levels")
    def level(self, n: int) -> BopsLevel:
        In, In1 = self.det(n), self.det(n + 1)
        if In == 0 or In1 == 0:
            raise Degenerate(f"vanishing determinant at level {n}")
        if n >= 1:
            ref = abs(In) ** 2 / max(abs(self.det(n - 1)), mpf(1e-300))
            if abs(In1) < self.moments.plan.lu_floor * ref:
                raise Degenerate(
                    f"determinant at level {n + 1} vanishes to working "
                    f"precision; the system truncates here")
        kap = self.gauge(n) * mpmath.sqrt(In / In1)
        P, Q = self.monic_pair(n)
        lev = BopsLevel(n=n, I=In, I_next=In1, kappa=kap, gauge=self.gauge(n),
                        phi=[kap * c for c in P], phibar=[kap * c for c in Q])
        self._levels[n] = lev
        return lev

    @_query
    def eps_series(self, n: int, truncation: int) -> Grid:
        got = self._eps.get(n)
        if got is None or got.top < truncation:
            got = epsilon_from_determinant(self.moments, self.level(n).phi,
                                           truncation)
            self._eps[n] = got
        return got

    @_query
    def epsstar_series(self, n: int, truncation: int) -> Grid:
        got = self._epsstar.get(n)
        if got is None or got.top < truncation:
            got = epsilonstar_from_determinant(
                self.moments, self.level(n).phibar, truncation)
            self._epsstar[n] = got
        return got

    # -- residual diagnostics ------------------------------------------------

    def orthonormality_residual(self, n: int) -> mpf:
        """| <phi_n phibar_n(1/.)> - 1 | via double moment sums."""
        lev = self.level(n)
        total = mpc(0)
        for jj, cb in enumerate(lev.phibar):
            if cb:
                total += cb * pairing_first(self.moments, lev.phi, jj)
        return abs(total - 1)


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

def orthogonality_residual(moments, coeffs) -> mpf:
    """max over m < n of <f, m> for f of degree n, relative to <f, n>.

    Called as (moments, phi_n) for the first family and as
    (ReflectedMoments(moments), phibar_n) for the second.
    """
    n = len(coeffs) - 1
    # custom scale: the one pairing that must not vanish
    scale = abs(pairing_first(moments, coeffs, n))
    worst = mpf(0)
    for m in range(n):
        worst = max(worst, abs(pairing_first(moments, coeffs, m)))
    return worst / scale if scale > 0 else worst


def casoratian_residuals(oracle: ToeplitzOracle, n: int) -> dict:
    """Relative residuals of the three cross-product identities at level n.

    Each combination of polynomial and associated-function series collapses
    to a single monomial; every other coefficient up to the truncation,
    z^(2n+10), must vanish.  The products are formed at the oracle's
    precision.
    """
    with oracle.precision():
        lev_n = oracle.level(n)
        lev_n1 = oracle.level(n + 1)
        top = 2 * n + 10
        # level n+1's series at that level's truncation, as the extraction
        # asks for them: one formation per level
        eps_n = oracle.eps_series(n, top)
        eps_n1 = oracle.eps_series(n + 1, top + 2)
        est_n = oracle.epsstar_series(n, top)
        est_n1 = oracle.epsstar_series(n + 1, top + 2)

        out = {}

        def finish(label, built, mono_pow, mono_coeff):
            lo, hi = min(built.offset, mono_pow), max(built.top, mono_pow)
            got = built.window(lo, hi)
            # custom scale: the largest built coefficient or the monomial
            scale = largest_abs(got)
            got[mono_pow - lo] -= mono_coeff
            out[label] = ratio(largest_abs(got), scale, abs(mono_coeff))

        a = eps_n.mul_poly(lev_n1.phi, top) - \
            eps_n1.mul_poly(lev_n.phi, top)
        finish("Cas:a", a, n, 2 * lev_n1.phi0 / lev_n.kappa)

        b = est_n.mul_poly(lev_n1.phistar, top) - \
            est_n1.mul_poly(lev_n.phistar, top)
        finish("Cas:b", b, n + 1, 2 * lev_n1.phibar0 / lev_n.kappa)

        c = est_n.mul_poly(lev_n.phi, top) + \
            eps_n.mul_poly(lev_n.phistar, top)
        finish("Cas:c", c, n, mpc(2))

        return out
