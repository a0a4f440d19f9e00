"""The bi-orthogonal system, level by level, from the moment sequence.

Everything at level n is derived from the Toeplitz data of the moment
sequence w_k.  Two routes are kept side by side:

* the monic families P_n = phi_n / kappa_n and Q_n = phibar_n / kappa_n by
  Baxter's bi-orthogonal Szego step (J. Math. Anal. Appl. 2 (1961)),

      P_{k+1} = z P_k + a_k Q*_k,      Q_{k+1} = z Q_k + b_k P*_k,

  with Q*_k, P*_k the reversed coefficient lists, h_k = <P_k, k>
  (= I_{k+1} / I_k), a_k = -<P_k, -1> / h_k and b_k = -sum_j Q_j w_{1+j} / h_k.
  Each step pairs its polynomials with one grid of the moment window: the
  dot products are formed exactly in integers and rounded once per part
  (``report.Grid.dot``), which is ``mpmath.fdot``'s value, O(k) products
  a step.
* the determinants and the associated functions by Schur's algorithm in
  its non-Hermitian form (I. Schur, J. Reine Angew. Math. 147 (1917);
  E. H. Bareiss, Numer. Math. 13 (1969)).  It carries the pairings
  alpha_k(m) = <P_k, m> = sum_j P_k[j] w_{m-j} and
  beta_k(s) = <s, Q_k> = sum_l Q_k[l] w_{l-s} from level to level, and
  forms no polynomial: the Szego step gives

      alpha_{k+1}(m) = alpha_k(m-1) + a_k beta_k(k-m),
      beta_{k+1}(s)  = beta_k(s-1)  + b_k alpha_k(k-s),

  with h_k = alpha_k(k), a_k = -alpha_k(-1) / h_k and
  b_k = -beta_k(-1) / h_k, from alpha_0(m) = w_m and beta_0(s) = w_{-s}.
  Then I_{k+1} = I_k h_k, kappa_n = sqrt(I_n / I_{n+1}) up to a recorded
  sign gauge, and the truncated interior expansions of the associated
  functions are

      eps_n(z)     =  2 kappa_n sum_{m>=0} alpha_n(m) z^m,
      epsstar_n(z) = -2 kappa_n sum_{m>=1} beta_n(-m) z^{n+m}.

  alpha_n(m) vanishes for 0 <= m < n by orthogonality; those coefficients
  are kept, and they double as a consistency alarm.  At level zero the
  expansions reduce to the normalisations kappa_0 [w_0 +- F], which pins
  the index conventions.

The generator takes no coefficient from the Szego step, so the identities
that tie the determinants to the families (I0, l:kappa, tau:I) and the
products of series with polynomials (the Casoratians, the spectral bands)
compare two independent computations.  Its entries are plain mpc at the
oracle's precision: each is the exact value of alpha_k(m-1) +
a_k beta_k(k-m) (or its mirror), summed in integers and rounded once per
part (``_axpy``, by ``exact.round_mantissa``).  Each entry is formed once,
from level k - 1's entries alone, so its value depends only on (k, m),
never on how far the windows reach or on the order of the queries.  The
windows follow from two bounds, the highest level asked for (top) and the
furthest entry (reach >= top): level k holds alpha_k(m) for
k - top <= m <= reach and beta_k(s) for k - reach <= s <= top, a
trapezoid that holds what the level above reads.
A reader's series is the entries times 2 kappa_n, formed exactly and
rounded once onto the spectral grid of the oracle's precision
(``Grid.from_poly``).

The system is symmetric under reflection of the weight, w_k -> w_{-k}: the
second family is the first family of the reflected moments
(``ReflectedMoments``), and the second-kind pairing <m, g> = sum_j g_j w_{j-m}
is the first-kind pairing over them.  So each route below is written once,
for the first family; the generator's step is applied with (alpha, a) and
(beta, b) swapped, on the moments and on their reflection.  The tests'
references are ``toeplitz_det``, a fresh pivoted LU determinant for each n;
the bordered-determinant form ``phi_from_determinant``, realised as an LU
Toeplitz solve and run on the moments or on their reflection; and
``pairing_first``, one pairing by an mpmath sum, which is also the
orthogonality residual.
"""

from __future__ import annotations

import functools

import mpmath
from mpmath import mp, mpf, mpc

from .errors import Degenerate
from .exact import round_mpc
from .moments import MomentSequence, ReflectedMoments
from .mputil import abs_square, exceeds, guarded, lu_det, lu_solve, to_mpc
from .record import Memo, Record
from .report import Grid, largest_abs, ratio


class BopsLevel(Memo, Record):
    """All scalar and polynomial data of one level of the system; r and
    rbar are formed once per precision (``Memo``)."""

    _fields = ("n", "I", "kappa", "gauge", "phi", "phibar")

    def __init__(self, n: int, I: mpc, kappa: mpc, gauge: int, phi: list,
                 phibar: list):
        self.n = n
        self.I = I                  # Toeplitz determinant at this level
        self.kappa = kappa          # gauge * sqrt(I_n / I_{n+1})
        self.gauge = gauge
        self.phi = phi              # phi_n, ascending, length n+1
        self.phibar = phibar        # phibar_n, ascending
        self._memo = {}

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
        return self.memo("r", lambda: self.phi[0] / self.kappa)

    @property
    def rbar(self) -> mpc:
        return self.memo("rbar", lambda: self.phibar[0] / self.kappa)

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
# the reference pairing
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


# ---------------------------------------------------------------------------
# the cached oracle
# ---------------------------------------------------------------------------

def _axpy(c: mpc, xs, ys) -> list:
    """y + c x for each x of xs and y of ys, each part summed exactly in
    integers and rounded once, to nearest at mp.prec (``round_mpc``)."""
    (s, cr, ce, _), (t, ci, cf, _) = c._mpc_
    cr, ci = -cr if s else cr, -ci if t else ci
    prec, out = mp.prec, []
    for x, y in zip(xs, ys):
        (s, xr, xe, _), (t, xi, xf, _) = x._mpc_
        xr, xi = -xr if s else xr, -xi if t else xi
        (s, yr, ye, _), (t, yi, yf, _) = y._mpc_
        yr, yi = -yr if s else yr, -yi if t else yi
        e = min(ye, yf, ce + xe, cf + xf, ce + xf, cf + xe)
        re = (yr << (ye - e)) + (cr * xr << (ce + xe - e)) \
            - (ci * xi << (cf + xf - e))
        im = (yi << (yf - e)) + (cr * xi << (ce + xf - e)) \
            + (ci * xr << (cf + xe - e))
        out.append(round_mpc(re, im, e, prec))
    return out


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

    ``det(n)`` is the product of the Schur generator's h_0 .. h_(n-1), and
    ``eps_series``/``epsstar_series`` read its pairings at level n;
    ``_reach(top, reach)`` grows the generator to the windows of those two
    bounds, which only grow: ``det(n)`` asks for (n - 1, n - 1) and a
    series of level n to z^T for (n, max(n, T)).  ``level(n)`` takes I_n,
    I_{n+1} and kappa_n from ``det`` and scales the monic pair of
    ``monic_pair(n)``, which the Szego step grows upward from the highest
    cached level.

    The oracle adopts the precision ``prec`` of its moment sequence.  Every
    value it caches is computed there, inside the one context that each
    public query enters (a cached ``det`` or ``level`` is returned without
    it), and each generator entry is formed once, from level k - 1's
    entries alone, so no value depends on the precision or the order of
    the queries that reached it.  A query at a working precision other
    than the sequence's plan's ``working`` raises ``ValueError``, cached or
    not; the oracle's own calls, already at ``prec``, pass.  An h_k below
    the plan's ``lu_floor`` times h_(k-1) counts as vanishing (zero
    computes as noise): ``_vanishes`` is the one test, which the generator
    and ``level`` apply to the generator's h_k and the Szego step to its
    own.

    ``gauge`` maps level -> +-1 and fixes the kappa_n sign; the default is
    the principal branch everywhere.
    """

    def __init__(self, moments: MomentSequence, gauge=None):
        self.moments = moments
        self.prec = moments.prec
        self._gauge = dict(gauge) if gauge else {}
        self._dets = {0: mpc(1)}                # I_n, n = 0, 1, ...
        self._levels = {}
        self._monic = [([mpc(1)], [mpc(1)])]    # (P_k, Q_k), k = 0, 1, ...
        self._h = []                            # h_k of the Szego step
        self._wvals = {}                        # k -> w_k read by _window
        # the Schur generator: level k -> its sides (alpha_k, beta_k), each
        # {m: entry} over the window of the bounds (top, reach); and the
        # step out of level k, (h_k, a_k, b_k)
        self._gen = []
        self._bounds = (-1, -1)
        self._steps = []
        self._series = {}               # (side, n, truncation) -> Grid

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
        """I_n = I_{n-1} h_{n-1}, from the generator grown to level n - 1."""
        self._reach(n - 1, n - 1)
        return self._dets[n]

    def _vanishes(self, h: mpc, below) -> bool:
        """Whether h_k vanishes to working precision: h_k == 0, or |h_k|
        below the plan's ``lu_floor`` times |h_(k-1)| = |below| (0 at
        k = 0), decided on exact squares (``abs_square``)."""
        (fm, fe), (bm, be) = abs_square(self.moments.plan.lu_floor), \
            abs_square(below)
        return h == 0 or exceeds((fm * bm, fe + be), abs_square(h))

    def _reach(self, top: int, reach: int) -> None:
        """Grow the Schur generator to the bounds (top, reach), each the
        larger of the one asked for and the one held.  Every level k <= top
        then holds alpha_k(m) for k - top <= m <= reach and beta_k(s) for
        k - reach <= s <= top.

        Level k + 1's entry m of one side reads entry m - 1 of that side and
        entry k - m of the other side at level k, which lie in level k's
        window; so do h_k = alpha_k(k), alpha_k(-1) and beta_k(-1) for
        k < top, as every caller asks for reach >= top.  The entries a
        level lacks are formed from the bottom up, each once, and before
        level k is formed h_(k-1) passes the floor test (``_vanishes``).
        The bounds are recorded when the fill completes: after a
        ``Degenerate`` abort they are those held before it, and a later
        fill skips the entries that the aborted one formed.
        """
        gen, steps = self._gen, self._steps
        bounds = max(top, self._bounds[0]), max(reach, self._bounds[1])
        if bounds == self._bounds:
            return
        sources = (self.moments, ReflectedMoments(self.moments))
        for k in range(bounds[0] + 1):
            if k == len(gen):
                if k:
                    h = gen[k - 1][0][k - 1]
                    if self._vanishes(h, steps[-1][0] if steps else 0):
                        raise Degenerate(
                            f"determinant at level {k} vanishes to working "
                            f"precision; the Schur recursion stops here")
                    steps.append((h, *(-gen[k - 1][s][-1] / h
                                       for s in (0, 1))))
                gen.append(({}, {}))
            for s, entries in enumerate(gen[k]):
                new = [m for m in range(k - bounds[s], bounds[1 - s] + 1)
                       if m not in entries]
                if k:
                    own, other = gen[k - 1][s], gen[k - 1][1 - s]
                    entries.update(zip(new, _axpy(
                        steps[k - 1][1 + s], [other[k - 1 - m] for m in new],
                        [own[m - 1] for m in new])))
                else:
                    entries.update((m, to_mpc(sources[s].w(m))) for m in new)
            if k + 1 not in self._dets:
                self._dets[k + 1] = self._dets[k] * gen[k][0][k]
        self._bounds = bounds

    @_query
    def monic_pair(self, n: int):
        """(phi_n, phibar_n) / kappa_n, ascending, by the bi-orthogonal step.

        The three pairings of a step are dot products (``Grid.dot``) with
        one grid of the moment window w_{-n} .. w_n, formed once per call
        (``_window``, exact up to its cap), and with its reversal.
        Raises ``Degenerate`` at the first of its own h_k that vanishes to
        working precision (``_vanishes``).
        """
        pairs, hs = self._monic, self._h
        if n < len(pairs):
            return pairs[n]
        window = self._window(n)
        rev = Grid(window.re[::-1], window.im[::-1], window.exp)
        for k in range(len(pairs) - 1, n):
            P, Q = pairs[k]
            Pg, Qg = Grid.of(P), Grid.of(Q)
            h = Pg.dot(rev, n - k)                  # w_{k-j}: rev[n-k+j]
            if self._vanishes(h, hs[k - 1] if k else 0):
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

    def _window(self, n: int) -> Grid:
        """``Grid.of`` over the moment window w_{-n} .. w_n; each moment is
        read from ``moments`` once and held."""
        vals = self._wvals
        self.moments.extend(-n, n)
        for k in range(-n, n + 1):
            if k not in vals:
                vals[k] = self.moments.w(k)
        return Grid.of([vals[k] for k in range(-n, n + 1)])

    @_cached_query("_levels")
    def level(self, n: int) -> BopsLevel:
        In, In1 = self.det(n), self.det(n + 1)
        if self._vanishes(self._gen[n][0][n],
                          self._steps[n - 1][0] if n else 0):
            raise Degenerate(
                f"determinant at level {n + 1} vanishes to working "
                f"precision; the system truncates here")
        kap = self.gauge(n) * mpmath.sqrt(In / In1)
        P, Q = self.monic_pair(n)
        lev = BopsLevel(n=n, I=In, kappa=kap, gauge=self.gauge(n),
                        phi=[kap * c for c in P], phibar=[kap * c for c in Q])
        self._levels[n] = lev
        return lev

    @_query
    def eps_series(self, n: int, truncation: int) -> Grid:
        """eps_n up to z^truncation: 2 kappa_n alpha_n(m) at z^m."""
        return self._series_of(0, n, truncation, range(truncation + 1), 0)

    @_query
    def epsstar_series(self, n: int, truncation: int) -> Grid:
        """epsstar_n up to z^truncation, from z^(n+1): -2 kappa_n
        beta_n(-m) at z^(n+m)."""
        return self._series_of(1, n, truncation,
                               range(-1, n - truncation - 1, -1), n + 1)

    def _series_of(self, side: int, n: int, truncation: int, entries,
                   offset: int) -> Grid:
        """The ``entries`` of one side of level n, in that order, times
        +-2 kappa_n exactly, on the spectral grid (``Grid.from_poly``)
        from z^offset; formed once per (side, n, truncation)."""
        key = (side, n, truncation)
        if key not in self._series:
            scale = Grid.of([(-2 if side else 2) * self.level(n).kappa])
            self._reach(n, max(n, truncation))
            window = self._gen[n][side]
            g = Grid.from_poly(scale * Grid.of([window[m] for m in entries]))
            self._series[key] = Grid(g.re, g.im, g.exp, offset)
        return self._series[key]

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


def casoratian_residuals(oracle: ToeplitzOracle, n: int) -> list:
    """Relative residuals of the three cross-product identities at level n,
    as (label, residual) pairs ``Cas:a``, ``Cas:b`` and ``Cas:c``.

    Each combination of polynomial and associated-function series collapses
    to a single monomial; every other coefficient up to the truncation,
    z^(2n+10), must vanish.  The products are formed at the oracle's
    precision.
    """
    with oracle.precision():
        lev_n = oracle.level(n)
        lev_n1 = oracle.level(n + 1)
        top = 2 * n + 10
        # level n+1's series at the truncation its own Casoratian asks for,
        # so that each series is formed once
        eps_n = oracle.eps_series(n, top)
        eps_n1 = oracle.eps_series(n + 1, top + 2)
        est_n = oracle.epsstar_series(n, top)
        est_n1 = oracle.epsstar_series(n + 1, top + 2)

        def finish(label, built, mono_pow, mono_coeff):
            lo, hi = min(built.offset, mono_pow), max(built.top, mono_pow)
            got = built.window(lo, hi)
            # custom scale: the largest built coefficient or the monomial
            scale = largest_abs(got)
            got[mono_pow - lo] -= mono_coeff
            return label, ratio(largest_abs(got), scale, abs(mono_coeff))

        a = eps_n.mul_poly(lev_n1.phi, top) - \
            eps_n1.mul_poly(lev_n.phi, top)
        b = est_n.mul_poly(lev_n1.phistar, top) - \
            est_n1.mul_poly(lev_n.phistar, top)
        c = est_n.mul_poly(lev_n.phi, top) + \
            eps_n.mul_poly(lev_n.phistar, top)
        return [finish("Cas:a", a, n, 2 * lev_n1.phi0 / lev_n.kappa),
                finish("Cas:b", b, n + 1, 2 * lev_n1.phibar0 / lev_n.kappa),
                finish("Cas:c", c, n, mpc(2))]
