"""Spectral coefficients of the first-order matrix system and their identity lattice.

The matrix A_n(z) in dY_n/dz = A_n Y_n is parameterised by four polynomials
(Theta_n, Omega_n and starred partners).  With the origin and 1 among the
singularities (canonical placement, N free points) their degrees are

    deg Theta_n = deg Thetastar_n = N,
    deg Omega_n = deg Omegastar_n = N + 1.

Extraction works through the exact series inversions

    2 (phi_{n+1}(0)/kappa_n) z^n Theta_n
        = W [eps_n phi_n' - eps_n' phi_n] + 2V eps_n phi_n,

(and three companions), evaluated as truncated-series products of oracle
data, regrouped so that each eps-series meets one polynomial formed first,
e.g. eps_n (W phi_n' + 2V phi_n) - eps_n' (W phi_n) for the form above.
The forms stay in the integers of ``report.Grid`` on its spectral policy:
W, V and the phi-polynomials go on grids once, at the oracle's precision
``prec`` (the eps-series' own), their products are exact, each formed
polynomial is put on its grid once (``prec`` + 16 bits below its largest
coefficient, ``Grid.from_poly``), and each output is rounded once, at
``prec``, when the band is read: the whole extraction runs in the oracle's
one context (``ToeplitzOracle.precision``).  Every series coefficient
outside the band [z^n, z^(n+deg)] must vanish; the out-of-band maximum,
measured on exact squared magnitudes against the largest coefficient of the
form and rounded once (``report.sqrt_ratio``), is recorded and doubles as a
correctness alarm for the whole pipeline (it is the degree-bound check),
judged at the working precision.

The rest of the module turns the coupled recurrences, transition identities,
bilinear evaluations, summation identities, scalar ODE data and deformation
(Schlesinger) equations into residual reports.  The checks read point values
from tables: ``SpectralData`` (per level) and ``SpectralWorkspace`` (for W,
V and their derivatives) put each polynomial on its exact grid
(``Grid.of``, derivatives taken on the grid) once and evaluate it once
per point by ``polys.peval_grid``, Horner's rule in integers with one
rounding per part.  Every entry is keyed by the working precision, so a
value cached at one precision never serves another.  The coefficient
identities (rrCf:a-k) hand their multiplier products to ``vector_residual``
as factor tuples, which it forms exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath
from mpmath import mp, mpf, mpc

from .bops import BopsLevel, ToeplitzOracle
from .errors import (DegreeBoundViolated, EvaluationAtRootOfTheta,
                     SamplePointOnSingularity, SingularityCollision)
from .mputil import sample_points, to_mpc
from .polys import (padd, pdiff, peval_grid, pmul, pscale, pshift, psub,
                    ptrim, pdeg, pmax_abs)
from .report import (CheckResult, Grid, largest_abs, ratio, rel_error,
                     rel_residual, sqrt_ratio, vector_residual)
from .weights import PolyPair


class _PointTable:
    """Named polynomials, their exact grids ("ddW" is the grid of W'') and
    their values at points, each formed or evaluated once per working
    precision: keys carry mp.prec."""

    def memo(self, what, make):
        """make(), computed once per key and working precision."""
        key = (what, mp.prec)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = make()
        return got

    def poly(self, name: str) -> list:
        return self.memo(name, lambda: self._base(name))

    def grid(self, name: str) -> Grid:
        """The coefficients of ``name`` as an exact ``Grid``; a derivative
        is taken on the grid, exactly."""
        return self.memo(("grid", name), lambda: self.grid(name[1:]).diff()
                         if name[0] == "d" else Grid.of(self._base(name)))

    def at(self, name: str, z) -> mpc:
        """The polynomial at z, by ``peval_grid``: exact, then rounded once
        per part."""
        z = to_mpc(z)
        return self.memo((name, z._mpc_),
                         lambda: peval_grid(self.grid(name), z))


@dataclass
class SpectralData(_PointTable):
    """Coefficient vectors of the four spectral polynomials at one level."""

    n: int
    theta: list          # ascending, length N+1
    omega: list          # ascending, length N+2
    thetastar: list      # ascending, length N+1
    omegastar: list      # ascending, length N+2
    band_residual: mpf   # worst out-of-band series coefficient, relative
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def _base(self, name):
        return getattr(self, name)


def band_tolerance() -> mpf:
    """Out-of-band alarm threshold at P bits of precision.

    10^(-P/4) with two decades of headroom: roundoff amplification through
    the series products can lift the noise floor a little above 10^(-P/4)
    itself, and the acceptance bound at 128 bits is 1e-30.
    """
    return mpf(10) ** (-(mp.prec // 4) + 2)


def _extract_band(series: Grid, lo: int, deg: int, factor: mpc):
    """Divide by the known prefactor and split in-band / out-of-band mass."""
    inv = 1 / factor
    coeffs = [c * inv for c in series.window(lo, lo + deg)]
    # custom scale: the out-of-band mass against the whole series' largest,
    # compared as exact squared magnitudes on the series' grid and rounded
    # once
    sq = [x * x + y * y for x, y in zip(series.re, series.im)]
    band = range(lo - series.offset, lo + deg - series.offset + 1)
    worst = max((v for k, v in enumerate(sq) if k not in band), default=0)
    return coeffs, sqrt_ratio(worst, max(sq, default=0), 0)


def spectral_from_oracle(oracle: ToeplitzOracle, pair: PolyPair, n: int,
                         buffer: int = 6) -> SpectralData:
    """Spectral polynomials at level n from oracle data at levels n, n+1."""
    if pair.weight.placement != "canonical":
        raise ValueError("spectral extraction assumes canonical placement")
    alarm = band_tolerance()          # judged at the working precision
    with oracle.precision():
        return _spectral_from_oracle_impl(oracle, pair, n, buffer, alarm)


def _spectral_from_oracle_impl(oracle, pair, n, buffer, alarm):
    N = pair.N
    lev_n = oracle.level(n)
    lev_n1 = oracle.level(n + 1)
    top = n + N + 2 + buffer

    eps_n = oracle.eps_series(n, top + 1)
    eps_n1 = oracle.eps_series(n + 1, top + 1)
    est_n = oracle.epsstar_series(n, top + 1)
    est_n1 = oracle.epsstar_series(n + 1, top + 1)

    # 2 (phi0_{n+1}/kappa_n) z^n (Theta_n, Omega_n) = forms(eps, phi) with
    # W[e0 p0' - e0' p0] + 2V e0 p0 and W[e1 p0' - e0' p1] + V[e1 p0 + e0 p1],
    # grouped so that each eps-series meets one polynomial, formed exactly
    # from W, V and the family on their grids: with D = 2V - W',
    # W p0' + 2V p0 = (W p0)' + D p0 and W p0' + V p0 = that - V p0
    def forms(e0, e1, p0, p1):
        de0 = e0.diff()
        p0, p1 = Grid.from_poly(p0), Grid.from_poly(p1)
        Wp0 = times(Wg, p0)
        f_theta = Wp0.diff() + times(Dg, p0)
        f_omega = f_theta - times(Vg, p0)
        theta = e0.mul_poly(f_theta, top) - de0.mul_poly(Wp0, top)
        omega = e1.mul_poly(f_omega, top) - \
            de0.mul_poly(times(Wg, p1), top) + e0.mul_poly(times(Vg, p1), top)
        return theta, omega

    def times(a, b):
        return a.mul_poly(b, len(a) + len(b) - 2)

    V2 = pair.V2_mpc()
    Wg, Vg = (Grid.from_poly(p) for p in
              (pair.W_mpc(), pscale(V2, mpf("0.5"))))
    Dg = Grid.from_poly(V2) - Wg.diff()
    r_theta, r_omega = forms(eps_n, eps_n1, lev_n.phi, lev_n1.phi)
    # the starred pair is the negated pair of forms in (epsstar, phistar):
    # 2 (phibar0_{n+1}/kappa_n) z^{n+1} (Thetastar_n, Omegastar_n)
    #   = -forms(epsstar_n, epsstar_{n+1}, phistar_n, phistar_{n+1})
    r_ts, r_os = forms(est_n, est_n1, lev_n.phistar, lev_n1.phistar)
    fac = 2 * lev_n1.phi0 / lev_n.kappa
    theta, r1 = _extract_band(r_theta, n, N, fac)
    omega, r2 = _extract_band(r_omega, n, N + 1, fac)
    fac_s = -2 * lev_n1.phibar0 / lev_n.kappa
    thetastar, r3 = _extract_band(r_ts, n + 1, N, fac_s)
    omegastar, r4 = _extract_band(r_os, n + 1, N + 1, fac_s)

    band = max(r1, r2, r3, r4)
    if band > alarm:
        raise DegreeBoundViolated(
            f"out-of-band mass {mpmath.nstr(band, 6)} at level {n}")
    return SpectralData(n=n, theta=theta, omega=omega, thetastar=thetastar,
                        omegastar=omegastar, band_residual=band)


class SpectralWorkspace(_PointTable):
    """Cache of spectral data over one oracle, with shared weight data; its
    table also keeps each level's residue matrices and Garnier point."""

    def __init__(self, oracle: ToeplitzOracle, pair: PolyPair):
        self.oracle = oracle
        self.pair = pair
        self._data = {}
        self._memo = {}

    @property
    def weight(self):
        return self.pair.weight

    def data(self, n: int) -> SpectralData:
        """Spectral data at level n; refused, cached or not, at a precision
        the oracle refuses."""
        self.oracle.check_precision()
        if n not in self._data:
            self._data[n] = spectral_from_oracle(self.oracle, self.pair, n)
        return self._data[n]

    def level(self, n: int) -> BopsLevel:
        return self.oracle.level(n)

    def kappa_ratio(self, n: int) -> mpc:
        """kappa_{n+1}/kappa_n."""
        return self.level(n + 1).kappa / self.level(n).kappa

    # -- W, 2V, V, W/z and their derivatives, by name -------------------------

    def _base(self, name):
        W, V2 = self.pair.W_mpc(), self.pair.V2_mpc()
        if name == "Woz" and W[0] != 0:
            raise ValueError("W/z needs the origin singular")
        return {"W": W, "V2": V2, "V": pscale(V2, mpf("0.5")),
                "Woz": W[1:]}[name]

    def wprime_at(self, z) -> mpc:
        v = self.at("dW", z)
        if v == 0:
            raise SingularityCollision("W' vanished at a singularity")
        return v

    def singularities(self):
        return self.pair.weight.singularities_mpc()

    def residues(self):
        return self.pair.weight.residues_mpc()


# ---------------------------------------------------------------------------
# the spectral matrix and its residue matrices
# ---------------------------------------------------------------------------

def a_matrix(ws: SpectralWorkspace, n: int, z) -> list:
    """A_n(z) entries from the spectral parameterisation."""
    z = to_mpc(z)
    sd = ws.data(n)
    lev_n, lev_n1 = ws.level(n), ws.level(n + 1)
    kr = ws.kappa_ratio(n)
    W = ws.poly("W")
    Wz = ws.at("W", z)
    floor = ws.memo("W floor", lambda: mpf(2) ** (-mp.prec + 8) *
                    pmax_abs(W)) * max(abs(z), mpf(1)) ** len(W)
    if abs(Wz) <= floor:
        raise SamplePointOnSingularity("A_n evaluated at a zero of W")
    inv = 1 / Wz
    Vz = ws.at("V", z)
    th, om = sd.at("theta", z), sd.at("omega", z)
    ts, os_ = sd.at("thetastar", z), sd.at("omegastar", z)
    a11 = -(om + Vz - kr * z * th) * inv
    a12 = (lev_n1.phi0 / lev_n.kappa) * th * inv
    a21 = -(lev_n1.phibar0 / lev_n.kappa) * z * ts * inv
    a22 = (os_ - Vz - kr * ts) * inv
    return [[a11, a12], [a21, a22]]


def residue_matrices(ws: SpectralWorkspace, n: int) -> list:
    """A_{n,j} for every finite singularity, in weight order.

    The origin entry is computed from the same generic formula with the
    z*Theta terms dropping out; its displayed special form and the explicit
    infinity matrix are verified separately by `residue_structure_checks`.
    The workspace keeps them per level and precision.
    """
    def make():
        sd = ws.data(n)
        lev_n, lev_n1 = ws.level(n), ws.level(n + 1)
        kr = ws.kappa_ratio(n)
        out = []
        for z in ws.singularities():
            inv = 1 / ws.wprime_at(z)
            Vz = ws.at("V", z)
            th, om = sd.at("theta", z), sd.at("omega", z)
            ts, os_ = sd.at("thetastar", z), sd.at("omegastar", z)
            a11 = (-(om + Vz) + kr * z * th) * inv
            a12 = (lev_n1.phi0 / lev_n.kappa) * th * inv
            a21 = -(lev_n1.phibar0 / lev_n.kappa) * z * ts * inv
            a22 = (os_ - Vz - kr * ts) * inv
            out.append([[a11, a12], [a21, a22]])
        return out
    return ws.memo(("residues", n), make)


def a_infinity(residues: list) -> list:
    """A_{n,infinity} = - sum of finite residue matrices."""
    out = [[mpc(0), mpc(0)], [mpc(0), mpc(0)]]
    for m in residues:
        for i in range(2):
            for j in range(2):
                out[i][j] -= m[i][j]
    return out


def _mat_scale(mats) -> mpf:
    return largest_abs([x for m in mats for row in m for x in row])


def residue_structure_checks(ws: SpectralWorkspace, n: int, tol) -> list:
    """Displayed forms of A_{n,0} and A_{n,infinity}, trace values, and the
    partial-fraction reconstruction of A_n at sample points."""
    lev = ws.level(n)
    mats = residue_matrices(ws, n)
    ainf = a_infinity(mats)
    zs = ws.singularities()
    rhos = ws.residues()
    # custom scale for An:res0, An:resInfty and An:trace: the largest entry
    # of all the level's residue matrices, at least 1
    scale = (_mat_scale(mats), mpf(1))
    out = []

    rho0 = rhos[0]
    want0 = [[(n - rho0), -(n - rho0) * lev.r], [mpc(0), mpc(0)]]
    d0 = largest_abs([mats[0][i][j] - want0[i][j]
                      for i in range(2) for j in range(2)])
    out.append(CheckResult.make("An:res0", ratio(d0, *scale), tol, n))

    rho_sum = sum(rhos)
    wantinf = [[mpc(-n), mpc(0)],
               [-(n + rho_sum) * lev.rbar, rho_sum]]
    dinf = largest_abs([ainf[i][j] - wantinf[i][j]
                        for i in range(2) for j in range(2)])
    out.append(CheckResult.make("An:resInfty", ratio(dinf, *scale), tol, n))

    worst_tr = largest_abs([mats[j][0][0] + mats[j][1][1] + rhos[j]
                            for j in range(1, len(zs))])
    out.append(CheckResult.make("An:trace", ratio(worst_tr, *scale), tol, n,
                                note="Tr A_{n,j} = -rho_j at nonzero points"))

    pts = sample_points(3, avoid=zs, seed=17 + n)
    worst_pf = mpf(0)
    for z in pts:
        direct = a_matrix(ws, n, z)
        rec = [[mpc(0), mpc(0)], [mpc(0), mpc(0)]]
        for zj, m in zip(zs, mats):
            f = 1 / (z - zj)
            for i in range(2):
                for k in range(2):
                    rec[i][k] += m[i][k] * f
        worst_pf = max(worst_pf, rel_error(
            [rec[i][k] for i in range(2) for k in range(2)],
            [direct[i][k] for i in range(2) for k in range(2)], 1e-30))
    out.append(CheckResult.make("An:pf", worst_pf, tol, n,
                                note="partial-fraction reconstruction"))
    return out


# ---------------------------------------------------------------------------
# linear recurrences, transitions, bilinear evaluations
# ---------------------------------------------------------------------------

def check_linear_recurrences(ws: SpectralWorkspace, n: int, tol) -> list:
    """Residuals of the eight coupled recurrences centred at level n (n >= 1).

    Each vector is a spectral polynomial's exact grid, or a tuple of
    factors whose product ``vector_residual`` forms exactly; z Theta is the
    grid shifted by one.
    """
    if n < 1:
        raise ValueError("linear recurrences need n >= 1")
    sm1, s0, s1 = ws.data(n - 1), ws.data(n), ws.data(n + 1)
    lm1, l0, l1, l2 = (ws.level(n - 1), ws.level(n), ws.level(n + 1),
                       ws.level(n + 2))
    Woz = ws.grid("Woz")
    kr = l1.kappa / l0.kappa          # kappa_{n+1}/kappa_n
    kr2 = l2.kappa / l1.kappa         # kappa_{n+2}/kappa_{n+1}
    om0, om1, omm1 = s0.grid("omega"), s1.grid("omega"), sm1.grid("omega")
    os0, os1, osm1 = (s0.grid("omegastar"), s1.grid("omegastar"),
                      sm1.grid("omegastar"))
    th0, th1, thm1 = s0.grid("theta"), s1.grid("theta"), sm1.grid("theta")
    ts0, ts1, tsm1 = (s0.grid("thetastar"), s1.grid("thetastar"),
                      sm1.grid("thetastar"))
    out = []

    def rescheck(label, vectors):
        out.append(CheckResult.make(label, vector_residual(vectors), tol, n))

    # a
    aa = l1.phi0 / l0.phi0
    rescheck("rrCf:a", [om0, omm1, (-1, [aa, kr], th0), (n - 1, Woz)])
    # b
    rescheck("rrCf:b", [([aa, kr], omm1 - om0),
                        (l0.kappa * l2.phi0 / (l1.kappa * l1.phi0),
                         th1.shift(1)),
                        (-lm1.kappa * l1.phi0 / (l0.kappa * l0.phi0),
                         thm1.shift(1)),
                        (-aa, Woz)])
    # c
    bb = l1.phibar0 / l0.phibar0
    rescheck("rrCf:c", [os0, osm1, (-1, [kr, bb], ts0), (-n, Woz)])
    # d
    rescheck("rrCf:d", [([kr, bb], osm1 - os0),
                        (l0.kappa * l2.phibar0 / (l1.kappa * l1.phibar0),
                         ts1.shift(1)),
                        (-lm1.kappa * l1.phibar0 / (l0.kappa * l0.phibar0),
                         tsm1.shift(1)),
                        (kr, Woz)])
    # e
    aa2 = l2.phi0 / l1.phi0
    rescheck("rrCf:e", [om1, os0, (-1, [aa2, kr2], th1),
                        (kr, th0.shift(1) - ts0)])
    # f
    rescheck("rrCf:f", [om0, -om1,
                        (kr2, [l1.phibar0 * l2.phi0 / (l1.kappa * l2.kappa),
                               1], th1),
                        (l1.phi0 * l1.phibar0 / (l1.kappa * l0.kappa), ts0),
                        (-kr, th0.shift(1)),
                        -Woz])
    # g
    bb2 = l2.phibar0 / l1.phibar0
    rescheck("rrCf:g", [os1, om0, (-1, [kr2, bb2], ts1),
                        (-kr, th0.shift(1) - ts0), -Woz])
    # h
    rescheck("rrCf:h", [os0, -os1,
                        (kr2, [1, l1.phi0 * l2.phibar0 /
                               (l1.kappa * l2.kappa)], ts1),
                        (l1.phi0 * l1.phibar0 / (l1.kappa * l0.kappa),
                         th0.shift(1)),
                        (-kr, ts0)])
    return out


def check_transitions(ws: SpectralWorkspace, n: int, tol, npoints: int = 5,
                      seed: int = 23) -> list:
    """The three transition identities, as coefficient vectors and at points."""
    s0 = ws.data(n)
    l0, l1 = ws.level(n), ws.level(n + 1)
    kr = l1.kappa / l0.kappa
    Woz = ws.grid("Woz")
    th0, ts0 = s0.grid("theta"), s0.grid("thetastar")
    out = []

    if n >= 1:
        sm1 = ws.data(n - 1)
        lm1 = ws.level(n - 1)
        vecs_i = [(l1.phibar0 / l0.phibar0, ts0.shift(1)),
                  (-l0.kappa / lm1.kappa, sm1.grid("thetastar")),
                  (-l1.phi0 / l0.phi0, th0),
                  (l0.kappa / lm1.kappa, sm1.grid("theta").shift(1))]
        out.append(CheckResult.make("rrCf:i", vector_residual(vecs_i), tol, n))

    vecs_j = [s0.grid("omegastar"), (-kr, ts0), -s0.grid("omega"),
              (kr, th0.shift(1)), (-n, Woz)]
    out.append(CheckResult.make("rrCf:j", vector_residual(vecs_j), tol, n))

    s1 = ws.data(n + 1)
    l2 = ws.level(n + 2)
    vecs_k = [s0.grid("omegastar"), s0.grid("omega"),
              (-(l0.kappa ** 2 / l1.kappa ** 2) * (l2.phi0 / l1.phi0),
               s1.grid("theta")),
              (-(l0.kappa / l1.kappa), ts0), -Woz]
    out.append(CheckResult.make("rrCf:k", vector_residual(vecs_k), tol, n))

    # pointwise spot checks of rrCf:j on the sample circle
    pts = sample_points(npoints, avoid=ws.singularities(), seed=seed + n)
    worst = mpf(0)
    for z in pts:
        terms = [s0.at("omegastar", z), -kr * s0.at("thetastar", z),
                 -s0.at("omega", z), kr * z * s0.at("theta", z),
                 -n * ws.at("Woz", z)]
        worst = max(worst, rel_residual(terms))
    out.append(CheckResult.make("rrCf:j@pts", worst, tol, n))

    # Tform:a / Tform:b at every finite singularity (origin uses W'(0) as the
    # limit of W(z)/z)
    worst_a = mpf(0)
    worst_b = mpf(0)
    coupling = l1.phi0 * l1.phibar0 / l0.kappa ** 2
    for zj in ws.singularities():
        woz = ws.at("Woz", zj)
        Vz = ws.at("V", zj)
        th, om = s0.at("theta", zj), s0.at("omega", zj)
        ts, os_ = s0.at("thetastar", zj), s0.at("omegastar", zj)
        kzth = kr * zj * th
        worst_a = max(worst_a, rel_residual(
            [os_, -kr * ts, -om, kzth, -n * woz]))
        lhs = coupling * zj * ts
        b1 = om + Vz - kzth
        b2 = om - Vz - kzth + n * woz
        rhs = b1 * b2 / th
        # custom scale: at the origin both sides vanish by cancellation
        # inside b2; measure against the pre-cancellation magnitudes
        s1 = largest_abs([om, Vz, kzth])
        s2 = max(s1, abs(n * woz))
        sb = (abs(lhs), s1 * s2 / abs(th)) if th != 0 else (abs(lhs),)
        worst_b = max(worst_b, ratio(abs(lhs - rhs), *sb))
    out.append(CheckResult.make("Tform:a", worst_a, tol, n))
    out.append(CheckResult.make("Tform:b", worst_b, tol, n))
    return out


def check_bilinear(ws: SpectralWorkspace, n: int, tol) -> list:
    """The five bilinear evaluations at every nonzero finite singularity."""
    s0, s1 = ws.data(n), ws.data(n + 1)
    l0, l1, l2 = ws.level(n), ws.level(n + 1), ws.level(n + 2)
    kr = l1.kappa / l0.kappa
    out = []
    zs = ws.singularities()[1:]

    def addcheck(label, pairs):
        worst = max((rel_residual([lhs, -rhs], 1e-40) for lhs, rhs in pairs),
                    default=mpf(0))
        out.append(CheckResult.make(label, worst, tol, n))

    ca = l0.kappa * l2.phi0 / (l1.kappa * l1.phi0)
    cb = l0.kappa * l2.phibar0 / (l1.kappa * l1.phibar0)
    ce = l1.phi0 * l1.phibar0 / l0.kappa ** 2
    pairs_a, pairs_b, pairs_e = [], [], []
    for zj in zs:
        Vz = ws.at("V", zj)
        th, om = s0.at("theta", zj), s0.at("omega", zj)
        ts, os_ = s0.at("thetastar", zj), s0.at("omegastar", zj)
        pairs_a.append((om ** 2, ca * zj * th * s1.at("theta", zj) + Vz ** 2))
        pairs_b.append((os_ ** 2,
                        cb * zj * ts * s1.at("thetastar", zj) + Vz ** 2))
        pairs_e.append((ce * zj * th * ts,
                        (om + Vz - kr * zj * th) * (os_ - Vz - kr * ts)))
    addcheck("OTeq:a", pairs_a)
    addcheck("OTeq:b", pairs_b)

    if n >= 1:
        sm1 = ws.data(n - 1)
        lm1 = ws.level(n - 1)
        # the coupling constant carries kappa_{n-1}/kappa_n (required for
        # gauge invariance, confirmed numerically against the oracle)
        cc = (lm1.kappa ** 2 / l0.kappa ** 2) * (l1.phi0 / l0.phi0)
        cd = (lm1.kappa ** 2 / l0.kappa ** 2) * (l1.phibar0 / l0.phibar0)
        rc = lm1.kappa * l1.phi0 * l0.phibar0 / l0.kappa ** 3
        rd = lm1.kappa * l1.phibar0 * l0.phi0 / l0.kappa ** 3
        pairs_c, pairs_d = [], []
        for zj in zs:
            Vz = ws.at("V", zj)
            th, ts = s0.at("theta", zj), s0.at("thetastar", zj)
            pairs_c.append(((sm1.at("omega", zj) - cc * th) ** 2,
                            rc * th * sm1.at("thetastar", zj) + Vz ** 2))
            pairs_d.append(((sm1.at("omegastar", zj) - cd * zj * ts) ** 2,
                            rd * zj ** 2 * ts * sm1.at("theta", zj) + Vz ** 2))
        addcheck("OTeq:c", pairs_c)
        addcheck("OTeq:d", pairs_d)
    addcheck("OTeq:e", pairs_e)
    return out


# ---------------------------------------------------------------------------
# summation identities
# ---------------------------------------------------------------------------

def _sum_residual(lhs_terms, rhs) -> mpf:
    """Relative residual of sum(lhs) = rhs.

    ``rhs`` may be a list of additive parts; the scale then includes each
    part separately, which keeps the measure meaningful when the right side
    cancels to zero (e.g. single-coordinate cases of the pairwise sums).
    """
    rhs_parts = rhs if isinstance(rhs, (list, tuple)) else [rhs]
    return rel_residual(list(lhs_terms) + [-p for p in rhs_parts])


def check_summation_identities(ws: SpectralWorkspace, n: int, tol,
                               garnier_point=None) -> list:
    """All summation identities available at this level.

    Without canonical coordinates only the singularity sums are checked; when
    a coordinate set is supplied the coordinate-sum families (including the
    logarithmic-derivative identity at the roots) are added.
    """
    sd = ws.data(n)
    l0, l1 = ws.level(n), ws.level(n + 1)
    kr = l1.kappa / l0.kappa
    zs = ws.singularities()
    rhos = ws.residues()
    rho_sum = sum(rhos)
    out = []

    wp = [ws.wprime_at(z) for z in zs]
    th = [sd.at("theta", z) for z in zs]
    th_w = [t / w for t, w in zip(th, wp)]
    Vz = [ws.at("V", z) for z in zs]

    out.append(CheckResult.make("sum2:a", _sum_residual(th_w, 0), tol, n))
    # leading coefficient of Thetastar via the residue sum; the z_j weight
    # restores consistency with the infinity residue matrix
    out.append(CheckResult.make(
        "sum2:b",
        _sum_residual([z * sd.at("thetastar", z) / w for z, w in zip(zs, wp)],
                      -(n + rho_sum) * l0.phibar0 / l1.phibar0),
        tol, n, note="with z_j weight"))
    out.append(CheckResult.make(
        "sum2:c",
        _sum_residual([(sd.at("omega", z) - v - kr * z * t) / w
                       for z, t, v, w in zip(zs, th, Vz, wp)], -(n + rho_sum)),
        tol, n))
    out.append(CheckResult.make(
        "sum2:d",
        _sum_residual([(sd.at("omegastar", z) - v - kr * sd.at("thetastar", z))
                       / w for z, v, w in zip(zs, Vz, wp)], -rho_sum),
        tol, n))

    # singularity-only sums
    worst_a = worst_b = worst_c = mpf(0)
    for j in range(1, len(zs) - 1):
        zj = zs[j]
        dz = [(k, zj - zk) for k, zk in enumerate(zs) if k != j]
        wpp = ws.at("ddW", zj)
        worst_a = max(worst_a, _sum_residual(
            [1 / d for _, d in dz], wpp / (2 * wp[j])))
        rhs = ws.at("dV2", zj) / wp[j] - Vz[j] * wpp / wp[j] ** 2
        worst_b = max(worst_b, _sum_residual(
            [rhos[k] / d for k, d in dz], rhs))
        rhs = sd.at("dtheta", zj) / wp[j] - th[j] * wpp / (2 * wp[j] ** 2)
        worst_c = max(worst_c, _sum_residual(
            [th_w[k] / d for k, d in dz], rhs))
    out.append(CheckResult.make("Ssum:a", worst_a, tol, n))
    out.append(CheckResult.make("Ssum:b", worst_b, tol, n))
    out.append(CheckResult.make("Ssum:c", worst_c, tol, n))

    # theta(z_k) z_k^sigma, the numerators of every Ssum:d-g term
    thz = [[t * z ** sigma for sigma in range(5)] for z, t in zip(zs, th)]
    theta_inf = sd.theta[-1]
    zsum = sum(zs[1:-1])
    qsum_coeff = -sd.theta[-2] / sd.theta[-1]
    vals = {0: mpc(0), 1: theta_inf,
            2: theta_inf * (1 + zsum - qsum_coeff)}
    worst = mpf(0)
    for sigma, want in vals.items():
        worst = max(worst, _sum_residual(
            [tz[sigma] / w for tz, w in zip(thz, wp)], want))
    out.append(CheckResult.make("Ssum:d", worst, tol, n))

    if garnier_point is not None:
        out.extend(_coordinate_sums(ws, n, tol, garnier_point, wp, thz))
    return out


def _coordinate_sums(ws: SpectralWorkspace, n: int, tol, point, wp,
                     thz) -> list:
    """The coordinate-sum families needing the roots of Theta_n; wp and thz
    are W'(z_k) and the Ssum numerators of ``check_summation_identities``."""
    sd = ws.data(n)
    zs = ws.singularities()
    q = list(point.q)
    N = len(q)
    theta_inf = sd.theta[-1]
    rho0 = ws.residues()[0]
    rho1 = ws.residues()[-1]
    zsum = sum(zs[1:-1])
    qsum = sum(q)
    out = []
    # values at the roots, and the denominators shared by the Ssum families
    thq = [sd.at("dtheta", qr) for qr in q]
    thppq = [sd.at("ddtheta", qr) for qr in q]
    Wq = [ws.at("W", qr) for qr in q]
    dWq = [ws.at("dW", qr) for qr in q]
    V2q = [ws.at("V2", qr) for qr in q]
    zq = [[z - qr for qr in q] for z in zs]
    den1 = [[w * d[r] for w, d in zip(wp, zq)] for r in range(N)]
    den2 = [[[d1 * d[s] for d1, d in zip(den1[r], zq)] for s in range(N)]
            for r in range(N)]

    # Ssum:e
    worst = mpf(0)
    for r in range(N):
        for sigma in range(4):
            lhs = [tz[sigma] / d for tz, d in zip(thz, den1[r])]
            if sigma <= 1:
                want = mpc(0)
            elif sigma == 2:
                want = theta_inf
            else:
                want = theta_inf * (1 + zsum - (qsum - q[r]))
            worst = max(worst, _sum_residual(lhs, want))
    out.append(CheckResult.make("Ssum:e", worst, tol, n))

    # Ssum:f over index pairs
    worst = mpf(0)
    for r in range(N):
        for s in range(N):
            for sigma in range(5):
                lhs = [tz[sigma] / d for tz, d in zip(thz, den2[r][s])]
                want = mpc(0)
                if r == s:
                    want -= q[r] ** sigma * thq[r] / Wq[r]
                if sigma == 3:
                    want += theta_inf
                elif sigma == 4:
                    want += theta_inf * (1 + zsum - qsum + q[r] + q[s])
                worst = max(worst, _sum_residual(lhs, want))
    out.append(CheckResult.make("Ssum:f", worst, tol, n))

    # Ssum:g over index triples, sigma <= 3
    worst = mpf(0)
    for r in range(N):
        for s in range(N):
            for t in range(N):
                den3 = [d2 * d[t] for d2, d in zip(den2[r][s], zq)]
                for sigma in range(4):
                    lhs = [tz[sigma] / d for tz, d in zip(thz, den3)]
                    want = mpc(0)
                    if r == s and s != t:
                        want -= q[s] ** sigma * thq[s] / \
                            ((q[r] - q[t]) * Wq[s])
                    if t == r and s != r:
                        want -= q[r] ** sigma * thq[r] / \
                            ((q[t] - q[s]) * Wq[r])
                    if s == t and r != t:
                        want -= q[t] ** sigma * thq[t] / \
                            ((q[s] - q[r]) * Wq[t])
                    if r == s and s == t:
                        want += q[r] ** sigma * thq[r] / Wq[r] * \
                            (dWq[r] / Wq[r] - thppq[r] / (2 * thq[r]) -
                             sigma / q[r])
                    worst = max(worst, _sum_residual(lhs, want))
    out.append(CheckResult.make("Ssum:g", worst, tol, n))

    # Tsum family
    th0 = sd.at("theta", mpc(0))
    th1 = sd.at("theta", mpc(1))
    wp0 = ws.at("dW", mpc(0))
    wp1 = ws.at("dW", mpc(1))
    m0 = ws.pair.m_mpc()[0]
    qq1 = [qr * (qr - 1) for qr in q]
    qq1t = [a * tq for a, tq in zip(qq1, thq)]

    worst = mpf(0)
    for r in range(N):
        lhs = [1 / (q[r] - q[s]) for s in range(N) if s != r]
        worst = max(worst, _sum_residual(lhs, thppq[r] / (2 * thq[r])))
    out.append(CheckResult.make("Tsum:a", worst, tol, n))

    res = _sum_residual(
        [v / d for v, d in zip(V2q, qq1t)],
        [m0 / theta_inf, rho0 * wp0 / th0, -rho1 * wp1 / th1])
    out.append(CheckResult.make("Tsum:b", res, tol, n))

    worst_c = worst_d = worst_h = mpf(0)
    for j in range(1, len(zs) - 1):
        zj = zs[j]
        thzj = sd.at("theta", zj)
        v2zj = ws.at("V2", zj)
        lhs = [v / ((zj - qr) ** 2 * tq) for qr, v, tq in zip(q, V2q, thq)]
        rhs = [m0 / theta_inf, -ws.at("dV2", zj) / thzj,
               v2zj * sd.at("dtheta", zj) / thzj ** 2]
        worst_c = max(worst_c, _sum_residual(lhs, rhs))
        lhs = [v / ((zj - qr) * qr * tq) for qr, v, tq in zip(q, V2q, thq)]
        rhs = [-m0 / theta_inf, -ws.at("V2", mpc(0)) / (zj * th0),
               v2zj / (zj * thzj)]
        worst_d = max(worst_d, _sum_residual(lhs, rhs))
        lhs = [zj * (zj - 1) * v / (d * (zj - qr))
               for qr, v, d in zip(q, V2q, qq1t)]
        rhs = [rho0 * (wp0 / th0) * (zj - 1), -rho1 * (wp1 / th1) * zj,
               v2zj / thzj]
        worst_h = max(worst_h, _sum_residual(lhs, rhs))
    out.append(CheckResult.make("Tsum:c", worst_c, tol, n))
    out.append(CheckResult.make(
        "Tsum:d", worst_d, tol, n,
        note="constant term uses 2V(0), from the residue computation"))
    out.append(CheckResult.make("Tsum:h", worst_h, tol, n))

    worst = mpf(0)
    for r in range(N):
        qr = q[r]
        lhs = [qq1[r] * V2q[s] / (qq1t[s] * (qr - q[s]))
               for s in range(N) if s != r]
        rhs = [rho0 * (wp0 / th0) * (qr - 1), -rho1 * (wp1 / th1) * qr,
               ws.at("dV2", qr) / thq[r],
               -V2q[r] * thppq[r] / (2 * thq[r] ** 2),
               -V2q[r] * (2 * qr - 1) / qq1t[r]]
        worst = max(worst, _sum_residual(lhs, rhs))
    out.append(CheckResult.make("Tsum:e", worst, tol, n))

    worst = mpf(0)
    for j in range(1, len(zs) - 1):
        zj = zs[j]
        lhs = [w / ((zj - qr) * qr * (qr - 1) * tq)
               for qr, w, tq in zip(q, Wq, thq)]
        worst = max(worst, _sum_residual(lhs, -1 / theta_inf))
    out.append(CheckResult.make("Tsum:f", worst, tol, n))

    worst = mpf(0)
    for r in range(N):
        qr = q[r]
        lhs = [Wq[s] / (qq1t[s] * (qr - q[s])) for s in range(N) if s != r]
        cr = Wq[r] / qq1t[r]
        rhs = [-1 / theta_inf, cr * dWq[r] / Wq[r],
               -cr * thppq[r] / (2 * thq[r]),
               -cr * (2 * qr - 1) / qq1[r]]
        worst = max(worst, _sum_residual(lhs, rhs))
    out.append(CheckResult.make("Tsum:g", worst, tol, n))
    return out


# ---------------------------------------------------------------------------
# scalar ODE data
# ---------------------------------------------------------------------------

def _ode_level(ws: SpectralWorkspace, n: int) -> dict:
    """The per-level constants of the scalar ODE, once per precision: the
    kappa ratio, the coupling, the root floors of Theta_n and Thetastar_n
    (before their |z| factor) and the skip threshold 10^(-prec/4)."""
    sd = ws.data(n)

    def make():
        l0, l1 = ws.level(n), ws.level(n + 1)
        unit = mpf(2) ** (-mp.prec + 12)
        return {"kr": l1.kappa / l0.kappa,
                "coupling": l1.phi0 * l1.phibar0 / l0.kappa ** 2,
                "theta_floor": unit * pmax_abs(sd.theta),
                "thetastar_floor": unit * pmax_abs(sd.thetastar),
                "skip": mpf(10) ** (-mp.prec // 4)}
    return sd.memo("ode", make)


def scalar_ode_data(ws: SpectralWorkspace, n: int, z):
    """ODE coefficients plus the magnitude scales of their additive pieces.

    The second coefficients are alternating sums that can cancel completely
    (they vanish identically at level zero), so residuals must be judged
    against the pieces, not the sum.
    """
    z = to_mpc(z)
    sd = ws.data(n)
    lv = _ode_level(ws, n)
    kr = lv["kr"]
    Wz = ws.at("W", z)
    if Wz == 0 or z == 0:
        raise SamplePointOnSingularity("ODE coefficients at a singular point")
    th = sd.at("theta", z)
    ts = sd.at("thetastar", z)
    zfac = max(abs(z), mpf(1)) ** len(sd.theta)
    if abs(th) <= lv["theta_floor"] * zfac or \
       abs(ts) <= lv["thetastar_floor"] * zfac:
        raise EvaluationAtRootOfTheta("z is a root of a spectral polynomial")
    thp = sd.at("dtheta", z)
    tsp = sd.at("dthetastar", z)
    om, os_ = sd.at("omega", z), sd.at("omegastar", z)
    omp = sd.at("domega", z)
    osp = sd.at("domegastar", z)
    Vz = ws.at("V2", z) / 2
    Vp = ws.at("dV2", z) / 2
    Wp = ws.at("dW", z)
    inv = 1 / Wz
    inv2 = inv * inv

    p1 = (Wp + 2 * Vz) * inv - thp / th - mpf(n) / z
    cross = ((om + Vz - kr * z * th) * (os_ - Vz - kr * ts)) * inv2
    tail = lv["coupling"] * z * th * ts * inv2
    p2_parts = [(th * (omp + Vp) - thp * (om + Vz)) * inv / th,
                -kr * th * inv, -cross, tail]
    p2 = sum(p2_parts)
    p1s = (Wp + 2 * Vz) * inv - tsp / ts - mpf(n + 1) / z
    p2s_parts = [((ts / z + tsp) * (os_ - Vz) - ts * (osp - Vp)) * inv / ts,
                 -kr * ts * inv / z, -cross, tail]
    p2s = sum(p2s_parts)
    return {"p1": p1, "p2": p2, "p1s": p1s, "p2s": p2s,
            "p2_scale": largest_abs(p2_parts),
            "p2s_scale": largest_abs(p2s_parts)}


def scalar_ode_residuals(ws: SpectralWorkspace, n: int, tol, npoints: int = 10,
                         seed: int = 41) -> list:
    """|phi'' + p1 phi' + p2 phi| (and starred) at sample points, relative."""
    l0 = ws.level(n)
    sd = ws.data(n)
    skip = _ode_level(ws, n)["skip"]
    avoid = list(ws.singularities())
    pts = sample_points(npoints, avoid=avoid, seed=seed + n)
    fam = [Grid.of(l0.phi), Grid.of(l0.phistar)]
    fam += [g.diff() for g in fam]
    fam += [g.diff() for g in fam[2:]]
    # each distinct grid once per point: at level 0 phi = phistar, and the
    # derivatives of constants vanish
    keys = [(tuple(g.re), tuple(g.im), g.exp) for g in fam]
    first = [keys.index(k) for k in keys]
    worst = mpf(0)
    worst_s = mpf(0)
    for z in pts:
        if abs(sd.at("theta", z)) < skip or abs(sd.at("thetastar", z)) < skip:
            continue
        d = scalar_ode_data(ws, n, z)
        vals = [peval_grid(g, z) if i == k else None
                for i, (g, k) in enumerate(zip(fam, first))]
        v, vs, dv, dvs, ddv, ddvs = (vals[k] for k in first)
        # custom scale: p2 judged against its pieces, not their sum
        terms = [ddv, d["p1"] * dv, d["p2"] * v]
        worst = max(worst, ratio(abs(sum(terms)), largest_abs(terms[:2]),
                                 d["p2_scale"] * abs(v)))
        terms = [ddvs, d["p1s"] * dvs, d["p2s"] * vs]
        worst_s = max(worst_s, ratio(abs(sum(terms)), largest_abs(terms[:2]),
                                     d["p2s_scale"] * abs(vs)))
    return [CheckResult.make("2ODE:a", worst, tol, n),
            CheckResult.make("2ODE:b", worst_s, tol, n)]


def p2_asymptotic_constant(ws: SpectralWorkspace, n: int) -> mpc:
    """Exact limit of z(z-1) p_2 as z -> infinity, by polynomial algebra."""
    sd = ws.data(n)
    l0, l1 = ws.level(n), ws.level(n + 1)
    kr = l1.kappa / l0.kappa
    W, V2 = ws.poly("W"), ws.poly("V2")
    V = pscale(V2, mpf("0.5"))
    th, om = sd.theta, sd.omega
    ts, os_ = sd.thetastar, sd.omegastar
    omV = padd(om, V)
    osV = psub(os_, V)
    # common denominator W^2 * Theta
    num = pmul(psub(pmul(th, pdiff(omV)), pmul(pdiff(th), omV)), W)
    num = psub(num, pscale(pmul(pmul(th, th), W), kr))
    num = psub(num, pmul(psub(omV, pscale(pshift(th, 1), kr)),
                         pmul(psub(osV, pscale(ts, kr)), th)))
    num = padd(num, pscale(pmul(pshift(pmul(th, ts), 1), th),
                           l1.phi0 * l1.phibar0 / l0.kappa ** 2))
    den = pmul(pmul(W, W), th)
    num = ptrim(num)
    den = ptrim(den)
    if pdeg(num) > pdeg(den) - 2:
        extra = ratio(pmax_abs(num[pdeg(den) - 1:]), pmax_abs(num))
        if extra > band_tolerance():
            raise DegreeBoundViolated("p2 does not decay like z^-2")
        num = num[:pdeg(den) - 1]
    return num[-1] / den[-1] if pdeg(num) == pdeg(den) - 2 else mpc(0)
