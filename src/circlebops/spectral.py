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
judged against the plan's ``band_alarm``.

Each of the two symmetric halves, the pair from (eps, phi) and the starred
pair, has its own band read, alarm and reflection-coefficient test, and the
starred half is formed when first read (``SpectralData``): a half's alarm
fires when that half is formed, so it guards every value a check reads.

The rest of the module turns the coupled recurrences, transition identities,
bilinear evaluations, summation identities, the partial fractions of A_n and
the scalar ODEs into check families: generators of (label, residual)
evaluations at one level that take no tolerance, which ``report.judge``
folds, label by label, into checks.  ``SpectralData`` (per level) and
``SpectralWorkspace`` (for W, V and their derivatives) put each polynomial
on its exact grid (``Grid.of``, derivatives taken on the grid) once; the
checks at points evaluate it once per point by ``polys.peval_grid``,
Horner's rule in integers with one rounding per part.  Every entry is keyed
by the working precision, so a value cached at one precision never serves
another.  The coefficient identities (rrCf:a-k) hand their multiplier
products to ``vector_residual`` as factor tuples, which it forms exactly.
So do An:pf and 2ODE:a/b: with the denominators cleared, the partial
fractions of A_n and the scalar ODEs of phi_n and phistar_n are polynomial
identities, checked coefficient by coefficient with each additive piece a
vector of its own, and no sample point.
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpf, mpc

from .bops import BopsLevel, ToeplitzOracle
from .errors import Degenerate
from .mputil import sample_points, to_mpc
from .polys import pdiv_exact_linear, peval_grid, pscale
from .record import Memo, Record
from .report import (Grid, add_grids, largest_abs, ratio, rel_residual,
                     sqrt_ratio, squares, vector_residual)

# series terms read past the top of the band, z^(n+N+2): the out-of-band
# mass they carry is the degree-bound check
SERIES_BUFFER = 6


class _PointTable(Memo):
    """The exact grids of named polynomials ("ddW" is the grid of W'') and
    their values at points, each formed or evaluated once per working
    precision (``Memo``)."""

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


class _Starred:
    """A field of the starred half of a ``spectral_from_oracle`` record: its
    first read forms the half, whose values then shadow these fields."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, sd, owner):
        if sd is None:
            return self
        vars(sd).update(zip(owner._fields[3:], sd._starred()))
        return vars(sd)[self.name]


class SpectralData(_PointTable, Record):
    """Coefficient vectors of the four spectral polynomials at one level.

    A record of ``spectral_from_oracle`` forms its starred half (thetastar,
    omegastar, and band_residual, the larger of the halves') on the first
    read of one of them or of their grids or point values, which raises
    that half's ``Degenerate``; after it, each is a plain attribute."""

    _fields = ("n", "theta", "omega", "thetastar", "omegastar",
               "band_residual")
    thetastar, omegastar, band_residual = _Starred(), _Starred(), _Starred()

    def __init__(self, n: int, theta: list, omega: list, thetastar: list,
                 omegastar: list, band_residual: mpf):
        self.n = n
        self.theta = theta              # ascending, length N+1
        self.omega = omega              # ascending, length N+2
        self.thetastar = thetastar      # ascending, length N+1
        self.omegastar = omegastar      # ascending, length N+2
        self.band_residual = band_residual  # worst out-of-band coefficient
        self._memo = {}

    def _base(self, name):
        return getattr(self, name)


def _extract_band(series: Grid, lo: int, deg: int, factor: mpc):
    """Divide by the known prefactor and split in-band / out-of-band mass."""
    inv = 1 / factor
    coeffs = [c * inv for c in series.window(lo, lo + deg)]
    # custom scale: the out-of-band mass against the whole series' largest,
    # compared as exact squared magnitudes on the series' grid and rounded
    # once
    sq = list(squares(series.re, series.im))
    band = range(lo - series.offset, lo + deg - series.offset + 1)
    worst = max((v for k, v in enumerate(sq) if k not in band), default=0)
    return coeffs, sqrt_ratio(worst, max(sq, default=0), 0)


def spectral_from_oracle(oracle: ToeplitzOracle, n: int) -> SpectralData:
    """Spectral polynomials at level n from oracle data at levels n, n+1,
    for the weight of the oracle's moments: the unstarred half now, the
    starred half when first read (``SpectralData``)."""
    pair = oracle.moments.pair
    if pair.weight.placement != "canonical":
        raise ValueError("spectral extraction assumes canonical placement")
    with oracle.precision():
        V2 = pair.V2_mpc()
        Wg, Vg = (Grid.from_poly(p) for p in
                  (pair.W_mpc(), pscale(V2, mpf("0.5"))))
        grids = Wg, Vg, Grid.from_poly(V2) - Wg.diff()
        unstarred = _half(oracle, n, 0, *grids)

    def starred():      # its reader was admitted with the unstarred half
        with mp.workprec(oracle.prec):
            return _half(oracle, n, 1, *grids, unstarred[2])
    sd = SpectralData.__new__(SpectralData)
    sd.n, sd.theta, sd.omega = n, *unstarred[:2]
    sd._starred, sd._memo = starred, {}
    return sd


def _half(oracle, n, side, Wg, Vg, Dg, band=0):
    """Side 0's (Theta_n, Omega_n) or side 1's starred pair, and the larger
    of band and their band residual; W, V and D = 2V - W' on their grids."""
    N = oracle.moments.pair.N
    lev_n, lev_n1 = oracle.level(n), oracle.level(n + 1)
    top = n + N + 2 + SERIES_BUFFER

    def times(a, b):
        return a.mul_poly(b, len(a) + len(b) - 2)

    # every series is read up to z^top: the term z^(top+1) of an eps-series
    # enters only through its derivative, times the constant term of W p,
    # which is zero (W(0) = 0).  Level n+1's series are asked for at that
    # level's truncation, top + 1, so that the extraction there finds them
    # cached: one formation per level, and no moment beyond w_(top+1).
    series = oracle.epsstar_series if side else oracle.eps_series
    e0, e1 = series(n, top), series(n + 1, top + 1)
    p0, p1 = (Grid.from_poly(lev.phistar if side else lev.phi)
              for lev in (lev_n, lev_n1))
    # 2 (phi0_{n+1}/kappa_n) z^n (Theta_n, Omega_n) = forms(eps, phi) with
    # W[e0 p0' - e0' p0] + 2V e0 p0 and W[e1 p0' - e0' p1] + V[e1 p0 + e0 p1],
    # grouped so that each eps-series meets one polynomial, formed exactly
    # from W, V and the family on their grids: with D = 2V - W',
    # W p0' + 2V p0 = (W p0)' + D p0 and W p0' + V p0 = that - V p0.
    # The starred pair is the negated pair of forms in (epsstar, phistar):
    # 2 (phibar0_{n+1}/kappa_n) z^{n+1} (Thetastar_n, Omegastar_n)
    #   = -forms(epsstar_n, epsstar_{n+1}, phistar_n, phistar_{n+1})
    de0 = e0.diff()
    Wp0 = times(Wg, p0)
    f_theta = Wp0.diff() + times(Dg, p0)
    f_omega = f_theta - times(Vg, p0)
    theta = e0.mul_poly(f_theta, top) - de0.mul_poly(Wp0, top)
    omega = e1.mul_poly(f_omega, top) - \
        de0.mul_poly(times(Wg, p1), top) + e0.mul_poly(times(Vg, p1), top)
    fac = (-2 * lev_n1.phibar0 if side else 2 * lev_n1.phi0) / lev_n.kappa
    if fac == 0:
        raise Degenerate(f"{'phibar' if side else 'phi'}_{n + 1}(0) "
                         f"vanishes: the spectral forms divide by it")
    theta, r1 = _extract_band(theta, n + side, N, fac)
    omega, r2 = _extract_band(omega, n + side, N + 1, fac)
    band = max(r1, r2, band)
    if band > oracle.moments.plan.band_alarm:
        raise Degenerate(
            f"out-of-band mass {mpmath.nstr(band, 6)} at level {n}")
    return theta, omega, band


class SpectralWorkspace(_PointTable):
    """Cache of spectral data over one oracle, with the weight data of its
    moments; its table also keeps each level's residue matrices and Garnier
    point."""

    def __init__(self, oracle: ToeplitzOracle):
        self.oracle = oracle
        self.pair = oracle.moments.pair
        self.plan = oracle.moments.plan
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
            self._data[n] = spectral_from_oracle(self.oracle, n)
        return self._data[n]

    def level(self, n: int) -> BopsLevel:
        return self.oracle.level(n)

    def kappa_ratio(self, n: int) -> mpc:
        """kappa_{n+1}/kappa_n, formed once per level and precision."""
        return self.memo(("kappa_ratio", n),
                         lambda: self.level(n + 1).kappa / self.level(n).kappa)

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
            raise Degenerate("W' vanished at a singularity")
        return v

    def singularities(self):
        return self.pair.weight.singularities_mpc()

    def residues(self):
        return self.pair.weight.residues_mpc()


# ---------------------------------------------------------------------------
# the spectral matrix and its residue matrices
# ---------------------------------------------------------------------------

def residue_matrices(ws: SpectralWorkspace, n: int) -> list:
    """A_{n,j} for every finite singularity, in weight order: the four
    entry numerators of the spectral parameterisation at z_j over W'(z_j).

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
            out.append([[-(om + Vz - kr * z * th) * inv,
                         (lev_n1.phi0 / lev_n.kappa) * th * inv],
                        [-(lev_n1.phibar0 / lev_n.kappa) * z * ts * inv,
                         (os_ - Vz - kr * ts) * inv]])
        return out
    return ws.memo(("residues", n), make)


def _a_numerators(ws: SpectralWorkspace, n: int) -> list:
    """The entry numerators of W A_n, each a list of its additive pieces
    as ``vector_residual`` vectors."""
    sd = ws.data(n)
    lev_n, lev_n1 = ws.level(n), ws.level(n + 1)
    kr = ws.kappa_ratio(n)
    V, th, ts = ws.grid("V"), sd.grid("theta"), sd.grid("thetastar")
    return [[[-sd.grid("omega"), -V, (kr, th.shift(1))],
             [(lev_n1.phi0 / lev_n.kappa, th)]],
            [[(-(lev_n1.phibar0 / lev_n.kappa), ts.shift(1))],
             [sd.grid("omegastar"), -V, (-kr, ts)]]]


def _w_quotients(ws: SpectralWorkspace) -> list:
    """W/(z - z_j) for every finite singularity, divided exactly over the
    weight's rationals and put on grids once per precision."""
    W = list(ws.pair.W)
    return ws.memo("W_j", lambda: [Grid.of(pdiv_exact_linear(W, z))
                                   for z in ws.weight.singularities])


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


def residue_structure_checks(ws: SpectralWorkspace, n: int):
    """Displayed forms of A_{n,0} and A_{n,infinity}, trace values, and the
    partial fractions of A_n as a polynomial identity."""
    lev = ws.level(n)
    mats = residue_matrices(ws, n)
    ainf = a_infinity(mats)
    zs = ws.singularities()
    rhos = ws.residues()
    # custom scale for An:res0, An:resInfty and An:trace: the largest entry
    # of all the level's residue matrices, at least 1
    scale = (_mat_scale(mats), mpf(1))

    rho0 = rhos[0]
    want0 = [[(n - rho0), -(n - rho0) * lev.r], [mpc(0), mpc(0)]]
    d0 = largest_abs([mats[0][i][j] - want0[i][j]
                      for i in range(2) for j in range(2)])
    yield "An:res0", ratio(d0, *scale)

    rho_sum = sum(rhos)
    wantinf = [[mpc(-n), mpc(0)],
               [-(n + rho_sum) * lev.rbar, rho_sum]]
    dinf = largest_abs([ainf[i][j] - wantinf[i][j]
                        for i in range(2) for j in range(2)])
    yield "An:resInfty", ratio(dinf, *scale)

    worst_tr = largest_abs([mats[j][0][0] + mats[j][1][1] + rhos[j]
                            for j in range(1, len(zs))])
    yield "An:trace", ratio(worst_tr, *scale)

    # each entry numerator of W A_n against sum_j A_{n,j} W/(z - z_j), as
    # polynomials
    wq = _w_quotients(ws)
    for a, row in enumerate(_a_numerators(ws, n)):
        for b, pieces in enumerate(row):
            yield "An:pf", vector_residual(
                pieces + [(-m[a][b], w) for m, w in zip(mats, wq)], 1e-30)


# ---------------------------------------------------------------------------
# linear recurrences, transitions, bilinear evaluations
# ---------------------------------------------------------------------------

def check_linear_recurrences(ws: SpectralWorkspace, n: int):
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
    kr = ws.kappa_ratio(n)            # kappa_{n+1}/kappa_n
    kr2 = ws.kappa_ratio(n + 1)       # kappa_{n+2}/kappa_{n+1}
    om0, om1, omm1 = s0.grid("omega"), s1.grid("omega"), sm1.grid("omega")
    os0, os1, osm1 = (s0.grid("omegastar"), s1.grid("omegastar"),
                      sm1.grid("omegastar"))
    th0, th1, thm1 = s0.grid("theta"), s1.grid("theta"), sm1.grid("theta")
    ts0, ts1, tsm1 = (s0.grid("thetastar"), s1.grid("thetastar"),
                      sm1.grid("thetastar"))
    # a
    aa = l1.phi0 / l0.phi0
    yield "rrCf:a", vector_residual([om0, omm1, (-1, [aa, kr], th0),
                                     (n - 1, Woz)])
    # b
    yield "rrCf:b", vector_residual([
        ([aa, kr], omm1 - om0),
        (l0.kappa * l2.phi0 / (l1.kappa * l1.phi0), th1.shift(1)),
        (-(lm1.kappa * l1.phi0 / (l0.kappa * l0.phi0)), thm1.shift(1)),
        (-aa, Woz)])
    # c
    bb = l1.phibar0 / l0.phibar0
    yield "rrCf:c", vector_residual([os0, osm1, (-1, [kr, bb], ts0),
                                     (-n, Woz)])
    # d
    yield "rrCf:d", vector_residual([
        ([kr, bb], osm1 - os0),
        (l0.kappa * l2.phibar0 / (l1.kappa * l1.phibar0), ts1.shift(1)),
        (-(lm1.kappa * l1.phibar0 / (l0.kappa * l0.phibar0)),
         tsm1.shift(1)),
        (kr, Woz)])
    # e
    aa2 = l2.phi0 / l1.phi0
    yield "rrCf:e", vector_residual([om1, os0, (-1, [aa2, kr2], th1),
                                     (kr, th0.shift(1) - ts0)])
    # f
    yield "rrCf:f", vector_residual([
        om0, -om1,
        (kr2, [l1.phibar0 * l2.phi0 / (l1.kappa * l2.kappa), 1], th1),
        (l1.phi0 * l1.phibar0 / (l1.kappa * l0.kappa), ts0),
        (-kr, th0.shift(1)), -Woz])
    # g
    bb2 = l2.phibar0 / l1.phibar0
    yield "rrCf:g", vector_residual([os1, om0, (-1, [kr2, bb2], ts1),
                                     (-kr, th0.shift(1) - ts0), -Woz])
    # h
    yield "rrCf:h", vector_residual([
        os0, -os1,
        (kr2, [1, l1.phi0 * l2.phibar0 / (l1.kappa * l2.kappa)], ts1),
        (l1.phi0 * l1.phibar0 / (l1.kappa * l0.kappa), th0.shift(1)),
        (-kr, ts0)])


def _j_terms(ws: SpectralWorkspace, n: int, z) -> list:
    """The five terms of rrCf:j at the point z: Omegastar_n - kr Thetastar_n
    - Omega_n + kr z Theta_n - n W/z, with kr = kappa_{n+1}/kappa_n."""
    s0, kr = ws.data(n), ws.kappa_ratio(n)
    return [s0.at("omegastar", z), -kr * s0.at("thetastar", z),
            -s0.at("omega", z), kr * z * s0.at("theta", z),
            -n * ws.at("Woz", z)]


def check_transitions(ws: SpectralWorkspace, n: int, seed: int):
    """The three transition identities, as coefficient vectors and at five
    points drawn from ``seed + n``; rrCf:j at the singularities is Tform:a."""
    s0 = ws.data(n)
    l0, l1 = ws.level(n), ws.level(n + 1)
    kr = ws.kappa_ratio(n)
    Woz = ws.grid("Woz")
    th0, ts0 = s0.grid("theta"), s0.grid("thetastar")

    if n >= 1:
        sm1 = ws.data(n - 1)
        krm1 = ws.kappa_ratio(n - 1)
        yield "rrCf:i", vector_residual([
            (l1.phibar0 / l0.phibar0, ts0.shift(1)),
            (-krm1, sm1.grid("thetastar")), (-(l1.phi0 / l0.phi0), th0),
            (krm1, sm1.grid("theta").shift(1))])

    yield "rrCf:j", vector_residual([s0.grid("omegastar"), (-kr, ts0),
                                     -s0.grid("omega"), (kr, th0.shift(1)),
                                     (-n, Woz)])

    s1 = ws.data(n + 1)
    l2 = ws.level(n + 2)
    yield "rrCf:k", vector_residual([
        s0.grid("omegastar"), s0.grid("omega"),
        (-(l0.kappa ** 2 / l1.kappa ** 2) * (l2.phi0 / l1.phi0),
         s1.grid("theta")),
        (-(l0.kappa / l1.kappa), ts0), -Woz])

    # pointwise spot checks of rrCf:j on the sample circle
    for z in sample_points(5, avoid=ws.singularities(), seed=seed + n):
        yield "rrCf:j@pts", rel_residual(_j_terms(ws, n, z))

    # Tform:a / Tform:b at every finite singularity (origin uses W'(0) as the
    # limit of W(z)/z)
    coupling = l1.phi0 * l1.phibar0 / l0.kappa ** 2
    for zj in ws.singularities():
        yield "Tform:a", rel_residual(_j_terms(ws, n, zj))
        woz = ws.at("Woz", zj)
        Vz = ws.at("V", zj)
        th, om = s0.at("theta", zj), s0.at("omega", zj)
        ts = s0.at("thetastar", zj)
        kzth = kr * zj * th
        lhs = coupling * zj * ts
        b1 = om + Vz - kzth
        b2 = om - Vz - kzth + n * woz
        rhs = b1 * b2 / th
        # custom scale: at the origin both sides vanish by cancellation
        # inside b2; measure against the pre-cancellation magnitudes
        s1 = largest_abs([om, Vz, kzth])
        s2 = max(s1, abs(n * woz))
        sb = (abs(lhs), s1 * s2 / abs(th)) if th != 0 else (abs(lhs),)
        yield "Tform:b", ratio(abs(lhs - rhs), *sb)


def check_bilinear(ws: SpectralWorkspace, n: int):
    """The five bilinear evaluations at every nonzero finite singularity."""
    s0, s1 = ws.data(n), ws.data(n + 1)
    l0, l1, l2 = ws.level(n), ws.level(n + 1), ws.level(n + 2)
    kr = ws.kappa_ratio(n)
    zs = ws.singularities()[1:]

    def pair(label, lhs, rhs):
        return label, rel_residual([lhs, -rhs], 1e-40)

    def values(zj):
        """V, Theta_n, Omega_n, Thetastar_n and Omegastar_n at zj."""
        return (ws.at("V", zj), s0.at("theta", zj), s0.at("omega", zj),
                s0.at("thetastar", zj), s0.at("omegastar", zj))

    ca = l0.kappa * l2.phi0 / (l1.kappa * l1.phi0)
    cb = l0.kappa * l2.phibar0 / (l1.kappa * l1.phibar0)
    for zj in zs:
        Vz, th, om, ts, os_ = values(zj)
        yield pair("OTeq:a", om ** 2,
                   ca * zj * th * s1.at("theta", zj) + Vz ** 2)
        yield pair("OTeq:b", os_ ** 2,
                   cb * zj * ts * s1.at("thetastar", zj) + Vz ** 2)

    if n >= 1:
        sm1 = ws.data(n - 1)
        lm1 = ws.level(n - 1)
        # the coupling constant carries kappa_{n-1}/kappa_n (required for
        # gauge invariance, confirmed numerically against the oracle)
        cc = (lm1.kappa ** 2 / l0.kappa ** 2) * (l1.phi0 / l0.phi0)
        cd = (lm1.kappa ** 2 / l0.kappa ** 2) * (l1.phibar0 / l0.phibar0)
        rc = lm1.kappa * l1.phi0 * l0.phibar0 / l0.kappa ** 3
        rd = lm1.kappa * l1.phibar0 * l0.phi0 / l0.kappa ** 3
        for zj in zs:
            Vz, th, _, ts, _ = values(zj)
            yield pair("OTeq:c", (sm1.at("omega", zj) - cc * th) ** 2,
                       rc * th * sm1.at("thetastar", zj) + Vz ** 2)
            yield pair("OTeq:d", (sm1.at("omegastar", zj) - cd * zj * ts) ** 2,
                       rd * zj ** 2 * ts * sm1.at("theta", zj) + Vz ** 2)
    ce = l1.phi0 * l1.phibar0 / l0.kappa ** 2
    for zj in zs:
        Vz, th, om, ts, os_ = values(zj)
        yield pair("OTeq:e", ce * zj * th * ts,
                   (om + Vz - kr * zj * th) * (os_ - Vz - kr * ts))


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


def check_summation_identities(ws: SpectralWorkspace, n: int, garnier_point):
    """All summation identities at this level: the singularity sums, then
    the coordinate-sum families at the roots q of ``garnier_point``."""
    sd = ws.data(n)
    l0, l1 = ws.level(n), ws.level(n + 1)
    kr = ws.kappa_ratio(n)
    zs = ws.singularities()
    rhos = ws.residues()
    rho_sum = sum(rhos)

    wp = [ws.wprime_at(z) for z in zs]
    th = [sd.at("theta", z) for z in zs]
    th_w = [t / w for t, w in zip(th, wp)]
    Vz = [ws.at("V", z) for z in zs]

    yield "sum2:a", _sum_residual(th_w, 0)
    # leading coefficient of Thetastar via the residue sum; the z_j weight
    # restores consistency with the infinity residue matrix
    yield "sum2:b", _sum_residual(
        [z * sd.at("thetastar", z) / w for z, w in zip(zs, wp)],
        -(n + rho_sum) * l0.phibar0 / l1.phibar0)
    yield "sum2:c", _sum_residual(
        [(sd.at("omega", z) - v - kr * z * t) / w
         for z, t, v, w in zip(zs, th, Vz, wp)], -(n + rho_sum))
    yield "sum2:d", _sum_residual(
        [(sd.at("omegastar", z) - v - kr * sd.at("thetastar", z)) / w
         for z, v, w in zip(zs, Vz, wp)], -rho_sum)

    # singularity-only sums
    for j in range(1, len(zs) - 1):
        zj = zs[j]
        dz = [(k, zj - zk) for k, zk in enumerate(zs) if k != j]
        wpp = ws.at("ddW", zj)
        yield "Ssum:a", _sum_residual([1 / d for _, d in dz],
                                      wpp / (2 * wp[j]))
        rhs = ws.at("dV2", zj) / wp[j] - Vz[j] * wpp / wp[j] ** 2
        yield "Ssum:b", _sum_residual([rhos[k] / d for k, d in dz], rhs)
        rhs = sd.at("dtheta", zj) / wp[j] - th[j] * wpp / (2 * wp[j] ** 2)
        yield "Ssum:c", _sum_residual([th_w[k] / d for k, d in dz], rhs)

    # theta(z_k) z_k^sigma, the numerators of every Ssum:d-g term
    thz = [[t * z ** sigma for sigma in range(5)] for z, t in zip(zs, th)]
    theta_inf = sd.theta[-1]
    zsum = sum(zs[1:-1])
    qsum_coeff = -(sd.theta[-2] / sd.theta[-1])
    vals = {0: mpc(0), 1: theta_inf,
            2: theta_inf * (1 + zsum - qsum_coeff)}
    for sigma, want in vals.items():
        yield "Ssum:d", _sum_residual(
            [tz[sigma] / w for tz, w in zip(thz, wp)], want)

    yield from _coordinate_sums(ws, n, garnier_point, wp, thz)


def _coordinate_sums(ws: SpectralWorkspace, n: int, point, wp, thz):
    """The coordinate-sum families needing the roots of Theta_n; wp and thz
    are W'(z_k) and the Ssum numerators of ``check_summation_identities``.

    Ssum:e, Ssum:f and Ssum:g are the single-root sums of pole order 1, 2
    and 3: sum_k theta(z_k) z_k^sigma / (W'(z_k) (z_k - q_r)^order) over the
    singularities, for each root q_r.  A sum over two or three distinct
    roots is no new identity.  By 1/((z - q_r)(z - q_s)) = [1/(z - q_r) -
    1/(z - q_s)] / (q_r - q_s), term by term, it is a combination of
    single-root sums, and its closed form the same combination of theirs,
    so it holds whenever they do, up to rounding amplified by
    1/|q_r - q_s|.
    """
    sd = ws.data(n)
    zs = ws.singularities()
    q = list(point.q)
    N = len(q)
    theta_inf = sd.theta[-1]
    rho0 = ws.residues()[0]
    rho1 = ws.residues()[-1]
    zsum = sum(zs[1:-1])
    qsum = sum(q)
    # values at the roots
    thq = [sd.at("dtheta", qr) for qr in q]
    thppq = [sd.at("ddtheta", qr) for qr in q]
    Wq = [ws.at("W", qr) for qr in q]
    dWq = [ws.at("dW", qr) for qr in q]
    V2q = [ws.at("V2", qr) for qr in q]

    # Ssum:e, f and g: each order's denominator is the previous one times
    # (z_k - q_r).  On the right, at_q[sigma] = q_r^sigma Theta'(q_r)/W(q_r)
    # comes from the pole at q_r and the theta_inf terms from infinity.
    for r, qr in enumerate(q):
        at_q = [qr ** sigma * thq[r] / Wq[r] for sigma in range(5)]
        dlog = dWq[r] / Wq[r] - thppq[r] / (2 * thq[r])
        wants = (
            ("Ssum:e", [0, 0, theta_inf,
                        theta_inf * (1 + zsum - (qsum - qr))]),
            ("Ssum:f", [-at_q[0], -at_q[1], -at_q[2], theta_inf - at_q[3],
                        theta_inf * (1 + zsum - qsum + qr + qr) - at_q[4]]),
            ("Ssum:g", [a * (dlog - sigma / qr)
                        for sigma, a in enumerate(at_q[:4])]))
        den = wp
        for label, want in wants:
            den = [d0 * (z - qr) for d0, z in zip(den, zs)]
            for sigma, rhs in enumerate(want):
                yield label, _sum_residual(
                    [tz[sigma] / d for tz, d in zip(thz, den)], rhs)

    # Tsum family
    th0 = sd.at("theta", mpc(0))
    th1 = sd.at("theta", mpc(1))
    wp0 = ws.at("dW", mpc(0))
    wp1 = ws.at("dW", mpc(1))
    m0 = ws.pair.m_mpc()[0]
    qq1 = [qr * (qr - 1) for qr in q]
    qq1t = [a * tq for a, tq in zip(qq1, thq)]

    for r in range(N):
        lhs = [1 / (q[r] - q[s]) for s in range(N) if s != r]
        yield "Tsum:a", _sum_residual(lhs, thppq[r] / (2 * thq[r]))

    yield "Tsum:b", _sum_residual(
        [v / d for v, d in zip(V2q, qq1t)],
        [m0 / theta_inf, rho0 * wp0 / th0, -rho1 * wp1 / th1])

    for j in range(1, len(zs) - 1):
        zj = zs[j]
        thzj = sd.at("theta", zj)
        v2zj = ws.at("V2", zj)
        lhs = [v / ((zj - qr) ** 2 * tq) for qr, v, tq in zip(q, V2q, thq)]
        rhs = [m0 / theta_inf, -ws.at("dV2", zj) / thzj,
               v2zj * sd.at("dtheta", zj) / thzj ** 2]
        yield "Tsum:c", _sum_residual(lhs, rhs)
        lhs = [v / ((zj - qr) * qr * tq) for qr, v, tq in zip(q, V2q, thq)]
        rhs = [-m0 / theta_inf, -ws.at("V2", mpc(0)) / (zj * th0),
               v2zj / (zj * thzj)]
        yield "Tsum:d", _sum_residual(lhs, rhs)
        lhs = [zj * (zj - 1) * v / (d * (zj - qr))
               for qr, v, d in zip(q, V2q, qq1t)]
        rhs = [rho0 * (wp0 / th0) * (zj - 1), -rho1 * (wp1 / th1) * zj,
               v2zj / thzj]
        yield "Tsum:h", _sum_residual(lhs, rhs)

    for r in range(N):
        qr = q[r]
        lhs = [qq1[r] * V2q[s] / (qq1t[s] * (qr - q[s]))
               for s in range(N) if s != r]
        rhs = [rho0 * (wp0 / th0) * (qr - 1), -rho1 * (wp1 / th1) * qr,
               ws.at("dV2", qr) / thq[r],
               -V2q[r] * thppq[r] / (2 * thq[r] ** 2),
               -V2q[r] * (2 * qr - 1) / qq1t[r]]
        yield "Tsum:e", _sum_residual(lhs, rhs)

    for j in range(1, len(zs) - 1):
        zj = zs[j]
        lhs = [w / ((zj - qr) * qr * (qr - 1) * tq)
               for qr, w, tq in zip(q, Wq, thq)]
        yield "Tsum:f", _sum_residual(lhs, -1 / theta_inf)

    for r in range(N):
        qr = q[r]
        lhs = [Wq[s] / (qq1t[s] * (qr - q[s])) for s in range(N) if s != r]
        cr = Wq[r] / qq1t[r]
        rhs = [-1 / theta_inf, cr * dWq[r] / Wq[r],
               -cr * thppq[r] / (2 * thq[r]),
               -cr * (2 * qr - 1) / qq1[r]]
        yield "Tsum:g", _sum_residual(lhs, rhs)


# ---------------------------------------------------------------------------
# the scalar ODEs
# ---------------------------------------------------------------------------

def _ode_pieces(ws: SpectralWorkspace, n: int) -> dict:
    """The scalar ODEs of phi_n and psi = phistar_n with the denominators
    cleared, once per level and precision.

    phi'' + p1 phi' + p2 phi = 0 times z W^2 Theta, and the starred
    equation times z W^2 Thetastar, are polynomial identities; "a" and "b"
    hold the coefficient of the second derivative, that of the first, and
    the four additive pieces of the p2-coefficient, each an exact grid.  The
    pieces stay apart because p2 can cancel completely (it vanishes
    identically at level zero), so a residual is judged against them, not
    their sum.  "den" is W^2 Theta, the denominator of p2.
    """
    sd = ws.data(n)

    def make():
        l0, l1 = ws.level(n), ws.level(n + 1)
        kr = Grid.of([ws.kappa_ratio(n)])
        c = Grid.of([l1.phi0 * l1.phibar0 / l0.kappa ** 2])
        W, dW, V2, V, dV = (ws.grid(k) for k in ("W", "dW", "V2", "V", "dV"))
        th, dth, om, dom = (sd.grid(k) for k in
                            ("theta", "dtheta", "omega", "domega"))
        ts, dts, os_, dos = (sd.grid(k) for k in
                             ("thetastar", "dthetastar", "omegastar",
                              "domegastar"))
        zth, zts, W2 = th.shift(1), ts.shift(1), W * W
        Wp = W * (dW + V2)
        omV, osV = om + V, os_ - V
        cross = (omV - kr * zth) * (osV - kr * ts)
        den = W2 * th
        a = [den.shift(1), (Wp * th - W2 * dth).shift(1) - Grid.of([n]) * den,
             (W * (th * (dom + dV) - dth * omV)).shift(1),
             -(kr * W * th * th).shift(1), -(zth * cross),
             c * zth * zth * ts]
        b = [(W2 * ts).shift(1),
             (Wp * ts - W2 * dts).shift(1) - Grid.of([n + 1]) * W2 * ts,
             W * ((ts + dts.shift(1)) * osV - zts * (dos - dV)),
             -(kr * W * ts * ts), -(zts * cross), c * zth * zts * ts]
        return {"a": a, "b": b, "den": den}
    return sd.memo("ode", make)


def scalar_ode_residuals(ws: SpectralWorkspace, n: int):
    """phi'' + p1 phi' + p2 phi = 0 (and starred), with the denominators
    cleared (``_ode_pieces``), coefficient by coefficient."""
    pieces, lev = _ode_pieces(ws, n), ws.level(n)
    for label, key, phi in (("2ODE:a", "a", lev.phi),
                            ("2ODE:b", "b", lev.phistar)):
        v = Grid.of(phi)
        dv = v.diff()
        yield label, vector_residual(list(zip(pieces[key],
                                              [dv.diff(), dv] + [v] * 4)))


def p2_asymptotic_constant(ws: SpectralWorkspace, n: int) -> mpc:
    """Exact limit of z(z-1) p_2 as z -> infinity: p2 = num/den with z num
    the exact sum of the p2-pieces of 2ODE:a and den = W^2 Theta, so the
    limit is num's coefficient of z^(deg den - 2) over den's leading one.
    Every piece of z num has formal degree at most deg den - 1, so p2
    decays like z^-2 by construction."""
    pieces = _ode_pieces(ws, n)
    znum, den = add_grids(pieces["a"][2:]), pieces["den"]
    d = len(den) - 1
    return znum.coeff(d - 1) / den.coeff(d)
