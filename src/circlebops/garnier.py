"""Canonical coordinates and Hamiltonians of the deformation dynamics.

The roots q_r of the off-diagonal spectral polynomial Theta_n are the
coordinates; the momenta are the diagonal entry of the spectral matrix at the
roots,

    p_r = -(Omega_n(q_r) + V(q_r)) / W(q_r),

and each free singularity z_j carries a Hamiltonian K_j rational in (q, p).
This module holds closed forms only: it extracts the coordinates
(``mpmath.polyroots`` plus one Newton polish, deterministically ordered),
evaluates K_j both from its closed form and from the residue-matrix trace
formula, gives the closed forms of dq_r/dz_j and dp_r/dz_j, and the
canonical transformation to the polynomial chart.  The closed form of K_j
is quadratic in the momenta with coefficients that depend on q alone:
``k_form`` builds them once per coordinate set.  The workspace keeps the
point (q, p) and K per level, and each flow closed form per (level, j, r).
The derivatives that check the flow against them live in ``deform``.
"""

from __future__ import annotations

import mpmath
from mpmath import mpf, mpc

from .errors import Degenerate, NonConvergent
from .mputil import to_mpc
from .polys import pdiff, peval, ptrim, pmax_abs, pdiv_exact_linear
from .record import Record
from .report import Grid, add_grids, product, vector_residual
from .spectral import SpectralWorkspace, residue_matrices


def polynomial_roots(coeffs):
    """Roots of the polynomial with ascending coefficients ``coeffs``.

    Closed forms up to degree 2; above, ``mpmath.polyroots`` (Durand-Kerner)
    with one Newton polish per root.  Its output order is deterministic for
    fixed input but not meaningful: ordering is left to the caller.
    """
    coeffs = ptrim([to_mpc(c) for c in coeffs])
    deg = len(coeffs) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [-coeffs[0] / coeffs[1]]
    if deg == 2:
        c, b, a = coeffs
        disc = mpmath.sqrt(b * b - 4 * a * c)
        if abs(-b + disc) < abs(-b - disc):
            disc = -disc
        r1 = (-b + disc) / (2 * a)        # the larger root, stably
        r2 = c / (a * r1)
        return [r1, r2]
    try:
        found = mpmath.polyroots(coeffs[::-1])
    except mpmath.libmp.NoConvergence as exc:
        raise NonConvergent(f"root finder stalled on a degree-{deg} "
                            f"polynomial") from exc
    dp = pdiff(coeffs)
    out = []
    for z in found:
        z = mpc(z)
        dz = peval(dp, z)
        if dz != 0:
            z = z - peval(coeffs, z) / dz
        out.append(z)
    return out


def _sorted_roots(roots):
    return sorted(roots, key=lambda z: (mpmath.re(z), mpmath.im(z)))


class GarnierPoint(Record):
    """Coordinates and momenta at one level."""

    _fields = ("n", "q", "p", "theta_inf")

    def __init__(self, n: int, q: list, p: list, theta_inf: mpc):
        self.n = n
        self.q = q
        self.p = p
        self.theta_inf = theta_inf


def coordinates_from_spectral(ws: SpectralWorkspace, n: int) -> GarnierPoint:
    """Extract (q, p) from the spectral data at level n; the workspace
    keeps the point per level and precision."""
    return ws.memo(("garnier", n), lambda: _garnier_point(ws, n))


def _garnier_point(ws: SpectralWorkspace, n: int) -> GarnierPoint:
    sd = ws.data(n)
    theta = sd.theta
    N = ws.pair.N
    roots = _sorted_roots(polynomial_roots(theta))
    if len(roots) != N:
        raise Degenerate(f"degree of the coordinate polynomial dropped "
                         f"below {N} at level {n}")
    unit = ws.plan.degeneracy_floor
    floor = unit * pmax_abs(theta)
    zs = ws.singularities()
    for qr in roots:
        if abs(sd.at("dtheta", qr)) < floor:
            raise Degenerate(f"near-multiple root at {mpmath.nstr(qr, 8)}")
        if min(abs(qr - z) for z in zs) < unit:
            raise Degenerate(
                f"coordinate {mpmath.nstr(qr, 8)} hit a singularity")
    p = [momentum(ws, sd, qr) for qr in roots]
    return GarnierPoint(n=n, q=roots, p=p, theta_inf=sd.theta[-1])


def momentum(ws: SpectralWorkspace, sd, z) -> mpc:
    """p(z) = -(Omega_n(z) + V(z))/W(z) for the spectral data sd of level n."""
    return -(sd.at("omega", z) + ws.at("V", z)) / ws.at("W", z)


def hamiltonian(ws: SpectralWorkspace, n: int) -> list:
    """K_j for each free singularity at the level-n point, from the closed
    form ``k_value``; the workspace keeps them per level and precision."""
    point = coordinates_from_spectral(ws, n)
    return ws.memo(("garnier K", n), lambda: [
        k_value(ws, point.q, point.p, n, j) for j in range(1, ws.pair.N + 1)])


def hamiltonian_from_residues(ws: SpectralWorkspace, n: int,
                              point: GarnierPoint) -> list:
    """K_j from the residue matrices: the independent route.

    K_j = -A_{j,11} sum_r 1/(z_j - q_r)
          - sum_{k != j} [Tr A_j Tr A_k - Tr(A_j A_k) - A_{j,11} - A_{k,11}]
            / (z_j - z_k).
    """
    mats = residue_matrices(ws, n)
    zs = ws.singularities()
    out = []
    for j in range(1, len(zs) - 1):
        zj = zs[j]
        Aj = mats[j]
        total = -Aj[0][0] * sum(1 / (zj - qr) for qr in point.q)
        for k in range(len(zs)):
            if k == j:
                continue
            Ak = mats[k]
            tr_j = Aj[0][0] + Aj[1][1]
            tr_k = Ak[0][0] + Ak[1][1]
            tr_jk = (Aj[0][0] * Ak[0][0] + Aj[0][1] * Ak[1][0] +
                     Aj[1][0] * Ak[0][1] + Aj[1][1] * Ak[1][1])
            total -= (tr_j * tr_k - tr_jk - Aj[0][0] - Ak[0][0]) / (zj - zs[k])
        out.append(total)
    return out


def riemann_exponents(ws: SpectralWorkspace, n: int) -> dict:
    """Indicial exponent table of the scalar equation and the accessory
    constant (vanishing for the seed level)."""
    rhos = ws.residues()
    m0 = ws.pair.m_mpc()[0]
    table = {"origin": mpf(n) - rhos[0], "one": -rhos[-1],
             "free": [-r for r in rhos[1:-1]],
             "infinity": mpf(n) + 1 + sum(rhos)}
    return {"exponents": table, "accessory": -mpf(n) * (1 + m0)}


# ---------------------------------------------------------------------------
# reconstruction residuals (the Lagrange representations)
# ---------------------------------------------------------------------------

def representation_residuals(ws: SpectralWorkspace, n: int,
                             point: GarnierPoint):
    """The interpolation representations in terms of (q, p), as
    coefficient-wise residuals: ``OmegaRep`` for Omega_n + V - (kappa
    ratio) z Theta_n, ``2VRep`` for 2V and ``WRep`` for W.

    Each side is summed exactly on a grid and enters the measure as one
    vector.
    """
    sd = ws.data(n)
    kr = ws.kappa_ratio(n)
    theta, ztheta = sd.grid("theta"), sd.grid("theta").shift(1)
    e = ws.pair.e_mpc()
    N = ws.pair.N
    rho0, rho1 = ws.residues()[0], ws.residues()[-1]
    theta_inf = sd.theta[-1]
    th0 = sd.at("theta", mpc(0))
    # target polynomial
    lhs = sd.grid("omega") + ws.grid("V") - product(kr, ztheta)
    # bracket: -n z / theta_inf + const - sum_r z/(z-q_r) * w_r
    const = (-1) ** N * (mpf(n) - rho0) * e[N + 1] / th0
    rhs = [product(-mpf(n) / theta_inf, ztheta), product(const, theta)]
    for qr, pr in zip(point.q, point.p):
        wr = pr * ws.at("W", qr) / (qr * sd.at("dtheta", qr))
        quot = pdiv_exact_linear(sd.theta, qr)       # theta/(z - q_r)
        rhs.append(product(-wr, Grid.of(quot).shift(1)))
    yield "OmegaRep", vector_residual([lhs, -add_grids(rhs)])
    wp0, wp1 = ws.at("dW", mpc(0)), ws.at("dW", mpc(1))
    yield "2VRep", _rep_residual(
        ws, n, point, "V2",
        [product(-rho0 * wp0 / th0, [-1, 1], theta),
         product(rho1 * wp1 / sd.at("theta", mpc(1)), ztheta)])
    yield "WRep", _rep_residual(
        ws, n, point, "W", [product(1 / theta_inf, [0, -1, 1], theta)])


def _rep_residual(ws: SpectralWorkspace, n: int, point: GarnierPoint,
                  target: str, ends: list) -> mpf:
    """Residual of the interpolation representation of the polynomial
    ``target`` (2V or W) at the nodes {0, q_r, 1}: the end terms ``ends``
    plus, per root, target(q_r)/(q_r (q_r - 1) Theta_n'(q_r)) times
    z (z - 1) Theta_n/(z - q_r), summed exactly on grids."""
    sd = ws.data(n)
    rhs = list(ends)
    for qr in point.q:
        cr = ws.at(target, qr) / (qr * (qr - 1) * sd.at("dtheta", qr))
        quot = pdiv_exact_linear(sd.theta, qr)
        rhs.append(product(cr, [0, -1, 1], quot))
    return vector_residual([ws.grid(target), -add_grids(rhs)])


# ---------------------------------------------------------------------------
# Hamiltonian as an explicit function of (q, p) and the flow closed forms
# ---------------------------------------------------------------------------

def k_form(ws: SpectralWorkspace, q, n: int, j: int):
    """K_j at the coordinates q as a quadratic form in the momenta,
    ``(lead, [(c_r, b_r, a_r)])`` with

        K_j = lead * sum_r c_r (p_r^2 + b_r p_r - a_r),

    lead = Theta(z_j)/W'(z_j), c_r = (W(q_r)/prod_{s != r}(q_r - q_s))
    /(z_j - q_r), b_r = 2V(q_r)/W(q_r) - n/q_r - 1/(z_j - q_r) and
    a_r = n(1 + m_0)/(q_r (q_r - 1)).  Theta is the monic polynomial with
    roots q: its leading coefficient cancels between numerator and
    denominator, so only the root set enters.
    """
    zj = ws.singularities()[j]
    m0 = ws.pair.m_mpc()[0]
    wp = ws.at("dW", zj)
    theta_zj = mpmath.fprod(zj - to_mpc(qs) for qs in q)
    terms = []
    for r, qr in enumerate(q):
        qr = to_mpc(qr)
        dth = mpmath.fprod(qr - to_mpc(q[s]) for s in range(len(q)) if s != r)
        Wq = ws.at("W", qr)
        terms.append(((Wq / dth) / (zj - qr),
                      ws.at("V2", qr) / Wq - mpf(n) / qr - 1 / (zj - qr),
                      mpf(n) * (1 + m0) / (qr * (qr - 1))))
    return theta_zj / wp, terms


def k_value(ws: SpectralWorkspace, q, p, n: int, j: int) -> mpc:
    """K_j as a rational function of coordinate/momentum lists: the
    quadratic form ``k_form`` evaluated at the momenta p."""
    lead, terms = k_form(ws, q, n, j)
    total = mpc(0)
    for (c, b, a), pr in zip(terms, p):
        pr = to_mpc(pr)
        total += c * (pr ** 2 + pr * b - a)
    return lead * total


def flow_q_closed(ws: SpectralWorkspace, n: int, j: int, r: int) -> mpc:
    """Closed form of dq_r/dz_j (j indexes the free singularities from 1) at
    the level-n point; the workspace keeps it per (n, j, r)."""
    return ws.memo(("flow q", n, j, r), lambda: _flow_q(ws, n, j, r))


def _flow_q(ws: SpectralWorkspace, n: int, j: int, r: int) -> mpc:
    point = coordinates_from_spectral(ws, n)
    sd = ws.data(n)
    zj = ws.singularities()[j]
    qr, pr = point.q[r], point.p[r]
    Wq = ws.at("W", qr)
    lead = sd.at("theta", zj) * Wq / (sd.at("dtheta", qr) * ws.wprime_at(zj))
    bracket = 2 * pr + ws.at("V2", qr) / Wq - mpf(n) / qr - 1 / (zj - qr)
    return lead * bracket / (zj - qr)


def flow_p_closed(ws: SpectralWorkspace, n: int, j: int, r: int) -> mpc:
    """Closed form of dp_r/dz_j at the level-n point; the workspace keeps it
    per (n, j, r)."""
    return ws.memo(("flow p", n, j, r), lambda: _flow_p(ws, n, j, r))


def _flow_p(ws: SpectralWorkspace, n: int, j: int, r: int) -> mpc:
    point = coordinates_from_spectral(ws, n)
    sd = ws.data(n)
    zj = ws.singularities()[j]
    m0 = ws.pair.m_mpc()[0]
    qr, pr = point.q[r], point.p[r]
    Wq = ws.at("W", qr)
    V2q = ws.at("V2", qr)
    thp = sd.at("dtheta", qr)
    half_lder = sd.at("ddtheta", qr) / (2 * thp)
    wl = ws.at("dW", qr) / Wq

    main = pr ** 2 * (wl - half_lder)
    main += pr * (V2q / Wq) * (ws.at("dV2", qr) / V2q - half_lder)
    main -= mpf(n) * (pr / qr) * (wl - half_lder - 1 / qr)
    main -= (pr / (zj - qr)) * (wl - half_lder + 1 / (zj - qr))
    main += mpf(n) * (1 + m0) / (qr * (qr - 1) * (zj - qr))
    total = -(Wq / thp) * main
    for s, (qs, ps) in enumerate(zip(point.q, point.p)):
        if s == r:
            continue
        Ws = ws.at("W", qs)
        br = ps ** 2 + ps * ws.at("V2", qs) / Ws - mpf(n) * ps / qs \
            - ps / (zj - qs) + mpf(n) * (1 + m0) * (qs - qr) / \
            (qs * (qs - 1) * (zj - qs))
        total -= (Ws / sd.at("dtheta", qs)) / (qs - qr) * br
    return total * sd.at("theta", zj) / ((zj - qr) * ws.wprime_at(zj))


# ---------------------------------------------------------------------------
# canonical transformation to the polynomial chart
# ---------------------------------------------------------------------------

def canonical_transform(ws: SpectralWorkspace, n: int, point: GarnierPoint):
    """(t_j, Q_j, P_j) per free singularity; undefined if some z_j = 1."""
    sd = ws.data(n)
    theta_inf = sd.theta[-1]
    out = []
    for zj in ws.singularities()[1:-1]:
        if zj == 1:
            raise Degenerate("free singularity at 1")
        tj = zj / (zj - 1)
        Qj = zj * sd.at("theta", zj) / (theta_inf * ws.wprime_at(zj))
        Pj = mpc(0)
        for qr, pr in zip(point.q, point.p):
            Pj += pr / (qr * (qr - 1)) * (theta_inf * ws.at("W", qr)) / \
                ((qr - zj) * sd.at("dtheta", qr))
        Pj *= -(zj - 1)
        out.append((tj, Qj, Pj))
    return out
