"""Verification of the deformation dynamics by derivatives on a circle.

Moving a singularity moves every moment, so a deformation family needs
moments that the code can move with the singularity positions z_j.
Rational mode is the one mode that has them: a weight whose residues are
all negative integers is a rational function whose annulus Laurent
coefficients are closed forms in the positions.  Formal seeds and
quadrature moments fix one cycle of the weight, and that cycle moves with
z_j by a first-order connection on the moments, but the code does not
build that connection yet, so ``run_verification`` refuses the flow checks
outside rational mode.  The pipeline checks therefore run on the rational
family.

Verified against derivatives of the recomputed pipeline:

* the logarithmic derivative formulas for the reflection coefficients,
* the component forms of the residue-matrix deformation derivatives,
* the full matrix Schlesinger equations,
* the canonical-coordinate flow (dq_r/dz_j, dp_r/dz_j);

and, with no recomputation, Hamilton's equations dK_j/dp_r = dq_r/dz_j and
-dK_j/dq_r = dp_r/dz_j.  K_j is quadratic in the momenta (``garnier.k_form``),
so dK_j/dp_r is that form's exact partial derivative; dK_j/dq_r forms K_j
anew at the moved coordinates.  Both kinds of check read the same flow
closed forms, which the workspace keeps per level.

Every quantity these checks read is holomorphic in the deformation
parameter t (no complex conjugation enters a bi-orthogonal system), so one
rule, ``_derivative``, takes every derivative: the four-point trapezoid rule
for the Cauchy integral on the circle |t| = r = ``Plan.flow_radius``,

    f'(0) ~ [f(r) - f(-r) - i (f(ir) - f(-ir))] / (4 r),

which is accurate to O(r^4) (J. N. Lyness and C. B. Moler, SIAM J. Numer.
Anal. 4 (1967) 202-210).  The checks return (label, residual) evaluations
and take no tolerance: the flow suite judges them (``report.judge``)
against the plan's ``flow_tolerance``, like every other check.

The pipeline checks build no workspace themselves.  The caller passes the
base workspace and a stencil (``flow_stencil``): the four workspaces of the
weights moved by t * zdot, t = r, -r, ir, -ir; each shift is an exact
Gaussian rational.  One stencil along e_j serves both the deformation
checks and the flow check of z_j.
"""

from __future__ import annotations

from mpmath import mp, mpc

from .bops import ToeplitzOracle
from .exact import QC
from .garnier import (coordinates_from_spectral, flow_p_closed, flow_q_closed,
                      k_form, k_value)
from .moments import (MomentSequence, free_moments,
                      rational_weight_moments)
from .mputil import match_roots, to_mpc
from .plan import Plan
from .report import (Grid, add_grids, product, rel_error, rel_residual,
                     vector_residual)
from .spectral import SpectralWorkspace, residue_matrices
from .weights import WeightData, build_poly_pair, build_weight


def _circle():
    """The four points t = r, -r, ir, -ir of the plan's circle, exact."""
    r = Plan.of(mp.prec).flow_radius
    return QC(r), QC(-r), QC(0, r), QC(0, -r)


def _derivative(f):
    """f'(0) by the four-point trapezoid rule on the plan's circle, f taking
    a point of ``_circle`` (an exact QC)."""
    a, b, c, d = _circle()
    return (f(a) - f(b) - mpc(0, 1) * (f(c) - f(d))) / (4 * a.to_mpc())


def rational_workspace(weight: WeightData) -> SpectralWorkspace:
    """Pipeline workspace seeded from closed-form moments of the weight,
    evaluated and rounded at the precision of the sequence they seed."""
    pair = build_poly_pair(weight)
    with mp.workprec(Plan.of(mp.prec).sequence):
        seeds = rational_weight_moments(
            weight, -1, free_moments(weight.singularities) - 2)
    ms = MomentSequence.from_seeds(pair, -1, list(seeds.values()))
    ms.provenance = "rational"
    return SpectralWorkspace(ToeplitzOracle(ms))


def shifted_weight(weight: WeightData, shifts: dict) -> WeightData:
    """New weight with singularity j moved by shifts[j] (exact QC)."""
    zs = list(weight.singularities)
    for j, dz in shifts.items():
        zs[j] = zs[j] + dz
    return build_weight(zs, list(weight.residues), weight.placement)


def _family_point(weight: WeightData, zdot: list, t: QC) -> WeightData:
    shifts = {j: t * zd for j, zd in enumerate(zdot) if zd}
    return shifted_weight(weight, shifts) if shifts else weight


def flow_stencil(weight: WeightData, zdot: list) -> dict:
    """Workspaces of the weight moved by t*zdot, t on the plan's circle."""
    return {t: rational_workspace(_family_point(weight, zdot, t))
            for t in _circle()}


def deformation_residuals(ws0: SpectralWorkspace, stencil: dict, zdot: list,
                          n: int) -> list:
    """All deformation-derivative evaluations at level n along direction
    zdot.

    ws0 is the workspace of the base weight and stencil is
    ``flow_stencil(ws0.weight, zdot)``.  zdot lists one velocity per finite
    singularity; the origin and the point at 1 must stay fixed (their
    entries are zero).
    """
    zdot = [QC(z) if not isinstance(z, QC) else z for z in zdot]
    if len(zdot) != ws0.weight.M:
        raise ValueError("need one velocity per finite singularity")
    if not zdot[0].is_zero():
        raise ValueError("the origin cannot move")
    zd = [z.to_mpc() for z in zdot]

    zs = ws0.singularities()
    M = len(zs)
    sd_nm1 = ws0.data(n - 1)
    sd_n = ws0.data(n)
    lev_n = ws0.level(n)
    lev_n1 = ws0.level(n + 1)
    kr = ws0.kappa_ratio(n)
    wp = [ws0.wprime_at(z) for z in zs]
    V = [ws0.at("V", z) for z in zs]
    woz = [ws0.at("Woz", z) for z in zs]
    theta = [sd_n.at("theta", z) for z in zs]
    omega = [sd_n.at("omega", z) for z in zs]

    # -- reflection-coefficient dynamics --------------------------------------
    # carries a 1/z_j weight (derived from the deformation system at the
    # origin and confirmed by the circle derivatives); moving singularities
    # are never at the origin so the weight is finite
    want_r = mpc(0)
    want_rbar = mpc(0)
    for j in range(M):
        if zd[j] == 0:
            continue
        want_r += zd[j] * (sd_nm1.at("omega", zs[j]) - V[j]) / \
            (zs[j] * wp[j])
        want_rbar += zd[j] * (sd_nm1.at("omegastar", zs[j]) + V[j]) / \
            (zs[j] * wp[j])
    want_r *= lev_n.r
    want_rbar *= lev_n.rbar

    # -- residue-matrix derivatives: the parts at the base point --------------
    mats0 = residue_matrices(ws0, n)
    brace = [2 * omega[j] - 2 * kr * zs[j] * theta[j] + n * woz[j]
             for j in range(M)]
    # the two brackets of each 11 component form
    p = [omega[j] + V[j] - kr * zs[j] * theta[j] for j in range(M)]
    m = [omega[j] - V[j] - kr * zs[j] * theta[j] + n * woz[j]
         for j in range(M)]
    # the k-sums of the 12 and 11 component forms, term by term
    sum_a, sum_b = [], []
    for j in range(M):
        sum_a.append([])
        sum_b.append([])
        for k in range(M):
            if k == j:
                continue
            c = (1 / wp[k]) * ((zd[j] - zd[k]) / (zs[j] - zs[k]))
            sum_a[j].append(c * (theta[k] * brace[j] - theta[j] * brace[k]))
            sum_b[j].append(c * ((theta[j] / theta[k]) * p[k] * m[k] -
                                 (theta[k] / theta[j]) * p[j] * m[j]))
    # the base part of each Schlesinger right side,
    # sum_k (zdot_j - zdot_k)/(z_j - z_k) [A_k, A_j], formed exactly
    sch = [add_grids([product((zd[j] - zd[k]) / (zs[j] - zs[k]),
                              _commutator(mats0[k], mats0[j]))
                      for k in range(M) if k != j]) for j in range(M)]
    lead_a = [(lev_n.kappa / lev_n1.phi0) * wp[j] for j in range(M)]

    def rate(getter):
        """d/dt of getter(workspace) along the stencil."""
        return _derivative(lambda t: getter(stencil[t]))

    kd = rate(lambda w: w.level(n).kappa)
    pbcombo = kd * lev_n.phibar0 + \
        lev_n.kappa * rate(lambda w: w.level(n).phibar0)
    adot = [[[rate(lambda w: residue_matrices(w, n)[j][a][b])
              for b in range(2)] for a in range(2)] for j in range(M)]
    # lower-left carries kappa^-2, forced by the evolution of the
    # infinity residue matrix (and matching the component forms)
    binf = [[kd / lev_n.kappa, mpc(0)],
            [pbcombo / lev_n.kappa ** 2, -kd / lev_n.kappa]]
    out = []
    for j in range(M):
        # component form of the 12 derivative
        rhs = sum(sum_a[j], 2 * (kd / lev_n.kappa) * theta[j])
        out.append(("AnSE:a",
                    rel_residual([lead_a[j] * adot[j][0][1], -rhs], 1)))
        # component form of the 11 derivative
        rhs = sum(sum_b[j], -(lev_n1.phi0 / lev_n.kappa) *
                  (pbcombo / lev_n.kappa ** 2) * theta[j])
        out.append(("AnSE:b", rel_residual([wp[j] * adot[j][0][0], -rhs], 1)))
        # full matrix Schlesinger equation
        comm = Grid.of(_commutator(binf, mats0[j])) + sch[j]
        out.append(("SchlesingerEqn",
                    vector_residual([adot[j][0] + adot[j][1], -comm], 1)))
    return [("rdot", rel_error(rate(lambda w: w.level(n).r), want_r, 1)),
            ("rCdot", rel_error(rate(lambda w: w.level(n).rbar), want_rbar,
                                1))] + out


def _commutator(a, b):
    """[a, b] of 2x2 matrices, flattened row by row."""
    return [a[0][0] * b[0][0] + a[0][1] * b[1][0] -
            (b[0][0] * a[0][0] + b[0][1] * a[1][0]),
            a[0][0] * b[0][1] + a[0][1] * b[1][1] -
            (b[0][0] * a[0][1] + b[0][1] * a[1][1]),
            a[1][0] * b[0][0] + a[1][1] * b[1][0] -
            (b[1][0] * a[0][0] + b[1][1] * a[1][0]),
            a[1][0] * b[0][1] + a[1][1] * b[1][1] -
            (b[1][0] * a[0][1] + b[1][1] * a[1][1])]


def hamilton_flow_pipeline_check(ws0: SpectralWorkspace, stencil: dict,
                                 n: int, j: int) -> list:
    """dq_r/dz_j and dp_r/dz_j by recomputing the pipeline on the circle
    about z_j.

    ws0 is the workspace of the base weight and stencil is
    ``flow_stencil(ws0.weight, e_j)``.  Roots of the perturbed coordinate
    polynomial are matched to the base point by nearest-neighbour pairing,
    never re-sorted.
    """
    N = ws0.pair.N
    if not 1 <= j <= N:
        raise ValueError("j indexes a free singularity")
    point = coordinates_from_spectral(ws0, n)
    qp = {}
    for tt, wsd in stencil.items():
        pt = coordinates_from_spectral(wsd, n)
        matched_q = match_roots(point.q, pt.q)
        perm = [pt.q.index(qm) for qm in matched_q]
        qp[tt] = (matched_q, [pt.p[i] for i in perm])

    return [(f"Ham:{x}Der@z{j},q{r}",
             rel_error(_derivative(lambda t: qp[t][k][r]),
                       closed(ws0, n, j, r), 1))
            for r in range(N)
            for k, x, closed in ((0, "q", flow_q_closed),
                                 (1, "p", flow_p_closed))]


def hamilton_equations_check(ws: SpectralWorkspace, n: int):
    """The partial derivatives of K_j in (q, p) at the level-n point against
    the flow closed forms.

    Verifies dK_j/dp_r = dq_r/dz_j and -dK_j/dq_r = dp_r/dz_j.  K_j is
    ``garnier.k_form``'s quadratic lead * sum_r c_r (p_r^2 + b_r p_r - a_r)
    in the momenta, so dK_j/dp_r = lead c_r (2 p_r + b_r) exactly.  The
    q-derivative forms K_j anew at each moved coordinate set.
    """
    N = ws.pair.N
    point = coordinates_from_spectral(ws, n)
    p = [to_mpc(pr) for pr in point.p]
    for j in range(1, N + 1):
        lead, terms = k_form(ws, point.q, n, j)
        for r, (c, b, _) in enumerate(terms):
            def moved(t):
                q = list(point.q)
                q[r] = to_mpc(q[r]) + t.to_mpc()
                return k_value(ws, q, p, n, j)

            yield f"Ham:dK/dp@z{j},q{r}", rel_error(
                lead * c * (2 * p[r] + b), flow_q_closed(ws, n, j, r), 1)
            yield f"Ham:dK/dq@z{j},q{r}", rel_error(
                -_derivative(moved), flow_p_closed(ws, n, j, r), 1)
