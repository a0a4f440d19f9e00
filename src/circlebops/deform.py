"""Finite-difference verification of the deformation dynamics.

Moving a singularity moves every moment, so a deformation family needs
moments that are explicit functions of the singularity positions.  Arbitrary
seed values do not give that (they pin one solution at one position only);
weights whose residues are all negative integers do: they are rational
functions whose annulus Laurent coefficients are closed forms in the
positions.  The pipeline checks therefore run on that family.

Verified against central differences of the recomputed pipeline:

* the logarithmic derivative formulas for the reflection coefficients,
* the component forms of the residue-matrix deformation derivatives,
* the full matrix Schlesinger equations,
* the canonical-coordinate flow (dq_r/dz_j, dp_r/dz_j);

and against central differences of K_j in (q, p), with no recomputation,
Hamilton's equations dK_j/dp_r = dq_r/dz_j and -dK_j/dq_r = dp_r/dz_j.
K_j is quadratic in the momenta, so the p-differences evaluate one
quadratic form per j (``garnier.k_form``) at the shifted momenta; both
kinds of check read the same flow closed forms, which the workspace keeps
per level.

One rule judges every one of these checks, ``judged_difference``: each is a
central difference at the steps h = ``Plan.flow_step`` and h/2, and it
passes when its residual at h/2 is below the tolerance and either converges
at order >= ``MIN_ORDER`` under step halving or sits at the roundoff floor.
A lower order fails the check, and its note names the order.

The pipeline checks build no workspace themselves.  The caller passes the
base workspace and a stencil (``flow_stencil``): the four workspaces of the
shifted weights at t = -h, h, -h/2, h/2 along one direction.  One stencil
along e_j serves both the deformation checks and the flow check of z_j.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp, mpf, mpc

from .bops import ToeplitzOracle
from .exact import QC
from .garnier import (coordinates_from_spectral, flow_p_closed, flow_q_closed,
                      k_at, k_form, k_value)
from .moments import MomentSequence, rational_weight_moments
from .mputil import match_roots, to_mpc
from .plan import Plan
from .report import (CheckResult, Grid, add_grids, product, rel_error,
                     rel_residual, vector_residual)
from .spectral import SpectralWorkspace, residue_matrices
from .weights import WeightData, build_poly_pair, build_weight

# least convergence order under step halving that a central difference,
# good to O(h^2), must show
MIN_ORDER = 1.9


def judged_difference(label: str, residuals, n: int, tol,
                      floor_note: str = "roundoff floor") -> CheckResult:
    """The check of one central difference, from its residuals at the steps
    h and h/2 (in that order).

    The residual reported is the one at h/2.  When it sits at the plan's
    ``flow_floor``, the difference quotient is exact up to roundoff
    over the step (the function is polynomial of degree <= 2 along the
    probed direction), halving the step cannot show an order, and the note
    is ``floor_note``: a stronger statement than order two.  Otherwise the
    observed order log2(res(h) / res(h/2)) must reach ``MIN_ORDER``.  A
    non-finite residual at either step fails the check.
    """
    residuals = [mpf(x) for x in residuals]
    res_h, res_h2 = residuals
    tol = mpf(tol)
    if not all(map(mpmath.isfinite, residuals)):
        ok, note = False, "non-finite residual"
    elif res_h2 <= Plan.of(mp.prec).flow_floor or res_h <= 0:
        ok, note = True, floor_note
    else:
        order = mpmath.log(res_h / res_h2) / mpmath.log(2)
        ok, note = order >= MIN_ORDER, f"order {mpmath.nstr(order, 4)}"
    return CheckResult(label, res_h2, tol, n, passed=ok and res_h2 < tol,
                       note=note)


def _steps():
    """The two steps of every judged difference, h and h/2."""
    h = Plan.of(mp.prec).flow_step
    return h, h / 2


def _as_mpf(t: Fraction) -> mpf:
    """A dyadic step as an mpf, without rounding."""
    return mpf(t.numerator) / t.denominator


def _central(f, step: Fraction):
    """(f(step) - f(-step)) / (2 step), f taking the displacement t."""
    return (f(step) - f(-step)) / (2 * to_mpc(_as_mpf(step)))


def rational_workspace(weight: WeightData) -> SpectralWorkspace:
    """Pipeline workspace seeded from closed-form moments of the weight,
    evaluated and rounded at the precision of the sequence they seed."""
    pair = build_poly_pair(weight)
    with mp.workprec(Plan.of(mp.prec).sequence):
        seeds = rational_weight_moments(weight, -1, pair.M - 3)
    ms = MomentSequence.from_seeds(pair, -1, list(seeds.values()))
    ms.provenance = "rational"
    return SpectralWorkspace(ToeplitzOracle(ms))


def shifted_weight(weight: WeightData, shifts: dict) -> WeightData:
    """New weight with singularity j moved by shifts[j] (exact QC)."""
    zs = list(weight.singularities)
    for j, dz in shifts.items():
        zs[j] = zs[j] + dz
    return build_weight(zs, list(weight.residues), weight.placement)


def _family_point(weight: WeightData, zdot: list, t: Fraction) -> WeightData:
    shifts = {}
    for j, zd in enumerate(zdot):
        if zd and not (isinstance(zd, QC) and zd.is_zero()):
            zdq = zd if isinstance(zd, QC) else QC(zd)
            shifts[j] = QC(zdq.re * t, zdq.im * t)
    return shifted_weight(weight, shifts) if shifts else weight


def flow_stencil(weight: WeightData, zdot: list) -> dict:
    """Workspaces of the weight moved by t*zdot, for t in -h, h, -h/2, h/2."""
    return {t: rational_workspace(_family_point(weight, zdot, t))
            for step in _steps() for t in (-step, step)}


def deformation_residuals(ws0: SpectralWorkspace, stencil: dict, zdot: list,
                          n: int, tol) -> list:
    """All deformation-derivative checks at level n along direction zdot.

    ws0 is the workspace of the base weight and stencil is
    ``flow_stencil(ws0.weight, zdot)``.  zdot lists one velocity per finite
    singularity; the origin and the point at 1 must stay fixed (their
    entries are zero).  Every term that does not depend on the step is
    formed once; one pass over the two steps then forms the differences.
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
    # origin and confirmed by the difference quotients); moving singularities
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

    # -- residue-matrix derivatives: the step-free parts ----------------------
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
    # the step-free part of each Schlesinger right side,
    # sum_k (zdot_j - zdot_k)/(z_j - z_k) [A_k, A_j], formed exactly
    sch = [add_grids([product((zd[j] - zd[k]) / (zs[j] - zs[k]),
                              _commutator(mats0[k], mats0[j]))
                      for k in range(M) if k != j]) for j in range(M)]
    lead_a = [(lev_n.kappa / lev_n1.phi0) * wp[j] for j in range(M)]

    labels = ("rdot", "rCdot", "AnSE:a", "AnSE:b", "SchlesingerEqn")
    res = {label: [] for label in labels}
    for step in _steps():
        def rate(getter):
            """d/dt of getter(workspace) along the stencil, at this step."""
            return _central(lambda t: getter(stencil[t]), step)

        res["rdot"].append(rel_error(rate(lambda w: w.level(n).r),
                                     want_r, 1))
        res["rCdot"].append(rel_error(rate(lambda w: w.level(n).rbar),
                                      want_rbar, 1))
        kd = rate(lambda w: w.level(n).kappa)
        pbcombo = kd * lev_n.phibar0 + \
            lev_n.kappa * rate(lambda w: w.level(n).phibar0)
        adot = [[[rate(lambda w: residue_matrices(w, n)[j][a][b])
                  for b in range(2)] for a in range(2)] for j in range(M)]
        # lower-left carries kappa^-2, forced by the evolution of the
        # infinity residue matrix (and matching the component forms)
        binf = [[kd / lev_n.kappa, mpc(0)],
                [pbcombo / lev_n.kappa ** 2, -kd / lev_n.kappa]]
        worst_a, worst_b, worst_s = [], [], []
        for j in range(M):
            # component form of the 12 derivative
            rhs = sum(sum_a[j], 2 * (kd / lev_n.kappa) * theta[j])
            worst_a.append(rel_residual([lead_a[j] * adot[j][0][1], -rhs], 1))
            # component form of the 11 derivative
            rhs = sum(sum_b[j], -(lev_n1.phi0 / lev_n.kappa) *
                      (pbcombo / lev_n.kappa ** 2) * theta[j])
            worst_b.append(rel_residual([wp[j] * adot[j][0][0], -rhs], 1))
            # full matrix Schlesinger equation
            comm = Grid.of(_commutator(binf, mats0[j])) + sch[j]
            worst_s.append(vector_residual(
                [adot[j][0] + adot[j][1], -comm], 1))
        res["AnSE:a"].append(max(worst_a))
        res["AnSE:b"].append(max(worst_b))
        res["SchlesingerEqn"].append(max(worst_s))
    return [judged_difference(label, res[label], n, tol) for label in labels]


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
                                 n: int, j: int, tol) -> list:
    """dq_r/dz_j and dp_r/dz_j by recomputing the pipeline at z_j +- h.

    ws0 is the workspace of the base weight and stencil is
    ``flow_stencil(ws0.weight, e_j)``.  Roots of the perturbed coordinate
    polynomial are matched to the base point by nearest-neighbour pairing,
    never re-sorted.
    """
    N = ws0.pair.N
    if not 1 <= j <= N:
        raise ValueError("j indexes a free singularity")
    point = coordinates_from_spectral(ws0, n, with_hamiltonians=False)
    out = []
    qp = {}
    for tt, wsd in stencil.items():
        pt = coordinates_from_spectral(wsd, n, with_hamiltonians=False)
        matched_q = match_roots(point.q, pt.q)
        perm = [pt.q.index(qm) for qm in matched_q]
        qp[tt] = (matched_q, [pt.p[i] for i in perm])

    for r in range(N):
        want_q = flow_q_closed(ws0, n, j, r)
        want_p = flow_p_closed(ws0, n, j, r)
        res_q = [rel_error(_central(lambda t: qp[t][0][r], step), want_q, 1)
                 for step in _steps()]
        res_p = [rel_error(_central(lambda t: qp[t][1][r], step), want_p, 1)
                 for step in _steps()]
        out.append(judged_difference(f"Ham:qDer@z{j},q{r}", res_q, n, tol))
        out.append(judged_difference(f"Ham:pDer@z{j},q{r}", res_p, n, tol))
    return out


def _moved_entry(values: list, r: int, t: Fraction) -> list:
    """values with entry r moved by t."""
    out = list(values)
    out[r] = values[r] + _as_mpf(t)
    return out


def hamilton_equations_check(ws: SpectralWorkspace, n: int, tol) -> list:
    """Central differences of K_j in (q, p) at the level-n point against the
    flow closed forms.

    Verifies dK_j/dp_r = dq_r/dz_j and -dK_j/dq_r = dp_r/dz_j.  K_j is
    quadratic in the momenta: the p-differences evaluate one quadratic form
    per j, built once at the base coordinates, and they are exact and sit
    at the roundoff floor ("exact in p").  The q-differences form K_j anew
    at each shifted coordinate set; one that sits at the floor is at the
    "deep floor".
    """
    N = ws.pair.N
    point = coordinates_from_spectral(ws, n, with_hamiltonians=False)
    out = []
    for j in range(1, N + 1):
        form = k_form(ws, point.q, n, j)
        for r in range(N):
            want_q = flow_q_closed(ws, n, j, r)
            want_p = flow_p_closed(ws, n, j, r)
            res_q, res_p = [], []
            for step in _steps():
                dKdp = _central(lambda t: k_at(
                    form, _moved_entry(point.p, r, t)), step)
                dKdq = _central(lambda t: k_value(
                    ws, _moved_entry(point.q, r, t), point.p, n, j), step)
                res_q.append(rel_error(dKdp, want_q, 1))
                res_p.append(rel_error(-dKdq, want_p, 1))
            out.append(judged_difference(f"Ham:dK/dp@z{j},q{r}", res_q, n,
                                         tol, floor_note="exact in p"))
            out.append(judged_difference(f"Ham:dK/dq@z{j},q{r}", res_p, n,
                                         tol, floor_note="deep floor"))
    return out
