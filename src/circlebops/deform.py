"""Finite-difference verification of the deformation dynamics.

Moving a singularity moves every moment, so a deformation family needs
moments that are explicit functions of the singularity positions.  Arbitrary
seed values do not give that (they pin one solution at one position only);
weights whose residues are all negative integers do: they are rational
functions whose annulus Laurent coefficients are closed forms in the
positions.  All checks here therefore run on that family.

Verified against central differences of the recomputed pipeline:

* the logarithmic derivative formulas for the reflection coefficients,
* the component forms of the residue-matrix deformation derivatives,
* the full matrix Schlesinger equations,
* the canonical-coordinate flow (dq_r/dz_j, dp_r/dz_j).

Every comparison reports its observed convergence order under step halving
and must reach order 1.9 (or sit at the roundoff floor).

The checks build no workspace themselves.  The caller passes the base
workspace and a stencil (``flow_stencil``): the four workspaces of the
shifted weights at t = -h, h, -h/2, h/2 along one direction.  One stencil
along e_j serves both the deformation checks and the flow check of z_j.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp, mpf, mpc

from .bops import ToeplitzOracle
from .errors import StepTooLarge
from .exact import QC
from .garnier import (coordinates_from_spectral, fd_pass, flow_p_closed,
                      flow_q_closed, flow_step)
from .moments import (MomentSequence, rational_weight_moments,
                      sequence_precision)
from .mputil import match_roots, to_mpc
from .report import (CheckResult, Grid, add_grids, product, rel_error,
                     rel_residual, vector_residual)
from .spectral import SpectralWorkspace, residue_matrices
from .weights import WeightData, build_poly_pair, build_weight


def rational_workspace(weight: WeightData) -> SpectralWorkspace:
    """Pipeline workspace seeded from closed-form moments of the weight,
    evaluated and rounded at the precision of the sequence they seed."""
    pair = build_poly_pair(weight)
    with mp.workprec(sequence_precision()):
        seeds = rational_weight_moments(weight, -1, pair.M - 3)
    ms = MomentSequence.from_seeds(pair, -1, list(seeds.values()))
    ms.provenance = "rational"
    return SpectralWorkspace(ToeplitzOracle(ms), pair)


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
    h = flow_step()
    return {t: rational_workspace(_family_point(weight, zdot, t))
            for t in (-h, h, -h / 2, h / 2)}


def _central(at: dict, getter, step: Fraction):
    """(getter(at[step]) - getter(at[-step])) / (2 step); at is keyed by t."""
    hstep = to_mpc(mpf(step.numerator) / step.denominator)
    return (getter(at[step]) - getter(at[-step])) / (2 * hstep)


def _order_result(label, res_pair, tol, n, min_order=1.9):
    ok, order = fd_pass(res_pair[0], res_pair[1], min_order)
    note = "roundoff floor" if order is None else f"order {mpmath.nstr(order, 4)}"
    res = CheckResult.make(label, res_pair[1], tol, n, note=note)
    res.passed = ok and res_pair[1] < tol
    if order is not None and order < 1.5:
        raise StepTooLarge(
            f"{label}: observed order {mpmath.nstr(order, 4)} below 1.5")
    return res


def deformation_residuals(ws0: SpectralWorkspace, stencil: dict, zdot: list,
                          n: int, tol) -> list:
    """All deformation-derivative checks at level n along direction zdot.

    ws0 is the workspace of the base weight and stencil is
    ``flow_stencil(ws0.weight, zdot)``.  zdot lists one velocity per finite
    singularity; the origin and the point at 1 must stay fixed (their
    entries are zero).
    """
    h = flow_step()
    zdot = [QC(z) if not isinstance(z, QC) else z for z in zdot]
    if len(zdot) != ws0.weight.M:
        raise ValueError("need one velocity per finite singularity")
    if not zdot[0].is_zero():
        raise ValueError("the origin cannot move")
    zd = [z.to_mpc() for z in zdot]

    out = []
    zs = ws0.singularities()
    sd_nm1 = ws0.data(n - 1)
    sd_n = ws0.data(n)
    lev_n = ws0.level(n)
    lev_n1 = ws0.level(n + 1)
    kr = ws0.kappa_ratio(n)

    def V(j):
        return ws0.at("V", zs[j])

    # -- reflection-coefficient dynamics --------------------------------------
    # carries a 1/z_j weight (derived from the deformation system at the
    # origin and confirmed by the difference quotients); moving singularities
    # are never at the origin so the weight is finite
    want_r = mpc(0)
    want_rbar = mpc(0)
    for j in range(len(zs)):
        if zd[j] == 0:
            continue
        want_r += zd[j] * (sd_nm1.at("omega", zs[j]) - V(j)) / \
            (zs[j] * ws0.wprime_at(zs[j]))
        want_rbar += zd[j] * (sd_nm1.at("omegastar", zs[j]) + V(j)) / \
            (zs[j] * ws0.wprime_at(zs[j]))
    want_r *= lev_n.r
    want_rbar *= lev_n.rbar

    res_r, res_rbar = [], []
    for step in (h, h / 2):
        fd_r = _central(stencil, lambda w: w.level(n).r, step)
        fd_rbar = _central(stencil, lambda w: w.level(n).rbar, step)
        res_r.append(rel_error(fd_r, want_r, 1))
        res_rbar.append(rel_error(fd_rbar, want_rbar, 1))
    out.append(_order_result("rdot", res_r, tol, n))
    out.append(_order_result("rCdot", res_rbar, tol, n))

    # -- residue-matrix derivatives -------------------------------------------
    mats0 = residue_matrices(ws0, n)
    kdot = {}
    pbar_dot = {}
    for step in (h, h / 2):
        kdot[step] = _central(stencil, lambda w: w.level(n).kappa, step)
        pbar_dot[step] = _central(stencil, lambda w: w.level(n).phibar0, step)

    def theta_at(j):
        return sd_n.at("theta", zs[j])

    def omega_at(j):
        return sd_n.at("omega", zs[j])

    def brace_term(j):
        return 2 * omega_at(j) - 2 * kr * zs[j] * theta_at(j) + \
            n * ws0.at("Woz", zs[j])

    res_a = [[], []]
    res_b = [[], []]
    res_sch = [[], []]
    M = len(zs)
    # the step-free part of each Schlesinger right side,
    # sum_k (zdot_j - zdot_k)/(z_j - z_k) [A_k, A_j], formed exactly
    sch = [add_grids([product((zd[j] - zd[k]) / (zs[j] - zs[k]),
                              _commutator(mats0[k], mats0[j]))
                      for k in range(M) if k != j]) for j in range(M)]
    for si, step in enumerate((h, h / 2)):
        mats = {t: residue_matrices(stencil[t], n) for t in (step, -step)}
        adot = [[[_central(mats, lambda m: m[j][a][b], step)
                  for b in range(2)] for a in range(2)] for j in range(M)]
        kd = kdot[step]
        pbcombo = kd * lev_n.phibar0 + lev_n.kappa * pbar_dot[step]
        # lower-left carries kappa^-2, forced by the evolution of the
        # infinity residue matrix (and matching the component forms)
        binf = [[kd / lev_n.kappa, mpc(0)],
                [pbcombo / lev_n.kappa ** 2, -kd / lev_n.kappa]]

        worst_a = worst_b = worst_s = mpf(0)
        for j in range(M):
            # component form of the 12 derivative
            lhs = (lev_n.kappa / lev_n1.phi0) * ws0.wprime_at(zs[j]) * \
                adot[j][0][1]
            rhs = 2 * (kd / lev_n.kappa) * theta_at(j)
            for k in range(M):
                if k == j:
                    continue
                rhs += (1 / ws0.wprime_at(zs[k])) * \
                    ((zd[j] - zd[k]) / (zs[j] - zs[k])) * \
                    (theta_at(k) * brace_term(j) - theta_at(j) * brace_term(k))
            worst_a = max(worst_a, rel_residual([lhs, -rhs], 1))

            # component form of the 11 derivative
            lhs = ws0.wprime_at(zs[j]) * adot[j][0][0]
            rhs = -(lev_n1.phi0 / lev_n.kappa) * \
                (pbcombo / lev_n.kappa ** 2) * theta_at(j)
            for k in range(M):
                if k == j:
                    continue
                pj = omega_at(j) + V(j) - kr * zs[j] * theta_at(j)
                mj = omega_at(j) - V(j) - kr * zs[j] * theta_at(j) + \
                    n * ws0.at("Woz", zs[j])
                pk = omega_at(k) + V(k) - kr * zs[k] * theta_at(k)
                mk = omega_at(k) - V(k) - kr * zs[k] * theta_at(k) + \
                    n * ws0.at("Woz", zs[k])
                rhs += (1 / ws0.wprime_at(zs[k])) * \
                    ((zd[j] - zd[k]) / (zs[j] - zs[k])) * \
                    ((theta_at(j) / theta_at(k)) * pk * mk -
                     (theta_at(k) / theta_at(j)) * pj * mj)
            worst_b = max(worst_b, rel_residual([lhs, -rhs], 1))

            # full matrix Schlesinger equation
            comm = Grid.of(_commutator(binf, mats0[j])) + sch[j]
            worst_s = max(worst_s, vector_residual(
                [adot[j][0] + adot[j][1], -comm], 1))
        res_a[si] = worst_a
        res_b[si] = worst_b
        res_sch[si] = worst_s

    out.append(_order_result("AnSE:a", res_a, tol, n))
    out.append(_order_result("AnSE:b", res_b, tol, n))
    out.append(_order_result("SchlesingerEqn", res_sch, tol, n))
    return out


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
    h = flow_step()
    point = coordinates_from_spectral(ws0, n, with_hamiltonians=False)
    out = []
    qp = {}
    for tt, wsd in stencil.items():
        pt = coordinates_from_spectral(wsd, n, with_hamiltonians=False)
        matched_q = match_roots(point.q, pt.q)
        perm = [pt.q.index(qm) for qm in matched_q]
        qp[tt] = (matched_q, [pt.p[i] for i in perm])

    for r in range(N):
        want_q = flow_q_closed(ws0, n, point, j, r)
        want_p = flow_p_closed(ws0, n, point, j, r)
        res_q, res_p = [], []
        for step in (h, h / 2):
            fd_q = _central(qp, lambda c: c[0][r], step)
            fd_p = _central(qp, lambda c: c[1][r], step)
            res_q.append(rel_error(fd_q, want_q, 1))
            res_p.append(rel_error(fd_p, want_p, 1))
        out.append(_order_result(f"Ham:qDer@z{j},q{r}", res_q, tol, n))
        out.append(_order_result(f"Ham:pDer@z{j},q{r}", res_p, tol, n))
    return out
