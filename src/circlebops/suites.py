"""Named verification suites over one workspace.

``SUITE_BUILDERS`` is the one table of suites.  Each entry lists its check
families as rows (family, levels[, extra]), in report order, so each level
range and cap is written once; ``judge_rows`` judges the (label, residual)
evaluations family(ws, n[, extra]) at each level n (``report.judge``).
``flow`` runs apart, at one level (``run_verification``), and only
``tau:I``, whose note names its level range, is made here.  No range needs
more than ``n_max + 2`` determinant levels.  The run's seed picks the
sample points of ``rrCf:j@pts`` alone; every other check is a polynomial
identity or sits at fixed points.
"""

from __future__ import annotations

from mpmath import mpf

from .bops import casoratian_residuals
from .deform import (deformation_residuals, flow_stencil,
                     hamilton_equations_check, hamilton_flow_pipeline_check)
from .discrete_garnier import (dg_from_spectral, dg_hamiltonian_residuals,
                               dg_run, tau_recovery)
from .errors import ConfigInvalid
from .exact import QC
from .garnier import (coordinates_from_spectral, hamiltonian,
                      hamiltonian_from_residues, representation_residuals)
from .report import CheckResult, judge, rel_error, rel_residual
from .spectral import (SpectralWorkspace, check_bilinear,
                       check_linear_recurrences, check_summation_identities,
                       check_transitions, p2_asymptotic_constant,
                       residue_structure_checks, scalar_ode_residuals)


def judge_rows(ws: SpectralWorkspace, tol, rows) -> list:
    """The checks of each row (family, levels[, extra]) in turn: the
    evaluations family(ws, n[, extra]) judged at each of its levels n."""
    return [c for family, levels, *extra in rows for n in levels
            for c in judge(family(ws, n, *extra), tol, n)]


def toeplitz_checks(ws: SpectralWorkspace, n: int):
    o = ws.oracle
    lev, prev = o.level(n), o.level(n - 1)
    lhs = o.det(n + 1) * o.det(n - 1) / o.det(n) ** 2
    yield "I0", rel_residual([lhs, -(1 - lev.r * lev.rbar)], 1)
    yield "l:kappa", rel_residual([lev.kappa ** 2, -prev.kappa ** 2,
                                   -(lev.phi0 * lev.phibar0)])
    yield "l:lambda", rel_residual([lev.lam, -prev.lam, -lev.r * prev.rbar],
                                   1)


def casoratian_checks(ws: SpectralWorkspace, n: int):
    return casoratian_residuals(ws.oracle, n)


def degree_checks(ws: SpectralWorkspace, n: int):
    yield "degree", ws.data(n).band_residual


def endpoint_checks(ws: SpectralWorkspace, n: int):
    """Leading and trailing coefficients of all four spectral polynomials
    against their closed forms in the canonical placement."""
    pair = ws.pair
    N = pair.N
    e, m = pair.e_mpc(), pair.m_mpc()
    m0, rho0 = m[0], ws.residues()[0]
    sgn = mpf((-1) ** N)
    sd = ws.data(n)
    l0, l1 = ws.level(n), ws.level(n + 1)
    kk = l0.kappa / l1.kappa
    pairs = [
        ("Thexp:lead", sd.theta[-1], (n + 1 + m0) * kk),
        ("Thexp:trail", sd.theta[0],
         sgn * e[N + 1] * (n - rho0) * (l0.r / l1.r) * kk),
        ("ThSexp:lead", sd.thetastar[-1],
         -(n + m0) * (l0.rbar / l1.rbar) * kk),
        ("ThSexp:trail", sd.thetastar[0],
         -sgn * e[N + 1] * (n + 1 - rho0) * kk),
        ("Omexp:lead", sd.omega[-1], 1 + m0 / 2),
        ("Omexp:trail", sd.omega[0], sgn * (n * e[N + 1] - m[N + 1] / 2)),
        ("OmSexp:lead", sd.omegastar[-1], -m0 / 2),
        ("OmSexp:trail", sd.omegastar[0],
         -sgn * (m[N + 1] / 2 + (n + 1 - rho0) * e[N + 1])),
    ]
    for label, got, want in pairs:
        yield label, rel_residual([got, -want], 1)


def summation_checks(ws: SpectralWorkspace, n: int):
    point = coordinates_from_spectral(ws, n)
    return check_summation_identities(ws, n, garnier_point=point)


def ode_checks(ws: SpectralWorkspace, n: int):
    yield from scalar_ode_residuals(ws, n)
    got = p2_asymptotic_constant(ws, n)
    want = -mpf(n) * (1 + ws.pair.m_mpc()[0])
    yield "2ODE:p2asym", rel_error(got, want, 1)


def _garnier(ws: SpectralWorkspace, n: int):
    point = coordinates_from_spectral(ws, n)
    yield from representation_residuals(ws, n, point)
    for a, b in zip(hamiltonian(ws, n),
                    hamiltonian_from_residues(ws, n, point)):
        yield "Ham:dual", rel_residual([a, -b], 1)


def _dg_state(ws: SpectralWorkspace, n: int, states: list):
    yield ("dGarnier:ab" if n else "dGarnier:init",
           state_delta(states[n], dg_from_spectral(ws, n)))


def state_delta(a, b) -> mpf:
    """Largest f/omega difference of two recurrence states, relative to b."""
    return rel_error(a.f + a.omega, b.f + b.omega, 1)


def tau_levels(ws: SpectralWorkspace, n_max: int) -> tuple:
    """(rec, deltas): ``tau_recovery`` on the trajectory to n_max + 2, and
    the relative distance of each recovered I_n, n <= n_max, from the
    oracle determinant; formed once per workspace and trajectory length."""
    def recover():
        rec = tau_recovery(dg_run(ws, n_max + 2), ws.oracle.moments)
        top = min(n_max, len(rec["I"]) - 1)
        return rec, [rel_error(rec["I"][n], ws.oracle.det(n), 1e-30)
                     for n in range(top + 1)]
    return ws.memo(("tau", n_max + 2), recover)


def tau_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    rec, deltas = tau_levels(ws, n_max)
    top = len(deltas) - 1
    return judge([("tau:lambda-paths", rec["lambda_delta"]),
                  ("tau:rbar0", rec["rbar0_defect"])], tol) + \
        [CheckResult("tau:I", max(deltas), tol, top,
                     note=f"levels 0..{top}")]


def flow_suite(ws: SpectralWorkspace, n: int, tol) -> list:
    """Deformation and flow checks; needs a closed-form moment family.

    Builds one stencil per free singularity z_j: the four workspaces of
    z_j moved to the plan's circle about it, at +-r and +-ir.  The stencil
    of z_1 also serves the deformation checks.  Every derivative is the
    four-point circle rule of ``deform``, and every check passes when its
    residual is below ``tol``, the plan's ``flow_tolerance``.
    """
    out = []
    for j in range(1, ws.pair.N + 1):
        zdot = [QC(0)] * ws.weight.M
        zdot[j] = QC(1)
        stencil = flow_stencil(ws.weight, zdot)
        if j == 1:
            out += deformation_residuals(ws, stencil, zdot, n)
        out += hamilton_flow_pipeline_check(ws, stencil, n, j)
    out += hamilton_equations_check(ws, n)
    return judge(out, tol, n)


# name -> builder(ws, n_max, tol, seed); the flow suite is ``flow_suite``
SUITE_BUILDERS = {
    "identities": lambda ws, n, tol, seed: judge_rows(ws, tol, [
        (toeplitz_checks, range(1, n + 1)),
        (casoratian_checks, range(min(n, 8) + 1)),
        (degree_checks, range(n + 1)),
        (endpoint_checks, range(n + 1)),
        (check_linear_recurrences, range(1, n + 1)),
        (check_transitions, range(n + 1), seed),
        (residue_structure_checks, range(n + 1)),
        (ode_checks, range(min(n, 6) + 1))]),
    "bilinear": lambda ws, n, tol, seed: judge_rows(ws, tol, [
        (check_bilinear, range(n + 1))]),
    "summation": lambda ws, n, tol, seed: judge_rows(ws, tol, [
        (summation_checks, range(n + 1)),
        (_garnier, range(n + 1))]),
    "oracle": lambda ws, n, tol, seed: judge_rows(ws, tol, [
        (_dg_state, range(n + 1), dg_run(ws, n)),
        (dg_hamiltonian_residuals, [max(1, n // 2)])]),
    "tau": lambda ws, n, tol, seed: tau_suite(ws, n, tol),
}
SUITE_NAMES = (*SUITE_BUILDERS, "flow")


def run_verification(ws: SpectralWorkspace, checks, n_max: int, tol,
                     seed: int = 1) -> list:
    if "flow" in checks and ws.oracle.moments.provenance != "rational":
        raise ConfigInvalid("flow checks need mode: rational "
                            "(a closed-form deformation family)")
    if ws.pair.N == 0 and {"summation", "tau"} & set(checks):
        raise ConfigInvalid("summation and tau checks need a free "
                            "singularity (M >= 3)")
    results = []
    for name in checks:
        if name == "flow":
            results.extend(flow_suite(ws, max(1, min(n_max, 3)),
                                      ws.plan.flow_tolerance))
        else:
            results.extend(SUITE_BUILDERS[name](ws, n_max, tol, seed))
    return results
