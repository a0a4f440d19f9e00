"""Named verification suites over one workspace.

Each suite walks a level range and returns CheckResults tagged with the
identity codes the CLI report and the acceptance tests print.  Level ranges
are chosen so that nothing above ``n_max + 2`` determinant levels is ever
required.  The run's seed picks the sample points of ``rrCf:j@pts`` alone;
every other check is a polynomial identity or sits at fixed points.
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
from .garnier import (coordinates_from_spectral, hamiltonian_from_residues,
                      omega_rep_residual, v2_rep_residual, w_rep_residual)
from .report import CheckResult, rel_error, rel_residual
from .spectral import (SpectralWorkspace, check_bilinear,
                       check_linear_recurrences, check_summation_identities,
                       check_transitions, p2_asymptotic_constant,
                       residue_structure_checks, scalar_ode_residuals)


def toeplitz_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    """Determinant-ratio and coefficient-difference identities, level by level."""
    out = []
    o = ws.oracle
    for n in range(1, n_max + 1):
        lev, prev = o.level(n), o.level(n - 1)
        lhs = o.det(n + 1) * o.det(n - 1) / o.det(n) ** 2
        rhs = 1 - lev.r * lev.rbar
        out.append(CheckResult.make("I0", rel_residual([lhs, -rhs], 1), tol, n))
        terms = [lev.kappa ** 2, -prev.kappa ** 2, -(lev.phi0 * lev.phibar0)]
        out.append(CheckResult.make("l:kappa", rel_residual(terms), tol, n))
        terms = [lev.lam, -prev.lam, -lev.r * prev.rbar]
        out.append(CheckResult.make("l:lambda", rel_residual(terms, 1), tol, n))
    return out


def casoratian_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    out = []
    for n in range(0, n_max + 1):
        for label, resid in casoratian_residuals(ws.oracle, n).items():
            out.append(CheckResult.make(label, resid, tol, n))
    return out


def degree_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    """The out-of-band series mass of every extraction (degree bounds)."""
    return [CheckResult.make("degree", ws.data(n).band_residual, tol, n,
                             note="out-of-band series mass")
            for n in range(0, n_max + 1)]


def endpoint_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    """Leading and trailing coefficients of all four spectral polynomials
    against their closed forms in the canonical placement."""
    out = []
    pair = ws.pair
    N = pair.N
    e = pair.e_mpc()
    m = pair.m_mpc()
    m0 = m[0]
    rho0 = ws.residues()[0]
    sgn = mpf((-1) ** N)
    for n in range(0, n_max + 1):
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
            out.append(CheckResult.make(label, rel_residual([got, -want], 1),
                                        tol, n))
    return out


def lattice_suite(ws: SpectralWorkspace, n_max: int, tol, seed: int) -> list:
    """Linear recurrences and transition identities."""
    out = []
    for n in range(1, n_max + 1):
        out.extend(check_linear_recurrences(ws, n, tol))
    for n in range(0, n_max + 1):
        out.extend(check_transitions(ws, n, tol, seed))
    for n in range(0, n_max + 1):
        out.extend(residue_structure_checks(ws, n, tol))
    return out


def bilinear_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    out = []
    for n in range(0, n_max + 1):
        out.extend(check_bilinear(ws, n, tol))
    return out


def summation_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    out = []
    for n in range(0, n_max + 1):
        point = coordinates_from_spectral(ws, n, with_hamiltonians=False)
        out.extend(check_summation_identities(ws, n, tol, garnier_point=point))
    return out


def ode_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    """The scalar ODEs and the decay of p2, level by level."""
    out = []
    m0 = ws.pair.m_mpc()[0]
    for n in range(0, n_max + 1):
        out.extend(scalar_ode_residuals(ws, n, tol))
        got = p2_asymptotic_constant(ws, n)
        want = -mpf(n) * (1 + m0)
        out.append(CheckResult.make("2ODE:p2asym", rel_error(got, want, 1),
                                    tol, n))
    return out


def garnier_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    """Coordinate extraction, reconstructions, Hamiltonian dual route."""
    out = []
    for n in range(0, n_max + 1):
        point = coordinates_from_spectral(ws, n)
        out.append(CheckResult.make("OmegaRep", omega_rep_residual(ws, n, point),
                                    tol, n))
        out.append(CheckResult.make("2VRep", v2_rep_residual(ws, n, point),
                                    tol, n))
        out.append(CheckResult.make("WRep", w_rep_residual(ws, n, point),
                                    tol, n))
        dual = hamiltonian_from_residues(ws, n, point)
        worst = max((rel_residual([a, -b], 1) for a, b in zip(point.K, dual)),
                    default=mpf(0))
        out.append(CheckResult.make("Ham:dual", worst, tol, n))
    return out


def oracle_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    """Trajectory of the coupled recurrences against spectral values."""
    out = [CheckResult.make("dGarnier:ab" if st.n else "dGarnier:init",
                            state_delta(st, dg_from_spectral(ws, st.n)),
                            tol, st.n)
           for st in dg_run(ws, n_max)]
    n = max(1, n_max // 2)
    out.append(CheckResult.make("dGarnier:ham",
                                dg_hamiltonian_residuals(ws, n)["advanced"],
                                tol, n, note="advanced-level roots"))
    return out


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
    return [CheckResult.make("tau:lambda-paths", rec["lambda_delta"], tol,
                             note="two recovery recurrences"),
            CheckResult.make("tau:rbar0", rec["rbar0_defect"], tol),
            CheckResult.make("tau:I", max(deltas), tol, top,
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
            out.extend(deformation_residuals(ws, stencil, zdot, n, tol))
        out.extend(hamilton_flow_pipeline_check(ws, stencil, n, j, tol))
    out.extend(hamilton_equations_check(ws, n, tol))
    return out


SUITE_BUILDERS = {
    "identities": lambda ws, nmax, tol, seed: (
        toeplitz_suite(ws, nmax, tol) + casoratian_suite(ws, min(nmax, 8), tol)
        + degree_suite(ws, nmax, tol) + endpoint_suite(ws, nmax, tol)
        + lattice_suite(ws, nmax, tol, seed)
        + ode_suite(ws, min(nmax, 6), tol)),
    "bilinear": lambda ws, nmax, tol, seed: bilinear_suite(ws, nmax, tol),
    "summation": lambda ws, nmax, tol, seed: (
        summation_suite(ws, nmax, tol) + garnier_suite(ws, nmax, tol)),
    "oracle": lambda ws, nmax, tol, seed: oracle_suite(ws, nmax, tol),
    "tau": lambda ws, nmax, tol, seed: tau_suite(ws, nmax, tol),
}


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
            continue
        builder = SUITE_BUILDERS[name]
        results.extend(builder(ws, n_max, tol, seed))
    return results
