"""Named verification suites over one workspace.

Each suite walks a level range and judges the (label, residual) evaluations
of its check families at each level (``_levels``, through ``report.judge``)
into CheckResults tagged with the identity codes the CLI report and the
acceptance tests print.  Only ``tau:I``, whose note names its level range,
is made here.  Level ranges are chosen so that nothing above ``n_max + 2``
determinant levels is ever required.  The run's seed picks the sample
points of ``rrCf:j@pts`` alone; every other check is a polynomial identity
or sits at fixed points.
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


def _levels(family, ws: SpectralWorkspace, levels, tol, *extra) -> list:
    """The checks of family(ws, n, *extra) judged at each level n in turn."""
    return [c for n in levels for c in judge(family(ws, n, *extra), tol, n)]


def _toeplitz(ws: SpectralWorkspace, n: int):
    o = ws.oracle
    lev, prev = o.level(n), o.level(n - 1)
    lhs = o.det(n + 1) * o.det(n - 1) / o.det(n) ** 2
    yield "I0", rel_residual([lhs, -(1 - lev.r * lev.rbar)], 1)
    yield "l:kappa", rel_residual([lev.kappa ** 2, -prev.kappa ** 2,
                                   -(lev.phi0 * lev.phibar0)])
    yield "l:lambda", rel_residual([lev.lam, -prev.lam, -lev.r * prev.rbar],
                                   1)


def _degree(ws: SpectralWorkspace, n: int):
    yield "degree", ws.data(n).band_residual


def _endpoints(ws: SpectralWorkspace, n: int):
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


def _summation(ws: SpectralWorkspace, n: int):
    point = coordinates_from_spectral(ws, n)
    return check_summation_identities(ws, n, garnier_point=point)


def _ode(ws: SpectralWorkspace, n: int):
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


def toeplitz_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    """Determinant-ratio and coefficient-difference identities, level by level."""
    return _levels(_toeplitz, ws, range(1, n_max + 1), tol)


def casoratian_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    return _levels(lambda ws, n: casoratian_residuals(ws.oracle, n), ws,
                   range(n_max + 1), tol)


def degree_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    """The out-of-band series mass of every extraction (degree bounds)."""
    return _levels(_degree, ws, range(n_max + 1), tol)


def endpoint_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    """Leading and trailing coefficients of all four spectral polynomials
    against their closed forms in the canonical placement."""
    return _levels(_endpoints, ws, range(n_max + 1), tol)


def lattice_suite(ws: SpectralWorkspace, n_max: int, tol, seed: int) -> list:
    """Linear recurrences and transition identities."""
    return (_levels(check_linear_recurrences, ws, range(1, n_max + 1), tol)
            + _levels(check_transitions, ws, range(n_max + 1), tol, seed)
            + _levels(residue_structure_checks, ws, range(n_max + 1), tol))


def bilinear_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    return _levels(check_bilinear, ws, range(n_max + 1), tol)


def summation_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    return _levels(_summation, ws, range(n_max + 1), tol)


def ode_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    """The scalar ODEs and the decay of p2, level by level."""
    return _levels(_ode, ws, range(n_max + 1), tol)


def garnier_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    """Coordinate extraction, reconstructions, Hamiltonian dual route."""
    return _levels(_garnier, ws, range(n_max + 1), tol)


def oracle_suite(ws: SpectralWorkspace, n_max: int, tol) -> list:
    """Trajectory of the coupled recurrences against spectral values."""
    n = max(1, n_max // 2)
    return (_levels(_dg_state, ws, range(n_max + 1), tol, dg_run(ws, n_max))
            + judge(dg_hamiltonian_residuals(ws, n), tol, n))


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
        [CheckResult.make("tau:I", max(deltas), tol, top,
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
