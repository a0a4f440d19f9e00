"""The coupled first-order recurrences in the level index.

State at level n is the pair of N-vectors

    f^j_n     = Theta_n(t_j) / (t_j Theta_n(1)),
    omega^j_n = (-1)^N [z^j] Omega_n - (-1)^j m_{N+1-j} / 2,

built on the canonical placement {0, t_1..t_N, 1}.  The f-update is a ratio
of four bracket evaluations of Omega_n +- V at t_j and 1; the omega-update
inverts the coordinate-polynomial parameterisation through Vandermonde data
of the deformation variables, which ``dg_invert`` reads too; a vanishing
denominator aborts either with ``SingularStep``.  The update order (f first,
then omega at the advanced level) is what the equations determine; it is validated against the
determinant oracle by the trajectory-equivalence tests.

Initial data at n = 0 comes from the generating-function polynomial U.  The
omega initialisation used here is the one consistent with the level-zero
spectral coefficients (dual-path validated):

    (-1)^N omega^j_0 = (1/2) [z^j](2V - k0^2 U)
                       - (w_0 / (2 w_{-1})) [z^{j-1}](2V - k0^2 U),

with k0^2 = 1/w_0.

Tau recovery walks the reflection-coefficient ratio out of the inversion,
reconstructs the sub-leading polynomial coefficients along two independent
recurrences (cross-checked), and rebuilds the determinant sequence.

The maps (``dg_initial``, ``dg_step``, ``dg_invert``, ``tau_recovery``) are
rational and written once, in field operations with int literals: they run
over mpc and exact ``QC`` alike, in the kind of the values they are given
(``PolyPair.data_like``); an M = 2 state holds none, reads mpc, and steps
to the same empty state in every kind.  Their one zero test, ``_vanishes``,
is exact over QC.  The oracle routes read spectral data and stay mpc.
"""

from __future__ import annotations

import math

from mpmath import mp, mpc, mpf

from .errors import Degenerate, SingularStep
from .exact import QC
from .garnier import coordinates_from_spectral, momentum
from .moments import MomentSequence, build_U
from .mputil import abs_square, exceeds
from .plan import Plan
from .polys import elementary_symmetric, peval, pscale, psub
from .record import Record
from .report import rel_error, rel_residual
from .spectral import SpectralWorkspace
from .weights import PolyPair


class DGState(Record):
    """Recurrence variables at one level."""

    _fields = ("n", "f", "omega")

    def __init__(self, n: int, f: list, omega: list):
        self.n = n
        self.f = f
        self.omega = omega


def _vanishes(x, *scales, plan=None) -> bool:
    """The maps' one zero test: x == 0 for a QC; for an mpc, |x| below the
    ``denominator_floor`` of ``plan`` (by default the working precision's)
    times max(|scales|.., 1), compared as exact squares."""
    if isinstance(x, QC):
        return not x
    top = (1, 0)
    for s in scales:
        if exceeds(abs_square(s), top):
            top = abs_square(s)
    fm, fe = abs_square((plan or Plan.of(mp.prec)).denominator_floor)
    return exceeds((fm * top[0], fe + top[1]), abs_square(x))


# ---------------------------------------------------------------------------
# Vandermonde data of the inversion
# ---------------------------------------------------------------------------

def vandermonde(values):
    """prod_{i<j} (v_j - v_i); empty/singleton give 1."""
    return math.prod(values[j] - values[i] for i in range(len(values))
                     for j in range(i + 1, len(values)))


def _inversion_table(T: tuple) -> tuple:
    """(sums, e_TU): the inversion data of the free points T, which
    depends on neither n nor f.

    An entry (a, c) of ``sums`` stands for a + sum_l c_l f^l: the plain sum
    ``sums[None]`` has a = Delta(T), c_l = (+-) Delta(T_l u {1}), and the
    weighted ``sums[w]``, w = 0..N, a = Delta(T) e_w(T), c_l = (+-) t_l
    Delta(T_l u {1}) e_w(T_l u {1}), where T_l is T without t_l (the list
    index l is one below the label).  ``e_TU`` is e_0..e_{N+1} of T u {1}.
    """
    N = len(T)
    base = vandermonde(T)
    e_T = elementary_symmetric(T)
    sides = []
    for l in range(N):
        repl = T[:l] + T[l + 1:] + (1,)
        sides.append(((-1) ** (N + l), vandermonde(repl),
                      elementary_symmetric(repl)))
    sums = {None: (base, [sgn * v for sgn, v, _ in sides])}
    for w in range(N + 1):
        sums[w] = (base * e_T[w],
                   [sgn * t * v * e[w] for t, (sgn, v, e) in zip(T, sides)])
    return sums, elementary_symmetric(T + (1,))


def _evaluate(entry, f):
    """a + sum_l c_l f^l for one entry (a, c) of the inversion table."""
    return sum((c * fl for c, fl in zip(entry[1], f)), entry[0])


def _inversion(pair: PolyPair, T: tuple, f, n: int) -> tuple:
    """(sums, e_TU, plain, den_t): the inversion table, formed once per
    kind of T and precision, and its plain sum and its divisor sums[0] at
    f of level n, given the zero test."""
    sums, e_TU = pair.memo(("dg", T), lambda: _inversion_table(T))
    plain = _evaluate(sums[None], f)
    den_t = _evaluate(sums[0], f)
    if _vanishes(den_t, plain):
        raise SingularStep(f"inversion denominator vanished at n={n}",
                           index=n, factor="den_t", value=den_t)
    return sums, e_TU, plain, den_t


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------

def dg_from_spectral(ws: SpectralWorkspace, n: int) -> DGState:
    """Read (f, omega) off the spectral data: the oracle route."""
    pair = ws.pair
    N = pair.N
    sd = ws.data(n)
    m = pair.m_mpc()
    th1 = sd.at("theta", mpc(1))
    if abs(th1) < ws.plan.denominator_floor * max(abs(c) for c in sd.theta):
        raise Degenerate(f"coordinate polynomial vanished at 1, n={n}")
    f = [sd.at("theta", t) / (t * th1)
         for t in pair.weight.singularities_mpc()[1:-1]]
    omega = [(-1) ** N * sd.omega[j] - (-1) ** j * m[N + 1 - j] / 2
             for j in range(1, N + 1)]
    return DGState(n=n, f=f, omega=omega)


def dg_initial(moments: MomentSequence) -> DGState:
    """Level-zero state from the generating-function polynomial U of the
    moments (``build_U``), in the kind of the moments; an mpc 2V(1) - k0^2
    U(1) vanishes below the floor of the moments' plan."""
    pair = moments.pair
    N = pair.N
    w0, wm1 = moments.w(0), moments.w(-1)
    if not w0 or not wm1:
        raise Degenerate("w_0 or w_-1 vanishes: the level-zero state "
                         "divides by both")
    T, _, _, _, V2 = pair.data_like([w0])
    minus = psub(V2, pscale(build_U(moments).u, 1 / w0))   # 2V - k0^2 U
    den = peval(minus, 1)
    if _vanishes(den, plan=moments.plan):
        raise Degenerate("2V(1) = k0^2 U(1): initial f undefined")
    f = [peval(minus, t) / (t * den) for t in T]
    omega = [(-1) ** N * (minus[j] / 2 - w0 / (2 * wm1) * minus[j - 1])
             for j in range(1, N + 1)]
    return DGState(n=0, f=f, omega=omega)


# ---------------------------------------------------------------------------
# the coupled step
# ---------------------------------------------------------------------------

def _omega_brackets(state: DGState, T, rho0, m):
    """Evaluations of the two Omega_n -+ V bracket families at t_j and at 1,
    each c prod(T)/x + sum_l x^(l-1) w_l + top x^N; the minus family shifts
    w_l = omega^l by (-1)^l m_{N+1-l}."""
    n, N, prod_all = state.n, len(T), math.prod(T)

    def bracket(c, w, top):
        return lambda x: (c * (prod_all / x) + sum(
            (x ** l * wl for l, wl in enumerate(w)), 0) + top * x ** N)

    shifted = [w + (-1) ** l * m[N + 1 - l]
               for l, w in enumerate(state.omega, 1)]
    return (bracket(n - rho0, state.omega, (-1) ** N * (1 + m[0])),
            bracket(n, shifted, (-1) ** N))


def dg_step(state: DGState, pair: PolyPair) -> DGState:
    """Advance (f, omega) one level, in the kind of f.

    f first: t_j f^j_n f^j_{n+1} equals the bracket ratio at level n; then
    omega at level n+1 from the inverted coordinate-polynomial sums.  A
    vanishing denominator is a movable singularity of the trajectory and
    aborts with a structured report naming the factor.
    """
    n, N = state.n, pair.N
    T, rhos, _, m, _ = pair.data_like(state.f)
    bplus, bminus = _omega_brackets(state, T, rhos[0], m)
    A1, B1 = bplus(1), bminus(1)
    for label, val in (("bracket_plus@1", A1), ("bracket_minus@1", B1)):
        if _vanishes(val, A1, B1):
            raise SingularStep(f"movable singularity at n={n}: {label} vanished",
                               index=n, factor=label, value=val)
    f_next = []
    for j, t in enumerate(T):
        fj = state.f[j]
        if _vanishes(fj):
            raise SingularStep(f"movable singularity at n={n}: f^{j + 1} = 0",
                               index=n, factor=f"f^{j + 1}", value=fj)
        f_next.append(bplus(t) * bminus(t) / (A1 * B1 * t * fj))

    m0, rho0, np1 = m[0], rhos[0], n + 1
    sums, e_TU, num_plain, den_t = _inversion(pair, T, f_next, np1)
    omega_next = []
    for j in range(1, N + 1):
        # both numerators carry the t_l weights; only the second denominator does
        s1 = _evaluate(sums[N - j], f_next) / num_plain
        s2 = _evaluate(sums[N + 1 - j], f_next) / den_t
        sgn = (-1) ** j
        rhs = sgn * (np1 - 1) * e_TU[N + 1 - j] \
            + sgn * (np1 - rho0) * s1 \
            - sgn * (np1 + 1 + m0) * s2
        omega_next.append(rhs - state.omega[j - 1] - sgn * m[N + 1 - j])
    return DGState(n=np1, f=f_next, omega=omega_next)


def dg_invert(state: DGState, pair: PolyPair):
    """Reflection-ratio and interior coordinate coefficients from (f, omega)
    at the state's level n, in the kind of f.

    Returns ((n - rho_0) r_n/r_{n+1}, [vartheta^1 .. vartheta^{N-1}]).
    """
    n, N = state.n, pair.N
    T, _, _, m, _ = pair.data_like(state.f)
    sums, _, num_plain, den_t = _inversion(pair, T, state.f, n)
    scaled_ratio = (n + 1 + m[0]) * num_plain / den_t
    vartheta = []
    for j in range(1, N):
        numj = _evaluate(sums[N - j], state.f)
        vartheta.append((-1) ** (N + j) * (n + 1 + m[0]) * numj / den_t)
    return scaled_ratio, vartheta


def dg_trajectory(initial: DGState, pair: PolyPair, nmax: int) -> list:
    out = [initial]
    while out[-1].n < nmax:
        out.append(dg_step(out[-1], pair))
    return out


def dg_run(ws: SpectralWorkspace, nmax: int) -> list:
    """Trajectory of levels 0..nmax from the moments' level-zero state.

    The workspace keeps one trajectory per precision and extends it on
    demand, so the suites and the CLI step each level once.
    """
    traj = ws.memo("dg", lambda: [dg_initial(ws.oracle.moments)])
    if traj[-1].n < nmax:
        traj += dg_trajectory(traj[-1], ws.pair, nmax)[1:]
    return traj[:nmax + 1]


# ---------------------------------------------------------------------------
# recovering the determinant sequence
# ---------------------------------------------------------------------------

def tau_recovery(states: list, moments: MomentSequence) -> dict:
    """Determinants from the recurrence variables alone.

    The reflection coefficients come from the inversion ratio, the sub-leading
    coefficients along two independent recurrences (their relative
    disagreement is returned as ``lambda_delta``, for the caller to judge),
    the second-family reflections via the difference identity, and the
    determinants from the product identity, in the kind of the moments.
    Needs the trajectory of the moments' weight up to some n_max; returns
    the determinants up to index n_max + 1 as ``I``, with ``lambda_delta`` and
    ``rbar0_defect``, |rbar_0 - 1| by the difference identity.
    """
    pair = moments.pair
    N = pair.N
    if N == 0:
        raise ValueError("tau recovery needs a free singularity (M >= 3)")
    w0 = moments.w(0)
    _, rhos, e, m, _ = pair.data_like([w0])
    m0, m1, e1, rho0 = m[0], m[1], e[1], rhos[0]

    r = [1]
    varthetas = []
    for st in states:
        ratio, vartheta = dg_invert(st, pair)
        if not ratio:
            raise Degenerate(f"reflection ratio vanished at n={st.n}")
        # (n - rho0) r_n / r_{n+1} = ratio
        r.append((st.n - rho0) * r[-1] / ratio)
        varthetas.append(vartheta)

    lam = [0, r[1]]            # lambda_0, lambda_1
    lam_alt = [0, r[1]]
    for st, vartheta in zip(states, varthetas):
        n = st.n
        if n + 2 >= len(r):
            break
        # route one: the top interior coordinate coefficient
        if N >= 2:
            vt = vartheta[N - 2]
        else:
            vt = (-1) ** N * (n * e[N + 1] - m[N + 1]) * r[n] / r[n + 1]
        nxt = (-(n + 1) * e1 - m1 + (n + 2 + m0) * r[n + 2] / r[n + 1] +
               (n + m0) * lam[n] - vt) / (n + 2 + m0)
        lam.append(nxt)
        # route two: the top omega coefficient
        wN = st.omega[N - 1]
        nxt2 = (-e1 - m1 + (n + 1 + m0) * lam_alt[n + 1] +
                (n + 2 + m0) * r[n + 2] / r[n + 1] -
                (-1) ** N * wN) / (n + 2 + m0)
        lam_alt.append(nxt2)

    npts = min(len(lam), len(lam_alt))
    delta = rel_error(lam_alt[:npts], lam[:npts], 1)

    # lambda_{k+1} - lambda_k = r_{k+1} rbar_k
    rbar = [1]
    for k in range(1, npts - 1):
        if not r[k + 1]:
            raise Degenerate(f"r_{k + 1} = 0 during recovery")
        rbar.append((lam[k + 1] - lam[k]) / r[k + 1])
    rbar0_defect = rel_error((lam[1] - lam[0]) / r[1], 1)

    dets = [1, w0]
    for n in range(1, len(rbar)):
        dets.append(dets[n] ** 2 * (1 - r[n] * rbar[n]) / dets[n - 1])
    return {"I": dets, "lambda_delta": delta, "rbar0_defect": rbar0_defect}


# ---------------------------------------------------------------------------
# Hamiltonian-coordinate form of the level recurrence
# ---------------------------------------------------------------------------

def dg_hamiltonian_residuals(ws: SpectralWorkspace, n: int):
    """Residuals ``dGarnier:ham`` of p_{n+1} + p_n = n/q - 2V(q)/W(q), one
    per root q of the advanced level's coordinate polynomial.

    The momentum functions p_m(z) = -(Omega_m(z) + V(z))/W(z) of levels n and
    n+1 are summed at the coordinates of level n + 1
    (``coordinates_from_spectral``), where the identity follows from the
    coupled recurrences; at the lagging level's roots it does not hold.
    """
    sd_n, sd_n1 = ws.data(n), ws.data(n + 1)
    for q in coordinates_from_spectral(ws, n + 1).q:
        lhs = momentum(ws, sd_n1, q) + momentum(ws, sd_n, q)
        rhs = mpf(n) / q - ws.at("V2", q) / ws.at("W", q)
        yield "dGarnier:ham", rel_residual([lhs, -rhs], 1)
