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
"""

from __future__ import annotations

from mpmath import mp, mpf, mpc

from .errors import Degenerate, SingularStep
from .garnier import coordinates_from_spectral, momentum
from .moments import MomentSequence, build_U
from .mputil import to_mpc
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


# ---------------------------------------------------------------------------
# Vandermonde data of the inversion
# ---------------------------------------------------------------------------

def vandermonde(values) -> mpc:
    """prod_{i<j} (v_j - v_i) of mpc values; empty/singleton give 1."""
    out = mpc(1)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            out *= values[j] - values[i]
    return out


def _free_points(pair: PolyPair):
    if pair.weight.placement != "canonical":
        raise ValueError("the recurrences assume canonical placement")
    return pair.weight.singularities_mpc()[1:-1]


def _inversion_table(pair: PolyPair) -> tuple:
    """(sums, e_TU): the inversion data that depends on neither n nor f.

    An entry (a, c) of ``sums`` stands for a + sum_l c_l f^l: the plain sum
    ``sums[None]`` has a = Delta(T), c_l = (+-) Delta(T_l u {1}), and the
    weighted ``sums[w]``, w = 0..N, a = Delta(T) e_w(T), c_l = (+-) t_l
    Delta(T_l u {1}) e_w(T_l u {1}), where T_l is T without t_l (the list
    index l is one below the label).  ``e_TU`` is e_0..e_{N+1} of T u {1}.
    """
    T = _free_points(pair)
    N = len(T)
    base = vandermonde(T)
    e_T = elementary_symmetric(T)
    sides = []
    for l in range(N):
        repl = T[:l] + T[l + 1:] + [mpc(1)]
        sides.append(((-1) ** (N + l), vandermonde(repl),
                      elementary_symmetric(repl)))
    sums = {None: (base, [sgn * v for sgn, v, _ in sides])}
    for w in range(N + 1):
        sums[w] = (base * to_mpc(e_T[w]),
                   [sgn * t * v * to_mpc(e[w])
                    for t, (sgn, v, e) in zip(T, sides)])
    return sums, [to_mpc(e) for e in elementary_symmetric(T + [mpc(1)])]


def _evaluate(entry, f) -> mpc:
    """a + sum_l c_l f^l for one entry (a, c) of the inversion table."""
    return sum((c * to_mpc(fl) for c, fl in zip(entry[1], f)), entry[0])


def _inversion(pair: PolyPair, f, n: int) -> tuple:
    """(sums, e_TU, plain, den_t): the inversion table, and its plain sum
    and its divisor sums[0] at f of level n, checked against the floor."""
    sums, e_TU = pair.memo("dg", lambda: _inversion_table(pair))
    plain = _evaluate(sums[None], f)
    den_t = _evaluate(sums[0], f)
    if abs(den_t) < Plan.of(mp.prec).denominator_floor * \
            max(abs(plain), mpf(1)):
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
    f = []
    for t in _free_points(pair):
        f.append(sd.at("theta", t) / (t * th1))
    omega = [(-1) ** N * sd.omega[j] - (-1) ** j * m[N + 1 - j] / 2
             for j in range(1, N + 1)]
    return DGState(n=n, f=f, omega=omega)


def dg_initial(moments: MomentSequence) -> DGState:
    """Level-zero state from the generating-function polynomial U of the
    moments (``build_U``)."""
    pair = moments.pair
    N = pair.N
    w0 = to_mpc(moments.w(0))
    wm1 = to_mpc(moments.w(-1))
    if w0 == 0 or wm1 == 0:
        raise Degenerate("w_0 or w_-1 vanishes: the level-zero state "
                         "divides by both")
    k02 = 1 / w0
    V2 = pair.V2_mpc()
    U = [to_mpc(u) for u in build_U(moments).u]
    minus = psub(V2, pscale(U, k02))          # 2V - k0^2 U
    den = peval(minus, mpc(1))
    if abs(den) < moments.plan.denominator_floor:
        raise Degenerate("2V(1) = k0^2 U(1): initial f undefined")
    f = [peval(minus, t) / (t * den) for t in _free_points(pair)]
    sign = mpf((-1) ** N)
    omega = []
    for j in range(1, N + 1):
        mj = minus[j] if j < len(minus) else mpc(0)
        mjm1 = minus[j - 1]
        omega.append(sign * (mj / 2 - w0 / (2 * wm1) * mjm1))
    return DGState(n=0, f=f, omega=omega)


# ---------------------------------------------------------------------------
# the coupled step
# ---------------------------------------------------------------------------

def _omega_brackets(pair: PolyPair, state: DGState, n: int):
    """Evaluations of the two Omega_n -+ V bracket families at t_j and at 1,
    each c prod(T)/x + sum_l x^(l-1) w_l + top x^N; the minus family shifts
    w_l = omega^l by (-1)^l m_{N+1-l}."""
    N = pair.N
    m = pair.m_mpc()
    rho0 = pair.weight.residues_mpc()[0]
    prod_all = mpc(1)
    for t in _free_points(pair):
        prod_all *= t
    sgn = mpf((-1) ** N)

    def bracket(c, w, top):
        return lambda x: (c * (prod_all / x) + sum(
            (x ** l * wl for l, wl in enumerate(w)), mpc(0)) + top * x ** N)

    shifted = [w + (-1) ** l * m[N + 1 - l]
               for l, w in enumerate(state.omega, 1)]
    return (bracket(n - rho0, state.omega, sgn * (1 + m[0])),
            bracket(mpf(n), shifted, sgn))


def dg_step(state: DGState, pair: PolyPair) -> DGState:
    """Advance (f, omega) one level.

    f first: t_j f^j_n f^j_{n+1} equals the bracket ratio at level n; then
    omega at level n+1 from the inverted coordinate-polynomial sums.  A
    vanishing denominator is a movable singularity of the trajectory and
    aborts with a structured report naming the factor.
    """
    n = state.n
    N = pair.N
    T = _free_points(pair)
    floor = Plan.of(mp.prec).denominator_floor
    bplus, bminus = _omega_brackets(pair, state, n)
    A1 = bplus(mpc(1))
    B1 = bminus(mpc(1))
    scale = max(abs(A1), abs(B1), mpf(1))
    for label, val in (("bracket_plus@1", A1), ("bracket_minus@1", B1)):
        if abs(val) < floor * scale:
            raise SingularStep(f"movable singularity at n={n}: {label} vanished",
                               index=n, factor=label, value=val)
    f_next = []
    for j, t in enumerate(T):
        Aj = bplus(t)
        Bj = bminus(t)
        fj = to_mpc(state.f[j])
        if abs(fj) < floor:
            raise SingularStep(f"movable singularity at n={n}: f^{j + 1} = 0",
                               index=n, factor=f"f^{j + 1}", value=fj)
        f_next.append(Aj * Bj / (A1 * B1 * t * fj))

    m = pair.m_mpc()
    rho0 = pair.weight.residues_mpc()[0]
    m0 = m[0]
    np1 = n + 1
    sums, e_TU, num_plain, den_t = _inversion(pair, f_next, np1)
    omega_next = []
    for j in range(1, N + 1):
        # both numerators carry the t_l weights; only the second denominator does
        s1 = _evaluate(sums[N - j], f_next) / num_plain
        s2 = _evaluate(sums[N + 1 - j], f_next) / den_t
        sgn = mpf((-1) ** j)
        rhs = sgn * mpf(np1 - 1) * e_TU[N + 1 - j] \
            + sgn * (np1 - rho0) * s1 \
            - sgn * (np1 + 1 + m0) * s2
        omega_next.append(rhs - state.omega[j - 1] - sgn * m[N + 1 - j])
    return DGState(n=np1, f=f_next, omega=omega_next)


def dg_invert(state: DGState, pair: PolyPair):
    """Reflection-ratio and interior coordinate coefficients from (f, omega)
    at the state's level n.

    Returns ((n - rho_0) r_n/r_{n+1}, [vartheta^1 .. vartheta^{N-1}]).
    """
    n = state.n
    N = pair.N
    m0 = pair.m_mpc()[0]
    sums, _, num_plain, den_t = _inversion(pair, state.f, n)
    scaled_ratio = (n + 1 + m0) * num_plain / den_t
    vartheta = []
    for j in range(1, N):
        numj = _evaluate(sums[N - j], state.f)
        vartheta.append((-1) ** (N + j) * (n + 1 + m0) * numj / den_t)
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
    determinants from the product identity.  Needs the
    trajectory of the moments' weight up to some n_max; returns the
    determinants up to index n_max - 1 as ``I``, with ``lambda_delta`` and
    ``rbar0_defect``, |rbar_0 - 1| by the difference identity.
    """
    pair = moments.pair
    N = pair.N
    m = pair.m_mpc()
    m0, m1 = m[0], m[1]
    e = pair.e_mpc()
    e1 = e[1]
    rho0 = pair.weight.residues_mpc()[0]

    r = [mpc(1)]
    varthetas = []
    for st in states:
        ratio, vartheta = dg_invert(st, pair)
        if abs(ratio) == 0:
            raise Degenerate(f"reflection ratio vanished at n={st.n}")
        # (n - rho0) r_n / r_{n+1} = ratio
        r.append((st.n - rho0) * r[-1] / ratio)
        varthetas.append(vartheta)

    lam = [mpc(0), r[1]]            # lambda_0, lambda_1
    lam_alt = [mpc(0), r[1]]
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
    rbar = [mpc(1)]
    for k in range(1, npts - 1):
        if abs(r[k + 1]) == 0:
            raise Degenerate(f"r_{k + 1} = 0 during recovery")
        rbar.append((lam[k + 1] - lam[k]) / r[k + 1])
    rbar0_defect = abs((lam[1] - lam[0]) / r[1] - 1)

    w0 = to_mpc(moments.w(0))
    dets = [mpc(1), w0]
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
