"""The coupled level recurrences: specialisations, inversion, tau recovery."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf

from conftest import (make_workspace, standard_case_m3, standard_case_m4,
                      standard_case_m5)
from circlebops.bops import ToeplitzOracle
from circlebops.discrete_garnier import (DGState, dg_from_spectral,
                                         dg_hamiltonian_residuals, dg_initial,
                                         dg_invert, dg_run, dg_step,
                                         dg_trajectory, tau_recovery)
from circlebops.errors import SingularStep
from circlebops.exact import QC
from circlebops.garnier import coordinates_from_spectral, momentum
from circlebops.moments import MomentSequence
from circlebops.mputil import parse_exact, working_precision
from circlebops.report import rel_error, rel_residual
from circlebops.spectral import SpectralWorkspace
from circlebops.suites import state_delta
from circlebops.weights import build_poly_pair, build_weight


def test_initial_state_matches_spectral_route():
    for case in (standard_case_m3, standard_case_m4, standard_case_m5):
        ws = make_workspace(*case())
        st0 = dg_initial(ws.oracle.moments)
        assert state_delta(st0, dg_from_spectral(ws, 0)) < mpf(1e-32)


def test_initial_state_permutes_with_relabeling():
    w1 = build_weight([0, "1/4", "2/3", 1], ["1/5", "-1/3", "1/7", "-3/4"])
    w2 = build_weight([0, "2/3", "1/4", 1], ["1/5", "1/7", "-1/3", "-3/4"])
    seeds = [mpc("0.2", "-0.1"), mpc(1), mpc("0.3", "0.4")]
    for n in (0, 3):
        ws1 = make_workspace(w1, seeds)
        ws2 = make_workspace(w2, seeds)
        a = dg_from_spectral(ws1, n)
        b = dg_from_spectral(ws2, n)
        assert abs(a.f[0] - b.f[1]) < mpf(1e-30)
        assert abs(a.f[1] - b.f[0]) < mpf(1e-30)


def test_trajectory_matches_oracle_everywhere():
    for case in (standard_case_m3, standard_case_m4, standard_case_m5):
        ws = make_workspace(*case())
        st0 = dg_initial(ws.oracle.moments)
        for state in dg_trajectory(st0, ws.pair, 10):
            oracle_state = dg_from_spectral(ws, state.n)
            assert state_delta(state, oracle_state) < mpf(1e-25), state.n


def test_f_values_gauge_invariant():
    weight, seeds = standard_case_m3()
    pair = build_poly_pair(weight)
    ms = MomentSequence.from_seeds(pair, -1, seeds)
    base = SpectralWorkspace(ToeplitzOracle(ms))
    flip = SpectralWorkspace(ToeplitzOracle(ms, gauge={1: -1, 3: -1}))
    for n in (1, 3):
        a, b = dg_from_spectral(base, n), dg_from_spectral(flip, n)
        assert state_delta(a, b) < mpf(1e-30)


# -- literal one- and two-variable forms --------------------------------------

def _m3_literal_step(f, om, t, rho0, rho_t, rho1, n):
    """The one-variable coupled pair, transcribed literally."""
    m0 = rho0 + rho_t + rho1
    num = (om + n - t - rho0 * (t + 1) - (rho_t + rho1) * t) * \
          (om + n - t - rho0 * (t + 1) - rho_t - rho1 * t)
    den = (om + n * t - 1 - rho0 * (t + 1) - rho_t - rho1) * \
          (om + n * t - 1 - rho0 * (t + 1) - rho_t - rho1 * t)
    f_next = num / (den * t * f)
    return f_next


def _m3_literal_omega_sum(f, t, rho0, rho_t, rho1, n):
    """RHS of the one-variable second relation for omega_n + omega_{n-1}."""
    m0 = rho0 + rho_t + rho1
    return (-(2 * n - 1) * t + 2 + 2 * rho0 * (t + 1) + 2 * rho_t +
            rho1 * (t + 1) +
            (n - rho0) * (1 - t) / (f - 1) +
            (n + 1 + m0) * (1 - t) / (t * f - 1))


def test_m3_specialisation_at_random_points():
    rng = random.Random(7)
    t = mpc("0.37", "0.21")
    rho0, rho_t, rho1 = mpc("1/3"), mpc("-1/2"), mpc("1/4")
    w = build_weight([0, ["37/100", "21/100"], 1], ["1/3", "-1/2", "1/4"])
    pair = build_poly_pair(w)
    for _ in range(20):
        n = rng.randint(0, 9)
        f = mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
        om = mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
        state = DGState(n=n, f=[f], omega=[om])
        stepped = dg_step(state, pair)
        want_f = _m3_literal_step(f, om, t, rho0, rho_t, rho1, n)
        assert abs(stepped.f[0] - want_f) < mpf(1e-28) * max(abs(want_f),
                                                             mpf(1))
        # the omega update at the advanced level matches the literal sum rule
        want_sum = _m3_literal_omega_sum(stepped.f[0], t, rho0, rho_t, rho1,
                                         n + 1)
        got_sum = stepped.omega[0] + om
        assert abs(got_sum - want_sum) < mpf(1e-26) * max(abs(want_sum),
                                                          mpf(1))


def _exact_point(rng):
    """A random QC with small numerators and denominators."""
    return QC(Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
              Fraction(rng.randint(-20, 20), rng.randint(1, 9)))


def test_m3_literal_forms_hold_exactly():
    """At exact points the step runs over QC, with no rounding, and equals
    the literal one-variable pair: the f-update and the omega sum rule."""
    rng = random.Random(7)
    t = QC("37/100", "21/100")
    rho0, rho_t, rho1 = QC("1/3"), QC("-1/2"), QC("1/4")
    pair = build_poly_pair(build_weight([0, ["37/100", "21/100"], 1],
                                        ["1/3", "-1/2", "1/4"]))
    for n in rng.sample(range(10), 5):
        f, om = _exact_point(rng), _exact_point(rng)
        stepped = dg_step(DGState(n=n, f=[f], omega=[om]), pair)
        assert all(isinstance(x, QC) for x in stepped.f + stepped.omega)
        assert stepped.f[0] == _m3_literal_step(f, om, t, rho0, rho_t,
                                                rho1, n)
        assert stepped.omega[0] + om == _m3_literal_omega_sum(
            stepped.f[0], t, rho0, rho_t, rho1, n + 1)


def _m4_literal_f_updates(f, g, om, vp, s, t, rho0, rho_s, rho_t, rho1, n):
    m0 = rho0 + rho_s + rho_t + rho1
    den = (om + vp + 1 + m0 + (n - rho0) * s * t + rho1 * (1 - s) * (t - 1)) * \
          (om + vp + 1 + m0 + (n - rho0) * s * t)
    fn = (om + s * vp + (1 + m0) * s ** 2 + (n - rho0) * t +
          rho_s * (s - t) * (1 - s)) * \
         (om + s * vp + (1 + m0) * s ** 2 + (n - rho0) * t) / (den * s * f)
    gn = (om + t * vp + (1 + m0) * t ** 2 + (n - rho0) * s +
          rho_t * (t - s) * (1 - t)) * \
         (om + t * vp + (1 + m0) * t ** 2 + (n - rho0) * s) / (den * t * g)
    return fn, gn


def test_m4_specialisation_at_random_points():
    rng = random.Random(19)
    s, t = mpc("0.25", "1/3"), mpc("-0.6", "0")
    w = build_weight([0, ["1/4", "1/3"], ["-3/5", 0], 1],
                     ["-2/7", "1/5", "2/9", "1/2"])
    pair = build_poly_pair(w)
    rho0, rho_s, rho_t, rho1 = (mpc("-2/7"), mpc("1/5"), mpc("2/9"),
                                mpc("1/2"))
    m0 = rho0 + rho_s + rho_t + rho1
    for _ in range(20):
        n = rng.randint(0, 9)
        f, g = (mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in "ab")
        om, vp = (mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in "ab")
        state = DGState(n=n, f=[f, g], omega=[om, vp])
        stepped = dg_step(state, pair)
        wf, wg = _m4_literal_f_updates(f, g, om, vp, s, t, rho0, rho_s,
                                       rho_t, rho1, n)
        assert abs(stepped.f[0] - wf) < mpf(1e-26) * max(abs(wf), mpf(1))
        assert abs(stepped.f[1] - wg) < mpf(1e-26) * max(abs(wg), mpf(1))
        # the two-variable sum rules, with the displayed s <-> t symmetry
        fn, gn = stepped.f
        rr = (t - s + (1 - t) * fn - (1 - s) * gn)
        num1 = (s ** 2 - t ** 2 + (1 - s ** 2) * t * gn -
                (1 - t ** 2) * s * fn)
        den2 = (t - s + (1 - t) * s * fn - (1 - s) * t * gn)
        want_om = (pair.m_mpc()[2] - n * (s + t + s * t) +
                   (n + 1 - rho0) * num1 / rr +
                   (n + 2 + m0) * s * t * rr / den2)
        got_om = stepped.omega[0] + om
        assert abs(got_om - want_om) < mpf(1e-24) * max(abs(want_om), mpf(1))
        want_vp = (-pair.m_mpc()[1] + n * (1 + s + t) +
                   (n + 1 - rho0) * den2 / rr +
                   (n + 2 + m0) * num1 / den2)
        got_vp = stepped.omega[1] + vp
        assert abs(got_vp - want_vp) < mpf(1e-24) * max(abs(want_vp), mpf(1))


def test_m4_literal_f_updates_hold_exactly():
    rng = random.Random(19)
    s, t = QC("1/4", "1/3"), QC("-3/5")
    pair = build_poly_pair(build_weight([0, ["1/4", "1/3"], ["-3/5", 0], 1],
                                        ["-2/7", "1/5", "2/9", "1/2"]))
    rho0, rho_s, rho_t, rho1 = pair.weight.residues
    for n in rng.sample(range(10), 5):
        f, g, om, vp = (_exact_point(rng) for _ in range(4))
        stepped = dg_step(DGState(n=n, f=[f, g], omega=[om, vp]), pair)
        assert stepped.f == list(_m4_literal_f_updates(
            f, g, om, vp, s, t, rho0, rho_s, rho_t, rho1, n))


def test_m4_displayed_initial_conditions():
    ws = make_workspace(*standard_case_m4())
    st0 = dg_from_spectral(ws, 0)
    s, t = [x.to_mpc() for x in ws.weight.free_singularities]
    r0, rs, rt, r1 = ws.residues()
    m0 = ws.pair.m_mpc()[0]
    ms = ws.oracle.moments
    wm1, w0, w1 = ms.w(-1), ms.w(0), ms.w(1)
    den = (1 + m0) * wm1 - (r0 * (s + t) + r1 * s * t + rs * t + rt * s) * \
        w0 - (1 - r0) * s * t * w1
    f0 = ((1 + m0) * s * wm1 -
          (r0 * s * (t + 1) + r1 * s * t + rs * t + rt * s) * w0 -
          (1 - r0) * s * t * w1) / den
    g0 = ((1 + m0) * t * wm1 -
          (r0 * t * (s + 1) + r1 * s * t + rs * t + rt * s) * w0 -
          (1 - r0) * s * t * w1) / den
    om0 = (1 - r0) * s * t * w1 / w0 + r0 * s * t * w0 / wm1 + \
        r0 * (s + t + s * t) + r1 * s * t + rs * t + rt * s
    vp0 = -(1 + m0) * wm1 / w0 - (1 - r0) * s * t * w1 / wm1 - \
        (r0 * (s + t + s * t) + r1 * s * t + rs * t + rt * s) * w0 / wm1
    assert abs(st0.f[0] - f0) < mpf(1e-32)
    assert abs(st0.f[1] - g0) < mpf(1e-32)
    assert abs(st0.omega[0] - om0) < mpf(1e-32)
    assert abs(st0.omega[1] - vp0) < mpf(1e-32)


# -- inversion -----------------------------------------------------------------

def test_inversion_single_variable_moebius():
    ws = make_workspace(*standard_case_m3())
    t = ws.weight.free_singularities[0].to_mpc()
    m0 = ws.pair.m_mpc()[0]
    for n in (0, 2, 5):
        state = dg_from_spectral(ws, n)
        ratio, vth = dg_invert(state, ws.pair)
        f = state.f[0]
        want = (n + 1 + m0) * (1 - f) / (1 - t * f)
        assert abs(ratio - want) < mpf(1e-28) * max(abs(want), mpf(1))
        assert vth == []


def test_inversion_two_variable_displayed_forms():
    ws = make_workspace(*standard_case_m4())
    s, t = [x.to_mpc() for x in ws.weight.free_singularities]
    m0 = ws.pair.m_mpc()[0]
    for n in (1, 3):
        state = dg_from_spectral(ws, n)
        f, g = state.f
        ratio, vth = dg_invert(state, ws.pair)
        want_ratio = (n + 1 + m0) * \
            (t - s + (1 - t) * f - (1 - s) * g) / \
            (t - s + (1 - t) * s * f - (1 - s) * t * g)
        assert abs(ratio - want_ratio) < mpf(1e-27) * max(abs(ratio), mpf(1))
        want_vth = (n + 1 + m0) * \
            (s ** 2 - t ** 2 + (1 - s ** 2) * t * g - (1 - t ** 2) * s * f) / \
            (t - s + (1 - t) * s * f - (1 - s) * t * g)
        assert abs(vth[0] - want_vth) < mpf(1e-27) * max(abs(want_vth), mpf(1))


def test_inversion_recovers_spectral_ratios():
    for case in (standard_case_m4, standard_case_m5):
        ws = make_workspace(*case())
        rho0 = ws.residues()[0]
        for n in (1, 4):
            state = dg_from_spectral(ws, n)
            ratio, vth = dg_invert(state, ws.pair)
            l0, l1 = ws.level(n), ws.level(n + 1)
            want = (n - rho0) * l0.r / l1.r
            assert abs(ratio - want) < mpf(1e-26) * max(abs(want), mpf(1))
            sd = ws.data(n)
            kr = l1.kappa / l0.kappa
            for j, v in enumerate(vth, start=1):
                assert abs(v - kr * sd.theta[j]) < mpf(1e-26) * \
                    max(abs(v), mpf(1))


@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_vandermonde_column_identity(vals):
    """Deleting the j-th power column = symmetric function times the base."""
    T = [QC(Fraction(v, 7), Fraction(1, k + 2)) for k, v in enumerate(vals)]
    if len({(x.re, x.im) for x in T}) != 3:
        return
    N = 3
    from circlebops.exact import det_cofactor
    base = det_cofactor([[x ** k for k in range(N)] for x in T])
    for j in range(N + 1):
        cols = [k for k in range(N + 1) if k != j]
        dj = det_cofactor([[x ** k for k in cols] for x in T])
        from circlebops.polys import elementary_symmetric
        e = elementary_symmetric(T)
        want = e[N - j] * base
        assert dj == want


def test_inversion_data_is_formed_once_per_pair_and_precision(monkeypatch):
    """The Vandermonde data of the inversion depends on neither the level
    nor f: a 20-level trajectory and its inversions form it once, N + 1
    Vandermonde products, and another precision forms it once more."""
    from circlebops import discrete_garnier
    ws = make_workspace(*standard_case_m4())
    pair = ws.pair
    calls = []
    vandermonde = discrete_garnier.vandermonde

    def counted(values):
        calls.append(len(values))
        return vandermonde(values)

    monkeypatch.setattr(discrete_garnier, "vandermonde", counted)
    traj = dg_trajectory(dg_initial(ws.oracle.moments), pair, 20)
    for state in traj:
        dg_invert(state, pair)
    assert calls == [pair.N] * (pair.N + 1)
    with working_precision(192):
        dg_step(traj[-1], pair)
        dg_step(traj[-1], pair)
    dg_step(traj[-1], pair)
    assert calls == [pair.N] * (2 * pair.N + 2)


# -- tau recovery ---------------------------------------------------------------

def test_tau_recovery_matches_determinants():
    for case in (standard_case_m3, standard_case_m4, standard_case_m5):
        ws = make_workspace(*case())
        st0 = dg_initial(ws.oracle.moments)
        traj = dg_trajectory(st0, ws.pair, 12)
        rec = tau_recovery(traj, ws.oracle.moments)
        assert abs(rec["I"][0] - 1) == 0
        assert rec["lambda_delta"] < mpf(1e-30)
        assert rec["rbar0_defect"] < mpf(1e-30)
        for n in range(11):
            In = ws.oracle.det(n)
            assert abs(rec["I"][n] - In) < mpf(1e-25) * max(abs(In), mpf(1))


@pytest.mark.parametrize("seed", [mpc("0.31", "0.17"), QC(1)],
                         ids=["mpc", "QC"])
def test_tau_recovery_refuses_a_weight_without_free_singularity(seed):
    """At M = 2 (N = 0) the recurrence has no variables to recover the
    determinants from: tau recovery names the cause, in either kind."""
    pair = build_poly_pair(build_weight([0, 1], ["1/3", "1/4"]))
    moments = MomentSequence.from_seeds(pair, -1, [seed])
    traj = dg_trajectory(dg_initial(moments), pair, 4)
    with pytest.raises(ValueError, match=r"free singularity \(M >= 3\)"):
        tau_recovery(traj, moments)


def test_exact_trajectory_of_the_readme_weight():
    """The maps over QC, from the exact binary values of the README run's
    seeds: every f and omega to n = 12 is a QC within 2^-120 of the
    128-bit trajectory, and exact tau recovery gives each I_n within
    2^-120 of the oracle determinant."""
    weight, _ = standard_case_m3()
    seeds = [parse_exact([0.31, 0.17]), QC(1)]
    ws = make_workspace(weight, [x.to_mpc() for x in seeds])
    moments = MomentSequence.from_seeds(ws.pair, -1, seeds)
    traj = dg_trajectory(dg_initial(moments), ws.pair, 12)
    floats = dg_run(ws, 12)
    tol = mpf(2) ** -120
    for state, ref in zip(traj, floats):
        for x, y in zip(state.f + state.omega, ref.f + ref.omega):
            assert isinstance(x, QC) and rel_error(x, y) < tol, state.n
    rec = tau_recovery(traj, moments)
    assert rec["lambda_delta"] == 0 and rec["rbar0_defect"] == 0
    for n, In in enumerate(rec["I"]):
        assert rel_error(In, ws.oracle.det(n)) < tol, n


def test_inversion_leaves_the_state_unchanged():
    ws = make_workspace(*standard_case_m4())
    state, twin = dg_from_spectral(ws, 2), dg_from_spectral(ws, 2)
    dg_invert(state, ws.pair)
    assert state == twin


def test_tau_recovery_leaves_the_cached_trajectory_unchanged():
    ws = make_workspace(*standard_case_m4())
    traj = dg_run(ws, 6)
    tau_recovery(traj, ws.oracle.moments)
    assert dg_run(ws, 6) == dg_trajectory(dg_initial(ws.oracle.moments),
                                          ws.pair, 6)


def test_m4_subleading_coefficient_relation():
    """The displayed reflection form of the interior coordinate coefficient
    is the difference-identity rewrite of the recovery recurrence."""
    ws = make_workspace(*standard_case_m4())
    e1 = ws.pair.e_mpc()[1]
    m0, m1 = ws.pair.m_mpc()[0], ws.pair.m_mpc()[1]
    for n in (1, 3):
        state = dg_from_spectral(ws, n)
        _, vth = dg_invert(state, ws.pair)
        l = {k: ws.level(k) for k in (n, n + 1, n + 2)}
        want = (-(n + 1) * e1 - m1 +
                (n + 2 + m0) * (l[n + 2].r / l[n + 1].r -
                                l[n + 2].r * l[n + 1].rbar) -
                (n + m0) * l[n + 1].r * l[n].rbar - 2 * l[n + 1].lam)
        assert abs(vth[0] - want) < mpf(1e-26) * max(abs(want), mpf(1))


# -- the Hamiltonian-coordinate form of the recurrence ---------------------------

def _lagging_residual(ws, n):
    """The largest residual of p_{n+1} + p_n = n/q - 2V(q)/W(q) at the
    roots q of level n, the reading under which it does not hold."""
    sd_n, sd_n1 = ws.data(n), ws.data(n + 1)
    worst = mpf(0)
    for q in coordinates_from_spectral(ws, n).q:
        lhs = momentum(ws, sd_n1, q) + momentum(ws, sd_n, q)
        rhs = mpf(n) / q - ws.at("V2", q) / ws.at("W", q)
        worst = max(worst, rel_residual([lhs, -rhs], 1))
    return worst


def test_hamiltonian_form_uses_advanced_level_roots():
    for case in (standard_case_m3, standard_case_m4):
        ws = make_workspace(*case())
        for n in (0, 2, 4):
            res = list(dg_hamiltonian_residuals(ws, n))
            assert len(res) == ws.pair.N
            assert all(label == "dGarnier:ham" for label, _ in res)
            assert max(r for _, r in res) < mpf(1e-28), n
            if n > 0:
                assert _lagging_residual(ws, n) > mpf(1e-6), n


def test_hamiltonian_form_gauge_invariant():
    weight, seeds = standard_case_m3()
    pair = build_poly_pair(weight)
    ms = MomentSequence.from_seeds(pair, -1, seeds)
    flip = SpectralWorkspace(ToeplitzOracle(ms, gauge={2: -1}))
    res = dg_hamiltonian_residuals(flip, 2)
    assert max(r for _, r in res) < mpf(1e-28)


# -- aborts -------------------------------------------------------------------

def test_a_vanishing_inversion_denominator_is_a_singular_step():
    """``dg_invert`` aborts as the step does: at M = 3 the divisor of the
    inversion is a multiple of 1 - t f, which vanishes at f = 1/t."""
    ws = make_workspace(*standard_case_m3())
    t = ws.weight.free_singularities[0].to_mpc()
    state = DGState(n=4, f=[1 / t], omega=[mpc("0.3", "0.1")])
    with pytest.raises(SingularStep,
                       match="inversion denominator vanished at n=4") as err:
        dg_invert(state, ws.pair)
    assert err.value.factor == "den_t" and err.value.index == 4


def test_singular_step_reports_factor():
    ws = make_workspace(*standard_case_m3())
    state = DGState(n=2, f=[mpc(0)], omega=[mpc("0.3", "0.1")])
    with pytest.raises(SingularStep) as err:
        dg_step(state, ws.pair)
    assert err.value.factor == "f^1"
    assert err.value.index == 2
