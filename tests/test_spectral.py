"""Spectral extraction and the identity lattice."""

import functools
import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import fsum, mp, mpc, mpf

from conftest import (make_workspace, random_canonical_case,
                      rational_case_m4, standard_case_m3, standard_case_m4,
                      standard_case_m5)
from circlebops.bops import ToeplitzOracle, pairing_first
from circlebops.deform import rational_workspace
from circlebops import spectral
from circlebops.errors import ConfigInvalid, Degenerate
from circlebops.garnier import GarnierPoint, coordinates_from_spectral
from circlebops.moments import MomentSequence, ReflectedMoments, build_U
from circlebops.mputil import working_precision
from circlebops.polys import (padd, pdiff, peval, pmax_abs, pscale, pshift,
                             psub)
from circlebops.report import all_passed, failures, judge, rel_error
from circlebops.spectral import (SERIES_BUFFER, SpectralData,
                                 SpectralWorkspace,
                                 check_bilinear, check_linear_recurrences,
                                 check_summation_identities, check_transitions,
                                 p2_asymptotic_constant, residue_matrices,
                                 residue_structure_checks,
                                 scalar_ode_residuals)
from circlebops.suites import casoratian_checks, judge_rows, run_verification
from circlebops.weights import build_poly_pair, build_weight

TOL = mpf(1e-25)


def _ws(case=standard_case_m3):
    weight, seeds = case()
    return make_workspace(weight, seeds)


def test_band_residual_is_tiny():
    ws = _ws()
    for n in range(0, 8):
        assert ws.data(n).band_residual < mpf(1e-30)


def test_deep_levels_stay_in_band_at_128_bits():
    """The README weight at 128 bits reaches level 48 inside the band
    alarm: kappa and the level families keep the oracle's precision, also
    when the levels are reached first, as verify's suites reach them."""
    ws = _ws()
    for n in range(50):
        ws.level(n)
    assert ws.data(48).band_residual < ws.plan.band_alarm


def test_data_refuses_another_precision_cached_or_not():
    """A workspace built at 128 bits refuses data(n) at 192 bits for a
    cached level as for a new one, with the oracle's own message."""
    ws = _ws()
    ws.data(2)
    with working_precision(192):
        for n in (2, 3):
            with pytest.raises(ValueError,
                               match="oracle built at 128 bits queried at "
                                     "192 bits"):
                ws.data(n)


def _same_bits_in_either_query_order(make, n):
    """data(n) after level(n), and data(n) alone, on two fresh workspaces
    give the same moments, level and spectral data, bit for bit."""
    first, second = make(), make()
    first.level(n)
    assert first.data(n) == second.data(n)
    assert first.level(n) == second.level(n)
    assert first.oracle.moments.values == second.oracle.moments.values


def test_cached_values_do_not_depend_on_the_first_query():
    with working_precision(256):
        weight = rational_case_m4()
        _same_bits_in_either_query_order(lambda: rational_workspace(weight),
                                         3)


@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(0, 8))
@settings(max_examples=8, deadline=None)
def test_cached_values_do_not_depend_on_the_first_query_on_random_weights(
        seed, N, n):
    weight, seeds = random_canonical_case(seed, N)
    _same_bits_in_either_query_order(lambda: make_workspace(weight, seeds), n)


def test_degree_alarm_on_corrupted_moments():
    weight, seeds = standard_case_m3()
    pair = build_poly_pair(weight)
    ms = MomentSequence.from_seeds(pair, -1, seeds)
    ms.extend(-10, 10)
    ms.values[6] += mpf("1e-6")      # break the recurrence silently
    ws = SpectralWorkspace(ToeplitzOracle(ms))
    with pytest.raises(Degenerate, match="out-of-band mass .* at level 3"):
        ws.data(3)


@pytest.mark.parametrize("starred", ["thetastar", "band_residual"])
def test_a_planted_starred_band_error_fires_when_the_starred_half_is_read(
        starred):
    """A coefficient planted at z^top of epsstar_3, as large as the
    series' largest, puts out-of-band mass into the starred forms of level
    3 alone: reading theta, omega and their point values passes, and the
    first read of the starred half raises, as does the next.  Read on the
    class, the field is its descriptor."""
    ws, n = _ws(), 3
    top = n + ws.pair.N + 2 + SERIES_BUFFER
    series = ws.oracle.epsstar_series(n, top)
    series.re[-1] += max(map(abs, series.re))
    sd = ws.data(n)
    sd.theta, sd.omega, sd.at("theta", mpc("0.5")), sd.grid("omega")
    for _ in range(2):
        with pytest.raises(Degenerate,
                           match=f"out-of-band mass .* at level {n}$"):
            getattr(sd, starred)
    assert getattr(SpectralData, starred).name == starred


def test_initial_spectral_data_closed_forms():
    """Level-zero spectral polynomials against the generating polynomial."""
    ws = _ws()
    pair = ws.pair
    ms = ws.oracle.moments
    sd = ws.data(0)
    l0, l1 = ws.level(0), ws.level(1)
    U = [u for u in build_U(ms).u]
    k02 = 1 / ms.w(0)
    V2 = pair.V2_mpc()
    minus = psub(V2, pscale(U, k02))
    plus = padd(V2, pscale(U, k02))

    lhs = pscale(sd.theta, 2 * l1.phi0 / l0.kappa)
    assert pmax_abs(psub(lhs, minus)) / pmax_abs(minus) < TOL

    lhs = pshift(pscale(sd.thetastar, 2 * l1.phibar0 / l0.kappa), 1)
    assert pmax_abs(psub(lhs, pscale(plus, -1))) / pmax_abs(plus) < TOL

    lhs = pscale(sd.omega, 2 * l1.phi0)
    rhs = psub(pscale(pshift(minus, 1), l1.kappa), pscale(U, k02 * l1.phi0))
    assert pmax_abs(psub(lhs, rhs)) / pmax_abs(rhs) < TOL

    lhs = pshift(pscale(sd.omegastar, 2 * l1.phibar0), 1)
    rhs = psub(pscale(plus, -l1.kappa), pscale(pshift(U, 1), k02 * l1.phibar0))
    assert pmax_abs(psub(lhs, rhs)) / pmax_abs(rhs) < TOL


def test_parameterisation_endpoints():
    ws = _ws(standard_case_m4)
    pair = ws.pair
    e, m = pair.e_mpc(), pair.m_mpc()
    N = pair.N
    for n in (0, 2, 4):
        sd = ws.data(n)
        l0, l1 = ws.level(n), ws.level(n + 1)
        kr = l1.kappa / l0.kappa
        assert abs(kr * sd.theta[-1] - (n + 1 + m[0])) < TOL
        want = (-1) ** N * (n * e[N + 1] - m[N + 1]) * l0.r / l1.r
        assert abs(kr * sd.theta[0] - want) < TOL
        assert abs(sd.omega[-1] - (1 + m[0] / 2)) < TOL
        want = (-1) ** N * (n * e[N + 1] - m[N + 1] / 2)
        assert abs(sd.omega[0] - want) < TOL


def test_linear_recurrences_and_transitions():
    ws = _ws()
    for n in (1, 3, 5):
        assert all_passed(judge(check_linear_recurrences(ws, n), TOL, n))
        assert all_passed(judge(check_transitions(ws, n, 23), TOL, n))


def test_recurrence_residual_gauge_invariant():
    weight, seeds = standard_case_m3()
    pair = build_poly_pair(weight)
    ms = MomentSequence.from_seeds(pair, -1, seeds)
    base = SpectralWorkspace(ToeplitzOracle(ms))
    flip = SpectralWorkspace(ToeplitzOracle(ms, gauge={2: -1, 4: -1}))
    for wsx in (base, flip):
        res = judge(check_linear_recurrences(wsx, 3), TOL, 3)
        assert all_passed(res), failures(res)


def test_zero_residue_weight_is_excluded_input():
    with pytest.raises(ConfigInvalid, match="residue 0 = 0 is a nonnegative "
                       "integer"):
        build_weight([0, "1/3", 1], [0, 0, 0])


def test_bilinear_relations():
    for case in (standard_case_m3, standard_case_m4):
        ws = _ws(case)
        for n in (0, 1, 3):
            res = judge(check_bilinear(ws, n), TOL, n)
            assert all_passed(res), [(r.label, r.residual) for r in
                                     failures(res)]


def test_summation_identities_with_coordinates():
    ws = _ws(standard_case_m4)
    for n in (1, 3):
        pt = coordinates_from_spectral(ws, n)
        res = judge(check_summation_identities(ws, n, garnier_point=pt), TOL,
                    n)
        assert all_passed(res), [(r.label, r.residual) for r in
                                 failures(res)]


ROOT_SUMS = ("Ssum:e", "Ssum:f", "Ssum:g")


def test_summation_evaluates_thirteen_sums_per_root():
    """Ssum:e, Ssum:f and Ssum:g are evaluated at single roots only: 4 + 5
    + 4 sums per root, 39 a level at N = 3 (82 with every pair and triple
    of roots)."""
    ws = _ws(standard_case_m5)
    for n in (1, 2):
        pt = coordinates_from_spectral(ws, n)
        assert len(pt.q) == 3
        labels = [label for label, _ in
                  check_summation_identities(ws, n, garnier_point=pt)]
        assert sum(label in ROOT_SUMS for label in labels) == 13 * 3


def _multi_root_want(roots, sigma, q, thq, Wq, theta_inf, zsum):
    """The closed form of the Ssum:f (two roots) or Ssum:g (three roots)
    sum over distinct roots: its residues at the double root, if any, and
    at infinity."""
    qsum = sum(q)
    if len(roots) == 2:
        r, s = roots
        return {3: theta_inf,
                4: theta_inf * (1 + zsum - qsum + q[r] + q[s])}.get(
                    sigma, mpc(0))
    r, s, t = roots
    if r == s:
        return -q[s] ** sigma * thq[s] / ((q[r] - q[t]) * Wq[s])
    if s == t:
        return -q[t] ** sigma * thq[t] / ((q[s] - q[r]) * Wq[t])
    return mpc(0)


def _partial_fractions(roots, sigma, q):
    """The sum over distinct roots as {(label, r, sigma): coefficient} of
    single-root sums, by 1/((z - a)(z - b)) = [1/(z - a) - 1/(z - b)] /
    (a - b); at sigma = 4 the pair sheds one power of z, and its common
    sum of theta z^3 / W' cancels."""
    if len(roots) == 2:
        r, s = roots
        if sigma == 4:
            return {("Ssum:e", r, 3): q[r] / (q[r] - q[s]),
                    ("Ssum:e", s, 3): -q[s] / (q[r] - q[s])}
        return {("Ssum:e", r, sigma): 1 / (q[r] - q[s]),
                ("Ssum:e", s, sigma): -1 / (q[r] - q[s])}
    if len(set(roots)) == 2:
        a = max(set(roots), key=roots.count)        # the double root
        b, = set(roots) - {a}
        return {("Ssum:f", a, sigma): 1 / (q[a] - q[b]),
                ("Ssum:e", a, sigma): -1 / (q[a] - q[b]) ** 2,
                ("Ssum:e", b, sigma): 1 / (q[a] - q[b]) ** 2}
    return {("Ssum:e", a, sigma): 1 / ((q[a] - q[b]) * (q[a] - q[c]))
            for a, b, c in (roots, roots[1:] + roots[:1],
                            roots[2:] + roots[:2])}


def test_multi_root_sums_follow_from_single_root_sums(monkeypatch):
    """Only single-root Ssum:e/f/g sums are evaluated.  At points q that are
    not roots, each sum over two or three distinct roots equals its
    partial-fraction combination of the evaluated Ssum:e and diagonal
    Ssum:f sums, and its closed form (``_multi_root_want``) equals the same
    combination of their closed forms: to rounding, scaled by the
    combination's 1/|q_r - q_s| factors.  So whenever the evaluated
    identities hold at the roots, the others hold too."""
    ws = _ws(standard_case_m5)
    n = 3
    sd = ws.data(n)
    zs = ws.singularities()
    wp = [ws.wprime_at(z) for z in zs]
    thz = [[sd.at("theta", z) * z ** sigma for sigma in range(5)]
           for z in zs]
    rng = random.Random(36)
    q = [mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
    assert min(abs(a - b) for a, b in combinations(q + zs, 2)) > 0.05
    theta_inf = sd.theta[-1]

    def value(terms):
        return fsum(terms), fsum(abs(t) for t in terms)

    # the evaluated sums as (label, r, sigma) -> (value, scale, want)
    monkeypatch.setattr(spectral, "_sum_residual", lambda lhs, rhs:
                        (value(lhs), rhs))
    kept, seen = {}, {label: 0 for label in ROOT_SUMS}
    for label, ((val, scale), want) in spectral._coordinate_sums(
            ws, n, GarnierPoint(n, q, [], theta_inf), wp, thz):
        if label in ROOT_SUMS:
            r, sigma = divmod(seen[label], 5 if label == "Ssum:f" else 4)
            seen[label] += 1
            kept[label, r, sigma] = (val, scale, want)
    assert seen == {"Ssum:e": 12, "Ssum:f": 15, "Ssum:g": 12}

    thq = [sd.at("dtheta", qr) for qr in q]
    Wq = [ws.at("W", qr) for qr in q]
    zsum = sum(zs[1:-1])
    eps = mpf(2) ** (8 - mp.prec)
    dropped = [(roots, sigma) for k, sigmas in ((2, 5), (3, 4))
               for roots in combinations_with_replacement(range(3), k)
               if len(set(roots)) > 1 for sigma in range(sigmas)]
    assert len(dropped) == 82 - 39
    for roots, sigma in dropped:
        terms = []
        for z, w, tz in zip(zs, wp, thz):
            den = w
            for r in roots:
                den *= z - q[r]
            terms.append(tz[sigma] / den)
        got, scale = value(terms)
        coeffs = _partial_fractions(roots, sigma, q)
        combo = fsum(c * kept[key][0] for key, c in coeffs.items())
        scale += fsum(abs(c) * kept[key][1] for key, c in coeffs.items())
        assert abs(got - combo) <= eps * scale, (roots, sigma)
        want = _multi_root_want(roots, sigma, q, thq, Wq, theta_inf, zsum)
        combo = fsum(c * kept[key][2] for key, c in coeffs.items())
        scale = abs(want) + fsum(abs(c * kept[key][2])
                                 for key, c in coeffs.items())
        assert abs(want - combo) <= eps * scale, (roots, sigma)


def test_residue_matrices_structure():
    ws = _ws(standard_case_m4)
    for n in (0, 2):
        res = judge(residue_structure_checks(ws, n), TOL, n)
        assert all_passed(res)
    mats0 = residue_matrices(ws, 1)
    # upper-triangular origin residue: second row identically zero
    assert abs(mats0[0][1][0]) < TOL and abs(mats0[0][1][1]) < TOL


def test_identity_checks_do_not_depend_on_the_run_seed():
    """An:pf and the scalar ODEs are polynomial identities: the run's seed
    picks no points for them, only for rrCf:j@pts."""
    def checks(seed):
        ws = _ws(standard_case_m4)
        return {label: [r.residual for r in
                        run_verification(ws, ["identities"], 2, TOL, seed=seed)
                        if r.label == label]
                for label in ("An:pf", "2ODE:a", "2ODE:b", "rrCf:j@pts")}
    one, two = checks(1), checks(2)
    for label in ("An:pf", "2ODE:a", "2ODE:b"):
        assert len(one[label]) == 3 and one[label] == two[label], label
    assert one["rrCf:j@pts"] != two["rrCf:j@pts"]


def _perturbed(x):
    return x * (1 + mpf("1e-18"))


def test_partial_fractions_catch_a_perturbed_residue_matrix():
    """A relative error of 1e-18 in one entry of one residue matrix fails
    An:pf at tolerance 1e-20."""
    ws = _ws()
    assert all_passed(judge(residue_structure_checks(ws, 4), mpf(1e-20), 4))
    mats = residue_matrices(ws, 4)
    mats[1][0][1] = _perturbed(mats[1][0][1])
    got, = [r for r in judge(residue_structure_checks(ws, 4), mpf(1e-20), 4)
            if r.label == "An:pf"]
    assert not got.passed and got.residual > mpf(1e-19)


def test_scalar_ode_catches_a_perturbed_leading_coefficient():
    """A relative error of 1e-18 in the leading coefficient of phi_n fails
    2ODE:a at tolerance 1e-20, and leaves 2ODE:b alone."""
    ws = _ws()
    assert all_passed(judge(scalar_ode_residuals(ws, 4), mpf(1e-20), 4))
    phi = ws.level(4).phi
    phi[-1] = _perturbed(phi[-1])
    a, b = judge(scalar_ode_residuals(ws, 4), mpf(1e-20), 4)
    assert (a.label, b.label) == ("2ODE:a", "2ODE:b")
    assert not a.passed and a.residual > mpf(1e-20) and b.passed


def p1_at(ws, n, z):
    """p1 = (W' + 2V)/W - Theta'/Theta - n/z from the point tables."""
    sd = ws.data(n)
    return ((ws.at("dW", z) + ws.at("V2", z)) / ws.at("W", z)
            - sd.at("dtheta", z) / sd.at("theta", z) - mpf(n) / z)


def test_scalar_ode_residuals_and_structure():
    ws = _ws(standard_case_m4)
    for n in (1, 4):
        res = judge(scalar_ode_residuals(ws, n), mpf(1e-22), n)
        assert all_passed(res)
        # first coefficient has the displayed partial-fraction structure
        pt = coordinates_from_spectral(ws, n)
        zs = ws.singularities()
        rhos = ws.residues()
        for z in (mpc("1.37", "0.41"), mpc("-0.9", "1.1")):
            p1 = p1_at(ws, n, z)
            want = (rhos[0] + 1 - n) / z + (rhos[-1] + 1) / (z - 1)
            for zj, rj in zip(zs[1:-1], rhos[1:-1]):
                want += (rj + 1) / (z - zj)
            for qr in pt.q:
                want -= 1 / (z - qr)
            assert abs(p1 - want) < TOL * max(abs(p1), mpf(1))
        # z(z-1) p2 settles at the accessory constant
        m0 = ws.pair.m_mpc()[0]
        got = p2_asymptotic_constant(ws, n)
        assert abs(got + n * (1 + m0)) < TOL * max(abs(got), mpf(1))


def test_lattice_on_random_weights():
    for seed, N in ((11, 1), (12, 2)):
        weight, seeds = random_canonical_case(seed, N)
        ws = make_workspace(weight, seeds)
        for n in (1, 2):
            assert all_passed(judge(check_linear_recurrences(ws, n),
                                    mpf(1e-22), n))
            assert all_passed(judge(check_bilinear(ws, n), mpf(1e-22), n))


def test_pipeline_runs_at_minimum_precision():
    """Everything holds at 53 bits, with proportionately relaxed bounds."""
    from circlebops.mputil import working_precision
    with working_precision(53):
        ws = make_workspace(*standard_case_m3())
        assert all_passed(judge(check_linear_recurrences(ws, 2), mpf(1e-9),
                                2))
        assert all_passed(judge(check_bilinear(ws, 2), mpf(1e-9), 2))
        assert ws.data(3).band_residual < mpf(1e-11)


# ---------------------------------------------------------------------------
# the integer series against the former mpc route at 512 bits
# ---------------------------------------------------------------------------

def _mpc_mul(s, p, top):
    """(offset, mpc list) times a polynomial, rounded term by term."""
    off, c = s
    return off, [sum((c[i] * p[t - i] for i in range(len(c))
                      if 0 <= t - i < len(p)), mpc(0))
                 for t in range(top - off + 1)]


def _mpc_add(s, t):
    off = min(s[0], t[0])
    out = [mpc(0)] * (max(s[0] + len(s[1]), t[0] + len(t[1])) - off)
    for o, c in (s, t):
        for k, v in enumerate(c):
            out[o - off + k] += v
    return off, out


def _mpc_neg(s):
    return s[0], [-v for v in s[1]]


def _mpc_diff(s):
    off, c = s
    d = [(off + k) * v for k, v in enumerate(c)]
    return (0, d[1:]) if off == 0 else (off - 1, d)


def _mpc_route(ws, n):
    """The four spectral polynomials and the band residual at level n by
    the former route: eps by one mpmath sum per pairing, then the chain of
    truncated products with every coefficient rounded to mpc."""
    o, pair = ws.oracle, ws.pair
    W, V2 = pair.W_mpc(), pair.V2_mpc()
    V = pscale(V2, mpf("0.5"))
    lev_n, lev_n1 = o.level(n), o.level(n + 1)
    top = n + pair.N + 2 + SERIES_BUFFER
    ms, refl = o.moments, ReflectedMoments(o.moments)

    def eps(lev):
        return 0, [2 * pairing_first(ms, lev.phi, m) for m in range(top + 2)]

    def est(lev):
        return lev.n + 1, [-2 * pairing_first(refl, lev.phibar, -m)
                           for m in range(1, top + 2 - lev.n)]

    def forms(e0, e1, p0, p1):
        de0, dp0 = _mpc_diff(e0), pdiff(p0)
        theta = _mpc_add(_mpc_mul(_mpc_add(
            _mpc_mul(e0, dp0, top), _mpc_neg(_mpc_mul(de0, p0, top))), W, top),
            _mpc_mul(_mpc_mul(e0, p0, top), V2, top))
        omega = _mpc_add(_mpc_mul(_mpc_add(
            _mpc_mul(e1, dp0, top), _mpc_neg(_mpc_mul(de0, p1, top))), W, top),
            _mpc_mul(_mpc_add(_mpc_mul(e1, p0, top), _mpc_mul(e0, p1, top)),
                     V, top))
        return theta, omega

    def band(series, lo, deg, factor):
        off, c = series
        inside = range(lo - off, lo + deg - off + 1)
        worst = max(abs(v) for k, v in enumerate(c) if k not in inside)
        return [c[k] / factor for k in inside], worst / max(map(abs, c))

    out = {}
    fac = 2 * lev_n1.phi0 / lev_n.kappa
    theta, omega = forms(eps(lev_n), eps(lev_n1), lev_n.phi, lev_n1.phi)
    out["theta"], r1 = band(theta, n, pair.N, fac)
    out["omega"], r2 = band(omega, n, pair.N + 1, fac)
    fac = -2 * lev_n1.phibar0 / lev_n.kappa
    theta, omega = forms(est(lev_n), est(lev_n1), lev_n.phistar,
                         lev_n1.phistar)
    out["thetastar"], r3 = band(theta, n + 1, pair.N, fac)
    out["omegastar"], r4 = band(omega, n + 1, pair.N + 1, fac)
    out["band_residual"] = max(r1, r2, r3, r4)
    return out


LEVELS = (0, 1, 5, 12, 24)


@functools.cache
def _reference(case):
    """The case's weight and 128-bit seeds, and the mpc route at 512 bits
    on them, level by level."""
    with working_precision(128):
        weight, seeds = case()
    with working_precision(512):
        ws = make_workspace(weight, seeds)
        return weight, seeds, {n: _mpc_route(ws, n) for n in LEVELS}


@pytest.mark.parametrize("bits", [128, 192])
@pytest.mark.parametrize("case", [standard_case_m3, standard_case_m4,
                                  standard_case_m5])
def test_spectral_data_match_the_mpc_route_at_512_bits(case, bits):
    """SpectralData of the integer route at 128 and 192 bits against the
    former mpc route at 512 bits on the same seeds.  The out-of-band mass
    vanishes in exact arithmetic (the reference shows 2^-495 or less), so
    the band residual is the route's own rounding noise."""
    weight, seeds, want = _reference(case)
    with working_precision(bits):
        ws = make_workspace(weight, seeds)
        for n in LEVELS:
            sd = ws.data(n)
            for name in ("theta", "omega", "thetastar", "omegastar"):
                err = rel_error(getattr(sd, name), want[n][name])
                assert err < mpf(2) ** -(bits + 28), (n, name, err)
            assert want[n]["band_residual"] < mpf(2) ** -480
            assert sd.band_residual < mpf(2) ** -(bits + 28), n


def _rounded_once(coeffs, z, bits):
    """The polynomial at z, evaluated exactly at 4000 bits, then each part
    rounded once, to nearest at ``bits``."""
    with working_precision(4000):
        exact = peval(pdiff(coeffs[1]) if coeffs[0] else coeffs[1], z)
    with working_precision(bits):
        return mpc(exact)


def test_point_tables_keep_one_entry_per_precision():
    """A point read at 128 bits does not serve a read at 192 bits: each read
    is the exact value rounded once, to nearest, at its own precision, in
    the level's table (Theta_n, Theta_n') and in the workspace's (W', from
    W at the reader's precision)."""
    ws = _ws()
    sd = ws.data(2)
    z = mpc("0.3", "0.7")
    got, want = {}, {}
    for bits in (128, 192):
        with working_precision(bits):
            got[bits] = [sd.at("theta", z), sd.at("dtheta", z),
                         ws.at("dW", z)]
            polys = [(False, sd.theta), (True, sd.theta),
                     (True, ws.pair.W_mpc())]
        want[bits] = [_rounded_once(p, z, bits) for p in polys]
        assert [g._mpc_ for g in got[bits]] == \
            [w._mpc_ for w in want[bits]], bits
    assert all(a._mpc_ != g._mpc_ for a, g in zip(got[128], got[192]))
    assert sd.at("theta", z) is got[128][0] and \
        ws.at("dW", z) is got[128][2]


def test_depth_near_the_origin_matches_a_640_bit_run():
    """The README weight with z_1 = 1/10 in formal mode: the spectral data
    of level 30 at 128 bits agree with a 640-bit run of the same seeds to
    2^-(128+16) of each polynomial's largest coefficient."""
    weight = build_weight([0, "1/10", 1], ["1/3", "-1/2", "1/4"])
    _, seeds = standard_case_m3()
    got = make_workspace(weight, seeds).data(30)
    with working_precision(640):
        want = make_workspace(weight, seeds).data(30)
        for name in ("theta", "omega", "thetastar", "omegastar"):
            assert rel_error(getattr(got, name), getattr(want, name)) < \
                mpf(2) ** -144, name


def test_a_planted_error_in_one_schur_entry_fails_a_check():
    """A relative error of 1e-30 in the one generator entry alpha_4(6),
    planted before anything reads it, fails the Casoratian checks of level
    3 at tolerance 1e-40, which pass without it."""
    tol = mpf("1e-40")
    assert all_passed(judge_rows(_ws(), tol, [(casoratian_checks, range(4))]))
    ws = _ws()
    oracle = ws.oracle
    with oracle.precision():
        oracle._reach(4, 18)
        alpha = oracle._gen[4][0]
        alpha[6] *= 1 + mpf("1e-30")
    failed = failures(judge_rows(ws, tol, [(casoratian_checks, range(4))]))
    assert [(r.label, r.n) for r in failed] == [("Cas:a", 3)]
