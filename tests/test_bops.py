"""Determinant oracle: existence, identities, expansions, Szego step."""

import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from conftest import (random_canonical_case, rational_case_m4,
                      standard_case_m3, standard_case_m4, standard_case_m5)
from circlebops import bops
from circlebops.bops import (ToeplitzOracle, casoratian_residuals,
                             orthogonality_residual, phi_from_determinant,
                             toeplitz_det)
from circlebops.deform import rational_workspace
from circlebops.errors import Degenerate
from circlebops.exact import QC, det_cofactor
from circlebops.moments import MomentSequence, ReflectedMoments
from circlebops.mputil import working_precision
from circlebops.polys import pmax_abs, psub
from circlebops.spectral import spectral_from_oracle
from circlebops.weights import build_poly_pair, build_weight


def _oracle_m3():
    weight, seeds = standard_case_m3()
    pair = build_poly_pair(weight)
    ms = MomentSequence.from_seeds(pair, -1, seeds)
    return ToeplitzOracle(ms), ms, pair


def test_unit_weight_determinants_and_polynomials():
    w = build_weight([0, "1/3", 1], [0, 0, 0], validate=False)
    pair = build_poly_pair(w)
    ms = MomentSequence.from_seeds(pair, -1, [mpc(0), mpc(1)])
    o = ToeplitzOracle(ms)
    for n in range(6):
        assert abs(o.det(n) - 1) < mpf(1e-35)
        lev = o.level(n)
        assert abs(lev.kappa - 1) < mpf(1e-35)
        # phi_n = z^n
        for k, c in enumerate(lev.phi):
            want = mpc(1) if k == n else mpc(0)
            assert abs(c - want) < mpf(1e-34)


def test_det_level_one_is_w0():
    o, ms, _ = _oracle_m3()
    assert abs(o.det(1) - ms.w(0)) == 0


def test_level_one_polynomials_hand_expansion():
    """The bordered determinant at level one: phi uses w_{-1}, the second
    family uses w_{+1}."""
    o, ms, _ = _oracle_m3()
    phi1 = phi_from_determinant(ms, 1)
    assert abs(phi1[0] + ms.w(-1) / ms.w(0)) < mpf(1e-35)
    phibar1 = phi_from_determinant(ReflectedMoments(ms), 1)
    assert abs(phibar1[0] + ms.w(1) / ms.w(0)) < mpf(1e-35)


def test_lu_determinant_vs_exact_cofactor_n6():
    weight, _ = standard_case_m3()
    pair = build_poly_pair(weight)
    seeds = [QC("31/100", "17/100"), QC(1)]
    msx = MomentSequence.from_seeds(pair, -1, seeds, exact=True)
    msx.extend(-5, 5)
    n = 6
    exact = det_cofactor([[msx.values[i - j] for j in range(n)]
                          for i in range(n)])
    ms = MomentSequence.from_seeds(pair, -1,
                                   [s.to_mpc() for s in seeds])
    for approx in (toeplitz_det(ms, n), ToeplitzOracle(ms).det(n)):
        assert abs(exact.to_mpc() - approx) < mpf(1e-32) * abs(approx)


def test_orthogonality_and_orthonormality():
    o, ms, _ = _oracle_m3()
    for n in (1, 3, 5, 7):
        lev = o.level(n)
        assert orthogonality_residual(ms, lev.phi) < mpf(1e-34)
        assert orthogonality_residual(ReflectedMoments(ms), lev.phibar) \
            < mpf(1e-34)
        assert o.orthonormality_residual(n) < mpf(1e-32)


def test_reflected_moments_view():
    """The view reads w_{-k} and extends the mirrored window."""
    _, ms, _ = _oracle_m3()
    view = ReflectedMoments(ms)
    view.extend(-2, 6)
    assert (ms.k_min, ms.k_max) == (-6, 2)
    for k in range(-2, 7):
        assert view.w(k) == ms.w(-k)


def test_determinant_ratio_identity():
    o, _, _ = _oracle_m3()
    for n in range(1, 9):
        lev = o.level(n)
        lhs = o.det(n + 1) * o.det(n - 1) / o.det(n) ** 2
        rhs = 1 - lev.r * lev.rbar
        assert abs(lhs - rhs) < mpf(1e-33) * max(abs(lhs), mpf(1))


def test_coefficient_difference_identities():
    o, _, _ = _oracle_m3()
    for n in range(1, 9):
        a, b = o.level(n), o.level(n - 1)
        assert abs(a.kappa ** 2 - b.kappa ** 2 - a.phi0 * a.phibar0) \
            < mpf(1e-32) * max(abs(a.kappa) ** 2, mpf(1))
        assert abs(a.lam - b.lam - a.r * b.rbar) < mpf(1e-33)


def test_kappa_square_matches_det_ratio_and_gauge():
    o, ms, _ = _oracle_m3()
    for n in (0, 2, 5):
        k = o.level(n).kappa
        assert abs(k ** 2 - o.det(n) / o.det(n + 1)) < mpf(1e-33) * abs(k) ** 2
    flipped = ToeplitzOracle(ms, gauge={2: -1})
    base = ToeplitzOracle(ms)
    # r, lambda are gauge invariant; kappa and the raw coefficients flip
    assert abs(flipped.level(2).r - base.level(2).r) < mpf(1e-33)
    assert abs(flipped.level(2).lam - base.level(2).lam) < mpf(1e-33)
    assert abs(flipped.level(2).kappa + base.level(2).kappa) < mpf(1e-33)
    # the coefficient-difference identity is insensitive to the flip
    a, b = flipped.level(2), flipped.level(1)
    assert abs(a.kappa ** 2 - b.kappa ** 2 - a.phi0 * a.phibar0) < mpf(1e-32)


def test_degenerate_determinant_raises():
    weight, _ = standard_case_m3()
    pair = build_poly_pair(weight)
    ms = MomentSequence.from_seeds(pair, -1, [mpc("0.3"), mpc(0)])
    o = ToeplitzOracle(ms)    # w_0 = 0 kills I_1
    with pytest.raises(Degenerate, match="level 1 vanishes"):
        o.level(1)
    # I_3, I_4 are healthy, but the Schur recursion and the Szego step to
    # level 3 both pass level 1
    assert o.det(1) == 0
    with pytest.raises(Degenerate, match="level 1 "):
        o.det(3)
    with pytest.raises(Degenerate, match="level 1 "):
        o.level(3)


def test_associated_function_leading_coefficients():
    """Interior expansions lead exactly as the closed forms state."""
    o, _, _ = _oracle_m3()
    for n in (0, 2, 4, 6):
        lev = o.level(n)
        nxt = o.level(n + 1)
        eps = o.eps_series(n, n + 3)
        est = o.epsstar_series(n, n + 3)
        assert abs(lev.kappa / 2 * eps.coeff(n) - 1) < mpf(1e-32)
        assert abs(lev.kappa / 2 * eps.coeff(n + 1) + nxt.lambar) < mpf(1e-31)
        assert abs(lev.kappa / 2 * est.coeff(n + 1) - nxt.rbar) < mpf(1e-31)
        # one order deeper in the starred family
        nxt2 = o.level(n + 2)
        want = nxt2.rbar - nxt.rbar * nxt2.lambar
        assert abs(lev.kappa / 2 * est.coeff(n + 2) - want) < mpf(1e-30)
        # and in the plain one
        want = nxt.lambar * nxt2.lambar - nxt2.mubar
        assert abs(lev.kappa / 2 * eps.coeff(n + 2) - want) < mpf(1e-30)


def test_polynomial_interior_coefficients_couple_levels():
    """Low coefficients of each family combine reflections and subleading
    data of neighbouring levels."""
    o, _, _ = _oracle_m3()
    for n in (2, 4, 6):
        lev = o.level(n)
        lm1, lm2 = o.level(n - 1), o.level(n - 2)
        c1 = lev.phi[1] / lev.kappa
        want = lm1.r + lev.r * lm1.lambar
        assert abs(c1 - want) < mpf(1e-31)
        c2 = lev.phi[2] / lev.kappa
        want = lm2.r + lm1.r * lm2.lambar + lev.r * lm1.mubar
        assert abs(c2 - want) < mpf(1e-31)
        # second family mirrors with the unbarred data
        cs1 = lev.phibar[1] / lev.kappa
        want = lm1.rbar + lev.rbar * lm1.lam
        assert abs(cs1 - want) < mpf(1e-31)


def test_casoratian_residuals_small():
    o, _, _ = _oracle_m3()
    for n in range(0, 8):
        res = dict(casoratian_residuals(o, n))
        assert list(res) == ["Cas:a", "Cas:b", "Cas:c"]
        for label in ("Cas:a", "Cas:b", "Cas:c"):
            assert res[label] < mpf(1e-25), (label, n)


def _rel(got, want):
    return pmax_abs(psub(got, want)) / pmax_abs(want)


def _assert_levels_match_lu(oracles, ms, n_top, tol):
    """Each oracle's determinants equal the pivoted LU ones, and its level
    families equal kappa_n times the LU solves."""
    for n in range(n_top + 1):
        In = toeplitz_det(ms, n)
        phi = phi_from_determinant(ms, n)
        phibar = phi_from_determinant(ReflectedMoments(ms), n)
        for o in oracles:
            assert abs(o.det(n) - In) < tol * abs(In), n
            lev = o.level(n)
            assert _rel(lev.phi, [lev.kappa * c for c in phi]) < tol, n
            assert _rel(lev.phibar, [lev.kappa * c for c in phibar]) < tol, n


@pytest.mark.parametrize("bits, tol", [(128, mpf(1e-32)), (192, mpf(1e-48))])
@pytest.mark.parametrize("case", [standard_case_m3, standard_case_m4,
                                  standard_case_m5])
def test_szego_step_matches_lu_solves(case, bits, tol):
    with working_precision(bits):
        weight, seeds = case()
        ms = MomentSequence.from_seeds(build_poly_pair(weight), -1, seeds)
        base = ToeplitzOracle(ms)
        flipped = ToeplitzOracle(ms, gauge={n: -1 for n in range(1, 25, 2)})
        _assert_levels_match_lu((base, flipped), ms, 24, tol)
        for n in range(25):
            kappa, base_kappa = flipped.level(n).kappa, base.level(n).kappa
            with mp.workprec(base.prec):       # kappa carries base.prec bits
                assert kappa == flipped.gauge(n) * base_kappa


@given(st.integers(0, 10 ** 6), st.integers(1, 3))
@settings(max_examples=8, deadline=None)
def test_szego_step_matches_lu_on_random_weights(seed, N):
    weight, seeds = random_canonical_case(seed, N)
    ms = MomentSequence.from_seeds(build_poly_pair(weight), -1, seeds)
    _assert_levels_match_lu((ToeplitzOracle(ms),), ms, 14, mpf(1e-32))


def test_an_oracle_answers_only_at_the_precision_it_was_built_at():
    """An oracle that reached level 10 at 128 bits refuses monic_pair(12),
    and every other query, at 256 bits, naming both precisions, and
    computes nothing there; at 128 bits it goes on."""
    o, _, _ = _oracle_m3()
    o.level(10)
    with working_precision(256):
        for query, args in ((o.monic_pair, (12,)), (o.det, (12,)),
                            (o.level, (12,)), (o.eps_series, (12, 20)),
                            (o.epsstar_series, (12, 20))):
            with pytest.raises(ValueError, match="built at 128 bits "
                                                 "queried at 256 bits"):
                query(*args)
        with pytest.raises(ValueError, match="built at 128 bits"):
            casoratian_residuals(o, 2)
    assert len(o._monic) == 11                 # nothing computed at 256
    assert len(o.monic_pair(12)[0]) == 13


def test_level_needs_no_lu_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle ran a dense LU")
    monkeypatch.setattr(bops, "lu_solve", refuse)
    monkeypatch.setattr(bops, "lu_det", refuse)
    o, _, _ = _oracle_m3()
    for n in range(12):
        assert len(o.level(n).phi) == n + 1
        assert o.det(n) == o.level(n).I


# -- the exact dot products against the fdot references ----------------------

def _fdot_monic_pairs(moments, n):
    """(P_k, Q_k), k = 0..n, by the bi-orthogonal Szego step with
    ``mpmath.fdot`` pairings: the reference for
    ``ToeplitzOracle.monic_pair``."""
    with mp.workprec(moments.prec):
        w = {k: moments.w(k) for k in range(-n, n + 1)}
        pairs = [([mpc(1)], [mpc(1)])]
        for k in range(n):
            P, Q = pairs[k]
            h = mpmath.fdot(P, [w[k - j] for j in range(k + 1)])
            a = -mpmath.fdot(P, [w[-1 - j] for j in range(k + 1)]) / h
            b = -mpmath.fdot(Q, [w[1 + j] for j in range(k + 1)]) / h
            P_next, Q_next = [mpc(0)] + P, [mpc(0)] + Q
            for i in range(k + 1):
                P_next[i] += a * Q[k - i]
                Q_next[i] += b * P[k - i]
            pairs.append((P_next, Q_next))
        return pairs


def _formal_oracle(case):
    weight, seeds = case()
    return ToeplitzOracle(MomentSequence.from_seeds(build_poly_pair(weight),
                                                    -1, seeds))


ORACLE_CASES = {
    "readme": lambda: _formal_oracle(standard_case_m3),
    "rational-m4": lambda: rational_workspace(rational_case_m4()).oracle,
    **{f"random-{seed}-{N}": (lambda seed=seed, N=N: _formal_oracle(
        lambda: random_canonical_case(seed, N)))
       for seed, N in ((0, 1), (1, 2), (2, 3))},
}

# the rational M = 4 weight truncates: its determinant at level 6 vanishes
TRUNCATES_AT = {"rational-m4": 6}


def _bits(z):
    return z._mpc_ if isinstance(z, mpc) else mpc(z)._mpc_


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_exact_dots_equal_the_fdot_references_bit_for_bit(case, bits):
    """monic_pair(n), n <= 30, equals the fdot Szego step exactly, det(n),
    n <= 12, agrees with a fresh pivoted LU, and a truncating weight stops
    where it did, in both routes."""
    with working_precision(bits):
        oracle = ORACLE_CASES[case]()
        stop = TRUNCATES_AT.get(case, 31)
        for n in range(min(stop, 13)):
            want = toeplitz_det(oracle.moments, n)
            assert abs(oracle.det(n) - want) < \
                mpf(2) ** -(bits + 16) * abs(want), n
        pairs = _fdot_monic_pairs(oracle.moments, min(stop, 31) - 1)
        for n in range(min(stop, 31)):
            P, Q = oracle.monic_pair(n)
            assert [_bits(c) for c in P] == [_bits(c) for c in pairs[n][0]]
            assert [_bits(c) for c in Q] == [_bits(c) for c in pairs[n][1]]
        if case in TRUNCATES_AT:
            with pytest.raises(Degenerate,
                               match=f"level {stop} vanishes"):
                oracle.det(stop + 1)
            with pytest.raises(Degenerate,
                               match=f"level {stop} vanishes"):
                oracle.monic_pair(stop)


def test_rational_m3_truncates_at_level_six_with_the_same_messages():
    """The M = 3 rational weight of the CLI tests (residues -3, -4, -5)
    at 256 bits: each route stops at level 6, with its own message."""
    w = build_weight([0, ["2/5", "1/5"], 1], [-3, -4, -5])
    with working_precision(256):
        for query, last, route in (
                ("det", 6, "the Schur recursion stops here"),
                ("monic_pair", 5, "the Szego step stops here"),
                ("level", 4, "the system truncates here")):
            oracle = rational_workspace(w).oracle
            for n in range(last + 1):
                getattr(oracle, query)(n)
            with pytest.raises(Degenerate) as err:
                getattr(oracle, query)(last + 1)
            assert str(err.value) == (
                "determinant at level 6 vanishes to working precision; "
                + route)


def _entries(oracle) -> dict:
    """The Schur generator's entries, by (level, side, index)."""
    return {(k, s, m): v for k, sides in enumerate(oracle._gen)
            for s, side in enumerate(sides) for m, v in side.items()}


def test_the_windows_follow_the_bounds_in_any_query_order():
    """Three oracles over one sequence run the same queries in three
    orders: determinants to I_25 first, the Casoratians first, and the
    spectral data first.  Each ends with the same bounds (top, reach), its
    level k holding alpha_k over k - top .. reach and beta_k over
    k - reach .. top, and the three hold equal entries at every key.  A
    request inside the held bounds then forms nothing."""
    _, ms, _ = _oracle_m3()

    def dets(o):
        for n in range(26):
            o.det(n)

    def casoratians(o):
        casoratian_residuals(o, 5)

    def spectral(o):
        for n in range(6):
            spectral_from_oracle(o, n)

    held = []
    for order in ((dets, spectral, casoratians),
                  (casoratians, spectral, dets),
                  (spectral, dets, casoratians)):
        oracle = ToeplitzOracle(ms)
        for query in order:
            query(oracle)
        top, reach = oracle._bounds
        assert len(oracle._gen) == top + 1 and reach >= top
        for k, (alpha, beta) in enumerate(oracle._gen):
            assert sorted(alpha) == list(range(k - top, reach + 1))
            assert sorted(beta) == list(range(k - reach, top + 1))
        held.append((oracle._bounds, _entries(oracle)))
    assert held[0] == held[1] == held[2]

    before = _entries(oracle)
    oracle.eps_series(3, reach - 1)
    oracle.epsstar_series(top, top)
    with oracle.precision():
        oracle._reach(top - 2, reach)
    after = _entries(oracle)
    assert after.keys() == before.keys()
    assert all(after[key] is v for key, v in before.items())


def test_a_degenerate_abort_forms_no_entry_twice():
    """After the Schur recursion stops at level 6 of the rational M = 3
    weight, asking again raises again and forms nothing, and the levels
    below still answer, each new entry formed once."""
    w = build_weight([0, ["2/5", "1/5"], 1], [-3, -4, -5])
    with working_precision(256):
        oracle = rational_workspace(w).oracle
        oracle.det(6)
        with pytest.raises(Degenerate, match="level 6 vanishes"):
            oracle.det(9)
        assert len(oracle._gen) == 6 and oracle._bounds == (5, 5)
        before = _entries(oracle)
        with pytest.raises(Degenerate, match="level 6 vanishes"):
            oracle.det(9)
        again = _entries(oracle)
        assert again.keys() == before.keys()
        oracle.eps_series(4, 12)
        after = _entries(oracle)
        assert all(after[key] is v for key, v in before.items())
        assert oracle._bounds == (5, 12)


def test_cached_queries_refuse_another_precision():
    """A cached det or level, answered without entering the oracle's
    context, is still refused at another working precision."""
    o, _, _ = _oracle_m3()
    lev, d = o.level(5), o.det(5)
    for bits in (64, 256):
        with working_precision(bits):
            for query in (o.level, o.det):
                with pytest.raises(ValueError, match="built at 128 bits "
                                   f"queried at {bits} bits"):
                    query(5)
    assert o.level(5) is lev and o.det(5) == d


def test_an_h_k_one_ulp_below_the_floor_vanishes():
    """The floor test compares exact squares: with |h_(k-1)| = sqrt 2 and
    h_k = lu_floor (1 + i), h_k sits exactly on the floor and passes; one
    ulp lower in its imaginary part it vanishes, one ulp higher it passes.
    A nonzero h_0 (nothing below) always passes, and zero never does."""
    o, ms, _ = _oracle_m3()
    with o.precision():
        floor, ulp = ms.plan.lu_floor, mpf(2) ** -mp.prec
        below = mpc(1, 1)
        assert not o._vanishes(mpc(floor, floor), below)
        assert o._vanishes(mpc(floor, floor - floor * ulp), below)
        assert not o._vanishes(mpc(floor, floor + 2 * floor * ulp), below)
        assert not o._vanishes(mpc(floor * ulp), 0)
        assert o._vanishes(mpc(0), 0) and o._vanishes(mpc(0), below)


@pytest.mark.parametrize("step", [-300, -128, 0, 40, 300])
def test_the_window_is_one_grid_of_it_and_reads_each_moment_once(step):
    """The oracle's moment window, grown one level at a time from the
    moments it holds, is at every size ``Grid.of`` over the whole window,
    cap included, and each moment is read from the sequence once.  The
    moments are 200-bit mantissas 2^(step |k|) apart; the cap is
    2 prec + 64 = 512 bits, so at -300 and -128 the outer terms are rounded
    on the cap and at 300 each level raises the top bit."""
    _, ms, _ = _oracle_m3()
    rng = random.Random(step)

    def moment(k):
        return [mpf((1 << 199) | rng.getrandbits(199)) * 2 ** (step * abs(k))
                for _ in "ri"]

    with mp.workprec(ms.prec):
        values = {k: mpc(*moment(k)) for k in range(-8, 9)}
    oracle = ToeplitzOracle(MomentSequence(ms.pair, values))
    reads, read = [], oracle.moments.w
    oracle.moments.w = lambda k: reads.append(k) or read(k)
    with oracle.precision():
        for n in range(1, 9):
            got = oracle._window(n)
            want = bops.Grid.of([values[k] for k in range(-n, n + 1)])
            assert (got.re, got.im, got.exp) == (want.re, want.im, want.exp)
    assert sorted(reads) == list(range(-8, 9))
