"""Moment recurrence, quadrature, closed-form coefficients, U and F."""

from fractions import Fraction

import pytest
from mpmath import fsum, log, mpc, mpf

from conftest import (RESIDUE_CASES, rational_case_m4, standard_case_m3,
                      standard_case_m4)
from circlebops.deform import rational_workspace
from circlebops.errors import SingularStep
from circlebops.exact import QC
from circlebops.moments import (BACKWARD_PIVOT_FLOOR, MomentSequence,
                                build_U, caratheodory_ode_residual,
                                caratheodory_series, moment_quadrature,
                                rational_weight_moments, recurrence_row,
                                u_from_series)
from circlebops.mputil import working_precision
from circlebops.polys import padd, pmul
from circlebops.weights import build_poly_pair, build_weight


def _pair_m3():
    weight, seeds = standard_case_m3()
    return build_poly_pair(weight), seeds


def test_m4_recurrence_matches_displayed_equation():
    """Third-order displayed coefficients for the four-point weight."""
    s, t = Fraction(1, 4), Fraction(2, 3)
    r0, rs, rt, r1 = (Fraction(1, 5), Fraction(-1, 3), Fraction(1, 7),
                      Fraction(-3, 4))
    w = build_weight([0, str(s), str(t), 1],
                     [str(r0), str(rs), str(rt), str(r1)])
    pair = build_poly_pair(w)
    for j in (-2, 1, 5):
        row = recurrence_row(pair, j + 1)   # pivot on w_j
        assert not row[0]
        disp = [
            (j - r0) * s * t,
            -((j - 1 - r0) * (s + t + s * t) - r1 * s * t - rs * t - rt * s),
            ((j - 2 - r0) * (1 + s + t) - r1 * (s + t) - rs * (t + 1)
             - rt * (s + 1)),
            -(j - 3 - r0 - r1 - rs - rt),
        ]
        # same equation up to one overall nonzero factor
        ratio = row[1] / QC(disp[0])
        for k in range(1, 4):
            assert row[1 + k] == ratio * QC(disp[k])


def test_zero_residue_weight_keeps_delta_moments():
    w = build_weight([0, "1/3", 1], [0, 0, 0], validate=False)
    pair = build_poly_pair(w)
    ms = MomentSequence.from_seeds(pair, -1, [mpc(0), mpc(1)])
    ms.extend(-6, 6)
    for k in range(-6, 7):
        want = mpc(1) if k == 0 else mpc(0)
        assert abs(ms.w(k) - want) < mpf(1e-35)


def test_exact_round_trip():
    pair, _ = _pair_m3()
    seeds = [QC("31/100", "17/100"), QC(1)]
    ms = MomentSequence.from_seeds(pair, -1, seeds)
    ms.extend(-10, 10)
    back = MomentSequence.from_seeds(pair, 9, [ms.values[9], ms.values[10]])
    back.extend(-10, 10)
    assert back.values[-1] == seeds[0]
    assert back.values[0] == seeds[1]
    assert back.values[-10] == ms.values[-10]


def test_seeds_of_mixed_kinds_take_the_rounded_step():
    """Seeds that are not all QC (an int, a Fraction, a QC beside an mpc)
    are coerced to mpc, and the sequence extends as from mpc seeds."""
    pair, _ = _pair_m3()
    want = MomentSequence.from_seeds(pair, -1, [mpc("0.25", "0.5"), mpc(1)])
    want.extend(-6, 6)
    for seeds in ([mpc("0.25", "0.5"), 1], [QC("1/4", "1/2"), mpc(1)],
                  [mpc("0.25", "0.5"), Fraction(1)]):
        ms = MomentSequence.from_seeds(pair, -1, seeds)
        ms.extend(-6, 6)
        assert all(isinstance(v, mpc) for v in ms.values.values())
        assert ms.values == want.values


def test_float_round_trip_tight():
    pair, seeds = _pair_m3()
    ms = MomentSequence.from_seeds(pair, -1, seeds)
    ms.extend(-10, 10)
    back = MomentSequence.from_seeds(pair, 9, [ms.w(9), ms.w(10)])
    back.extend(-1, 10)
    for k in (-1, 0):
        assert abs(back.w(k) - ms.w(k)) < mpf(1e-25) * max(abs(ms.w(k)), mpf(1))


def test_every_emitted_moment_satisfies_equation():
    pair, seeds = _pair_m3()
    ms = MomentSequence.from_seeds(pair, -1, seeds)
    ms.extend(-12, 12)
    assert ms.max_residual() < mpf(1e-35)


def test_seed_count_enforced():
    pair, _ = _pair_m3()
    with pytest.raises(ValueError, match="exactly 2 consecutive moments "
                       "free, got 1 seeds"):
        MomentSequence.from_seeds(pair, -1, [mpc(1)])
    with pytest.raises(ValueError, match="exactly 2 consecutive moments "
                       "free, got 3 seeds"):
        MomentSequence.from_seeds(pair, -1, [mpc(1), mpc(2), mpc(3)])


def test_backward_resonance_raises():
    # integer residue total puts the trailing pivot at zero at index m0
    w = build_weight([0, "1/2", 1], ["1/3", "1/3", "1/3"])
    pair = build_poly_pair(w)
    ms = MomentSequence.from_seeds(pair, 2, [mpc("0.4", "0.1"), mpc(1)])
    with pytest.raises(SingularStep):
        ms.extend(0, 3)     # stepping below k = m0 = 1 is resonant


# the standard cases' weights with dyadic seeds, which both routes hold
# exactly
DYADIC_SEEDS = {
    "m3": (standard_case_m3, [QC("5/16", "11/64"), QC(1)]),
    "m4": (standard_case_m4, [QC("13/64", "-7/64"), QC(1),
                              QC("13/32", "21/64")]),
}


@pytest.mark.parametrize("case", sorted(DYADIC_SEEDS))
def test_integer_row_steps_match_the_exact_recurrence(case):
    """Each float step is one exact dot product and one division, rounded
    once; over k = -8..14 the moments agree with the Gaussian-rational
    recurrence to 2^-(prec-8), relative, at the sequence's precision."""
    make, seeds = DYADIC_SEEDS[case]
    pair = build_poly_pair(make()[0])
    ms = MomentSequence.from_seeds(pair, -1, [s.to_mpc() for s in seeds])
    ex = MomentSequence.from_seeds(pair, -1, seeds)
    ms.extend(-8, 14)
    ex.extend(-8, 14)
    with working_precision(2 * ms.prec):
        for k in range(-8, 15):
            want = ex.values[k].to_mpc()
            assert abs(ms.values[k] - want) <= \
                mpf(2) ** (8 - ms.prec) * abs(want), k


def _floor_pair(delta: Fraction):
    """M = 2 at +-1/2 with rho_1 = rho_2 = 1 + delta/2: at j = 4 the row is
    (g_0, g_1, g_2) = (1, 0, delta), so the backward pivot g_2 sits at
    delta times the row's largest entry."""
    rho = str(1 + delta / 2)
    w = build_weight(["1/2", "-1/2"], [rho, rho], placement="general")
    return build_poly_pair(w)


def test_pivot_floor_is_an_exact_comparison():
    """Stepping down to w_2 puts the pivot g_2(4) = delta against the floor
    |g_2| <= BACKWARD_PIVOT_FLOOR max |g_k|, compared as exact squares: a
    pivot 2^-80 above the floor steps, one at or below it raises."""
    floor = Fraction(BACKWARD_PIVOT_FLOOR)
    for delta, steps in ((floor + Fraction(1, 2 ** 80), True),
                         (floor, False),
                         (floor - Fraction(1, 2 ** 80), False)):
        pair = _floor_pair(delta)
        row = recurrence_row(pair, 4)
        assert row == [QC(1), QC(0), QC(delta)]
        ms = MomentSequence.from_seeds(pair, 3, [mpc("0.3", "0.1"), mpc(1)])
        if steps:
            ms.extend(2, 4)
            assert ms.equation_residual(4) < mpf(2) ** (12 - ms.prec)
        else:
            with pytest.raises(SingularStep) as err:
                ms.extend(2, 4)
            assert err.value.index == 4 and err.value.factor == "g_2"


def test_non_finite_seed_refuses_to_step():
    pair, _ = _pair_m3()
    ms = MomentSequence.from_seeds(pair, -1, [mpc("inf"), mpc(1)])
    with pytest.raises(ValueError):
        ms.extend(-3, 3)


# -- quadrature ---------------------------------------------------------------

def test_quadrature_unit_weight():
    w = build_weight([0, "1/3", 1], [0, 0, 0], validate=False)
    assert abs(moment_quadrature(w, 0) - 1) < mpf(1e-30)
    assert abs(moment_quadrature(w, 1)) < mpf(1e-30)
    assert abs(moment_quadrature(w, -1)) < mpf(1e-30)


def test_quadrature_laurent_readoff():
    # w = 1 + z has exactly two nonzero coefficients
    w = build_weight([[-1, 0]], [[1, 0]], placement="general", validate=False)
    assert abs(moment_quadrature(w, 0) - 1) < mpf(1e-28)
    assert abs(moment_quadrature(w, 1) - 1) < mpf(1e-28)
    assert abs(moment_quadrature(w, -1)) < mpf(1e-28)
    assert abs(moment_quadrature(w, 2)) < mpf(1e-28)


def test_quadrature_vs_seeded_propagation():
    # single-valued canonical weight: 2(rho0 + rho_t) + rho_1 is an even integer
    w = build_weight([0, ["1/2", 0], 1], ["-7/12", "1/3", "1/2"])
    pair = build_poly_pair(w)
    quad = {k: moment_quadrature(w, k) for k in range(-1, 5)}
    ms = MomentSequence.from_seeds(pair, -1, [quad[-1], quad[0]])
    ms.extend(-1, 4)
    for k in range(1, 5):
        scale = max(abs(quad[k]), mpf(1))
        assert abs(quad[k] - ms.w(k)) / scale < mpf(1e-10)


# -- closed-form rational moments ---------------------------------------------

def test_rational_moments_satisfy_recurrence():
    w = build_weight([0, ["2/5", "1/5"], 1], [-3, -4, -5])
    pair = build_poly_pair(w)
    vals = rational_weight_moments(w, -6, 8)
    ms = MomentSequence(pair, dict(vals), provenance="rational")
    assert ms.max_residual() < mpf(1e-33)


def test_rational_moments_need_integer_poles():
    w = build_weight([0, "2/5", 1], ["1/3", "-1/2", "1/4"])
    with pytest.raises(ValueError):
        rational_weight_moments(w, 0, 1)


def _product_series(factors, nterms: int):
    """Taylor coefficients of prod (1 - x_i u)^(-q_i) up to u^(nterms-1).

    The product solves P' D = P S with D = prod (1 - x_i u) and
    S = sum_i q_i x_i prod_{j != i} (1 - x_j u): an order-len(factors)
    coefficient recurrence, in mpmath at the caller's precision.
    """
    D, S = [mpc(1)], [mpc(0)]
    for i, (x, q) in enumerate(factors):
        D = pmul(D, [mpc(1), -x])
        part = [mpc(q) * x]
        for j, (xj, _) in enumerate(factors):
            if j != i:
                part = pmul(part, [mpc(1), -xj])
        S = padd(S, part)
    p = [mpc(1)]
    for m in range(1, nterms):
        acc = mpc(0)
        for k in range(min(len(S), m)):
            acc += S[k] * p[m - 1 - k]
        for k in range(1, min(len(D), m + 1)):
            acc -= D[k] * (m - k) * p[m - k]
        p.append(acc / m)
    return p


def _series_moments(weight, kmin, kmax, nterms):
    """Annulus Laurent coefficients as a truncated product of two series.

    Reference route for the residue sums: the interior factors
    (z - z_j)^(-q_j) = z^(-q_j) (1 - z_j/z)^(-q_j) expand in 1/z, cut after
    nterms terms, and the factors on or outside the circle expand in z.
    """
    zs = weight.singularities_mpc()
    qs = [-int(r.re) for r in weight.residues]
    inside = [(z, q) for z, q in zip(zs, qs) if abs(z) < 1]
    outside = [(z, q) for z, q in zip(zs, qs) if abs(z) >= 1]
    A = sum(q for _, q in inside)
    P = _product_series([(z, q) for z, q in inside if z], nterms)
    Q = _product_series([(1 / z, q) for z, q in outside],
                        kmax + A + nterms + 1)
    const = mpc(1)
    for z, q in outside:
        const *= (-z) ** (-q)
    return {k: const * fsum(P[m] * Q[k + A + m] for m in range(nterms)
                            if k + A + m >= 0)
            for k in range(kmin, kmax + 1)}


def _series_reference(weight, kmin, kmax, prec=640):
    """The series route at prec bits, its truncation checked by 64 more
    terms."""
    with working_precision(prec):
        rmax = max((abs(z) for z in weight.singularities_mpc()
                    if 0 < abs(z) < 1), default=mpf("0.5"))
        nterms = int((prec + 60) / -log(rmax, 2)) + 32
        ref = _series_moments(weight, kmin, kmax, nterms)
        longer = _series_moments(weight, kmin, kmax, nterms + 64)
        for k in ref:
            assert abs(ref[k] - longer[k]) <= \
                mpf(2) ** (-prec + 16) * abs(ref[k])
        return ref


@pytest.mark.parametrize("case", sorted(RESIDUE_CASES))
def test_residue_sums_match_series_reference(case):
    """Each coefficient is exact to working precision, relative to itself.

    With the origin the only interior pole, w_k vanishes identically below
    -q_0; the residues then cancel to roundoff, which is measured against
    the largest coefficient of the window instead.
    """
    make, kmin, kmax = RESIDUE_CASES[case]
    w = make()
    ref = _series_reference(w, kmin, kmax)
    top = max(abs(v) for v in ref.values())
    for prec in (128, 256):
        with working_precision(prec):
            got = rational_weight_moments(w, kmin, kmax)
        assert sorted(got) == list(range(kmin, kmax + 1))
        with working_precision(640):
            for k, v in got.items():
                scale = abs(ref[k]) or top
                assert abs(v - ref[k]) <= mpf(2) ** (8 - prec) * scale, \
                    (prec, k)


@pytest.mark.parametrize("case", sorted(RESIDUE_CASES))
def test_residue_sums_skip_the_tail_bit_for_bit(case):
    """A range that stays above -sum q forms no series at infinity, and its
    moments equal those of a range that reaches below, which does."""
    make, _, kmax = RESIDUE_CASES[case]
    w = make()
    total = -sum(int(r.re) for r in w.residues)
    for prec in (128, 256):
        with working_precision(prec):
            long = rational_weight_moments(w, -total - 2, kmax)
            short = rational_weight_moments(w, -total + 1, kmax)
        assert short == {k: long[k] for k in short}
        assert all(v._mpc_ == long[k]._mpc_ for k, v in short.items())


@pytest.mark.parametrize("bits", [128, 256])
def test_rational_seeds_carry_the_sequence_precision(bits):
    """The seeds of a rational workspace are its moments to the sequence's
    precision (working + 96 bits), against the 800-bit series route."""
    w = rational_case_m4()
    with working_precision(bits):
        ms = rational_workspace(w).oracle.moments
        seeds = dict(ms.values)
    assert ms.prec == bits + 96 and sorted(ms.values) == [-1, 0, 1]
    ref = _series_reference(w, -1, 1, prec=800)
    with working_precision(800):
        for k, v in seeds.items():
            assert abs(v - ref[k]) <= mpf(2) ** (8 - ms.prec) * abs(ref[k]), k


# -- the generating polynomial and function -----------------------------------

def test_u_endpoints():
    pair, seeds = _pair_m3()
    ms = MomentSequence.from_seeds(pair, -1, seeds)
    U = build_U(ms)
    N = pair.N
    m = pair.m_mpc()
    w0 = ms.w(0)
    assert abs(U.u[N + 1] - w0 * m[0]) < mpf(1e-35)
    assert abs(U.u[0] - (-1) ** N * w0 * m[N + 1]) < mpf(1e-35)


def test_u_interior_reduces_without_residues():
    w = build_weight([0, "1/3", 1], [0, 0, 0], validate=False)
    pair = build_poly_pair(w)
    ms = MomentSequence.from_seeds(pair, -1, [mpc(0), mpc(1)])
    U = build_U(ms)
    e = pair.e_mpc()
    N = pair.N
    # with 2V = 0 only the pure moment sum survives; delta moments kill all
    # terms except l = j
    for j in range(1, N + 1):
        want = 2 * (-1) ** (N + 1 - j) * \
            ((j - j) * e[N + 1 - j]) * mpc(1)
        assert abs(U.u[j] - want) < mpf(1e-35)


def test_u_closed_form_vs_series():
    pair, seeds = _pair_m3()
    ms = MomentSequence.from_seeds(pair, -1, seeds)
    U1 = build_U(ms)
    U2 = u_from_series(ms)
    for a, b in zip(U1.u, U2.u):
        assert abs(a - b) < mpf(1e-35)


def test_caratheodory_ode_residual():
    pair, seeds = _pair_m3()
    ms = MomentSequence.from_seeds(pair, -1, seeds)
    U = build_U(ms)
    res = caratheodory_ode_residual(ms, U, mpc("0.1", "0.05"))
    assert res < mpf(1e-30)
    # and at a handful of random-ish interior points
    for k in range(10):
        z = mpc("0.12", "0.03") * (k + 1) / 11
        assert caratheodory_ode_residual(ms, U, z) < mpf(1e-28)


def test_series_convention_pinned_by_level_zero_normalisation():
    """F carries the positively indexed moments; the level-zero associated
    function must lead with coefficient one."""
    pair, seeds = _pair_m3()
    ms = MomentSequence.from_seeds(pair, -1, seeds)
    F = caratheodory_series(ms, 6)
    assert abs(F[1] - 2 * ms.w(1)) == 0
    from circlebops.bops import ToeplitzOracle
    o = ToeplitzOracle(ms)
    lev0 = o.level(0)
    eps0 = o.eps_series(0, 4)
    # (kappa_0/2) eps_0 = 1 + (w_1/w_0) z + ... from kappa_0 [w_0 + F]
    lead = lev0.kappa / 2 * eps0.coeff(0)
    nxt = lev0.kappa / 2 * eps0.coeff(1)
    assert abs(lead - 1) < mpf(1e-35)
    assert abs(nxt - ms.w(1) / ms.w(0)) < mpf(1e-35)


def test_quadrature_nonconvergent_when_starved(monkeypatch):
    from circlebops import moments
    from circlebops.errors import NonConvergent
    # smooth weight -> trapezoid branch; one refinement level cannot certify
    w = build_weight([[2, 0]], [["1/2", 0]], placement="general",
                     validate=False)
    monkeypatch.setattr(moments, "QUADRATURE_MAX_LEVEL", 1)
    with pytest.raises(NonConvergent):
        moment_quadrature(w, 3)
