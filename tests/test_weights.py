"""Weight validation, exact polynomial expansion, circle evaluation."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from conftest import (RESIDUE_CASES, rational_case_m4, standard_case_m4,
                      standard_case_m5)
from circlebops.deform import shifted_weight
from circlebops.errors import ConfigInvalid
from circlebops.exact import QC
from circlebops.plan import Plan
from circlebops.polys import pdiff, peval, pmul
from circlebops.weights import (build_poly_pair, build_weight,
                                eval_weight_on_circle,
                                residue_identity_defect,
                                single_valuedness_defect, weight_on_circle,
                                winding_phase)


def test_valid_m3_case():
    w = build_weight([0, "1/2", 1], ["1/3", "-1/2", "1/4"])
    assert w.M == 3 and w.N == 1
    assert w.placement == "canonical"


def test_duplicate_singularity_rejected():
    with pytest.raises(ConfigInvalid, match="singularities 1 and 2 coincide"):
        build_weight([0, "1/2", "1/2"], ["1/3", "-1/2", "1/4"])


def test_nonnegative_integer_residue_rejected():
    with pytest.raises(ConfigInvalid,
                       match="residue 0 = 2 is a nonnegative integer"):
        build_weight([0, "1/3", 1], [2, "-1/2", "1/4"])
    with pytest.raises(ConfigInvalid,
                       match="residue 1 = 0 is a nonnegative integer"):
        build_weight([0, "1/3", 1], ["1/2", 0, "1/4"])


def test_canonical_placement_enforced():
    with pytest.raises(ConfigInvalid, match="needs z_0 = 0"):
        build_weight(["1/9", "1/3", 1], ["1/2", "-1/2", "1/4"])
    with pytest.raises(ConfigInvalid, match="needs z_last = 1"):
        build_weight([0, "1/3", "7/8"], ["1/2", "-1/2", "1/4"])
    # fine in general placement
    build_weight(["1/9", "1/3", "7/8"], ["1/2", "-1/2", "1/4"],
                 placement="general")


def test_m3_poly_pair_displayed_form():
    # W = z(z-t)(z-1), 2V = m0 z^2 - m1 z + m2
    t = Fraction(2, 5)
    w = build_weight([0, str(t), 1], ["1/3", "-1/2", "1/4"])
    pair = build_poly_pair(w)
    assert [c.re for c in pair.W] == [0, t, -(1 + t), 1]
    assert pair.e[0].re == 1 and pair.e[1].re == 1 + t
    assert pair.e[2].re == t and pair.e[3].is_zero()
    m0 = Fraction(1, 3) - Fraction(1, 2) + Fraction(1, 4)
    assert pair.m[0].re == m0
    # trailing coefficient ties to the origin residue
    assert pair.m[2] == QC(Fraction(1, 3)) * pair.e[2]


def test_m4_poly_pair_displayed_form():
    # W = z(z-1)(z-s)(z-t): e4 = 0, m0 = sum of residues
    w = build_weight([0, "1/4", "2/3", 1], ["1/5", "-1/3", "1/7", "-3/4"])
    pair = build_poly_pair(w)
    assert pair.e[4].is_zero()
    m0 = Fraction(1, 5) - Fraction(1, 3) + Fraction(1, 7) - Fraction(3, 4)
    assert pair.m[0].re == m0
    # 2V(z_j) = rho_j W'(z_j) exactly at every singularity
    for j in range(4):
        assert residue_identity_defect(pair, j).is_zero()


def test_mpc_images_follow_the_working_precision():
    w = build_weight([0, ["1/4", "1/3"], "-3/5", 1],
                     ["-2/7", "1/5", ["1/3", "1/9"], "1/2"])
    pair = build_poly_pair(w)
    for bits in (128, 192, 128):
        with mp.workprec(bits):
            for exact, image in ((pair.W, pair.W_mpc()),
                                 (pair.V2, pair.V2_mpc()),
                                 (pair.e, pair.e_mpc()),
                                 (pair.m, pair.m_mpc())):
                assert image == [c.to_mpc() for c in exact]
                image[0] = None                      # a fresh list per call
    with mp.workprec(64):
        low = pair.V2_mpc()
    with mp.workprec(256):
        high = pair.V2_mpc()
    assert low != high                               # 1/5 is not dyadic
    assert pair == build_poly_pair(w)
    assert hash(pair) == hash(build_poly_pair(w))


def test_residue_identity_at_origin_two_point():
    w = build_weight([0, 1], ["1/3", "-2/5"])
    pair = build_poly_pair(w)
    v20 = peval(list(pair.V2), QC(0))
    wp0 = peval(pdiff(list(pair.W)), QC(0))
    assert v20 == QC(Fraction(1, 3)) * wp0


def test_residue_identity_floating_ulp():
    w = build_weight([0, ["2/7", "1/9"], 1], ["1/3", "-1/2", "1/4"])
    pair = build_poly_pair(w)
    W, V2 = pair.W_mpc(), pair.V2_mpc()
    for z, rho in zip(w.singularities_mpc(), w.residues_mpc()):
        lhs = peval(V2, z)
        rhs = rho * peval(pdiff(W), z)
        assert abs(lhs - rhs) < 10 * mpf(2) ** (-mp.prec) * max(abs(rhs), 1)


@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 9)),
                min_size=2, max_size=4, unique=True))
@settings(max_examples=30, deadline=None)
def test_rebuild_from_symmetric_functions(points):
    zs = [QC(Fraction(a, 7), Fraction(b, 11)) for a, b in points]
    if len({(z.re, z.im) for z in zs}) != len(zs):
        return
    w = build_weight(zs, [QC(Fraction(1, 3))] * len(zs), placement="general",
                     validate=False)
    pair = build_poly_pair(w)
    M = len(zs)
    rebuilt = [(QC(-1) ** (M - l)) * pair.e[M - l] for l in range(M + 1)]
    direct = [QC(1)]
    for z in zs:
        direct = pmul(direct, [-z, QC(1)])
    direct = [c if isinstance(c, QC) else QC(c) for c in direct]
    assert rebuilt == direct


def _expanded_pair(weight):
    """W, 2V, e and m by products alone, O(M^3): 2V = sum_j rho_j
    prod_{k != j} (z - z_k), each product rebuilt from its factors."""
    zs, M = weight.singularities, weight.M
    W = [QC(1)]
    for z in zs:
        W = pmul(W, [-z, QC(1)])
    V2 = [QC(0)] * M
    for j, rho in enumerate(weight.residues):
        part = [QC(1)]
        for k, zk in enumerate(zs):
            if k != j:
                part = pmul(part, [-zk, QC(1)])
        V2 = [a + rho * b for a, b in zip(V2, part)]
    W = [QC(0) + c for c in W]
    e = tuple((QC(-1) ** l) * W[M - l] for l in range(M + 1))
    m = tuple((QC(-1) ** l) * V2[M - 1 - l] for l in range(M))
    return tuple(W), tuple(V2), e, m


def _stencil_weight():
    """The M = 4 rational weight with z_1 moved by the flow radius."""
    return shifted_weight(rational_case_m4(),
                          {1: QC(Plan.of(mp.prec).flow_radius)})


def _complex_stencil_weight(case):
    """A weight with complex residues, its first free point moved by the
    flow radius along 1 + i."""
    h = Plan.of(mp.prec).flow_radius
    return lambda: shifted_weight(case()[0], {1: QC(h, h)})


PAIR_CASES = {**{name: make for name, (make, _, _) in RESIDUE_CASES.items()},
              "stencil": _stencil_weight,
              "stencil-complex-m4": _complex_stencil_weight(standard_case_m4),
              "stencil-complex-m5": _complex_stencil_weight(standard_case_m5)}


@pytest.mark.parametrize("case", sorted(PAIR_CASES))
def test_poly_pair_by_synthetic_division_equals_the_product_expansion(case):
    """2V = sum_j rho_j W/(z - z_j) with each quotient by exact integer
    synthetic division on one denominator is the product expansion,
    coefficient for coefficient, and satisfies 2V(z_j) = rho_j W'(z_j)
    exactly at every singularity."""
    w = PAIR_CASES[case]()
    pair = build_poly_pair(w)
    assert (pair.W, pair.V2, pair.e, pair.m) == _expanded_pair(w)
    assert all(isinstance(c, QC) for c in pair.W + pair.V2 + pair.e + pair.m)
    for j in range(w.M):
        assert residue_identity_defect(pair, j).is_zero()


# -- circle evaluation -------------------------------------------------------

def test_unit_weight_on_circle():
    w = build_weight([0, "1/3", 1], [0, 0, 0], validate=False)
    assert abs(weight_on_circle(w, mpf(1)) - 1) == 0
    assert single_valuedness_defect(w) == 0


def test_polynomial_factor_no_branch():
    w = build_weight([[2, 0]], [[1, 0]], placement="general", validate=False)
    assert abs(weight_on_circle(w, mpf(0)) + 1) < mpf(2) ** -120


def test_continuous_tracking_against_grid_oracle():
    """Pointwise closed-form unwinding vs stepwise continuation on a grid."""
    w = build_weight([0, ["1/2", "1/4"], ["6/5", "-1/2"], 1],
                     ["-7/12", "1/3", "2/7", "1/2"], validate=False)
    npts = 400
    prev_args = None
    worst = mpf(0)
    for i in range(1, npts):
        theta = mpf(2) * mp.pi * i / npts
        val = weight_on_circle(w, theta)
        # stepwise oracle: accumulate arguments factor by factor
        args = []
        total = mpc(0)
        for z, rho in zip(w.singularities_mpc(), w.residues_mpc()):
            if z == 0:
                a = theta
            else:
                u = mpmath.exp(mpc(0, 1) * theta) - z
                a = mpmath.arg(u)
                if prev_args is not None:
                    k = mpmath.nint((prev_args[len(args)] - a) / (2 * mp.pi))
                    a += 2 * mp.pi * k
                total = total
            args.append(a)
            if z == 0:
                total += rho * mpc(0, 1) * a
            else:
                u = mpmath.exp(mpc(0, 1) * theta) - z
                total += rho * (mpmath.log(abs(u)) + mpc(0, 1) * a)
        prev_args = args
        oracle = mpmath.exp(total)
        worst = max(worst, abs(val - oracle) / max(abs(oracle), mpf(1)))
    assert worst < mpf(1e-30)


def test_winding_defect_matches_interior_residue_sum():
    # only strictly interior residues wind; circle points are W-shielded
    w = build_weight([0, ["1/2", "1/4"], 1], ["-7/12", "1/5", "1/2"])
    rho = w.residues_mpc()
    expect = mpmath.exp(mpc(0, 1) * 2 * mp.pi * (rho[0] + rho[1]))
    assert abs(winding_phase(w) - expect) < mpf(1e-30)
    defect = single_valuedness_defect(w)
    assert abs(defect - abs(expect - 1)) < mpf(1e-30)
    assert defect > mpf("0.1")


def test_single_valued_family_accepted():
    # interior windings close up: rho_0 + rho_t integral
    w = build_weight([0, ["1/2", 0], 1], ["-1/3", "1/3", "1/4"])
    assert single_valuedness_defect(w) < mpf(1e-30)
    val = eval_weight_on_circle(w, mpf("0.7"))
    assert mpmath.isfinite(val)


def test_non_integrable_circle_residue_rejected():
    w = build_weight([0, ["1/2", 0], 1], ["-7/12", "1/3", ["-3/2", 0]],
                     validate=False)
    with pytest.raises(ConfigInvalid, match="circle singularity with Re rho "
                       "<= -1 is not integrable"):
        eval_weight_on_circle(w, mpf("0.5"))
