"""Exact Gaussian-rational arithmetic and determinant micro-oracles."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import (from_int, from_man_exp, from_rational, mpf_div,
                          round_nearest)

from circlebops.exact import QC, det_cofactor, round_mantissa, round_rational
from circlebops.mputil import lu_det, working_precision

small = st.integers(min_value=-6, max_value=6)


def qc_mat(vals, n):
    it = iter(vals)
    return [[QC(Fraction(next(it), 3), Fraction(next(it), 4))
             for _ in range(n)] for _ in range(n)]


def test_field_operations():
    a = QC("3/8", "-1/2")
    b = QC(2, "1/3")
    assert a + b == QC(Fraction(19, 8), Fraction(-1, 6))
    assert a * b - b * a == QC(0)
    assert (a / b) * b == a
    assert a ** 3 == a * a * a
    assert a ** -2 == QC(1) / (a * a)
    assert not a - a


def test_to_mpc_matches_parts():
    z = QC("3/7", "-2/5").to_mpc()
    assert abs(z.real - mpf(3) / 7) < mpf(2) ** -120
    assert abs(z.imag + mpf(2) / 5) < mpf(2) ** -120


@given(st.lists(small, min_size=18, max_size=18))
@settings(max_examples=25, deadline=None)
def test_exact_determinant_vs_lu(vals):
    m = qc_mat(vals, 3)
    exact = det_cofactor(m).to_mpc()
    approx = lu_det([[c.to_mpc() for c in row] for row in m])
    assert abs(exact - approx) <= mpf(2) ** -100 * max(abs(exact), mpf(1))


def test_singular_matrix_detected():
    row = [QC(1), QC(2)]
    assert not det_cofactor([row, row])


def _exact(x: mpf) -> Fraction:
    _, man, exp, _ = x._mpf_
    return Fraction(-man if x < 0 else man) * Fraction(2) ** exp


def _is_nearest(x: mpf, v: Fraction, prec: int) -> bool:
    """x is v rounded to nearest at prec bits: x has at most prec bits and
    lies within half a unit in the last place of v's binade."""
    if not v:
        return x == 0
    _, man, _, bc = x._mpf_
    top = abs(v.numerator).bit_length() - v.denominator.bit_length()
    top += abs(v) >= Fraction(2) ** top            # 2^(top-1) <= |v| < 2^top
    return bc <= prec and \
        abs(_exact(x) - v) <= Fraction(2) ** (top - prec - 1)


# numerators of every size, with many too long for the precision, where one
# rounding and mpf(p) / q (two roundings) part
numerators = st.integers(-2 ** 700, 2 ** 700) | \
    st.builds(lambda top, low, sign: sign * (2 ** top + low),
              st.integers(260, 700), st.integers(0, 2 ** 259),
              st.sampled_from([-1, 1]))
denominators = st.integers(min_value=1, max_value=2 ** 400)


@given(numerators, denominators, numerators, denominators,
       st.sampled_from([53, 128, 256]))
@settings(max_examples=200, deadline=None)
def test_to_mpc_is_correctly_rounded(p1, q1, p2, q2, prec):
    """Each part is the exact quotient rounded once, to nearest, which is
    ``libmp.from_rational``'s value; with a numerator that fits in prec
    bits it is also mpf(p) / q."""
    z = QC(Fraction(p1, q1), Fraction(p2, q2))
    with working_precision(prec):
        got = z.to_mpc()
        for part, v in ((got.real, z.re), (got.imag, z.im)):
            assert _is_nearest(part, v, prec), (v, prec)
            assert part._mpf_ == from_rational(v.numerator, v.denominator,
                                               prec, round_nearest)
            if abs(v.numerator).bit_length() <= prec:
                assert part == mpf(v.numerator) / v.denominator


@st.composite
def mantissas(draw):
    """(v, prec): zero, mantissas of at most prec bits and of up to four
    times prec, exact ties at every shift (the half bit of the rounding
    position set, every bit below it clear) and values one set bit above a
    tie, with trailing zeros and a sign; prec from 53 to 1024."""
    prec = draw(st.integers(53, 1024))
    kind = draw(st.sampled_from(["zero", "short", "long", "tie", "above"]))
    if kind == "zero":
        return 0, prec
    if kind == "short":
        v = draw(st.integers(1, 2 ** prec - 1))
    elif kind == "long":
        v = draw(st.integers(2 ** prec, 2 ** (4 * prec + 64)))
    else:
        shift = draw(st.integers(2, 3 * prec))
        v = draw(st.integers(2 ** (prec - 1), 2 ** prec - 1)) << shift | \
            1 << (shift - 1)
        if kind == "above":         # one set bit below the half bit
            v |= 1 << draw(st.integers(0, shift - 2))
    v <<= draw(st.integers(0, 80))
    return draw(st.sampled_from([-1, 1])) * v, prec


@given(mantissas(), st.integers(-4000, 4000))
@example((2 ** 54 - 1, 53), 0)          # rounds up to a power of two
@example((1 << 55 | 1 << 1, 53), 0)     # a tie at shift 2
@example((3 << 52 | 1, 53), -7)         # a tie below an odd mantissa
@example((-(2 << 52 | 1), 53), 5)       # a tie below an even one
@settings(max_examples=1000, deadline=None)
def test_round_mantissa_is_from_man_exp_bit_for_bit(case, e):
    """The one rounding helper returns the raw mpf of
    ``from_man_exp(v, e, prec, round_nearest)``, sign, mantissa, exponent
    and bit count."""
    v, prec = case
    assert round_mantissa(v, e, prec) == \
        from_man_exp(v, e, prec, round_nearest)


@given(mantissas(), st.integers(1, 2 ** 400) |
       st.builds(lambda k: 2 ** k, st.integers(0, 400)),
       st.integers(-4000, 4000), st.booleans())
@settings(max_examples=500, deadline=None)
def test_round_rational_is_the_quotient_of_mpf_div_bit_for_bit(
        case, den, lo, exact):
    """The moment recurrence's once-rounded quotient N 2^lo / den equals
    ``mpf_div(from_man_exp(N, lo), from_int(den), prec, round_nearest)``;
    with N a multiple of den the quotient is exact, ties included."""
    num, prec = case
    if exact:
        num *= den
    assert round_rational(num, den, prec, lo) == \
        mpf_div(from_man_exp(num, lo), from_int(den), prec, round_nearest)
