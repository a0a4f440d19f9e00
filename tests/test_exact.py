"""Exact Gaussian-rational arithmetic and determinant micro-oracles."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from circlebops.exact import QC, det_cofactor, qc
from circlebops.mputil import lu_det

small = st.integers(min_value=-6, max_value=6)


def qc_mat(vals, n):
    it = iter(vals)
    return [[QC(Fraction(next(it), 3), Fraction(next(it), 4))
             for _ in range(n)] for _ in range(n)]


def test_field_operations():
    a = qc("3/8", "-1/2")
    b = qc(2, "1/3")
    assert a + b == qc(Fraction(19, 8), Fraction(-1, 6))
    assert a * b - b * a == QC(0)
    assert (a / b) * b == a
    assert a ** 3 == a * a * a
    assert a ** -2 == QC(1) / (a * a)
    assert (a - a).is_zero()
    assert a.conjugate().im == Fraction(1, 2)


def test_to_mpc_matches_parts():
    z = qc("3/7", "-2/5").to_mpc()
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
    row = [qc(1), qc(2)]
    assert det_cofactor([row, row]).is_zero()
