"""The three residual measures of ``report``."""

import pytest
from mpmath import mp, mpc, mpf

from circlebops.mputil import working_precision
from circlebops.report import rel_error, rel_residual, vector_residual


def test_first_term_is_not_rounded():
    """A 176-bit a minus a 128-bit b, measured at 128 bits, is exactly
    |a - b| over the scale; summing from 0 would round a to b first."""
    with working_precision(176):
        a = mpc(1) / 3
    with working_precision(128):
        b = mpc(1) / 3
        assert mp.prec == 128
        want = abs(a - b) / max(abs(a), abs(b))
        assert want > 0
        assert abs(sum([a, -b])) == 0          # plain sum() loses it
        assert rel_residual([a, -b]) == want


def test_vector_residual_keeps_the_first_vectors_guard_bits():
    """Position by position, as in rel_residual: a 176-bit a against a
    128-bit b leaves exactly |a - b|, where summing from 0 leaves 0."""
    with working_precision(176):
        a = mpc(1) / 3
    with working_precision(128):
        b = mpc(1) / 3
        assert abs(sum([a, -b])) == 0          # plain sum() loses it
        assert abs(a - b) > 0
        assert vector_residual([[a, mpc(2)], [-b, mpc(-2)]]) == \
            abs(a - b) / 2
        assert vector_residual([[a], [-b]]) == abs(a - b) / abs(a)


@pytest.mark.parametrize("floor, want", [
    (0, "0.5"), (1e-30, "0.5"), (1e-40, "0.5"), (1, "0.5e-10")])
def test_rel_residual_floors(floor, want):
    with working_precision(128):
        # 0.5e-10 is exactly half of 1e-10 in binary, so every value is exact
        got = rel_residual([mpf("1e-10"), mpf("-0.5e-10")], floor)
        assert got == mpf(want)


def test_zero_scale_gives_zero():
    with working_precision(128):
        assert rel_residual([mpc(0), mpc(0)]) == 0
        assert rel_residual([]) == 0
        assert vector_residual([[mpc(0)], [0, mpc(0)]]) == 0
        assert vector_residual([]) == 0
        assert rel_error(mpc(0), mpc(0)) == 0
        assert rel_error([mpc(0)], [mpc(0)]) == 0
        assert rel_error(mpc(1), mpc(0)) == mpf("inf")
        assert rel_error(mpc(1), mpc(0), 1) == 1


def test_vector_residual_unequal_lengths_and_floor():
    with working_precision(128):
        # positions 0, 1 cancel; position 2 is left over against scale 4
        assert vector_residual([[4, 2, 1], [-4, -2]]) == mpf("0.25")
        assert vector_residual([[1, 2], [-1, -2, mpf("0.25")]]) == \
            mpf("0.125")
        small = [[mpf("1e-10")], [mpf("-0.5e-10")]]
        assert vector_residual(small) == mpf("0.5")
        assert vector_residual(small, 1) == mpf("0.5e-10")


def test_rel_error_scales_by_want_only():
    with working_precision(128):
        assert rel_error(mpf(3), mpf(1)) == 2
        assert rel_error(mpf(1), mpf(3)) == mpf(2) / 3
        assert rel_error(mpf("1e-5"), mpf("2e-5"), 1) == mpf("1e-5")
        # worst difference over the largest |want|
        assert rel_error([mpf(1), mpf(10)], [mpf(2), mpf(4)]) == mpf("1.5")
        with pytest.raises(ValueError):
            rel_error([mpf(1)], [mpf(1), mpf(2)])
