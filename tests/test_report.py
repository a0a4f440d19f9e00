"""The three residual measures of ``report``."""

from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_float, from_int

from conftest import make_workspace, standard_case_m3
from circlebops import spectral
from circlebops.mputil import working_precision
from circlebops.report import (NOTES, CheckResult, Grid, judge, largest_abs,
                               ratio, rel_error, rel_residual, vector_residual)
from circlebops.suites import judge_rows, summation_checks


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


# -- scales by exact squared magnitudes --------------------------------------

def _old_scale(terms):
    return max((abs(t) for t in terms), default=mpf(0))


def _bits(x):
    """The exact binary value of a result, whatever its type."""
    if isinstance(x, mpf):
        return x._mpf_
    return from_float(x) if isinstance(x, float) else from_int(x)


@st.composite
def _scalars(draw):
    """mpc, mpf or int, the mp types rounded at 128 or 176 bits, with
    zero parts and exponents far apart."""
    kind = draw(st.sampled_from(("mpc", "mpc", "mpf", "int", "zero")))
    if kind == "int":
        return draw(st.integers(-2 ** 70, 2 ** 70))
    if kind == "zero":
        return draw(st.sampled_from((0, mpf(0), mpc(0))))
    parts = draw(st.lists(st.tuples(st.integers(-2 ** 200, 2 ** 200),
                                    st.integers(-260, 60)),
                          min_size=2, max_size=2))
    with working_precision(draw(st.sampled_from((128, 176)))):
        re, im = (mpf(m) * mpf(2) ** e for m, e in parts)
        return re if kind == "mpf" else mpc(re, im)


def _straddle(x, k):
    """A real b just above the midpoint between x and the next 128-bit
    number, and c = b + i b 2^-k: |c|^2 > b^2, yet abs(c) often rounds below
    abs(b), because mpf_hypot truncates the square to prec + 4 bits first."""
    _, _, exp, bc = x._mpf_
    b = (x + mpf(2) ** (exp + bc - 129)) * (1 + mpf(2) ** -150)
    return [b, mpc(b, b * mpf(2) ** -k)]


@st.composite
def _term_lists(draw):
    """Scalars plus exact ties (negated, conjugated, swapped, turned by i)
    and near-ties (relative nudges near 2^-128, a complex term against its
    modulus, a pair whose exact squares and abs() disagree in order) of
    some of them."""
    terms = draw(st.lists(_scalars(), max_size=6))
    for t in list(terms):
        how = draw(st.sampled_from(("none", "neg", "conj", "swap", "i",
                                    "nudge", "modulus", "straddle")))
        if how == "none" or isinstance(t, int) or not t:
            continue
        t = mpc(t)
        with working_precision(128):
            modulus = abs(t)
        with working_precision(176):
            if how == "nudge":
                k = draw(st.integers(120, 180))
                new = [t * (1 + draw(st.sampled_from((1, -1))) * mpf(2) ** -k)]
            elif how == "modulus":
                new = [abs(t)]
            elif how == "straddle":
                new = draw(st.permutations(
                    _straddle(modulus, draw(st.integers(66, 80)))))
            else:
                new = [{"neg": -t, "conj": t.conjugate(),
                        "swap": mpc(t.imag, t.real), "i": t * 1j}[how]]
        for x in new:
            terms.insert(draw(st.integers(0, len(terms))), x)
    return terms


@settings(max_examples=400, deadline=None)
@given(_term_lists())
def test_scales_equal_the_largest_abs_bit_for_bit(terms):
    """largest_abs, the custom scales' helper, is max(abs(t) for t in
    terms) bit for bit."""
    with working_precision(128):
        assert _bits(largest_abs(terms)) == _bits(_old_scale(terms))


# -- the measures are the exact value, rounded once ---------------------------

CAP = 2 * 128 + 64          # the grid cap at the 128-bit measures below


@st.composite
def _window_scalars(draw):
    """mpc, mpf or int, the mp types rounded at 128 or 176 bits, with top
    bits anywhere in [-60, 60]: far apart, yet every part of every term
    lies within the 128-bit grid cap of the largest."""
    kind = draw(st.sampled_from(("mpc", "mpc", "mpf", "int", "zero")))
    if kind == "int":
        return draw(st.integers(-2 ** 70, 2 ** 70))
    if kind == "zero":
        return draw(st.sampled_from((0, mpf(0), mpc(0))))
    parts = []
    for _ in range(2):
        man = draw(st.integers(-2 ** 200, 2 ** 200))
        top = draw(st.integers(-60, 60))
        parts.append(mpf(man) * mpf(2) ** (top - abs(man).bit_length()))
    with working_precision(draw(st.sampled_from((128, 176)))):
        re, im = (+x for x in parts)
        return re if kind == "mpf" else mpc(re, im)


@st.composite
def _window_terms(draw):
    """Window scalars plus exact ties (negated, conjugated, swapped, turned
    by i) of some of them, which make sums cancel."""
    terms = draw(st.lists(_window_scalars(), max_size=7))
    for t in list(terms):
        how = draw(st.sampled_from(("none", "none", "neg", "conj", "i")))
        if how != "none" and not isinstance(t, int):
            t = mpc(t)
            tie = {"neg": -t, "conj": t.conjugate(), "i": t * 1j}[how]
            terms.insert(draw(st.integers(0, len(terms))), tie)
    return terms


def _spread(terms) -> int:
    """Top bit of the largest part minus the lowest bit of any part."""
    bits = [(e, e + bc) for t in terms for _, man, e, bc in
            (mpc(t)._mpc_ if not isinstance(t, int) else
             (from_int(t), from_int(0))) if man]
    return max(t for _, t in bits) - min(e for e, _ in bits) if bits else 0


def _rounded_once(make):
    """The values of make() at 4000 bits, where every sum and product of
    the terms is exact and each square root lies far closer than 2^-3000 to
    the true value, each rounded to nearest at 128 bits."""
    with working_precision(4000):
        values = make()
    with working_precision(128):
        return [+v for v in values]


def _exact_measure(errs, scales, floor):
    """max|err| / max(max|scale|, floor) at 4000 bits."""
    scale = max([abs(mpc(s)) for s in scales] + [abs(mpf(floor))])
    err = max([abs(mpc(e)) for e in errs], default=mpf(0))
    if not err:
        return mpf(0)
    return err / scale if scale else mpf("inf")


_FLOORS = st.sampled_from((0, 1, 1e-30, 1e-40, mpf(2) ** -70))


@settings(max_examples=300, deadline=None)
@given(_window_terms(), _FLOORS, st.integers(1, 3),
       st.integers(-2 ** 20, 2 ** 20))
def test_measures_are_the_exact_value_rounded_once(terms, floor, cut, mult):
    """rel_residual, vector_residual (with unequal lengths and a multiplier
    product) and rel_error, at 128 bits, equal the exact value computed at
    4000 bits and rounded once, bit for bit."""
    vectors = [terms[k::cut] for k in range(cut)]
    half = len(terms) // 2
    got_list, want_list = terms[:half], terms[half:2 * half]
    assert _spread(terms + [t * mult for t in terms]) <= CAP
    with working_precision(128):
        got = [rel_residual(terms, floor),
               vector_residual(vectors, floor),
               vector_residual([(mult, vectors[0])] + vectors[1:], floor),
               rel_error(got_list, want_list, floor)]
        if half:
            got.append(rel_error(got_list[0], want_list[0], floor))

    def columns(vecs):
        return [sum(col) for col in zip_longest(*vecs, fillvalue=0)]

    def expected():
        scaled = [[mult * t for t in vectors[0]]] + vectors[1:]
        out = [_exact_measure([sum(terms, mpc(0))], terms, floor),
               _exact_measure(columns(vectors), terms, floor),
               _exact_measure(columns(scaled),
                              [t for v in scaled for t in v], floor),
               _exact_measure([g - w for g, w in zip(got_list, want_list)],
                              want_list, floor)]
        if half:
            out.append(_exact_measure([got_list[0] - want_list[0]],
                                      [want_list[0]], floor))
        return out
    want = _rounded_once(expected)
    for g, w in zip(got, want):
        assert _bits(g) == _bits(w)


def test_non_finite_terms_fail_their_check(monkeypatch):
    with working_precision(128):
        for bad in (mpf("nan"), mpf("inf"), mpc(1, mpf("-inf"))):
            for resid in (rel_residual([mpc(1), bad]),
                          vector_residual([[mpc(1)], [0, bad]]),
                          vector_residual([(bad, [mpc(1)]), [mpc(-1)]]),
                          rel_error(bad, mpc(1)), rel_error([mpc(1)], [bad]),
                          largest_abs([mpc(1), bad]),
                          ratio(mpf(1), largest_abs([mpc(1), bad])),
                          ratio(abs(bad), mpf(1))):
                assert resid == mpf("inf")
                assert not CheckResult("x", resid, 1e-20).passed
        # a non-finite piece of a polynomial identity (2ODE:a) gives an
        # infinite residual; under a custom scale (Tform:b) the scale is
        # infinite too, and inf/inf = nan must not pass as a residual
        ws = make_workspace(*standard_case_m3())
        table = spectral.SpectralWorkspace
        grid, at = table.grid, table.at
        # V' makes one p2-piece of each scalar ODE non-finite
        monkeypatch.setattr(table, "grid", lambda ws, f:
                            Grid.nonfinite(2) if f == "dV" else grid(ws, f))
        monkeypatch.setattr(table, "at", lambda ws, f, z:
                            mpf("inf") if f == "V" else at(ws, f, z))
        for checks, label in (
                (judge(spectral.scalar_ode_residuals(ws, 2), 1e-25, 2),
                 "2ODE:a"),
                (judge(spectral.check_transitions(ws, 2, 23), 1e-25, 2),
                 "Tform:b")):
            got, = [r for r in checks if r.label == label]
            assert got.residual == mpf("inf")
            assert not got.passed


def test_judge_keeps_the_order_in_which_labels_first_appear():
    got = judge([("b", mpf(1)), ("a", mpf(3)), ("b", mpf(5)), ("c", mpf(0)),
                 ("a", mpf(2))], mpf(4), 7)
    assert [c.label for c in got] == ["b", "a", "c"]
    assert all(c.n == 7 and c.tol == 4 for c in got)


def test_judge_gives_each_check_the_largest_residual_of_its_family():
    got = judge([("b", mpf(1)), ("a", mpf(3)), ("b", mpf(5)), ("c", mpf(0)),
                 ("a", mpf(2)), ("b", mpf(2))], mpf(4))
    assert [(c.residual, c.passed) for c in got] == [
        (5, False), (3, True), (0, True)]
    assert all(c.n is None for c in got)


def test_judge_attaches_the_note_of_the_label():
    pf, other = judge([("An:pf", mpf(0)), ("rrCf:a", mpf(0))], mpf(1), 2)
    assert pf.note == NOTES["An:pf"] == "partial-fraction reconstruction"
    assert other.note == ""


@pytest.mark.parametrize("first", [mpf("inf"), mpf("nan")])
def test_a_family_whose_first_evaluation_is_not_finite_fails(first):
    """The fold starts from the first evaluation, not from 0, so a lone
    non-finite residual, or one that a later finite one follows, fails."""
    for rest in ([], [mpf(0)], [mpf(1e-30), mpf(0)]):
        got, = judge([("x", first)] + [("x", r) for r in rest], mpf(1e-20))
        assert not got.passed and not got.residual < got.tol


def test_one_planted_evaluation_fails_its_family_through_the_suite(
        monkeypatch):
    """A single Ssum:e evaluation in the middle of its family, made wrong,
    fails that family's check at every level with exactly the planted
    residual, and moves no other check."""
    ws = make_workspace(*standard_case_m3())
    clean = judge_rows(ws, mpf(1e-25), [(summation_checks, range(3))])
    coordinate_sums = spectral._coordinate_sums
    planted = mpf(1e-20)
    positions = []

    def plant(*args):
        evals = list(coordinate_sums(*args))
        family = [k for k, (label, _) in enumerate(evals)
                  if label == "Ssum:e"]
        k = family[len(family) // 2]
        positions.append((k - family[0], len(family)))
        evals[k] = ("Ssum:e", planted)
        return iter(evals)

    monkeypatch.setattr(spectral, "_coordinate_sums", plant)
    got = judge_rows(ws, mpf(1e-25), [(summation_checks, range(3))])
    assert positions == [(2, 4)] * 3
    assert [(c.label, c.n) for c in got] == [(c.label, c.n) for c in clean]
    for before, after in zip(clean, got):
        assert before.passed
        if after.label == "Ssum:e":
            assert after.residual == planted and not after.passed
        else:
            assert after == before


def test_a_grid_is_capped_below_its_largest_term():
    """A term more than 2 prec + 64 bits below the largest goes onto that
    coarser grid first: the mantissas stay that short, and the residual
    moves by at most the rounding of that grid."""
    with working_precision(128):
        tiny = mpf(2) ** -100000
        g = Grid.of([mpc(1, 1), tiny])
        assert max(abs(v) for v in g.re + g.im).bit_length() <= CAP + 1
        assert rel_residual([mpf(1), tiny]) == 1
        # 2^-400 lies below the grid of the 1s, whose cancellation it decides
        assert rel_residual([mpf(1), mpf(-1), mpf(2) ** -400]) <= \
            mpf(2) ** -(CAP - 1)
        assert rel_residual([mpf(1), mpf(-1), mpf(2) ** -300]) == \
            mpf(2) ** -300
