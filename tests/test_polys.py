"""The integer-mantissa series (``polys.OffsetSeries``, which is
``report.Grid``), its product and gridding kernels and the eps-series."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_int, fzero

from conftest import (random_canonical_case, standard_case_m3,
                      standard_case_m4, standard_case_m5)
from circlebops.bops import ToeplitzOracle, pairing_first
from circlebops.exact import QC
from circlebops.moments import MomentSequence, ReflectedMoments
from circlebops.mputil import guarded, to_mpc, working_precision
from circlebops.polys import OffsetSeries, peval_grid, pmul
from circlebops.report import Grid
from circlebops.weights import build_poly_pair


def _frac(x: mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _parts(x):
    """Exact (re, im) of an mpc, a QC or an int."""
    if isinstance(x, QC):
        return x.re, x.im
    x = to_mpc(x)
    return _frac(x.real), _frac(x.imag)


def _max_part(vec) -> Fraction:
    return max((abs(p) for x in vec for p in _parts(x)), default=Fraction(0))


def _dyadic(rng, mag: int) -> Fraction:
    """A random 60-bit dyadic rational of size about 2^mag: exact in mpf."""
    return Fraction(rng.randrange(-2 ** 60, 2 ** 60)) * Fraction(2) ** (mag - 60)


def _vector(rng, length: int, tiny: bool = False) -> list:
    """QC entries (exact images at >= 64 bits), plain ints and exact zeros;
    with ``tiny``, one entry sits 2^-133 (about 1e-40) below the rest."""
    out = []
    for _ in range(length):
        kind = rng.random()
        if kind < 0.15:
            out.append(0)
        elif kind < 0.3:
            out.append(rng.randint(-9, 9))
        else:
            out.append(QC(_dyadic(rng, rng.randint(-6, 6)),
                          _dyadic(rng, rng.randint(-6, 6))))
    if tiny and out:
        out[rng.randrange(length)] = QC(_dyadic(rng, -133), _dyadic(rng, -140))
    return out


def _image(vec) -> list:
    return [x.to_mpc() if isinstance(x, QC) else x for x in vec]


def _exact_series(offset: int, vec) -> OffsetSeries:
    """The dyadic entries of ``vec`` as a series, exactly."""
    parts = [p for x in vec for p in _parts(x)]
    exp = -max((p.denominator.bit_length() - 1 for p in parts), default=0)
    ints = [int(p * Fraction(2) ** -exp) for p in parts]
    return OffsetSeries(ints[0::2], ints[1::2], exp, offset)


def _values(s: OffsetSeries) -> dict:
    """power -> exact (re, im) of every coefficient of ``s``."""
    unit = Fraction(2) ** s.exp
    return {s.offset + k: (x * unit, y * unit)
            for k, (x, y) in enumerate(zip(s.re, s.im))}


def _want(offset: int, vec, top: int) -> dict:
    """power -> exact (re, im) of sum_k vec[k] z^(offset + k), up to top."""
    return {p: _parts(vec[p - offset]) if p - offset < len(vec)
            else (Fraction(0), Fraction(0)) for p in range(offset, top + 1)}


def conv_fixed(a, b, lo: int, hi: int) -> Grid:
    """The product terms lo <= t < hi of a and b, each on its spectral
    grid: the gridded product whose accuracy rule ``mul_poly`` relies on."""
    return Grid.from_poly(a).conv(Grid.from_poly(b), lo, hi)


def _assert_within_rule(a, b, lo, hi):
    """|c_t - exact_t| per part <= 4 L 2^-(prec+16) max|a| max|b| (the grid,
    four products per part, L = the shorter length) + 2^-prec |exact_t|
    (the one final rounding)."""
    prec = mp.prec
    got = conv_fixed(_image(a), _image(b), lo, hi).coeffs
    assert len(got) == max(hi - lo, 0)
    exact = pmul(list(a), list(b)) if a and b else []
    grid = (Fraction(401, 100) * min(len(a), len(b)) * _max_part(a)
            * _max_part(b) / 2 ** (prec + 16))
    for t, c in zip(range(lo, hi), got):
        want = exact[t] if 0 <= t < len(exact) else 0
        for g, w in zip(_parts(c), _parts(want)):
            assert abs(g - w) <= grid + abs(w) / 2 ** prec, (t, g, w)


@pytest.mark.parametrize("bits", [128, 192])
@pytest.mark.parametrize("seed", range(6))
def test_conv_fixed_within_the_accuracy_rule(bits, seed):
    rng = random.Random(seed)
    with working_precision(bits):
        for tiny in (False, True):
            a = _vector(rng, rng.randint(1, 40), tiny)
            b = _vector(rng, rng.randint(1, 40), tiny)
            n = len(a) + len(b) - 1
            _assert_within_rule(a, b, 0, n)
            _assert_within_rule(b, a, 3, n + 5)        # past the end


def test_conv_fixed_small_entries_keep_only_the_grid_digits():
    with working_precision(128):
        tiny = mpf(2) ** -140 / 3
        got = conv_fixed([mpc(tiny), mpc(1)], [mpc(1)], 0, 2).coeffs
        assert got[1] == 1
        # rounded to the grid 2^-(128+16) below the largest, not to itself
        assert abs(got[0] - tiny) <= mpf(2) ** -144
        assert got[0] != tiny
        assert conv_fixed([tiny], [mpc(1)], 0, 1).coeff(0) == tiny


def test_conv_fixed_is_exact_when_the_inputs_fit_the_grid():
    rng = random.Random(7)
    a = [mpc(rng.randint(-99, 99), rng.randint(-99, 99)) for _ in range(17)]
    b = [rng.randint(-99, 99) for _ in range(9)] + [mpf(3) / 4]
    got = list(conv_fixed(a, b, 0, 26).coeffs)
    assert got == pmul(a, b)
    assert all(isinstance(c, mpc) for c in got)


def test_conv_fixed_zero_and_empty_vectors():
    def conv(*args):
        return list(conv_fixed(*args).coeffs)
    assert conv([], [mpc(1)], 0, 3) == [0, 0, 0]
    assert conv([mpc(1)], [], 0, 2) == [0, 0]
    assert conv([0, mpc(0), mpf(0)], [mpc(2, 1)], 0, 4) == [0] * 4
    assert conv([mpc(1)], [mpc(1)], 2, 2) == []
    assert conv([mpc(1)], [mpc(1)], 3, 1) == []
    with pytest.raises(ValueError):
        conv_fixed([mpc(mp.inf)], [mpc(1)], 0, 1)


# -- the product and gridding kernels against plain references ----------------

def _conv_reference(a: Grid, b: Grid, lo: int, hi: int) -> tuple:
    """(re, im, exp, offset) of terms lo <= t < hi of the product by the
    plain double loop; a non-finite factor gives zeros on exp None."""
    n = max(hi - lo, 0)
    re, im = [0] * n, [0] * n
    if a.exp is None or b.exp is None:
        return re, im, None, 0
    for i, (x, y) in enumerate(zip(a.re, a.im)):
        for j, (u, v) in enumerate(zip(b.re, b.im)):
            if 0 <= i + j - lo < n:
                re[i + j - lo] += x * u - y * v
                im[i + j - lo] += x * v + y * u
    return re, im, a.exp + b.exp, a.offset + b.offset + lo


@st.composite
def _kernel_grids(draw):
    """A grid of 0..12 coefficients, on either side of ``SHORT_FACTOR``:
    zero, real-only or mixed-sign complex 240-bit mantissas, at an offset
    0..5; now and then non-finite."""
    size = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(("zero", "real", "complex", "complex")))
    big = st.integers(-2 ** 240, 2 ** 240)
    part = st.one_of(st.just(0), big) if kind != "zero" else st.just(0)
    re = draw(st.lists(part, min_size=size, max_size=size))
    im = (draw(st.lists(part, min_size=size, max_size=size))
          if kind == "complex" else [0] * size)
    exp = None if draw(st.integers(0, 15)) == 0 else \
        draw(st.integers(-400, 100))
    return Grid(re, im, exp, draw(st.integers(0, 5)))


@settings(max_examples=300, deadline=None)
@given(_kernel_grids(), _kernel_grids(), st.integers(-4, 28),
       st.integers(-4, 28))
def test_conv_equals_the_double_loop(a, b, lo, hi):
    """Both exact paths of ``Grid.conv``, short x long and long x long, give
    the double loop's integers, for windows inside, beyond and outside the
    product, empty and reversed ones included."""
    got = a.conv(b, lo, hi)
    assert (got.re, got.im, got.exp, got.offset) == \
        _conv_reference(a, b, lo, hi)


def _old_grid_of(terms) -> tuple:
    """Frozen reference: the former two-pass ``Grid.of``, as (re, im, exp);
    exp None for a non-finite term."""
    parts = []
    for t in terms:
        if isinstance(t, mpc):
            parts.extend(t._mpc_)
        elif isinstance(t, mpf):
            parts.extend((t._mpf_, fzero))
        elif isinstance(t, int):
            parts.extend((from_int(t), fzero))
        else:
            parts.extend(to_mpc(t)._mpc_)
    size = len(parts) // 2
    top = None
    for _, man, e, bc in parts:
        if man:
            top = e + bc if top is None else max(top, e + bc)
        elif e:
            return [0] * size, [0] * size, None
    if top is None:
        return [0] * size, [0] * size, 0
    coarse = top - (2 * mp.prec + 64)
    lo = min(e if e + bc > coarse else coarse
             for _, man, e, bc in parts if man)
    ints = []
    for sign, man, e, bc in parts:
        if not man:
            v = 0
        elif e + bc > coarse:
            v = man << (e - lo)
        else:
            shift = coarse - e
            half = 1 << (shift - 1)
            v = ((man + half) >> shift) << (coarse - lo)
        ints.append(-v if sign else v)
    return ints[0::2], ints[1::2], lo


@st.composite
def _capped_terms(draw):
    """A precision and int, mpf, mpc and QC terms whose parts have their
    top bits near the largest's, or at, just above or just below the cap
    2 prec + 64 bits under it; short mantissas put a part's lowest bit, not
    only its top, next to the cap."""
    prec = draw(st.sampled_from((53, 128, 192)))
    top = draw(st.integers(-300, 300))
    cap = top - (2 * prec + 64)

    def part():
        where = draw(st.sampled_from(("top", "near", "cap", "cap", "deep")))
        if where == "top":
            bit = top
        elif where == "near":
            bit = draw(st.integers(cap + 2, top))
        elif where == "cap":
            bit = cap + draw(st.sampled_from((-1, 0, 1)))
        else:
            bit = draw(st.integers(cap - 300, cap - 2))
        man = draw(st.one_of(st.integers(1, 3), st.integers(1, 2 ** 200)))
        man *= draw(st.sampled_from((1, -1)))
        with working_precision(256):
            return mpmath.ldexp(mpf(man), bit - abs(man).bit_length())

    terms = [mpc(mpmath.ldexp(mpf(3), top - 2), 0)]       # the top bit
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("mpc", "mpc", "mpf", "int", "qc",
                                     "zero", "inf")))
        if kind == "mpc":
            terms.append(mpc(part(), part()))
        elif kind == "mpf":
            terms.append(part())
        elif kind == "int":             # at most the top bit
            bound = 2 ** min(top - 1, 80) if top > 1 else 0
            terms.append(draw(st.integers(-bound, bound)))
        elif kind == "qc":
            terms.append(QC(_frac(part()), _frac(part())))
        elif kind == "zero":
            terms.append(draw(st.sampled_from((0, mpf(0), mpc(0)))))
        elif draw(st.integers(0, 4)) == 0:
            terms.append(mpc(mp.inf, 1))
    draw(st.randoms()).shuffle(terms)
    return prec, terms


@settings(max_examples=200, deadline=None)
@given(_capped_terms())
def test_grid_of_equals_the_two_pass_rule(case):
    """``Grid.of``'s one pass, and its cap pass, give the former two-pass
    rule's integers bit for bit, with parts exactly at the cap (rounded
    onto it), one bit above (kept exact) and one bit below."""
    prec, terms = case
    with working_precision(prec):
        got = Grid.of(terms)
        want = _old_grid_of(terms)
    assert (got.re, got.im, got.exp, got.offset) == want + (0,)


def test_mul_poly_truncation():
    rng = random.Random(3)
    coeffs, p = _vector(rng, 12), _vector(rng, 5)
    s = _exact_series(4, coeffs)
    full = pmul(coeffs, p)
    assert len(s.mul_poly(_image(p), 3).coeffs) == 0       # top < offset
    assert len(s.mul_poly(_image(p), 4).coeffs) == 1
    for top in (9, 4 + len(full) - 1, 4 + len(full) + 6):   # top past the end
        got = s.mul_poly(_image(p), top)
        assert got.offset == 4 and got.top == top
        for k, c in enumerate(got.coeffs):
            want = full[k].to_mpc() if k < len(full) else 0
            assert abs(c - want) <= mpf(2) ** -120 * (1 + abs(want))


@pytest.mark.parametrize("seed", range(4))
def test_integer_series_are_exact_on_dyadic_inputs(seed):
    """mul_poly, +, -, shift and diff against exact QC arithmetic, with
    zeros, offsets and truncation; every input fits its grid, so nothing
    may round."""
    rng = random.Random(seed)
    a, b = _vector(rng, rng.randint(1, 20)), _vector(rng, rng.randint(1, 20))
    p = _vector(rng, rng.randint(1, 6))
    oa, ob = rng.randint(0, 5), rng.randint(0, 5)
    sa, sb = _exact_series(oa, a), _exact_series(ob, b)
    full = pmul(a, p)
    for top in (oa - 1, oa, oa + len(full) // 2, oa + len(full) + 3):
        got = sa.mul_poly(_image(p), top)
        assert got.offset == oa and got.top == max(top, oa - 1)
        assert _values(got) == _want(oa, full, top)
    total = {k: (0, 0) for k in range(min(oa, ob), max(sa.top, sb.top) + 1)}
    for k, (x, y) in list(_values(sa).items()) + list(_values(sb).items()):
        total[k] = (total[k][0] + x, total[k][1] + y)
    assert _values(sa + sb) == total
    assert _values(-sa) == {k: (-x, -y) for k, (x, y) in _values(sa).items()}
    assert _values(sa.shift(2)) == {**{oa: (0, 0), oa + 1: (0, 0)},
                                    **{k + 2: v for k, v in
                                       _values(sa).items()}}
    slope = {k - 1: (k * x, k * y) for k, (x, y) in _values(sa).items() if k}
    assert _values(sa.diff()) == (slope if oa or len(a) > 1
                                  else {0: (0, 0)})


def test_a_read_rounds_once_at_the_readers_precision():
    with working_precision(128):
        a = 1 + mpf(2) ** -70
        s = OffsetSeries.from_poly([a])
        built = s.mul_poly([a], 0) - s.mul_poly([1], 0)
        # a (a - 1) = 2^-70 + 2^-140 exactly; rounding a^2 first loses 2^-140
        assert built.coeff(0) == mpf(2) ** -70 + mpf(2) ** -140
        assert a * a - a == mpf(2) ** -70
    rng = random.Random(5)
    re = [rng.getrandbits(400) - 2 ** 399 for _ in range(8)]
    im = [rng.getrandbits(300) - 2 ** 299 for _ in range(8)]
    s = OffsetSeries(re, im, -450, 3)
    for bits in (53, 128, 192):
        with working_precision(bits):
            want = [mpc(mpmath.ldexp(mpf(x), -450), mpmath.ldexp(mpf(y), -450))
                    for x, y in zip(re, im)]
            assert s.window(3, 10) == want == list(s.coeffs)
            assert [s.coeffs[k] for k in (-1, 0)] == [want[-1], want[0]]
            assert s.window(1, 2) == [0, 0] and s.coeff(11) == 0
    with pytest.raises(IndexError):
        s.coeffs[8]


def test_a_series_goes_on_a_grid_by_the_rule_of_its_coefficients():
    """Regridding a series rounds exactly as gridding its exact mpc images
    does, a series already on a coarser grid is kept, and a series that does
    not start at z^0 is refused as a polynomial."""
    rng = random.Random(11)
    re = [rng.getrandbits(rng.randint(1, 200)) * rng.choice((-1, 1))
          for _ in range(9)] + [0]
    im = [rng.getrandbits(rng.randint(1, 200)) * rng.choice((-1, 1))
          for _ in range(10)]
    s = OffsetSeries(re, im, -37)
    with working_precision(400):
        images = list(s.coeffs)                # exact at 400 bits
    for prec in (60, 128):
        with working_precision(prec):
            assert _values(OffsetSeries.from_poly(s)) == \
                _values(OffsetSeries.from_poly(images))
    with working_precision(234):            # a grid 250 bits deep
        kept = OffsetSeries.from_poly(s)
        assert (kept.re, kept.im, kept.exp) == (re, im, -37)
        zero = OffsetSeries.from_poly(OffsetSeries([0, 0], [0, 0], 0))
        assert _values(zero) == {0: (0, 0), 1: (0, 0)}
    shifted = OffsetSeries(re, im, -37, 2)
    for use in (OffsetSeries.from_poly, lambda p: s.mul_poly(p, 20)):
        with pytest.raises(ValueError, match="z\\^0"):
            use(shifted)


# -- the one grid type against frozen copies of the two it replaced -----------

def _old_on_grid(vec, bits: int):
    """Frozen reference: the former spectral converter's rule for a list of
    finite scalars, (re, im, exp) with exp ``bits`` below the top bit of the
    largest part and each part rounded to nearest, ties away from zero; None
    for an all-zero vector."""
    parts = []
    for x in vec:
        if isinstance(x, mpc):
            parts.extend(x._mpc_)
        elif isinstance(x, mpf):
            parts.extend((x._mpf_, fzero))
        else:
            parts.extend(to_mpc(x)._mpc_)
    tops = [e + bc for _, man, e, bc in parts if man]
    if not tops:
        return None
    exp = max(tops) - bits
    ints = []
    for sign, man, e, _ in parts:
        shift = e - exp
        if shift >= 0:
            v = man << shift
        else:
            v = (man + (1 << (-shift - 1))) >> -shift
        ints.append(-v if sign else v)
    return ints[0::2], ints[1::2], exp


def _old_add(a, b):
    """Frozen reference: the former exact sum of two series, each given as
    (offset, re, im, exp)."""
    off, exp = min(a[0], b[0]), min(a[3], b[3])
    size = max(s[0] + len(s[1]) for s in (a, b)) - off
    re, im = [0] * size, [0] * size
    for offset, sre, sim, sexp in (a, b):
        shift = sexp - exp
        for k, (x, y) in enumerate(zip(sre, sim), offset - off):
            re[k] += x << shift
            im[k] += y << shift
    return OffsetSeries(re, im, exp, off)


def _part(draw, top: int) -> mpf:
    man = draw(st.integers(-2 ** 200, 2 ** 200))
    with working_precision(256):
        return mpf(man) * mpf(2) ** (top - abs(man).bit_length())


@st.composite
def _spread_vectors(draw):
    """mpc, mpf, int and zero entries whose parts have top bits from about
    2^60 down to 2^-520: more than 2 prec + 64 bits apart at 192 bits."""
    vec = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("mpc", "mpc", "mpf", "int", "zero")))
        if kind == "int":
            vec.append(draw(st.integers(-2 ** 100, 2 ** 100)))
        elif kind == "zero":
            vec.append(draw(st.sampled_from((0, mpf(0), mpc(0)))))
        else:
            re, im = (_part(draw, draw(st.integers(-520, 60)))
                      for _ in range(2))
            vec.append(re if kind == "mpf" else mpc(re, im))
    for top in (draw(st.integers(40, 60)), draw(st.integers(-520, -460))):
        vec.insert(draw(st.integers(0, len(vec))),
                   mpc(_part(draw, top), _part(draw, top - 3)))
    return vec


@settings(max_examples=150, deadline=None)
@given(_spread_vectors())
def test_the_spectral_grid_rounds_as_the_former_converter(vec):
    """``from_poly`` (exact ``Grid.of``, whose cap may round a far part
    first, then the regrid prec + 16 bits below the largest) gives the
    former converter's values bit for bit."""
    for bits in (128, 192):
        with working_precision(bits):
            got = OffsetSeries.from_poly(vec)
            old = _old_on_grid(vec, bits + 16)
        want = (OffsetSeries(*old) if old else
                OffsetSeries([0] * len(vec), [0] * len(vec), 0))
        assert _values(got) == _values(want)


@st.composite
def _series_pairs(draw):
    """Two series at offsets 0..6, of up to 200-bit mantissas on exponents
    at most 100 apart: their top bits lie less than 2 prec + 64 = 320 bits
    apart at 128 bits."""
    exp = draw(st.integers(-600, 100))
    out = []
    for _ in range(2):
        size = draw(st.integers(0, 8))
        mans = st.lists(st.one_of(st.just(0),
                                  st.integers(-2 ** 200, 2 ** 200)),
                        min_size=size, max_size=size)
        out.append((draw(st.integers(0, 6)), draw(mans), draw(mans),
                    exp + draw(st.integers(-50, 50))))
    return out


@settings(max_examples=150, deadline=None)
@given(_series_pairs())
def test_series_sums_equal_the_former_exact_add(pair):
    a, b = pair
    with working_precision(128):
        got = (OffsetSeries(a[1], a[2], a[3], a[0]) +
               OffsetSeries(b[1], b[2], b[3], b[0]))
    assert _values(got) == _values(_old_add(a, b))


# ---------------------------------------------------------------------------
# point evaluation on the exact grid
# ---------------------------------------------------------------------------

def _peval_by_grid_of(g, z):
    """``peval_grid`` with the point put on its grid by ``Grid.of`` and
    the value rounded by ``Grid.coeff``: the route it takes in the cap
    case, and took everywhere before."""
    zg = OffsetSeries.of([z])
    if g.exp is None or zg.exp is None:
        return mpc(mpf("nan"), mpf("nan"))
    zr, zi, ez = zg.re[0], zg.im[0], zg.exp
    if ez > 0:
        zr, zi, ez = zr << ez, zi << ez, 0
    re, im, d = g.re[-1], g.im[-1], len(g) - 1
    for k in range(d - 1, -1, -1):
        s = (d - k) * -ez
        re, im = (re * zr - im * zi + (g.re[k] << s),
                  re * zi + im * zr + (g.im[k] << s))
    return OffsetSeries([re], [im], g.exp + d * ez).coeff(0)


_SPECIAL = st.sampled_from((mpf(0), mpf("inf"), mpf("-inf"), mpf("nan")))


@st.composite
def _points(draw):
    """Points whose parts are random, zero or non-finite, with top bits up
    to 2 prec + 64 = 320 bits (at 128 bits) and more apart."""
    top = draw(st.integers(-400, 400))
    parts = []
    for _ in range(2):
        kind = draw(st.sampled_from(("near", "near", "far", "special")))
        if kind == "special":
            parts.append(draw(_SPECIAL))
        else:
            gap = draw(st.integers(0, 40) if kind == "near"
                       else st.integers(300, 340))
            parts.append(_part(draw, top - gap))
    return mpc(*parts)


@settings(max_examples=300, deadline=None)
@given(_points(), st.integers(0, 6), st.integers(-300, 300),
       st.randoms(use_true_random=False))
def test_point_evaluation_equals_the_grid_of_route(z, deg, exp, rng):
    mans = [[rng.choice((0, rng.randint(-2 ** 150, 2 ** 150)))
             for _ in range(deg + 1)] for _ in range(2)]
    g = OffsetSeries(mans[0], mans[1], exp)
    for bits in (53, 128):
        with working_precision(bits):
            assert peval_grid(g, z)._mpc_ == _peval_by_grid_of(g, z)._mpc_
    assert peval_grid(OffsetSeries.nonfinite(deg + 1), z)._mpc_ == \
        _peval_by_grid_of(OffsetSeries.nonfinite(deg + 1), z)._mpc_


def test_point_evaluation_at_the_cap():
    """Parts exactly 2 prec + 64 bits apart take the ``Grid.of`` route,
    which rounds the smaller onto the coarser grid; one bit closer they
    stay exact.  With real coefficients and no constant term the smaller
    part carries over to the value at full relative precision."""
    for g in (OffsetSeries([0, 3], [0, 0], -4),
              OffsetSeries([0, 3, -2], [0, 0, 0], -4)):
        for gap in (319, 320, 321):
            big, small = mpf(3) * 2 ** 10, mpf(3) * 2 ** (10 - gap)
            for z in (mpc(big, small), mpc(small, -big)):
                assert peval_grid(g, z)._mpc_ == _peval_by_grid_of(g, z)._mpc_


# ---------------------------------------------------------------------------
# the eps-series against one pairing per coefficient
# ---------------------------------------------------------------------------

def _series_gap(ms, oracle, n, truncation):
    """Largest eps / epsstar deviation from pairing_first, relative to the
    series maximum; both sides are read at the guarded precision."""
    lev = oracle.level(n)
    eps = oracle.eps_series(n, truncation)
    est = oracle.epsstar_series(n, truncation)
    reflected = ReflectedMoments(ms)
    with guarded():
        ref = [2 * pairing_first(ms, lev.phi, m)
               for m in range(truncation + 1)]
        ref_s = [-2 * pairing_first(reflected, lev.phibar, -m)
                 for m in range(1, truncation - n + 1)]
        series = list(eps.coeffs), list(est.coeffs)
    assert est.offset == n + 1 and len(est.coeffs) == len(ref_s)
    gaps = []
    for got, want in zip(series, (ref, ref_s)):
        assert len(got) == len(want)
        scale = max(abs(c) for c in want)
        gaps.append(max(abs(g - w) for g, w in zip(got, want)) / scale)
    return max(gaps)


@pytest.mark.parametrize("bits", [128, 192])
@pytest.mark.parametrize("case", [standard_case_m3, standard_case_m4,
                                  standard_case_m5])
def test_eps_series_match_pairings(case, bits):
    with working_precision(bits):
        weight, seeds = case()
        ms = MomentSequence.from_seeds(build_poly_pair(weight), -1, seeds)
        oracle = ToeplitzOracle(ms)
        for n in range(25):
            assert _series_gap(ms, oracle, n, 2 * n + 10) < \
                mpf(2) ** -(bits + 24), n


@given(st.integers(0, 10 ** 6), st.integers(1, 3))
@settings(max_examples=8, deadline=None)
def test_eps_series_match_pairings_on_random_weights(seed, N):
    weight, seeds = random_canonical_case(seed, N)
    ms = MomentSequence.from_seeds(build_poly_pair(weight), -1, seeds)
    oracle = ToeplitzOracle(ms)
    for n in range(12):
        assert _series_gap(ms, oracle, n, n + N + 10) < mpf(2) ** -152, n


def test_eps_series_do_not_depend_on_the_callers_precision():
    """The oracle answers only at the working precision it was built at:
    asked under guarded(), eps_series and epsstar_series raise, naming both
    precisions, and the series cached before are kept as they were."""
    weight, seeds = standard_case_m3()
    ms = MomentSequence.from_seeds(build_poly_pair(weight), -1, seeds)
    oracle = ToeplitzOracle(ms)
    got = [oracle.eps_series(4, 14), oracle.epsstar_series(4, 14)]
    for query in (oracle.eps_series, oracle.epsstar_series):
        with guarded(), pytest.raises(ValueError,
                                      match="built at 128 bits queried at "
                                            "176 bits"):
            query(4, 14)
    assert [oracle.eps_series(4, 14), oracle.epsstar_series(4, 14)] == got
