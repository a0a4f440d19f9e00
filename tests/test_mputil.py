"""Shared arbitrary-precision helpers."""

import random
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_rational, round_nearest

from circlebops.config import build_workspace, config_from_dict
from circlebops.mputil import sample_points, to_mpc, working_precision


def _frozen_sample_points(count, avoid=(), radius=1.37, seed=1,
                          min_dist=1e-6):
    """sample_points as it was before it compared exact squared distances
    and took 2 pi once per call."""
    rng = random.Random(seed)
    avoid = [to_mpc(a) for a in avoid]
    pts = []
    r = mpf(radius)
    while len(pts) < count:
        theta = mpf(rng.random()) * 2 * mp.pi
        z = r * mpmath.exp(mpc(0, 1) * theta)
        if all(abs(z - a) > min_dist for a in avoid):
            pts.append(z)
    return pts


def test_sample_points_are_bit_identical_to_the_frozen_function():
    """Seeds 0..60 at 128 and 192 bits, avoiding the README singularities,
    a drawn point itself, one 1e-7 from a drawn point (both redrawn) and
    one 2e-6 away (kept)."""
    for bits in (128, 192):
        with working_precision(bits):
            for seed in range(61):
                first = _frozen_sample_points(3, seed=seed)
                avoid = [0, mpf(2) / 5, 1, first[0], first[1] + mpf("1e-7"),
                         first[2] - mpf("2e-6")]
                got = sample_points(10, avoid=avoid, seed=seed)
                want = _frozen_sample_points(10, avoid=avoid, seed=seed)
                assert [z._mpc_ for z in got] == [z._mpc_ for z in want]
                assert first[0]._mpc_ not in [z._mpc_ for z in got]
                assert first[2]._mpc_ in [z._mpc_ for z in got]


# p / 485 with p of 139 bits: rounding p to 128 bits before the division
# lands 0.67 ulp from p / 485, one rounding of the quotient 0.38 ulp
WITNESS = "626718779602557076557859293516794212135997/485"


def _nearest(text: str) -> mpf:
    f = Fraction(text)
    return mp.make_mpf(from_rational(f.numerator, f.denominator, mp.prec,
                                     round_nearest))


def test_exact_encodings_are_rounded_once():
    want = _nearest(WITNESS)
    assert to_mpc(WITNESS) == mpc(want)
    assert to_mpc(Fraction(WITNESS)) == mpc(want)
    assert to_mpc([WITNESS, "-" + WITNESS]) == mpc(want, -want)
    assert to_mpc((Fraction(WITNESS), 0)) == mpc(want)


def test_config_seeds_are_rounded_once():
    raw = {"mode": "formal", "precision_bits": 128,
           "weight": {"singularities": [[0, 0], ["2/5", 0], [1, 0]],
                      "residues": [["1/3", 0], ["-1/2", 0], ["1/4", 0]]},
           "seeds": {"start": -1, "values": [[WITNESS, 0], [1, 0]]}}
    ws = build_workspace(config_from_dict(raw))
    assert ws.oracle.moments.values[-1] == mpc(_nearest(WITNESS))
