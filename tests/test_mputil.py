"""Shared arbitrary-precision helpers."""

import random

import mpmath
from mpmath import mp, mpc, mpf

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
