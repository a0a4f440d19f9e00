"""Shared fixtures: precision management and reproducible random weights."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from mpmath import mpc, mpf

from circlebops.bops import ToeplitzOracle
from circlebops.errors import CircleBopsError
from circlebops.moments import MomentSequence
from circlebops.mputil import working_precision
from circlebops.spectral import SpectralWorkspace
from circlebops.weights import build_poly_pair, build_weight


@pytest.fixture(autouse=True)
def default_precision():
    with working_precision(128):
        yield


def _rand_frac(rng, lo=-9, hi=9, dmin=7, dmax=16):
    num = rng.randint(lo, hi)
    return Fraction(num, rng.randint(dmin, dmax))


def random_canonical_case(seed: int, N: int, n_guard: int = 14):
    """Deterministic random weight + seed moments, checked nondegenerate.

    Free singularities are distinct rational points of modest modulus, all
    residues rational non-integers with a non-integer total (which keeps the
    recurrences off their resonances for every level up to the guard).
    """
    rng = random.Random(seed)
    for attempt in range(60):
        ts = []
        ok = True
        for _ in range(N):
            re, im = _rand_frac(rng), _rand_frac(rng)
            if re == 0 and im == 0:
                ok = False
                break
            ts.append((re, im))
        if not ok or len({t for t in ts}) != N or (1, 0) in \
                [(a, b) for a, b in ts]:
            continue
        rhos = []
        for _ in range(N + 2):
            p = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
            q = rng.choice([3, 4, 5, 7, 8, 9])
            rhos.append(Fraction(p, q))
        m0 = sum(rhos)
        if m0.denominator == 1 or rhos[0].denominator == 1:
            continue
        seeds = []
        for _ in range(N + 1):
            seeds.append(mpc(mpf(_rand_frac(rng, 1, 9).numerator) /
                             _rand_frac(rng, 1, 9).denominator,
                             mpf(_rand_frac(rng).numerator) /
                             _rand_frac(rng).denominator))
        sing = [[0, 0]] + [[str(a), str(b)] for a, b in ts] + [[1, 0]]
        res = [[str(r), 0] for r in rhos]
        try:
            weight = build_weight(sing, res)
            pair = build_poly_pair(weight)
            ms = MomentSequence.from_seeds(pair, -1, seeds)
            oracle = ToeplitzOracle(ms)
            for n in range(n_guard):
                oracle.level(n)
        except CircleBopsError:
            continue
        return weight, seeds
    raise RuntimeError(f"no healthy random case found for seed {seed}")


def make_workspace(weight, seeds) -> SpectralWorkspace:
    pair = build_poly_pair(weight)
    ms = MomentSequence.from_seeds(pair, -1, list(seeds))
    return SpectralWorkspace(ToeplitzOracle(ms))


def standard_case_m3():
    weight = build_weight([0, "2/5", 1], ["1/3", "-1/2", "1/4"])
    seeds = [mpc("0.31", "0.17"), mpc(1)]
    return weight, seeds


def standard_case_m4():
    weight = build_weight([0, ["1/4", "1/3"], "-3/5", 1],
                          ["-2/7", "1/5", ["1/3", "1/9"], "1/2"])
    seeds = [mpc("0.2", "-0.11"), mpc(1), mpc("0.4", "0.33")]
    return weight, seeds


def standard_case_m5():
    weight = build_weight([0, "1/3", ["-2/5", "1/4"], ["1/2", "1/2"], 1],
                          ["2/5", "-3/7", "1/6", ["1/5", "1/3"], "-5/8"])
    seeds = [mpc("0.12", "0.07"), mpc(1), mpc("0.3", "-0.2"),
             mpc("-0.15", "0.4")]
    return weight, seeds


def rational_case_m3():
    return build_weight([0, ["2/5", "1/5"], 1], [-3, -4, -5])


def rational_case_m4():
    return build_weight([0, ["2/5", "1/5"], ["-1/3", "1/2"], 1],
                        [-3, -4, -4, -5])


# weights whose residues are all negative integers, with the moment range the
# residue sums are checked over
RESIDUE_CASES = {
    "m3": (rational_case_m3, -6, 8),
    "m4": (rational_case_m4, -6, 8),
    "outside-free": (lambda: build_weight(
        [0, ["3/2", "1/2"], 1], [-2, -3, -4]), -6, 8),
    "close-outside-pair": (lambda: build_weight(
        [0, ["6/5", "1/5"], ["6/5", "9/10"], 1], [-2, -3, -2, -3]), -6, 8),
    "m5": (lambda: build_weight(
        [0, ["1/10", 0], ["2/5", "1/5"], ["-1/3", "1/2"], 1],
        [-2, -3, -2, -3, -4]), -6, 8),
    "res-infinity": (lambda: build_weight(
        [0, ["2/5", "1/5"], 1], [-1, -2, -1]), -12, 4),
}
