"""Workload definitions and their seeded inputs.

Seed 0 reproduces the base cases exactly (the README's M=3 weight and the
rational M=4 case of ``tests/conftest.py``).  Any other seed draws the free
data from a fixed neighbourhood of the base case: seed moments are scaled
by a complex factor within 5% of 1, and the free singularities of the
rational case are rotated about the origin by at most 0.1 rad (their
moduli, which set the closed-form series length, stay put).  The seed also
sets the config's ``seed``, which picks the sample points.  The program
sees only the generated YAML.

There are two workloads, so that each run can last about a minute within
the benchmark's total time limit.  verify-deep also exercises garnier (in
its summation suite) and discrete_garnier (in its oracle and tau suites).

Quadrature mode is left out: it costs only M-1 quadratures at set-up,
about 0.45 s, and nothing after.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction

M3_WEIGHT = {
    "placement": "canonical",
    "singularities": [[0, 0], ["2/5", 0], [1, 0]],
    "residues": [["1/3", 0], ["-1/2", 0], ["1/4", 0]],
}
M3_SEEDS = [[0.31, 0.17], [1, 0]]          # as in the README

RATIONAL_M4_WEIGHT = {
    "placement": "canonical",
    "singularities": [[0, 0], ["2/5", "1/5"], ["-1/3", "1/2"], [1, 0]],
    "residues": [[-3, 0], [-4, 0], [-4, 0], [-5, 0]],
}

CHECKS = ["identities", "bilinear", "summation", "oracle", "tau"]


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict          # seed-0 configuration


# verify-deep stops at n_max 24, not 32: a repetition then takes ~5 s instead
# of ~7.5 s, so each measured run holds enough repetitions for a steady
# median, and the LU level path (bops) still takes about half.
WORKLOADS = {w.name: w for w in (
    Workload("verify-deep", {
        "mode": "formal", "precision_bits": 128, "tolerance": 1e-20,
        "n_max": 24, "seed": 1, "checks": CHECKS,
        "weight": M3_WEIGHT, "seeds": {"start": -1, "values": M3_SEEDS}}),
    Workload("flow-rational", {
        "mode": "rational", "precision_bits": 256, "tolerance": 1e-20,
        "n_max": 3, "seed": 1, "checks": ["flow"],
        "weight": RATIONAL_M4_WEIGHT}),
)}


def _dec(x: float) -> str:
    return f"{x:.4f}"


def _perturbed_seeds(values, rng):
    out = []
    for re, im in values:
        z = complex(Fraction(str(re)), Fraction(str(im)))
        z *= complex(1 + rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        out.append([_dec(z.real), _dec(z.imag)])
    return out


def _rotated_singularities(sings, rng):
    out = [sings[0]]
    for re, im in sings[1:-1]:
        z = complex(Fraction(str(re)), Fraction(str(im)))
        z *= cmath.exp(1j * rng.uniform(-0.1, 0.1))
        out.append([_dec(z.real), _dec(z.imag)])
    return out + [sings[-1]]


def make_config(workload: Workload, seed: int) -> dict:
    """The YAML content for one workload and seed."""
    cfg = {k: (dict(v) if isinstance(v, dict) else v)
           for k, v in workload.config.items()}
    if seed == 0:
        return cfg
    rng = random.Random(f"{workload.name}:{seed}")
    cfg["seed"] = rng.randrange(1, 10 ** 6)
    if cfg["mode"] == "rational":
        cfg["weight"]["singularities"] = _rotated_singularities(
            cfg["weight"]["singularities"], rng)
    else:
        cfg["seeds"]["values"] = _perturbed_seeds(cfg["seeds"]["values"], rng)
    return cfg


def cli_argv(config_path: str, out_path: str) -> list:
    return ["--config", config_path, "verify", "--out", out_path]
