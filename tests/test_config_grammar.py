"""Every accepted configuration reaches a verdict.

A property test over the config grammar: weights of M = 2 to 5
singularities in formal and rational modes, canonical and general
placements, any subset of the checks in any order, n_max up to 3, and every
command that reads a configuration.  Each run returns 0, 1, 2 or 3 through
``cli.main``; an exception that escapes it is a failure.
"""

import tempfile
from pathlib import Path

import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlebops.cli import main
from circlebops.suites import SUITE_NAMES

COMMANDS = {
    "verify": [], "moments": ["--range=-3:3"], "bops": [], "spectral": [],
    "garnier": [], "dgarnier": [],
    "sweep": ["--param", "rho0", "--grid=-0.6:-0.4:2"],
}

# interior and exterior points, none at 0 or 1
POINTS = [["2/5", 0], ["-1/3", "1/2"], ["1/4", "-1/5"], ["3/2", "1/3"],
          [0, "-5/2"], ["-2", "1/7"]]
FORMAL_RESIDUES = ["1/3", "-1/2", "1/4", "2/5", "-3/7", "5/8"]
SEEDS = [[0.31, 0.17], [1, 0], [0.2, -0.11], [-0.15, 0.4], [0, 0]]


@st.composite
def configs(draw):
    M = draw(st.integers(2, 5))
    mode = draw(st.sampled_from(["formal", "rational"]))
    placement = draw(st.sampled_from(["canonical", "general"]))
    inner = draw(st.permutations(POINTS))
    if placement == "canonical":
        sing = [[0, 0]] + inner[:M - 2] + [[1, 0]]
    else:
        sing = inner[:M]
    if mode == "rational":
        res = [[draw(st.integers(-5, -1)), 0] for _ in sing]
    else:
        res = [[draw(st.sampled_from(FORMAL_RESIDUES)), 0] for _ in sing]
    free = M - 1 if [0, 0] in sing else M
    seeds = [draw(st.sampled_from(SEEDS)) for _ in range(free)]
    checks = draw(st.permutations(SUITE_NAMES))
    return {
        "mode": mode, "precision_bits": 128, "tolerance": 1e-20,
        "n_max": draw(st.integers(1, 3)), "seed": 1,
        "checks": checks[:draw(st.integers(0, len(checks)))],
        "weight": {"placement": placement, "singularities": sing,
                   "residues": res},
        "seeds": {"start": -1, "values": seeds},
    }


def _formal(singularities, residues, seeds):
    """A canonical formal-mode config at n_max 1 that judges no checks."""
    return {"mode": "formal", "precision_bits": 128, "tolerance": 1e-20,
            "n_max": 1, "seed": 1, "checks": [],
            "weight": {"placement": "canonical",
                       "singularities": singularities, "residues": residues},
            "seeds": {"start": -1, "values": seeds}}


# the moment recurrence of this M = 2 weight gives w_0 = 0 from any seed
VANISHING_W0 = _formal([[0, 0], [1, 0]], [["-1/2", 0], ["-1/2", 0]],
                       [[0.31, 0.17]])
# w_-1 = 0 makes phi_1(0) = 0, which the spectral forms divide by
VANISHING_R1 = _formal([[0, 0], ["2/5", 0], [1, 0]],
                       [["1/3", 0], ["1/3", 0], ["1/3", 0]],
                       [[0, 0], [0.31, 0.17]])


@given(configs(), st.sampled_from(sorted(COMMANDS)))
@example(VANISHING_W0, "dgarnier")
@example(VANISHING_R1, "garnier")
@settings(max_examples=40, deadline=None, derandomize=True)
def test_every_accepted_config_reaches_a_verdict(config, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.yaml"
        path.write_text(yaml.safe_dump(config))
        argv = ["--config", str(path), command, *COMMANDS[command],
                "--out", str(Path(tmp) / "out")]
        assert main(argv) in (0, 1, 2, 3)
