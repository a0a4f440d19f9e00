"""The benchmark's layer tracer still finds the functions it wraps.

``perfbench/layers.py`` patches circlebops by name from outside; a rename
would silently zero its metrics.  The traced CLI run happens in a fresh
interpreter, because ``install`` rebinds functions in every loaded
circlebops module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

import circlebops

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from layers import Tracer, install
import circlebops.cli as cli
tracer = Tracer()
install(tracer)
code = cli.main(["--config", sys.argv[2], "verify", "--out", sys.argv[3]])
with open(sys.argv[4], "w") as fh:
    json.dump({"exit": code, "metrics": tracer.metrics()}, fh)
"""

CONFIG = {
    "mode": "formal", "precision_bits": 128, "tolerance": 1.0e-20,
    "n_max": 4, "seed": 1, "checks": ["identities"],
    "weight": {"placement": "canonical",
               "singularities": [[0, 0], ["2/5", 0], [1, 0]],
               "residues": [["1/3", 0], ["-1/2", 0], ["1/4", 0]]},
    "seeds": {"start": -1, "values": [[0.31, 0.17], [1, 0]]},
}


RATIONAL_M4_FLOW = {
    "mode": "rational", "precision_bits": 256, "tolerance": 1.0e-20,
    "n_max": 2, "seed": 1, "checks": ["flow"],
    "weight": {"placement": "canonical",
               "singularities": [[0, 0], ["2/5", "1/5"], ["-1/3", "1/2"],
                                 [1, 0]],
               "residues": [[-3, 0], [-4, 0], [-4, 0], [-5, 0]]},
}


def _traced_verify(tmp_path, config_data) -> dict:
    """Layer metrics of one traced ``verify`` run in a fresh interpreter."""
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(config_data))
    result = tmp_path / "metrics.json"
    src = str(Path(circlebops.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(PERFBENCH), str(config),
         str(tmp_path / "report.json"), str(result)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(result.read_text())
    assert got["exit"] == 0
    return got["metrics"]


def test_layer_tracer_reaches_spectral_polys_and_eps(tmp_path):
    """The spectral work of CONFIG, counted exactly: the extraction's and
    the Casoratian checks' series products, and the products that
    ``_mul_poly_mults`` reads from the lengths of their operands."""
    metrics = _traced_verify(tmp_path, CONFIG)
    assert metrics["spectral.extract.calls"] == 6
    assert metrics["polys.mul_poly.calls"] == 150
    assert metrics["polys.mul_poly.mults"] == 5169
    assert metrics["bops.eps.s"] > 0


def test_layer_tracer_times_rational_moments_per_workspace(tmp_path):
    """Every rational workspace takes its seeds from one closed-form call."""
    metrics = _traced_verify(tmp_path, RATIONAL_M4_FLOW)
    assert metrics["deform.workspaces"] > 0
    assert metrics["moments.rational.calls"] == metrics["deform.workspaces"]
    assert metrics["moments.rational.s"] > 0


def test_checks_evaluate_each_polynomial_once_per_point(tmp_path,
                                                        monkeypatch):
    """identities, bilinear and summation evaluate no (coefficients, point,
    precision) triple twice, and find the roots of Theta_n once per level.
    Every point value of the checks comes from the integer evaluator
    ``peval_grid``, which is wrapped here."""
    from collections import Counter

    from mpmath import mp

    from circlebops import garnier, polys
    from circlebops.cli import main
    from circlebops.mputil import to_mpc

    peval, roots = polys.peval_grid, garnier.polynomial_roots
    evaluated, rooted = Counter(), []

    def counted_peval(g, z):
        key = (tuple(g.re), tuple(g.im), g.exp), to_mpc(z)._mpc_, mp.prec
        evaluated[key] += 1
        return peval(g, z)

    def counted_roots(coeffs):
        rooted.append(coeffs)
        return roots(coeffs)

    wrap = {peval: counted_peval, roots: counted_roots}
    for name, mod in list(sys.modules.items()):
        if name == "circlebops" or name.startswith("circlebops."):
            for attr, val in list(vars(mod).items()):
                if callable(val) and val in wrap:
                    monkeypatch.setattr(mod, attr, wrap[val])
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(
        {**CONFIG, "checks": ["identities", "bilinear", "summation"]}))
    assert main(["--config", str(config), "verify",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert evaluated and max(evaluated.values()) == 1
    assert len(rooted) == CONFIG["n_max"] + 1


def test_one_discrete_garnier_trajectory_per_workspace(tmp_path,
                                                       monkeypatch):
    """The oracle suite (to n_max) and the tau suite (to n_max + 2) read one
    trajectory: n_max + 2 steps in all."""
    from circlebops import discrete_garnier
    from circlebops.cli import main

    step, steps = discrete_garnier.dg_step, []

    def counted_step(state, pair):
        steps.append(state.n)
        return step(state, pair)

    for name, mod in list(sys.modules.items()):
        if name == "circlebops" or name.startswith("circlebops."):
            for attr, val in list(vars(mod).items()):
                if val is step:
                    monkeypatch.setattr(mod, attr, counted_step)
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump({**CONFIG, "checks": ["oracle", "tau"]}))
    assert main(["--config", str(config), "verify",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert steps == list(range(CONFIG["n_max"] + 2))
