"""The benchmark's layer tracer still finds the functions it wraps, and
the work counts that timings on a shared host cannot resolve.

``perfbench/layers.py`` patches circlebops by name from outside; a rename
would silently zero its metrics.  The traced CLI run happens in a fresh
interpreter, because ``install`` rebinds functions in every loaded
circlebops module; so does the mpc operation count, whose caches a run in
this process would have warmed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import circlebops
from circlebops.suites import SUITE_BUILDERS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[3])
from layers import Tracer, install
import circlebops.cli as cli
tracer = Tracer()
install(tracer)
code = cli.main(["--config", sys.argv[1], "verify", "--out", sys.argv[2]])
with open(sys.argv[4], "w") as fh:
    json.dump({"exit": code, "metrics": tracer.metrics(),
               "spans": [[name, parent] for name, _, _, parent
                         in tracer.spans]}, fh)
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


def _fresh_verify(tmp_path, config_data, script, *args) -> str:
    """The stdout of ``script`` run in a fresh interpreter with the paths
    of a config file of config_data and of a report, then ``args``."""
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(config_data))
    src = str(Path(circlebops.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(config),
         str(tmp_path / "report.json"), *args],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _traced_verify(tmp_path, config_data) -> dict:
    """The layer metrics (``metrics``) and the spans as [name, parent
    index] (``spans``) of one traced ``verify`` run in a fresh
    interpreter."""
    result = tmp_path / "metrics.json"
    _fresh_verify(tmp_path, config_data, SCRIPT, str(PERFBENCH), str(result))
    got = json.loads(result.read_text())
    assert got["exit"] == 0
    return got


def test_layer_tracer_reaches_spectral_polys_and_eps(tmp_path):
    """The spectral work of CONFIG, counted exactly: the extraction's and
    the Casoratian checks' series products, and the products that
    ``_mul_poly_mults`` reads from the lengths of their operands."""
    metrics = _traced_verify(tmp_path, CONFIG)["metrics"]
    assert metrics["spectral.extract.calls"] == 6
    assert metrics["polys.mul_poly.calls"] == 150
    assert metrics["polys.mul_poly.mults"] == 5145
    assert metrics["bops.eps.s"] > 0


def test_layer_tracer_times_rational_moments_per_workspace(tmp_path):
    """Every rational workspace takes its seeds from one closed-form call,
    and every recurrence step is one wrapped ``_step_forward`` or
    ``_step_backward`` call: the counts of RATIONAL_M4_FLOW, exactly."""
    metrics = _traced_verify(tmp_path, RATIONAL_M4_FLOW)["metrics"]
    assert metrics["deform.workspaces"] == 9
    assert metrics["moments.rational.calls"] == metrics["deform.workspaces"]
    assert metrics["moments.rational.s"] > 0
    assert metrics["moments.steps"] == 126
    assert metrics["moments.window"] == 17


@pytest.mark.parametrize("config, suites", [
    ({**CONFIG, "n_max": 3, "checks": list(SUITE_BUILDERS)}, SUITE_BUILDERS),
    (RATIONAL_M4_FLOW, ["flow"])], ids=["formal", "flow"])
def test_each_suite_runs_in_one_span_that_no_suite_span_holds(
        tmp_path, config, suites):
    """The inclusive ``suite.<name>`` metrics count each suite's time once:
    a traced run opens one span per configured suite, and none inside
    another suite's span (a builder of ``SUITE_BUILDERS`` that called the
    wrapped ``flow_suite`` would nest two ``suite.flow`` spans)."""
    spans = _traced_verify(tmp_path, config)["spans"]
    opened = [i for i, (name, _) in enumerate(spans)
              if name.startswith("suite.")]
    assert sorted(spans[i][0] for i in opened) == \
        sorted(f"suite.{name}" for name in suites)
    for i in opened:
        parent = spans[i][1]
        while parent is not None:
            assert not spans[parent][0].startswith("suite."), spans[i][0]
            parent = spans[parent][1]


def _wrap_everywhere(monkeypatch, wrap: dict) -> None:
    """Rebind each function of ``wrap`` to its replacement in every loaded
    circlebops module."""
    for name, mod in list(sys.modules.items()):
        if name == "circlebops" or name.startswith("circlebops."):
            for attr, val in list(vars(mod).items()):
                if callable(val) and val in wrap:
                    monkeypatch.setattr(mod, attr, wrap[val])


def _verify(tmp_path, config_data) -> None:
    """One in-process ``verify`` run of config_data, which must pass."""
    from circlebops.cli import main

    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(config_data))
    assert main(["--config", str(config), "verify",
                 "--out", str(tmp_path / "report.json")]) == 0


def test_each_eps_series_is_formed_once_per_level(tmp_path, monkeypatch):
    """The Schur generator forms each (level, entry) once: every call that
    grows it keeps each entry formed before as the same object.  Over
    CONFIG its windows reach level n_max + 2 and hold 336 entries."""
    from circlebops.bops import ToeplitzOracle

    reach, oracles = ToeplitzOracle._reach, []

    def entries(oracle):
        return {(k, s, m): v for k, sides in enumerate(oracle._gen)
                for s, side in enumerate(sides) for m, v in side.items()}

    def checked_reach(oracle, *args):
        if oracle not in oracles:
            oracles.append(oracle)
        before = entries(oracle)
        try:
            return reach(oracle, *args)
        finally:
            after = entries(oracle)
            assert all(after[key] is v for key, v in before.items())

    monkeypatch.setattr(ToeplitzOracle, "_reach", checked_reach)
    _verify(tmp_path, CONFIG)
    (oracle,) = oracles
    assert len(oracle._gen) == CONFIG["n_max"] + 3
    assert len(entries(oracle)) == 336


def test_flow_forms_the_starred_half_only_where_a_check_reads_it(
        tmp_path, monkeypatch):
    """Of the nine oracles of RATIONAL_M4_FLOW, the base and the four of
    the z_1 stencil, whose residue matrices the deformation checks read,
    form an epsstar-series; the four of the z_2 stencil feed only the
    coordinates and momenta and form none."""
    from circlebops.bops import ToeplitzOracle

    init, epsstar = ToeplitzOracle.__init__, ToeplitzOracle.epsstar_series
    oracles, starred = [], []

    def counted_init(oracle, *args, **kwargs):
        oracles.append(oracle)
        init(oracle, *args, **kwargs)

    def counted_epsstar(oracle, *args):
        starred.append(oracle)
        return epsstar(oracle, *args)

    monkeypatch.setattr(ToeplitzOracle, "__init__", counted_init)
    monkeypatch.setattr(ToeplitzOracle, "epsstar_series", counted_epsstar)
    _verify(tmp_path, RATIONAL_M4_FLOW)
    assert [any(o is s for s in starred) for o in oracles] == \
        [True] * 5 + [False] * 4


def _point_evaluations(tmp_path, monkeypatch, config_data):
    """The (coefficients, point, precision) triples that one ``verify`` run
    of config_data evaluates, counted, and the number of root findings.
    Every point value of the checks comes from the integer evaluator
    ``peval_grid``, which is wrapped here."""
    from collections import Counter

    from mpmath import mp

    from circlebops import garnier, polys
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

    _wrap_everywhere(monkeypatch, {peval: counted_peval,
                                   roots: counted_roots})
    _verify(tmp_path, config_data)
    return evaluated, len(rooted)


def test_checks_evaluate_each_polynomial_once_per_point(tmp_path,
                                                        monkeypatch):
    """identities, bilinear, summation and oracle evaluate no
    (coefficients, point, precision) triple twice, and find the roots of
    Theta_n once per level."""
    evaluated, rooted = _point_evaluations(
        tmp_path, monkeypatch,
        {**CONFIG, "checks": ["identities", "bilinear", "summation",
                              "oracle"]})
    assert evaluated and max(evaluated.values()) == 1
    assert rooted == CONFIG["n_max"] + 1


def test_flow_checks_evaluate_each_polynomial_once_per_point(tmp_path,
                                                             monkeypatch):
    """The flow suite evaluates no (coefficients, point, precision) triple
    twice either, and finds the roots of Theta_n once in each of its nine
    workspaces: the base and the two four-point stencils."""
    evaluated, rooted = _point_evaluations(tmp_path, monkeypatch,
                                           RATIONAL_M4_FLOW)
    assert evaluated and max(evaluated.values()) == 1
    assert rooted == 9


def test_each_flow_quantity_is_formed_once(tmp_path, monkeypatch):
    """The pipeline and Hamilton checks share each closed form dq_r/dz_j
    and dp_r/dz_j, computed once per (n, j, r).  K_j is formed once per
    coordinate set: one quadratic form per j at the base coordinates, and
    one per shifted coordinate set of the q-differences (2 steps, 2 signs,
    N coordinates)."""
    from collections import Counter

    from mpmath import mp

    from circlebops import garnier
    from circlebops.mputil import to_mpc

    formed = Counter()

    def counting_closed(original, kind):
        def run(ws, n, j, r):
            formed[kind, n, j, r, mp.prec] += 1
            return original(ws, n, j, r)
        return run

    def counting_form(ws, q, n, j):
        formed["K", tuple(to_mpc(x)._mpc_ for x in q), n, j, mp.prec] += 1
        return k_form(ws, q, n, j)

    k_form = garnier.k_form
    _wrap_everywhere(monkeypatch, {
        garnier._flow_q: counting_closed(garnier._flow_q, "q"),
        garnier._flow_p: counting_closed(garnier._flow_p, "p"),
        k_form: counting_form})
    _verify(tmp_path, RATIONAL_M4_FLOW)
    N, n = 2, RATIONAL_M4_FLOW["n_max"]
    closed = {(kind, n, j, r, 256): 1 for kind in "qp"
              for j in range(1, N + 1) for r in range(N)}
    assert {k: v for k, v in formed.items() if k[0] != "K"} == closed
    forms = [v for k, v in formed.items() if k[0] == "K"]
    assert forms == [1] * (N * (1 + 2 * 2 * N))


def test_one_discrete_garnier_trajectory_per_workspace(tmp_path,
                                                       monkeypatch):
    """The oracle suite (to n_max) and the tau suite (to n_max + 2) read one
    trajectory: n_max + 2 steps in all."""
    from circlebops import discrete_garnier

    step, steps = discrete_garnier.dg_step, []

    def counted_step(state, pair):
        steps.append(state.n)
        return step(state, pair)

    _wrap_everywhere(monkeypatch, {step: counted_step})
    _verify(tmp_path, {**CONFIG, "checks": ["oracle", "tau"]})
    assert steps == list(range(CONFIG["n_max"] + 2))


# the mpc arithmetic of one `verify` of the README configuration
MPC_OPS = 8138

MPC_OPS_SCRIPT = """
import sys
from mpmath.ctx_mp_python import _mpc
import circlebops.cli as cli
count, inner = [0], [0]

def counted(op):
    def run(a, b):
        count[0] += not inner[0]
        inner[0] += 1
        try:
            return op(a, b)
        finally:
            inner[0] -= 1
    return run

for name in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv",
             "rtruediv", "pow", "rpow"):
    setattr(_mpc, f"__{name}__", counted(getattr(_mpc, f"__{name}__")))
code = cli.main(["--config", sys.argv[1], "verify", "--out", sys.argv[2]])
print(code, count[0])
"""


def test_verify_makes_no_more_mpc_arithmetic_than_pinned(tmp_path):
    """A work count that does not wander with the speed of a shared host:
    the calls of mpc's arithmetic operators (+, -, *, /, ** and their
    reflected forms; a reflected form that calls the plain one counts once)
    in one ``verify`` of the readme-formal golden case, at most MPC_OPS."""
    from test_golden import CASES

    out = _fresh_verify(tmp_path, CASES["readme-formal"], MPC_OPS_SCRIPT)
    code, ops = map(int, out.splitlines()[-1].split())
    assert code == 0
    assert ops <= MPC_OPS, (
        f"verify made {ops} mpc operations, more than the {MPC_OPS} "
        f"pinned; a change that adds arithmetic on purpose raises MPC_OPS "
        f"and says why in CHANGES.md")
