"""Configuration handling, CLI contracts, determinism."""

import json
import subprocess
import sys

import pytest
import yaml
from mpmath import mpf

import circlebops.cli
from circlebops.cli import main
from circlebops.config import config_from_dict, load_config
from circlebops.errors import ConfigInvalid

BASE = {
    "mode": "formal",
    "precision_bits": 128,
    "tolerance": 1.0e-20,
    "n_max": 3,
    "seed": 1,
    "checks": ["identities"],
    "weight": {
        "placement": "canonical",
        "singularities": [[0, 0], ["2/5", 0], [1, 0]],
        "residues": [["1/3", 0], ["-1/2", 0], ["1/4", 0]],
    },
    "seeds": {"start": -1, "values": [[0.31, 0.17], [1, 0]]},
}


def write_config(tmp_path, **overrides):
    cfg = json.loads(json.dumps(BASE))
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def test_config_validation_errors():
    with pytest.raises(ConfigInvalid):
        config_from_dict({**BASE, "n_max": 0})
    with pytest.raises(ConfigInvalid):
        config_from_dict({**BASE, "precision_bits": 32})
    with pytest.raises(ConfigInvalid):
        config_from_dict({**BASE, "checks": ["nonsense"]})
    with pytest.raises(ConfigInvalid):
        config_from_dict({**BASE, "mode": "telepathy"})
    bad = json.loads(json.dumps(BASE))
    del bad["weight"]
    with pytest.raises(ConfigInvalid):
        config_from_dict(bad)
    bad = json.loads(json.dumps(BASE))
    bad["seeds"]["values"] = []
    with pytest.raises(ConfigInvalid):
        config_from_dict(bad)


def test_nmax_zero_exits_config_code(tmp_path):
    path = write_config(tmp_path, n_max=0)
    assert main(["--config", path, "verify"]) == 2


def test_missing_config_file_exits_config_code(tmp_path):
    assert main(["--config", str(tmp_path / "nope.yaml"), "verify"]) == 2


def test_verify_passes_and_writes_report(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE))
    del cfg["checks"]                      # default suite selection
    cfg["out"] = str(tmp_path / "verify.json")
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["--config", str(path), "verify"]) == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["summary"]["failed"] == 0
    assert report["summary"]["total"] > 50
    ids = {c["id"] for c in report["checks"]}
    for want in ("I0", "l:kappa", "Cas:a", "Cas:c", "rrCf:a", "rrCf:k",
                 "Tform:a", "degree", "Thexp:lead", "2ODE:a", "OTeq:a",
                 "OTeq:e", "Ssum:d", "Tsum:g", "dGarnier:init",
                 "dGarnier:ab", "dGarnier:ham", "tau:I"):
        assert want in ids, want
    assert "timing_s" in report
    out = capsys.readouterr().out
    assert "[pass]" in out and "checks passed" in out


def test_zero_tolerance_fails(tmp_path):
    path = write_config(tmp_path, tolerance=0.0,
                        out=str(tmp_path / "verify.json"))
    assert main(["--config", path, "verify"]) == 1


@pytest.mark.parametrize("yaml_overrides, argv", [
    ({}, ["--tol=-1", "verify"]),
    ({}, ["--tol", "nan", "verify"]),
    ({"tolerance": float("inf")}, ["verify"]),
    ({}, ["bops", "--nmax=-1"]),
    ({}, ["garnier", "--nmax=-1"]),
], ids=["tol-negative", "tol-nan", "tolerance-inf", "bops-nmax-negative",
        "garnier-nmax-negative"])
def test_invalid_values_exit_config_code(tmp_path, capsys, yaml_overrides,
                                         argv):
    """Command-line overrides pass the same validation as the YAML."""
    out = tmp_path / "out.json"
    path = write_config(tmp_path, out=str(out), **yaml_overrides)
    assert main(["--config", path, *argv]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("precision_bits", True), ("tolerance", True), ("n_max", True),
    ("seed", False), ("seeds", {"start": True}),
    ("weight", {"residues": [["1/3", True], ["-1/2", 0], ["1/4", 0]]}),
    ("weight", {"singularities": [[0, 0], [True, "1/5"], [1, 0]]}),
    ("seeds", {"values": [[0.31, 0.17], [True, 0]]}),
], ids=["precision_bits", "tolerance", "n_max", "seed", "seeds.start",
        "residue", "singularity", "seed-value"])
def test_a_yaml_boolean_is_not_a_number(tmp_path, capsys, key, value):
    """Python counts a bool as an int, and YAML reads true, yes and on as
    one: each number of a configuration refuses it."""
    out = tmp_path / "v.json"
    path = write_config(tmp_path, out=str(out), **{key: value})
    assert main(["--config", path, "verify"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("n_mx", 30, "unknown config key 'n_mx'"),
    ("weight", {"residue": [["1/3", 0]]}, "unknown config key 'residue' in "
                                          "weight"),
    ("seeds", {"begin": -1}, "unknown config key 'begin' in seeds"),
], ids=["top", "weight", "seeds"])
def test_an_unknown_key_exits_config_code(tmp_path, capsys, key, value,
                                          message):
    """A misspelt key is refused, not ignored: each block names the keys
    it knows, and a run never falls back to a default for a key it did
    not read."""
    out = tmp_path / "v.json"
    path = write_config(tmp_path, out=str(out), **{key: value})
    assert main(["--config", path, "verify"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify"], ["sweep", "--param", "t1", "--grid", "0.25:0.75:2"],
    ["moments"], ["bops"], ["spectral"], ["garnier"], ["dgarnier"]],
    ids=lambda argv: argv[0])
def test_an_unwritable_out_path_exits_config_code(tmp_path, capsys,
                                                  monkeypatch, argv):
    """An output path in a missing directory or under a file, or one that
    names a directory, is bad input (exit 2), not a traceback.  Every
    command refuses it before it builds a workspace, and creates
    nothing."""
    def unreachable(cfg):
        raise AssertionError("the workspace was built")

    monkeypatch.setattr(circlebops.cli, "build_workspace", unreachable)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    path = write_config(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    for out in (tmp_path / "missing" / "report.out",
                tmp_path / "file" / "report.out", tmp_path / "dir"):
        assert main(["--config", path, *argv, "--out", str(out)]) == 2
        assert f"config error: cannot write {out}" in \
            capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before


def test_verify_rejects_empty_checks(tmp_path):
    path = write_config(tmp_path, checks=[])
    assert main(["--config", path, "verify"]) == 2


def test_flow_requires_rational_mode(tmp_path, capsys):
    """One precondition, one message, for both commands."""
    path = write_config(tmp_path, checks=["flow"])
    for argv in (["verify"], ["garnier"]):
        assert main(["--config", path, *argv,
                     "--out", str(tmp_path / "out.json")]) == 2
        assert "flow checks need mode: rational" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("checks", [["summation"], ["identities", "tau"]])
def test_checks_that_need_a_free_singularity_refuse_m2(tmp_path, capsys,
                                                       checks):
    """With M = 2 there is no Garnier coordinate: the summation and tau
    suites exit 2, with the reason, instead of raising an IndexError."""
    path = write_config(tmp_path, checks=checks, seeds={"values": [[1, 0]]},
                        weight={"singularities": [[0, 0], [1, 0]],
                                "residues": [["1/3", 0], ["1/4", 0]]},
                        out=str(tmp_path / "out.json"))
    assert main(["--config", path, "verify"]) == 2
    assert "need a free singularity" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_a_repeated_check_name_exits_config_code(tmp_path, capsys):
    """A suite named twice would be judged twice."""
    path = write_config(tmp_path, checks=["bilinear", "bilinear"])
    assert main(["--config", path, "verify"]) == 2
    assert "at most once" in capsys.readouterr().err


@pytest.mark.parametrize("values, message", [
    ([float("inf"), 0.17], "bad seed inf"),
    ([[0.31, float("nan")], [1, 0]], "bad seed"),
    (["abc", 0.17], "bad seed 'abc'"),
    ([0.17], "formal mode needs 2 seed moments, got 1"),
    ([0.17, 0.2, 0.3], "formal mode needs 2 seed moments, got 3"),
], ids=["inf", "nan", "not-a-number", "too-few", "too-many"])
def test_bad_seed_moments_exit_config_code(tmp_path, capsys, values,
                                           message):
    """Formal-mode seeds are exact finite rationals, M - 1 of them when the
    origin is singular, checked with the rest of the configuration."""
    out = tmp_path / "v.json"
    path = write_config(tmp_path, seeds={"values": values})
    assert main(["--config", path, "verify", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


def test_general_placement_seeds_count_every_singularity(tmp_path):
    """Without a singular origin the formal window holds M seeds."""
    weight = {"placement": "general",
              "singularities": [["1/2", 0], ["2/5", "1/3"], [2, 0]]}
    path = write_config(tmp_path, weight=weight)
    assert main(["--config", path, "moments"]) == 2
    path = write_config(tmp_path, weight=weight,
                        seeds={"values": [[0.31, 0.17], [1, 0], [0.5, 0]]})
    assert main(["--config", path, "moments",
                 "--out", str(tmp_path / "m.json")]) == 0


@pytest.mark.parametrize("argv, code", [
    (["verify"], 2),
    (["spectral", "--nmax", "2"], 2),
    (["garnier", "--nmax", "2"], 2),
    (["dgarnier", "--nmax", "2"], 2),
    (["sweep", "--param", "t1", "--grid", "0.2:0.4:2"], 2),
    (["moments"], 0),
    (["bops", "--nmax", "2"], 0),
], ids=lambda v: v[0] if isinstance(v, list) else str(v))
def test_general_placement_commands(tmp_path, capsys, argv, code):
    """Spectral data and the level recurrences need the canonical
    placement: those commands refuse a general one as a config error;
    moments and bops work in any placement."""
    out = tmp_path / "out.txt"
    path = write_config(tmp_path, weight={"placement": "general"})
    assert main(["--config", path, *argv, "--out", str(out)]) == code
    if code:
        assert "needs placement: canonical" in capsys.readouterr().err
    assert out.exists() == (code == 0)


def _canonical_bytes(path):
    data = json.loads(path.read_text())
    data.pop("timing_s", None)
    return json.dumps(data, indent=1, sort_keys=True).encode()


def test_determinism_byte_identical(tmp_path):
    p1 = write_config(tmp_path, out=str(tmp_path / "a.json"),
                      checks=["identities", "oracle", "tau"])
    assert main(["--config", p1, "verify"]) == 0
    assert main(["--config", p1, "verify", "--out",
                 str(tmp_path / "b.json")]) == 0
    first = _canonical_bytes(tmp_path / "a.json")
    second = _canonical_bytes(tmp_path / "b.json")
    assert first == second
    report = json.loads((tmp_path / "a.json").read_text())
    assert "timing_s" in report


def test_moments_schema(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "m.json"
    assert main(["--config", path, "moments", "--range=-5:5",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    rows = data["moments"]
    assert [r["k"] for r in rows] == list(range(-5, 6))
    for r in rows:
        assert set(r) >= {"k", "re", "im", "residual"}
        assert r["residual"]["f"] < 1e-20
    assert data["provenance"] == "seeded"


def test_bops_output_marks_gauge_dependence(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "levels.json"
    assert main(["--config", path, "bops", "--nmax", "4",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["levels"]) == 5
    lev = data["levels"][3]
    assert "kappa" in lev["gauge_dependent_fields"]
    assert lev["residual_I0"]["f"] < 1e-25
    assert lev["residual_l"]["f"] < 1e-25


def test_bops_residuals_set_the_exit_code(tmp_path):
    """bops judges the Toeplitz residuals it writes against the tolerance,
    as spectral judges the configured checks."""
    path = write_config(tmp_path)
    for command in ("bops", "spectral"):
        out = tmp_path / f"{command}.json"
        assert main(["--config", path, "--tol", "0", command, "--nmax", "4",
                     "--out", str(out)]) == 1


def test_spectral_output(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "s.json"
    assert main(["--config", path, "spectral", "--nmax", "2",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    lev = data["levels"][2]
    assert len(lev["theta"]) == 2 and len(lev["omega"]) == 3
    assert len(lev["residues"]) == 3
    assert any(r["id"] == "Cas:a" for r in data["checks"])


def test_garnier_output(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "g.json"
    assert main(["--config", path, "garnier", "--nmax", "2",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    lev = data["levels"][2]
    assert len(lev["q"]) == 1 and len(lev["p"]) == 1 and len(lev["K"]) == 1
    assert "accessory" in lev


def test_dgarnier_compare_and_tau(tmp_path):
    path = write_config(tmp_path, checks=["oracle", "tau"])
    out = tmp_path / "dg.json"
    assert main(["--config", path, "dgarnier", "--nmax", "6",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["max_oracle_delta"]["f"] < 1e-25
    assert data["tau"]["max_delta"]["f"] < 1e-25
    assert data["singular"] is None


def test_dgarnier_tau_residuals_set_the_exit_code(tmp_path):
    """The tau suite judges tau.max_delta and tau.lambda_paths against the
    tolerance, as the oracle suite judges the deltas."""
    path = write_config(tmp_path, checks=["tau"])
    out = tmp_path / "dg.json"
    assert main(["--config", path, "--tol", "0", "dgarnier", "--nmax", "6",
                 "--out", str(out)]) == 1
    assert json.loads(out.read_text())["tau"]["max_delta"]["f"] > 0


def test_dgarnier_judges_the_checks_verify_reports(tmp_path):
    """dgarnier with checks [oracle, tau] writes the checks of the oracle
    and tau suites, exactly as verify reports them, and reads its
    per-level deltas off them."""
    path = write_config(tmp_path, n_max=10, checks=["oracle", "tau"])
    dg, report = tmp_path / "dg.json", tmp_path / "verify.json"
    assert main(["--config", path, "dgarnier", "--out", str(dg)]) == 0
    assert main(["--config", path, "verify", "--out", str(report)]) == 0
    data = json.loads(dg.read_text())
    checks = json.loads(report.read_text())["checks"]
    assert data["checks"] == checks
    by_level = {c["n"]: c["residual"] for c in checks
                if c["id"] in ("dGarnier:init", "dGarnier:ab")}
    assert [lev["oracle_delta"] for lev in data["levels"]] == \
        [by_level[n] for n in range(11)]
    (tau_i,) = [c for c in checks if c["id"] == "tau:I"]
    assert data["tau"]["max_delta"] == tau_i["residual"]
    assert len(data["tau"]["I"]) == len(data["levels"]) == 11


@pytest.mark.parametrize("argv", [["verify"], ["dgarnier"]],
                         ids=["verify", "dgarnier"])
def test_a_wrong_momentum_fails_the_hamiltonian_level_check(
        tmp_path, monkeypatch, argv):
    """A planted error in the momenta of ``dg_hamiltonian_residuals`` fails
    dGarnier:ham under both commands."""
    from circlebops import discrete_garnier

    momentum = discrete_garnier.momentum
    monkeypatch.setattr(discrete_garnier, "momentum",
                        lambda ws, sd, z: momentum(ws, sd, z)
                        * (1 + mpf(10) ** -12))
    path = write_config(tmp_path, n_max=6, checks=["oracle"])
    out = tmp_path / "out.json"
    assert main(["--config", path] + argv + ["--out", str(out)]) == 1
    (ham,) = [c for c in json.loads(out.read_text())["checks"]
              if c["id"] == "dGarnier:ham"]
    assert not ham["passed"] and ham["residual"]["f"] > 1e-14


def _perturbed_f1_at_level_7(monkeypatch):
    """Scale f^1_7 of every trajectory by 1 + 1e-12, so that the two
    lambda recurrences of tau recovery disagree at about 2e-13."""
    from circlebops import discrete_garnier

    step = discrete_garnier.dg_step

    def perturbed(state, pair):
        out = step(state, pair)
        if out.n == 7:
            out.f[0] *= 1 + mpf(10) ** -12
        return out
    monkeypatch.setattr(discrete_garnier, "dg_step", perturbed)


@pytest.mark.parametrize("argv", [["verify"], ["dgarnier"]],
                         ids=["verify", "dgarnier"])
def test_disagreeing_lambda_paths_fail_a_check(tmp_path, monkeypatch, argv):
    """Two recovery routes that disagree are a failed check (exit 1),
    judged against the run's tolerance, not an abort."""
    _perturbed_f1_at_level_7(monkeypatch)
    path = write_config(tmp_path, n_max=12, checks=["tau"])
    out = tmp_path / "out.json"
    assert main(["--config", path] + argv + ["--out", str(out)]) == 1
    data = json.loads(out.read_text())
    if argv == ["verify"]:
        (paths,) = [c for c in data["checks"]
                    if c["id"] == "tau:lambda-paths"]
        assert not paths["passed"]
        delta = paths["residual"]["f"]
    else:
        delta = data["tau"]["lambda_paths"]["f"]
    assert 1e-14 < delta < 1e-11


@pytest.mark.parametrize("argv, message", [
    (["moments", "--range=5:2"], "bad --range '5:2'"),
    (["sweep", "--param", "t1", "--grid=0.2:inf:2"], "bad --grid"),
    (["sweep", "--param", "t1", "--grid=nan:0.5:2"], "bad --grid"),
], ids=["moments-range-reversed", "sweep-grid-inf", "sweep-grid-nan"])
def test_bad_ranges_exit_config_code(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    path = write_config(tmp_path)
    assert main(["--config", path, *argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_csv_contract(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "sweep.csv"
    assert main(["--config", path, "sweep", "--param", "t1",
                 "--grid", "0.25:0.75:5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t1, first_singular_n"
    assert len(lines) == 6
    for line in lines[1:]:
        _, tail = line.rsplit(",", 1)
        int(tail)


RATIONAL_M3 = {
    "mode": "rational", "precision_bits": 256, "tolerance": 1.0e-20,
    "n_max": 2, "seed": 1, "checks": ["identities"],
    "weight": {"placement": "canonical",
               "singularities": [[0, 0], ["2/5", "1/5"], [1, 0]],
               "residues": [[-3, 0], [-4, 0], [-5, 0]]},
}


def test_sweep_builds_each_point_in_the_configured_mode(tmp_path):
    """A rational config has no seed moments; each grid point must get its
    closed-form moments, as dgarnier does for the base weight."""
    path = tmp_path / "r.yaml"
    path.write_text(yaml.safe_dump(RATIONAL_M3))
    assert main(["--config", str(path), "dgarnier",
                 "--out", str(tmp_path / "dg.json")]) == 0
    out = tmp_path / "sweep.csv"
    assert main(["--config", str(path), "sweep", "--param", "t1",
                 "--grid", "0.3:0.5:3", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert [r.rsplit(",", 1)[1].strip() for r in rows] == ["-1"] * 3


def test_rational_sweep_rejects_residues_that_are_not_negative_integers(
        tmp_path, capsys):
    """Each grid point is validated like a config file: exit 2 before any
    point runs, and no CSV."""
    path = tmp_path / "r.yaml"
    path.write_text(yaml.safe_dump(RATIONAL_M3))
    out = tmp_path / "s.csv"
    assert main(["--config", str(path), "sweep", "--param", "rho1",
                 "--grid=-4.5:-3.5:3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "negative integer" in err
    assert not out.exists()


def test_sweep_rejects_a_grid_point_outside_the_weight_class(
        tmp_path, capsys):
    """t1 = 0 and t1 = 1 coincide with a fixed singularity: bad input, so
    exit 2 before any point runs, and no CSV; -2 is left to a point that
    degenerates."""
    path = write_config(tmp_path)
    out = tmp_path / "s.csv"
    assert main(["--config", path, "sweep", "--param", "t1",
                 "--grid", "0:1:3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: singularities 0 and 1 coincide" in err
    assert not out.exists()


def test_sweep_exits_config_code_on_bad_input_found_at_a_grid_point(
        tmp_path, capsys):
    """Bad input found while a grid point's workspace is built, here a
    circle singularity that quadrature cannot integrate, exits 2 and
    writes no CSV, as ``moments`` does on that weight; it is not a
    degenerate data point."""
    path = write_config(tmp_path, mode="quadrature")
    out = tmp_path / "s.csv"
    assert main(["--config", path, "sweep", "--param", "rho2",
                 "--grid=-1.5:-1.5:1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: circle singularity "
                                       "with Re rho <= -1 is not "
                                       "integrable\n")
    assert not out.exists()


QUADRATURE_M3 = {
    "mode": "quadrature", "precision_bits": 128, "tolerance": 1.0e-18,
    "n_max": 2, "seed": 1, "checks": ["identities"],
    "weight": {"placement": "canonical",
               "singularities": [[0, 0], ["1/2", 0], [1, 0]],
               "residues": [["-7/12", 0], ["1/3", 0], ["1/2", 0]]},
    "seeds": {"start": -1},
}


@pytest.mark.parametrize("base", [BASE, QUADRATURE_M3],
                         ids=["formal", "quadrature"])
@pytest.mark.parametrize("key, index, value, message", [
    ("residues", 1, "abc", "bad residue 'abc'"),
    ("residues", 0, ["1/0", 0], "bad residue"),
    ("singularities", 1, [1, 2, 3], "bad singularity"),
    ("singularities", 1, None, "bad singularity None"),
    ("singularities", 1, [float("inf"), 0], "bad singularity [inf, 0]"),
    ("placement", None, "sideways", "placement must be one of"),
])
def test_malformed_weight_scalars_exit_config_code(tmp_path, capsys, base,
                                                   key, index, value,
                                                   message):
    cfg = json.loads(json.dumps(base))
    if index is None:
        cfg["weight"][key] = value
    else:
        cfg["weight"][key][index] = value
    path = tmp_path / "w.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "v.json"
    assert main(["--config", str(path), "verify", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("mode, key, value, message", [
    ("formal", "singularities", [[0, 0], [1, 0], [1, 0]],
     "singularities 1 and 2 coincide"),
    ("formal", "residues", [["1/3", 0], [2, 0], ["1/4", 0]],
     "residue 1 = 2 is a nonnegative integer"),
    ("quadrature", "residues", [["1/3", 0], ["-1/2", 0], ["-3/2", 0]],
     "circle singularity with Re rho <= -1 is not integrable"),
], ids=["coinciding", "residue-2", "non-integrable"])
def test_bad_weight_data_exits_config_code(tmp_path, capsys, mode, key,
                                           value, message):
    """Weight data outside the regular class is bad input, not a
    degeneracy of the system."""
    path = write_config(tmp_path, mode=mode, weight={key: value})
    out = tmp_path / "v.json"
    assert main(["--config", path, "verify", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_bops_truncation_exits_degenerate_code(tmp_path, capsys):
    """The rational M=3 system truncates at level 6: exit 3, named level."""
    path = tmp_path / "r.yaml"
    path.write_text(yaml.safe_dump(RATIONAL_M3))
    assert main(["--config", str(path), "bops", "--nmax", "30",
                 "--out", str(tmp_path / "b.json")]) == 3
    assert "determinant at level 6 vanishes" in capsys.readouterr().err


@pytest.mark.parametrize("param", ["rho9", "tx", "rho-1", "t0", "t2"])
def test_sweep_rejects_bad_param_index(tmp_path, param):
    path = write_config(tmp_path)
    assert main(["--config", path, "sweep", "--param", param,
                 "--grid", "0.25:0.75:2",
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert not (tmp_path / "s.csv").exists()


def test_rational_mode_flow_verify(tmp_path):
    cfg = {
        "mode": "rational", "precision_bits": 256, "tolerance": 1.0e-20,
        "n_max": 3, "seed": 1, "checks": ["flow"],
        "weight": {"placement": "canonical",
                   "singularities": [[0, 0], ["2/5", "1/5"], [1, 0]],
                   "residues": [[-3, 0], [-4, 0], [-5, 0]]},
    }
    path = tmp_path / "r.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["--config", str(path), "verify", "--out",
                 str(tmp_path / "flow.json")]) == 0


@pytest.mark.parametrize("weight, message", [
    (BASE["weight"], "negative integer"),
    ({"placement": "general",
      "singularities": [["1/5", 0], ["2/5", "1/5"], [1, 0]],
      "residues": [[-3, 0], [-4, 0], [-5, 0]]}, "placement: canonical"),
], ids=["fractional-residues", "general-placement"])
def test_rational_mode_rejects_weights_without_closed_form_seeds(
        tmp_path, capsys, weight, message):
    """Bad rational input is a config error, not a crash or a degeneracy."""
    cfg = {**RATIONAL_M3, "weight": weight}
    path = tmp_path / "r.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "v.json"
    assert main(["--config", str(path), "verify", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


def test_console_script_entry_point(tmp_path):
    path = write_config(tmp_path, out=str(tmp_path / "v.json"))
    proc = subprocess.run([sys.executable, "-m", "circlebops.cli",
                           "--config", path, "verify"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "circlebops", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: circlebops")
    assert "verify" in proc.stdout


def test_garnier_flow_check_cli(tmp_path):
    path = tmp_path / "r.yaml"
    path.write_text(yaml.safe_dump({**RATIONAL_M3, "checks": ["flow"]}))
    out = tmp_path / "g.json"
    assert main(["--config", str(path), "garnier", "--nmax", "2",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["checks"] and all(c["passed"] for c in data["checks"])


def test_quadrature_mode_pipeline(tmp_path):
    cfg = {
        "mode": "quadrature", "precision_bits": 128, "tolerance": 1.0e-18,
        "n_max": 2, "seed": 1, "checks": ["identities"],
        "weight": {"placement": "canonical",
                   "singularities": [[0, 0], ["1/2", 0], [1, 0]],
                   "residues": [["-7/12", 0], ["1/3", 0], ["1/2", 0]]},
        "seeds": {"start": -1},
    }
    path = tmp_path / "q.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "qb.json"
    assert main(["--config", str(path), "bops", "--nmax", "2",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["levels"][2]["residual_I0"]["f"] < 1e-20


def test_an_empty_checks_list_judges_nothing(tmp_path):
    """checks: [] writes the data of spectral, garnier and dgarnier with
    no checks and exits 0, even at tolerance 0."""
    path = write_config(tmp_path, checks=[])
    out = tmp_path / "out.json"
    for command in ("spectral", "garnier", "dgarnier"):
        assert main(["--config", path, "--tol", "0", command, "--nmax", "2",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["checks"] == [] and len(data["levels"]) == 3


@pytest.mark.parametrize("command", ["spectral", "garnier", "dgarnier"])
def test_every_command_judges_the_configured_checks_as_verify(tmp_path,
                                                              command):
    """The config's checks list picks the suites of every command that
    judges checks, and each writes them under checks as verify reports
    them."""
    path = write_config(tmp_path, n_max=6,
                        checks=["bilinear", "summation", "oracle", "tau"])
    out, report = tmp_path / "out.json", tmp_path / "verify.json"
    assert main(["--config", path, command, "--out", str(out)]) == 0
    assert main(["--config", path, "verify", "--out", str(report)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert checks == json.loads(report.read_text())["checks"]
    assert {c["id"] for c in checks} >= {"OTeq:a", "Ssum:d", "dGarnier:ab",
                                          "tau:I"}


def test_spectral_and_verify_report_the_same_residuals(tmp_path):
    """spectral forms its data before it judges the identity suite, verify
    judges it first; the check residuals agree string for string, and each
    level's band_residual is verify's degree residual."""
    path = write_config(tmp_path, n_max=6,
                        checks=["identities", "bilinear", "summation"])
    out, report = tmp_path / "spectral.json", tmp_path / "verify.json"
    assert main(["--config", path, "spectral", "--out", str(out)]) == 0
    assert main(["--config", path, "verify", "--out", str(report)]) == 0
    spectral = json.loads(out.read_text())
    checks = json.loads(report.read_text())["checks"]
    assert spectral["checks"] == checks
    degree = {c["n"]: c["residual"] for c in checks if c["id"] == "degree"}
    assert {lev["n"]: lev["band_residual"]
            for lev in spectral["levels"]} == degree


def test_suite_order_moves_no_residual(tmp_path):
    """The benchmark's verify-deep configuration (seed 0: the README
    weight, all five formal suites to n_max 24) with its suites in two
    orders: every residual string is the same."""
    checks = ["identities", "bilinear", "summation", "oracle", "tau"]
    reports = []
    for order in (checks, checks[::-1]):
        path = write_config(tmp_path, n_max=24, checks=order)
        out = tmp_path / "verify.json"
        assert main(["--config", path, "verify", "--out", str(out)]) == 0
        reports.append({(c["id"], c.get("n")): c["residual"]["s"]
                        for c in json.loads(out.read_text())["checks"]})
    assert len(reports[0]) == 1513
    assert reports[0] == reports[1]


def _libyaml(monkeypatch, libyaml):
    """Leave ``yaml.CSafeLoader`` as it is, or take it away so that
    ``load_config`` falls back on the pure-Python ``SafeLoader``."""
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")


@pytest.mark.parametrize("libyaml", [True, False])
def test_malformed_yaml_exits_config_code(tmp_path, capsys, monkeypatch,
                                          libyaml):
    _libyaml(monkeypatch, libyaml)
    path = tmp_path / "bad.yaml"
    path.write_text("mode: formal\nchecks: [identities\nn_max: 3\n")
    with pytest.raises(ConfigInvalid, match="^malformed config: "):
        load_config(str(path), {})
    assert main(["--config", str(path), "verify"]) == 2
    assert "config error: malformed config: " in capsys.readouterr().err


@pytest.mark.parametrize("libyaml", [True, False])
def test_either_loader_reads_the_golden_configs(tmp_path, monkeypatch,
                                                libyaml):
    """``load_config`` reads the configs of the golden cases and of these
    tests to the same ``RunConfig`` with libyaml's loader and without it."""
    from test_golden import CASES

    _libyaml(monkeypatch, libyaml)
    path = tmp_path / "cfg.yaml"
    for cfg in [BASE, *CASES.values()]:
        path.write_text(yaml.safe_dump(cfg))
        assert load_config(str(path), {}) == config_from_dict(dict(cfg))
