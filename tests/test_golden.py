"""Golden reports: `verify` output, byte for byte apart from `timing_s`.

A refactor must leave every report digit where it was.  Each case runs
`verify` on a small configuration and compares the bytes it wrote, with
the `timing_s` line cut out as text, with the file of the same name under
`tests/golden/`; a writer that changed the layout fails as surely as one
that moved a digit.  A change that moves digits on purpose regenerates the
files with

    PYTHONPATH=src python tests/test_golden.py

and says which digits moved and why.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest
import yaml

from circlebops.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    # the README configuration
    "readme-formal": {
        "mode": "formal", "precision_bits": 128, "tolerance": 1.0e-20,
        "n_max": 8, "seed": 1,
        "checks": ["identities", "bilinear", "summation", "oracle", "tau"],
        "weight": {"placement": "canonical",
                   "singularities": [[0, 0], ["2/5", 0], [1, 0]],
                   "residues": [["1/3", 0], ["-1/2", 0], ["1/4", 0]]},
        "seeds": {"start": -1, "values": [[0.31, 0.17], [1, 0]]},
    },
    # the README weight with its moments taken by contour quadrature
    "readme-quadrature": {
        "mode": "quadrature", "precision_bits": 128, "tolerance": 1.0e-20,
        "n_max": 8, "seed": 1,
        "checks": ["identities", "bilinear", "summation", "oracle", "tau"],
        "weight": {"placement": "canonical",
                   "singularities": [[0, 0], ["2/5", 0], [1, 0]],
                   "residues": [["1/3", 0], ["-1/2", 0], ["1/4", 0]]},
    },
    # tests/conftest.rational_case_m4 under the flow checks
    "rational-m4-flow": {
        "mode": "rational", "precision_bits": 256, "tolerance": 1.0e-20,
        "n_max": 3, "seed": 1, "checks": ["flow"],
        "weight": {"placement": "canonical",
                   "singularities": [[0, 0], ["2/5", "1/5"], ["-1/3", "1/2"],
                                     [1, 0]],
                   "residues": [[-3, 0], [-4, 0], [-4, 0], [-5, 0]]},
    },
}


# the last top-level key of every report, after its predecessor's comma
TIMING_LINE = re.compile(r',\n "timing_s": [^\n]*(?=\n\}\n\Z)')


def run_command(config: dict, argv: list, out: Path) -> str:
    """The text a command wrote to ``out`` with ``config``."""
    cfg = out.with_suffix(".yaml")
    cfg.write_text(yaml.safe_dump(config))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["--config", str(cfg)] + argv + ["--out", str(out)])
    assert code == 0
    return out.read_text()


def report_text(name: str, workdir: Path) -> str:
    """The `verify` report of case ``name`` without its `timing_s` line."""
    text = run_command(CASES[name], ["verify"], workdir / f"{name}.json")
    text, cut = TIMING_LINE.subn("", text)
    assert cut == 1
    return text


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_file(name, tmp_path):
    want = (GOLDEN / f"{name}.json").read_text()
    assert report_text(name, tmp_path) == want, (
        f"the {name} report moved; if that is intended, regenerate the "
        f"golden files (see this module's docstring)")


# the README's commands: a case, the checks the command judges (bops
# judges its own), and its arguments; garnier's flow checks need the
# rational case
COMMANDS = {
    "moments": ("readme-formal", [], ["moments", "--range=-8:8"]),
    "bops": ("readme-formal", [], ["bops", "--nmax", "8"]),
    "spectral": ("readme-formal", ["identities", "bilinear", "summation"],
                 ["spectral", "--nmax", "8"]),
    "garnier": ("readme-formal", [], ["garnier", "--nmax", "6"]),
    "garnier-flow": ("rational-m4-flow", ["flow"], ["garnier"]),
    "dgarnier": ("readme-formal", ["oracle", "tau"],
                 ["dgarnier", "--nmax", "10"]),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_report_is_json_dumps_text(command, tmp_path):
    """Each command's file is exactly `json.dumps(indent=1, sort_keys=True)`
    text and a newline, so a report parsed and re-serialised so compares
    equal."""
    case, checks, argv = COMMANDS[command]
    text = run_command({**CASES[case], "checks": checks}, argv,
                       tmp_path / "out.json")
    assert text == json.dumps(json.loads(text), indent=1,
                              sort_keys=True) + "\n"


def test_the_sweep_csv_is_its_rows_rendered(tmp_path):
    """`sweep` writes CSV, not JSON: a header, then one row per grid point
    whose text is the repr of its float and int."""
    text = run_command(CASES["readme-formal"],
                       ["sweep", "--param", "t1", "--grid", "0.2:0.8:25"],
                       tmp_path / "out.csv")
    head, *rows = text.splitlines(keepends=True)
    assert head == "t1, first_singular_n\n"
    assert len(rows) == 25
    for row in rows:
        val, fs = row.split(", ")
        assert row == f"{float(val)!r}, {int(fs)}\n"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            (GOLDEN / f"{name}.json").write_text(report_text(name, Path(tmp)))
            print(f"wrote {GOLDEN / name}.json", file=sys.stderr)
