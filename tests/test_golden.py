"""Golden reports: `verify` output, byte for byte apart from `timing_s`.

A refactor must leave every report digit where it was.  Each case runs
`verify` on a small configuration and compares the bytes it wrote, with
the `timing_s` line cut out as text, with the file of the same name under
`tests/golden/`; a writer that changed the layout fails as surely as one
that moved a digit.  A change that moves digits on purpose regenerates the
files with

    PYTHONPATH=src python tests/test_golden.py

and says which digits moved and why.

Regenerating the files lets any loss of accuracy pass, so a second file,
``tests/golden/headroom.json``, is a ledger: for each case, the least
headroom log2(tol / residual) of each check family (check id), null for a
family whose every residual is exactly zero.  A family may not fall more
than ``HEADROOM_SLACK`` bits below its entry, and no family may appear or
disappear, without the ledger being rewritten with

    PYTHONPATH=src python tests/test_golden.py --headroom

and the loss named, with its cause, in ``CHANGES.md``.  The ledger also
holds the cases of ``LEDGER_CASES``, which have no golden file.
"""

import contextlib
import functools
import io
import json
import math
import re
import sys
import tempfile
from decimal import Decimal
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
    # tests/conftest.standard_case_m5: N = 3, so the coordinate sums
    # (Ssum:e/f/g, Tsum:*) run over three roots
    "m5-formal": {
        "mode": "formal", "precision_bits": 128, "tolerance": 1.0e-20,
        "n_max": 12, "seed": 1,
        "checks": ["identities", "bilinear", "summation", "oracle", "tau"],
        "weight": {"placement": "canonical",
                   "singularities": [[0, 0], ["1/3", 0], ["-2/5", "1/4"],
                                     ["1/2", "1/2"], [1, 0]],
                   "residues": [["2/5", 0], ["-3/7", 0], ["1/6", 0],
                                ["1/5", "1/3"], ["-5/8", 0]]},
        "seeds": {"start": -1, "values": [[0.12, 0.07], [1, 0], [0.3, -0.2],
                                          [-0.15, 0.4]]},
    },
}

# cases kept in the headroom ledger only
LEDGER_CASES = {
    # the README weight by quadrature, all five formal suites to n_max 48:
    # deep enough that the discrete-Garnier trajectory's loss of headroom
    # shows (dGarnier:ab, tau:I)
    "readme-deep": {
        "mode": "quadrature", "precision_bits": 128, "tolerance": 1.0e-20,
        "n_max": 48, "seed": 1,
        "checks": ["identities", "bilinear", "summation", "oracle", "tau"],
        "weight": {"placement": "canonical",
                   "singularities": [[0, 0], ["2/5", 0], [1, 0]],
                   "residues": [["1/3", 0], ["-1/2", 0], ["1/4", 0]]},
    },
}
LEDGER = {**CASES, **LEDGER_CASES}


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
    text = run_command(LEDGER[name], ["verify"], workdir / f"{name}.json")
    text, cut = TIMING_LINE.subn("", text)
    assert cut == 1
    return text


@functools.cache
def fresh_report(name: str) -> str:
    """``report_text`` of case ``name``, run once per pytest run: the golden
    and the headroom tests read the same run."""
    with tempfile.TemporaryDirectory() as tmp:
        return report_text(name, Path(tmp))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_file(name):
    want = (GOLDEN / f"{name}.json").read_text()
    assert fresh_report(name) == want, (
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


HEADROOM = GOLDEN / "headroom.json"
HEADROOM_SLACK = 1.0        # bits a family may lose against its entry


def family_headroom(text: str) -> dict:
    """check id -> least headroom log2(tol / residual) in bits over the
    report's checks of that id, rounded to 0.01 bit; None (infinite) when
    every residual of the id is exactly zero."""
    least = {}
    for check in json.loads(text)["checks"]:
        resid = Decimal(check["residual"]["s"])
        head = (math.inf if resid == 0 else
                float((Decimal(check["tol"]["s"]) / resid).ln()
                      / Decimal(2).ln()))
        least[check["id"]] = min(least.get(check["id"], math.inf), head)
    return {cid: None if h == math.inf else round(h, 2)
            for cid, h in least.items()}


@pytest.mark.parametrize("name", sorted(LEDGER))
def test_no_family_loses_headroom_against_the_ledger(name):
    ledger = json.loads(HEADROOM.read_text())[name]
    got = family_headroom(fresh_report(name))
    assert sorted(got) == sorted(ledger), (
        f"{name}: families appeared {sorted(set(got) - set(ledger))} or "
        f"disappeared {sorted(set(ledger) - set(got))}; rewrite the ledger "
        f"(see this module's docstring)")

    def bits(h):
        return math.inf if h is None else h
    lost = {cid: (ledger[cid], got[cid]) for cid in ledger
            if bits(got[cid]) < bits(ledger[cid]) - HEADROOM_SLACK}
    assert not lost, (
        f"{name}: families lost more than {HEADROOM_SLACK} bit of headroom "
        f"(ledger, now): {lost}; name each loss and its cause in CHANGES.md "
        f"and rewrite the ledger (see this module's docstring)")


if __name__ == "__main__":
    if sys.argv[1:] == ["--headroom"]:
        HEADROOM.write_text(json.dumps(
            {name: family_headroom(fresh_report(name))
             for name in sorted(LEDGER)}, indent=1) + "\n")
        print(f"wrote {HEADROOM}", file=sys.stderr)
    else:
        for name in sorted(CASES):
            (GOLDEN / f"{name}.json").write_text(fresh_report(name))
            print(f"wrote {GOLDEN / name}.json", file=sys.stderr)
