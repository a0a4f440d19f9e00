"""Golden reports: `verify` output, byte for byte apart from `timing_s`.

A refactor must leave every report digit where it was.  Each case runs
`verify` on a small configuration and compares the report, with `timing_s`
removed and serialised as `jsonout.dumps` does, with the file of the same
name under `tests/golden/`.  A change that moves digits on purpose
regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says which digits moved and why.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
import yaml

from circlebops import jsonout
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


def report_text(name: str, workdir: Path) -> str:
    """The `verify` report of case ``name`` without `timing_s`."""
    cfg, out = workdir / f"{name}.yaml", workdir / f"{name}.json"
    cfg.write_text(yaml.safe_dump(CASES[name]))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["--config", str(cfg), "verify", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    del payload["timing_s"]
    return jsonout.dumps(payload)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_file(name, tmp_path):
    want = (GOLDEN / f"{name}.json").read_text()
    assert report_text(name, tmp_path) == want, (
        f"the {name} report moved; if that is intended, regenerate the "
        f"golden files (see this module's docstring)")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            (GOLDEN / f"{name}.json").write_text(report_text(name, Path(tmp)))
            print(f"wrote {GOLDEN / name}.json", file=sys.stderr)
