"""Machine-readable output.

High-precision values do not fit in JSON doubles, so every scalar is emitted
as a full-precision decimal string together with a convenience double
(``*_f`` fields).  Serialisation is deterministic: fixed key order, no
timing inside the payload (the CLI attaches timing separately so reports can
be compared byte-for-byte).
"""

from __future__ import annotations

import json

import mpmath
from mpmath import mp, mpf, mpc


def _digits() -> int:
    return mp.dps + 4


def num_str(x) -> str:
    return mpmath.nstr(mpf(x), _digits(), strip_zeros=True)


def real_field(x):
    x = mpf(x)
    return {"s": num_str(x), "f": float(x)}


def complex_field(z):
    z = mpc(z)
    return {"re": num_str(mpmath.re(z)), "im": num_str(mpmath.im(z)),
            "re_f": float(mpmath.re(z)), "im_f": float(mpmath.im(z))}


def complex_list(vals):
    return [complex_field(v) for v in vals]


def matrix_field(m):
    return [[complex_field(m[i][j]) for j in range(len(m[i]))]
            for i in range(len(m))]


def check_field(result, tol_field=None):
    """A check as JSON; ``tol_field`` is ``real_field(result.tol)`` when the
    caller has it already."""
    out = {"id": result.label, "residual": real_field(result.residual),
           "tol": tol_field or real_field(result.tol),
           "passed": result.passed,
           "gauge_invariant": result.gauge_invariant}
    if result.n is not None:
        out["n"] = result.n
    if result.note:
        out["note"] = result.note
    return out


def dump(payload, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def dumps(payload) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"
