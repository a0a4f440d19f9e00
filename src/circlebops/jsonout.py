"""Machine-readable output.

High-precision values do not fit in JSON doubles, so every scalar is emitted
as a full-precision decimal string together with a convenience double
(``*_f`` fields).  A value that is not finite as a double (an infinite or
nan residual, or one beyond the double range) has the string "+inf", "-inf"
or "nan" and the double null, so the output is strict JSON; it is written
with ``allow_nan=False``, which refuses a bare Infinity or NaN.  ``dump``
streams the encoder's chunks to the file: joining them first into one
string holds every chunk at once (about 3 MB for a verify-deep report).
Serialisation is deterministic: fixed key order, no timing inside the
payload (the CLI attaches timing separately so reports can be compared
byte-for-byte).
"""

from __future__ import annotations

import json
import math

import mpmath
from mpmath import mp, mpf, mpc


def _digits() -> int:
    return mp.dps + 4


def num_str(x) -> str:
    return mpmath.nstr(mpf(x), _digits(), strip_zeros=True)


def _double(x):
    """The convenience double of x, or None where it is not finite."""
    f = float(x)
    return f if math.isfinite(f) else None


def real_field(x):
    x = mpf(x)
    return {"s": num_str(x), "f": _double(x)}


def complex_field(z):
    z = mpc(z)
    return {"re": num_str(mpmath.re(z)), "im": num_str(mpmath.im(z)),
            "re_f": _double(mpmath.re(z)), "im_f": _double(mpmath.im(z))}


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


# strict JSON: a bare Infinity or NaN raises instead of being written
_FORMAT = {"indent": 1, "sort_keys": True, "allow_nan": False}


def dump(payload, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, **_FORMAT)
        fh.write("\n")


def dumps(payload) -> str:
    return json.dumps(payload, **_FORMAT) + "\n"
