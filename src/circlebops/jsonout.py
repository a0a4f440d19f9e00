"""Machine-readable output.

High-precision values do not fit in JSON doubles, so every scalar is emitted
as a full-precision decimal string together with a convenience double
(``*_f`` fields).  A value that is not finite as a double (an infinite or
nan residual, or one beyond the double range) has the string "+inf", "-inf"
or "nan" and the double null, so the output is strict JSON: a bare
Infinity or NaN float in a payload raises ``ValueError``.  Serialisation is
deterministic: fixed key order, no timing inside the payload (the CLI
attaches timing separately so reports can be compared byte-for-byte).

``dump`` writes exactly the text of ``json.dump(payload, indent=1,
sort_keys=True, allow_nan=False)`` and a newline, so a report parsed and
re-serialised that way compares equal.  It does not call ``json.dump``:
json's C encoder makes only compact text, held whole in memory, so json
runs its pure-Python encoder whenever it streams or indents, and on a
verify report that encoder took about half of the output stage.
``dump`` is a small writer instead, and it alone renders high-precision
numbers.  An ``mpf`` leaf is written as the object ``{"f", "s"}`` and an
``mpc`` leaf as ``complex_field`` of it, so a payload holds the values
themselves, in lists and matrices too.  A ``report.CheckResult`` anywhere in a
payload is rendered straight to the text of its JSON object: the residual
with one decimal conversion, each distinct tolerance once per dump, the id
and note escaped by json's own C ``encode_basestring_ascii``, ``n`` only
when set and ``note`` only when non-empty.  The writer streams: one write
per check, and per value or bracket of the containers above the checks;
the report is never joined into one string, so peak RSS does not grow
with it.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote

from mpmath import mp, mpf, mpc
from mpmath.libmp import round_nearest, to_float, to_str

from .report import CheckResult


def _scalar(x):
    """The decimal string of x at mp.dps + 4 digits, from one conversion,
    and its convenience double, None where it is not finite."""
    x = mpf(x)._mpf_
    f = to_float(x, rnd=round_nearest)
    return (to_str(x, mp.dps + 4, strip_zeros=True),
            f if math.isfinite(f) else None)


def complex_field(z):
    """The fields of z, to merge with other keys in one JSON object."""
    z = mpc(z)
    (re, re_f), (im, im_f) = _scalar(z.real), _scalar(z.imag)
    return {"re": re, "im": im, "re_f": re_f, "im_f": im_f}


def dump(payload, path: str) -> None:
    with open(path, "w") as fh:
        _write(fh.write, payload, "\n", "", {})
        fh.write("\n")


# ---------------------------------------------------------------------------
# the writer; ``indent`` is the newline and indentation of the value's line
# ---------------------------------------------------------------------------

def _write(write, value, indent, lead, tols) -> None:
    """Write ``lead`` and the text of value: a container that holds a
    container or a check one child at a time, anything else in one piece."""
    if isinstance(value, CheckResult):
        write(lead + _check(value, indent, tols))
        return
    if isinstance(value, dict):
        keys = sorted(value)
        children = [value[k] for k in keys]
    else:
        children = value if isinstance(value, (list, tuple)) else ()
    if not any(isinstance(v, _NESTED) for v in children):
        write(lead + _text(value, indent))
        return
    inner = indent + " "
    if isinstance(value, dict):
        sep, close = lead + "{" + inner, indent + "}"
        heads = [_quote(k) + ": " for k in keys]
    else:
        sep, close = lead + "[" + inner, indent + "]"
        heads = [""] * len(children)
    for head, child in zip(heads, children):
        _write(write, child, inner, sep + head, tols)
        sep = "," + inner
    write(close)


_NESTED = (dict, list, tuple, CheckResult)


def _text(value, indent) -> str:
    inner = indent + " "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join(
            _quote(k) + ": " + _text(value[k], inner)
            for k in sorted(value)) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(
            _text(v, inner) for v in value) + indent + "]"
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, mpf):
        return _real(value, indent)
    if isinstance(value, mpc):
        return _text(complex_field(value), indent)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(
                f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


def _real(x, indent) -> str:
    """The text of the object ``{"f", "s"}`` of x."""
    s, f = _scalar(x)
    inner = indent + " "
    return (f'{{{inner}"f": {"null" if f is None else float.__repr__(f)},'
            f'{inner}"s": "{s}"{indent}}}')


def _check(r: CheckResult, indent, tols) -> str:
    inner = indent + " "
    tol = tols.get((r.tol._mpf_, inner))
    if tol is None:
        tol = tols[r.tol._mpf_, inner] = _real(r.tol, inner)
    n = f'"n": {int.__repr__(r.n)},{inner}' if r.n is not None else ""
    note = f'"note": {_quote(r.note)},{inner}' if r.note else ""
    return (f'{{{inner}"id": {_quote(r.label)},{inner}{n}{note}'
            f'"passed": {"true" if r.passed else "false"},{inner}'
            f'"residual": {_real(r.residual, inner)},{inner}'
            f'"tol": {tol}{indent}}}')
