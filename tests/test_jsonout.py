"""The report writer: a check, an mpf or an mpc rendered straight to text
is the text ``json.dump`` makes of its JSON object."""

import json
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from circlebops import jsonout
from circlebops.cli import check_line
from circlebops.mputil import working_precision
from circlebops.report import CheckResult


def reference_real(x):
    x = mpf(x)
    f = float(x)
    return {"s": mpmath.nstr(x, mp.dps + 4, strip_zeros=True),
            "f": f if math.isfinite(f) else None}


def reference_complex(z):
    """The JSON object of an mpc: the fields of ``jsonout.complex_field``."""
    re, im = reference_real(z.real), reference_real(z.imag)
    return {"re": re["s"], "im": im["s"], "re_f": re["f"], "im_f": im["f"]}


def reference_check(r):
    """The JSON object of a check, as the CLI built it before the writer
    rendered checks itself."""
    out = {"id": r.label, "residual": reference_real(r.residual),
           "tol": reference_real(r.tol), "passed": r.passed}
    if r.n is not None:
        out["n"] = r.n
    if r.note:
        out["note"] = r.note
    return out


# 0, tiny and huge doubles, beyond the double range both ways, non-finite
SPECIAL = ["0", "1e-300", "1e+300", "1e-400", "1e+400", "-1e+400", "+inf",
           "-inf", "nan", "5e-324", "1.7976931348623157e308"]


@st.composite
def values(draw):
    kind = draw(st.sampled_from(("special", "double", "wide")))
    if kind == "special":
        return mpf(draw(st.sampled_from(SPECIAL)))
    if kind == "double":
        return mpf(draw(st.floats(allow_nan=False, allow_infinity=False)))
    man = draw(st.integers(-2 ** 300, 2 ** 300))
    return mpf(man) * mpf(2) ** draw(st.integers(-1400, 1400))


TEXT = st.text(st.sampled_from('ab "\\/\n\t\x00\x7fé∂😀'), max_size=12)


@st.composite
def checks(draw):
    return CheckResult(
        draw(st.one_of(st.sampled_from(("rrCf:a", "Ham:dK/dq")), TEXT)),
        draw(values()), draw(values()),
        n=draw(st.one_of(st.none(), st.integers(-3, 10 ** 20))),
        note=draw(st.one_of(st.just(""), TEXT)))


def reference(value):
    if isinstance(value, CheckResult):
        return reference_check(value)
    if isinstance(value, mpc):
        return reference_complex(value)
    return reference_real(value)


# where a command puts its checks and numbers: every command that judges
# checks writes them under "checks", verify beside its summary and the
# others beside their levels of bare mpf and mpc values, in lists and
# 2x2 matrices
def payloads(checks, x, z):
    return [{"checks": checks, "summary": {"total": len(checks),
                                           "tolerance": x}},
            {"levels": [{"n": 0, "I": z, "phi": [z, z], "delta": x,
                         "residues": [[[z, z], [z, z]]]}],
             "checks": checks},
            {"levels": [], "checks": checks, "max_delta": x},
            {"deeper": [{"a": checks, "b": checks[:1], "c": [x, z]}]},
            [x, [z], [[z, x]]]]


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonout") / "report.json"


@settings(max_examples=60, deadline=None)
@given(st.lists(checks(), max_size=4), values(), values(), values(),
       st.sampled_from((53, 128, 256)), st.floats(0, 1e6))
def test_checks_render_as_json_dumps_of_their_objects(out_path, results, x,
                                                      re, im, bits, timing):
    """Every payload shape a command writes, plus a bare check, a bare mpf,
    a bare mpc and a deeper nesting; repeated tolerances exercise the
    writer's cache."""
    results += results[:2]
    with working_precision(bits):
        z = mpc(re, im)
        shapes = payloads(results, x, z) + [x, z] + (
            [results[0]] if results else [])
        for payload in shapes:
            if isinstance(payload, dict):
                payload["timing_s"] = timing
            jsonout.dump(payload, str(out_path))
            assert out_path.read_text() == json.dumps(
                payload, default=reference, indent=1, sort_keys=True,
                allow_nan=False) + "\n"


@settings(max_examples=100, deadline=None)
@given(checks(), st.sampled_from((53, 128, 256)))
def test_the_stdout_residual_is_nstr_to_six_digits(r, bits):
    with working_precision(bits):
        status = "pass" if r.passed else "FAIL"
        level = f" n={r.n}" if r.n is not None else ""
        assert check_line(r, "1.0e-20") == (
            f"[{status}] {r.label}{level}: {mpmath.nstr(r.residual, 6)}"
            f" < 1.0e-20")


def test_the_writer_refuses_what_json_refuses(out_path):
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            jsonout.dump({"timing_s": bad}, str(out_path))
    with pytest.raises(TypeError, match="not JSON serializable"):
        jsonout.dump({"x": [object()]}, str(out_path))


def test_empty_and_scalar_payloads(out_path):
    for payload in ({}, [], {"a": {}, "b": [], "c": [[]], "d": None},
                    [1, True, False, "é", 2.5, [{"x": -0.0}]], "text", 7):
        jsonout.dump(payload, str(out_path))
        assert out_path.read_text() == json.dumps(
            payload, indent=1, sort_keys=True) + "\n"
