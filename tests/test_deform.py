"""Deformation family and the flow checks by the circle derivative."""

from fractions import Fraction

import pytest
from mpmath import mpc, mpf

from conftest import (make_workspace, rational_case_m3, rational_case_m4,
                      standard_case_m4)
from circlebops import deform
from circlebops.deform import (deformation_residuals, flow_stencil,
                               hamilton_equations_check,
                               hamilton_flow_pipeline_check,
                               rational_workspace, shifted_weight)
from circlebops.exact import QC
from circlebops.moments import rational_weight_moments
from circlebops.mputil import working_precision
from circlebops.report import all_passed, failures, judge
from circlebops.suites import run_verification


def _deformation(w, zdot, n):
    ws = rational_workspace(w)
    return judge(deformation_residuals(ws, flow_stencil(w, zdot), zdot, n),
                 ws.plan.flow_tolerance, n)


def test_closed_form_agrees_with_recurrence_extension():
    w = rational_case_m3()
    ws = rational_workspace(w)
    direct = rational_weight_moments(w, -5, 8)
    ws.oracle.moments.extend(-5, 8)
    for k in range(-5, 9):
        scale = max(abs(direct[k]), mpf(1))
        assert abs(direct[k] - ws.oracle.moments.w(k)) / scale < mpf(1e-33)


def test_shifted_weight_moves_one_point():
    w = rational_case_m3()
    moved = shifted_weight(w, {1: QC(Fraction(1, 64))})
    assert moved.singularities[1].re == Fraction(2, 5) + Fraction(1, 64)
    assert moved.singularities[0] == w.singularities[0]
    assert moved.residues == w.residues


def test_zero_velocity_gives_zero_residuals():
    with working_precision(192):
        w = rational_case_m3()
        res = _deformation(w, [QC(0), QC(0), QC(0)], 2)
        for c in res:
            assert c.residual == 0


def test_deformation_dynamics_order_two():
    with working_precision(256):
        w = rational_case_m3()
        res = _deformation(w, [QC(0), QC(1), QC(0)], 3)
        assert all_passed(res), [(c.label, c.note) for c in failures(res)]
        labels = {c.label for c in res}
        assert labels == {"rdot", "rCdot", "AnSE:a", "AnSE:b",
                          "SchlesingerEqn"}


def test_complex_direction_also_passes():
    with working_precision(256):
        w = rational_case_m3()
        res = _deformation(w, [QC(0), QC(0, 1), QC(0)], 2)
        assert all_passed(res)


def test_flow_pipeline_matches_closed_forms():
    with working_precision(256):
        for w, n, js in ((rational_case_m3(), 3, (1,)),
                         (rational_case_m4(), 2, (1, 2))):
            ws = rational_workspace(w)
            for j in js:
                zdot = [QC(0)] * w.M
                zdot[j] = QC(1)
                res = judge(hamilton_flow_pipeline_check(
                    ws, flow_stencil(w, zdot), n, j), ws.plan.flow_tolerance, n)
                assert all_passed(res), [(c.label, c.note)
                                         for c in failures(res)]


def _off_by(monkeypatch, relative):
    """Make the closed form of dq_r/dz_j wrong by a fixed relative amount."""
    closed = deform.flow_q_closed
    monkeypatch.setattr(deform, "flow_q_closed",
                        lambda *args: closed(*args) * (1 + mpf(relative)))


def _caught(results, prefix):
    """The checks labelled prefix* all fail, none below its tolerance."""
    wrong = [c for c in results if c.label.startswith(prefix)]
    assert wrong
    for c in wrong:
        assert not c.passed and not c.residual < c.tol


def test_a_non_finite_residual_fails_a_flow_check(monkeypatch):
    """A flow check passes only when its residual is below the tolerance,
    so a closed form that comes out nan or inf fails the checks that read
    it; nothing aborts."""
    ws = make_workspace(*standard_case_m4())
    for bad in (mpc("nan"), mpc("inf")):
        monkeypatch.setattr(deform, "flow_q_closed", lambda *args: bad)
        res = judge(hamilton_equations_check(ws, 2), ws.plan.flow_tolerance, 2)
        _caught(res, "Ham:dK/dp")


def test_a_planted_error_in_a_closed_form_fails_its_checks(monkeypatch):
    """A closed form of dq_r/dz_j off by a small relative amount fails the
    checks that read it, in a pipeline (deform) check and in a Ham:dK check;
    the checks that do not read it still pass, and nothing aborts."""
    with working_precision(256):
        _off_by(monkeypatch, "1e-36")
        w = rational_case_m3()
        zdot = [QC(0), QC(1), QC(0)]
        ws = rational_workspace(w)
        res = judge(hamilton_flow_pipeline_check(
            ws, flow_stencil(w, zdot), 3, 1), ws.plan.flow_tolerance, 3)
    _caught(res, "Ham:qDer")
    assert all_passed(c for c in res if c.label.startswith("Ham:pDer"))
    monkeypatch.undo()
    _off_by(monkeypatch, "1e-15")
    ws = make_workspace(*standard_case_m4())
    res = judge(hamilton_equations_check(ws, 2), ws.plan.flow_tolerance, 2)
    _caught(res, "Ham:dK/dp")
    assert all_passed(c for c in res if c.label.startswith("Ham:dK/dq"))


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_flow_residuals_sit_far_below_the_flow_tolerance(bits):
    """On the rational M = 4 case every flow residual sits at least 2^25
    below the plan's flow tolerance 2^-(3p/4 - 32): the circle rule at
    r = 2^-(3p/16) errs near r^4.  At 256 bits that bound is 2.0e-56."""
    with working_precision(bits):
        ws = rational_workspace(rational_case_m4())
        res = run_verification(ws, ["flow"], 3, ws.plan.flow_tolerance)
        assert len(res) == 21 and all_passed(res)
        assert max(c.residual for c in res) < ws.plan.flow_tolerance / 2 ** 25


def test_flow_suite_builds_one_stencil_per_free_singularity(monkeypatch):
    """The flow checks share the caller's workspace and one four-point
    stencil per free singularity: 4 N workspace builds, no more."""
    with working_precision(256):
        w = rational_case_m4()
        ws = rational_workspace(w)
        built = []

        def counting(weight):
            built.append(weight)
            return rational_workspace(weight)

        monkeypatch.setattr(deform, "rational_workspace", counting)
        res = run_verification(ws, ["flow"], 2, ws.plan.flow_tolerance)
        assert len(built) == 4 * ws.pair.N == 8
        assert all_passed(res), [(c.label, c.note) for c in failures(res)]


def test_the_circle_rule_beats_a_central_difference_by_2_to_the_40():
    """d r_2 / d z_1 on the rational M = 4 weight at 256 bits: the
    four-point circle rule errs at least 2^40 less than a central
    difference at h = 2^-64, both against a central difference at
    h = 2^-120 taken at 512 bits."""
    w, n = rational_case_m4(), 2

    def r_slope(bits):
        h = Fraction(1, 2 ** bits)
        r = [rational_workspace(shifted_weight(w, {1: QC(s)})).level(n).r
             for s in (h, -h)]
        return (r[0] - r[1]) * 2 ** (bits - 1)

    with working_precision(512):
        ref = r_slope(120)
    with working_precision(256):
        stencil = flow_stencil(w, [QC(0), QC(1), QC(0), QC(0)])
        circle = deform._derivative(lambda t: stencil[t].level(n).r)
        central = r_slope(64)
        assert abs(circle - ref) * 2 ** 40 < abs(central - ref)
