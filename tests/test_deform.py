"""Deformation family and finite-difference dynamics checks."""

from fractions import Fraction

import pytest
from mpmath import mpf

from conftest import rational_case_m3, rational_case_m4
from circlebops import deform
from circlebops.deform import (deformation_residuals, flow_stencil,
                               hamilton_flow_pipeline_check,
                               rational_workspace, shifted_weight)
from circlebops.errors import StepTooLarge
from circlebops.exact import QC
from circlebops.garnier import flow_tolerance
from circlebops.moments import rational_weight_moments
from circlebops.mputil import working_precision
from circlebops.report import all_passed, failures
from circlebops.suites import run_verification


def _deformation(w, zdot, n):
    return deformation_residuals(rational_workspace(w), flow_stencil(w, zdot),
                                 zdot, n, flow_tolerance())


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
                res = hamilton_flow_pipeline_check(
                    ws, flow_stencil(w, zdot), n, j, flow_tolerance())
                assert all_passed(res), [(c.label, c.note)
                                         for c in failures(res)]


def test_step_too_large_detected():
    from circlebops.deform import _order_result
    # halving the step barely moved the residual: order near zero
    with pytest.raises(StepTooLarge):
        _order_result("probe", [mpf("1e-10"), mpf("0.9e-10")],
                      mpf("1e-5"), 1)


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
        res = run_verification(ws, ["flow"], 2, flow_tolerance())
        assert len(built) == 4 * ws.pair.N == 8
        assert all_passed(res), [(c.label, c.note) for c in failures(res)]
