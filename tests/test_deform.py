"""Deformation family and finite-difference dynamics checks."""

from fractions import Fraction

from mpmath import mp, mpf

from conftest import (make_workspace, rational_case_m3, rational_case_m4,
                      standard_case_m4)
from circlebops import deform
from circlebops.deform import (MIN_ORDER, deformation_residuals,
                               flow_stencil, hamilton_equations_check,
                               hamilton_flow_pipeline_check,
                               judged_difference, rational_workspace,
                               shifted_weight)
from circlebops.exact import QC
from circlebops.moments import rational_weight_moments
from circlebops.mputil import working_precision
from circlebops.plan import Plan
from circlebops.report import all_passed, failures
from circlebops.suites import run_verification


def _deformation(w, zdot, n):
    ws = rational_workspace(w)
    return deformation_residuals(ws, flow_stencil(w, zdot), zdot, n,
                                 ws.plan.flow_tolerance)


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
                    ws, flow_stencil(w, zdot), n, j, ws.plan.flow_tolerance)
                assert all_passed(res), [(c.label, c.note)
                                         for c in failures(res)]


def test_judged_difference_logic():
    res = judged_difference("probe", [mpf(1e-10), mpf("2.5e-11")], 1,
                            mpf("1e-5"))
    assert res.passed and res.note == "order 2.0"
    assert res.residual == mpf("2.5e-11")
    # at the roundoff floor no order can show: the floor note, a pass
    res = judged_difference("probe", [mpf(1e-50),
                                      mpf(2) ** (-(3 * mp.prec // 4))], 1,
                            mpf("1e-5"), floor_note="deep floor")
    assert res.passed and res.note == "deep floor"
    # converging at order two, but above the tolerance
    res = judged_difference("probe", [mpf(1e-4), mpf("2.5e-5")], 1,
                            mpf("1e-5"))
    assert not res.passed and res.note == "order 2.0"
    # a non-finite residual at either step fails, whatever the other says
    for residuals in ([mpf("inf"), mpf("1e-40")], [mpf("inf"), mpf("1e-80")],
                      [mpf("nan"), mpf("1e-80")]):
        res = judged_difference("probe", residuals, 1,
                                Plan.of(mp.prec).flow_tolerance)
        assert not res.passed and res.note == "non-finite residual"


def _off_by(monkeypatch, relative):
    """Make the closed form of dq_r/dz_j wrong by a fixed relative amount."""
    closed = deform.flow_q_closed
    monkeypatch.setattr(deform, "flow_q_closed",
                        lambda *args: closed(*args) * (1 + mpf(relative)))


def _slow(results, prefix):
    """The checks labelled prefix*: each fails below its tolerance, with an
    order under MIN_ORDER in its note."""
    slow = [c for c in results if c.label.startswith(prefix)]
    assert slow
    for c in slow:
        assert not c.passed and c.residual < c.tol
        assert c.note.startswith("order ")
        assert mpf(c.note.split()[-1]) < MIN_ORDER


def test_slow_convergence_fails_with_its_order(monkeypatch):
    """A difference whose residual barely moves when the step halves fails
    its check, and its note names the order; nothing aborts.  The probe is
    a closed form off by a fixed relative amount far above the truncation
    error, in a pipeline (deform) check and in a Ham:dK check."""
    _slow([judged_difference("probe", [mpf("1e-10"), mpf("0.9e-10")], 1,
                             mpf("1e-5"))], "probe")
    with working_precision(256):
        _off_by(monkeypatch, "1e-36")
        w = rational_case_m3()
        zdot = [QC(0), QC(1), QC(0)]
        ws = rational_workspace(w)
        res = hamilton_flow_pipeline_check(
            ws, flow_stencil(w, zdot), 3, 1, ws.plan.flow_tolerance)
    _slow(res, "Ham:qDer")
    assert all_passed(c for c in res if c.label.startswith("Ham:pDer"))
    monkeypatch.undo()
    _off_by(monkeypatch, "1e-15")
    ws = make_workspace(*standard_case_m4())
    res = hamilton_equations_check(ws, 2, mpf(1e-10))
    _slow(res, "Ham:dK/dp")
    assert all_passed(c for c in res if c.label.startswith("Ham:dK/dq"))


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
