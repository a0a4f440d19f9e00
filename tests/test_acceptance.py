"""Acceptance criteria, one test per criterion.

Default scale: three random formal weights with rational seeds per point
count M in {3, 4, 5} (one to three deformation variables), levels up to 10,
128-bit working precision, relative tolerance 1e-20 unless a criterion pins
another value.  Finite-difference criteria run at 256 bits on the
closed-form integer-residue family.  Each test prints one line.
"""

import json
import random

import mpmath
from mpmath import mpc, mpf

from conftest import (make_workspace, random_canonical_case, rational_case_m3,
                      rational_case_m4)
from circlebops.discrete_garnier import (DGState, dg_from_spectral,
                                         dg_initial, dg_step, dg_trajectory,
                                         tau_recovery)
from circlebops.garnier import coordinates_from_spectral
from circlebops.mputil import working_precision
from circlebops.report import failures, judge
from circlebops.spectral import (check_bilinear, check_linear_recurrences,
                                 check_transitions, residue_structure_checks)
from circlebops.suites import (casoratian_checks, degree_checks,
                               endpoint_checks, judge_rows, ode_checks,
                               toeplitz_checks)
from circlebops.weights import build_poly_pair, build_weight

TOL = mpf(1e-20)
N_MAX = 10

_CASES = {}


def cases():
    """Three deterministic random weights per M in {3, 4, 5}, cached."""
    if not _CASES:
        seeds_per_n = {1: (101, 102, 103), 2: (201, 202, 203),
                       3: (301, 302, 303)}
        for N, seed_list in seeds_per_n.items():
            for seed in seed_list:
                weight, seeds = random_canonical_case(seed, N)
                _CASES[(N, seed)] = make_workspace(weight, seeds)
    return _CASES


def _report(num, name, results):
    bad = failures(results)
    max_residual = max((r.residual for r in results), default=mpf(0))
    line = (f"[criterion {num:2d}] {name}: "
            f"{'PASS' if not bad else 'FAIL'} "
            f"(worst {mpmath.nstr(max_residual, 3)}, "
            f"{len(results)} checks)")
    print(line)
    assert not bad, [(r.label, r.n, mpmath.nstr(r.residual, 4)) for r in bad]


def test_criterion_01_toeplitz_identity_suite():
    results = []
    for ws in cases().values():
        results.extend(judge_rows(ws, TOL, [
            (toeplitz_checks, range(1, N_MAX + 1))]))
    _report(1, "determinant ratio and difference identities", results)


def test_criterion_02_casoratian_suite():
    results = []
    for ws in cases().values():
        results.extend(judge_rows(ws, TOL, [(casoratian_checks, range(9))]))
    _report(2, "cross-product identities", results)


def test_criterion_03_degree_bounds():
    results = []
    for ws in cases().values():
        results.extend(judge_rows(ws, mpf(1e-30), [
            (degree_checks, range(N_MAX + 1))]))
    _report(3, "spectral degree bounds", results)


def test_criterion_04_linear_transition_bilinear_lattice():
    results = []
    for ws in cases().values():
        results.extend(judge_rows(ws, TOL, [
            (check_linear_recurrences, range(1, 9)),
            (check_transitions, range(9), 23),
            (residue_structure_checks, range(9)),
            (check_bilinear, range(9))]))
    _report(4, "recurrence / transition / bilinear lattice", results)


def test_criterion_05_endpoint_expansions():
    results = []
    for ws in cases().values():
        results.extend(judge_rows(ws, TOL, [(endpoint_checks, range(9))]))
    _report(5, "endpoint coefficients of the spectral polynomials", results)


def test_criterion_06_scalar_ode():
    results = []
    worst_struct = mpf(0)
    for ws in cases().values():
        results.extend(judge_rows(ws, mpf(1e-18), [(ode_checks, range(7))]))
        # first-coefficient structure against the exponent table
        rhos = ws.residues()
        zs = ws.singularities()
        for n in (2, 5):
            pt = coordinates_from_spectral(ws, n)
            sd = ws.data(n)
            for z in (mpc("1.37", "0.53"), mpc("-1.21", "0.64")):
                # p1 = (W' + 2V)/W - Theta'/Theta - n/z
                p1 = ((ws.at("dW", z) + ws.at("V2", z)) / ws.at("W", z)
                      - sd.at("dtheta", z) / sd.at("theta", z) - mpf(n) / z)
                want = (rhos[0] + 1 - n) / z + (rhos[-1] + 1) / (z - 1)
                for zj, rj in zip(zs[1:-1], rhos[1:-1]):
                    want += (rj + 1) / (z - zj)
                for qr in pt.q:
                    want -= 1 / (z - qr)
                worst_struct = max(worst_struct,
                                   abs(p1 - want) / max(abs(p1), mpf(1)))
    print(f"    p1 partial-fraction structure worst "
          f"{mpmath.nstr(worst_struct, 3)}")
    assert worst_struct < TOL
    _report(6, "scalar equations and exponent structure", results)


def test_criterion_07_hamiltonian_flow():
    from circlebops.deform import (flow_stencil, hamilton_equations_check,
                                   hamilton_flow_pipeline_check,
                                   rational_workspace)
    from circlebops.exact import QC
    results = []
    with working_precision(256):
        for weight, n, js in ((rational_case_m3(), 3, (1,)),
                              (rational_case_m4(), 2, (1, 2))):
            ws = rational_workspace(weight)
            for j in js:
                zdot = [QC(0)] * weight.M
                zdot[j] = QC(1)
                results.extend(judge(hamilton_flow_pipeline_check(
                    ws, flow_stencil(weight, zdot), n, j),
                    ws.plan.flow_tolerance, n))
            results.extend(judge(hamilton_equations_check(ws, n),
                                 ws.plan.flow_tolerance, n))
    # each check is judged by residual < flow_tolerance = 2^-(3p/4 - 32);
    # the four-point circle errs near 2^-(3p/4), so that tolerance also
    # refuses a closed form wrong by more than it, which "order >= 1.9"
    # under step halving used to catch
    _report(7, "Hamiltonian flow by finite differences (N = 1, 2)", results)


def test_criterion_08_discrete_recurrence_oracle_equivalence():
    worst_delta = mpf(0)
    count = 0
    for ws in cases().values():
        pair = ws.pair
        ms = ws.oracle.moments
        st0 = dg_initial(ms)
        for state in dg_trajectory(st0, pair, 10):
            oracle_state = dg_from_spectral(ws, state.n)
            scale = max(max(abs(x) for x in oracle_state.f),
                        max(abs(x) for x in oracle_state.omega), mpf(1))
            delta = max(
                max(abs(a - b) for a, b in zip(state.f, oracle_state.f)),
                max(abs(a - b) for a, b in zip(state.omega, oracle_state.omega))) \
                / scale
            worst_delta = max(worst_delta, delta)
            count += 1
    assert worst_delta < mpf(1e-18)

    # literal one- and two-variable forms at 20 random points each
    from test_discrete_garnier import (_m3_literal_step,
                                       _m3_literal_omega_sum,
                                       _m4_literal_f_updates)
    rng = random.Random(5)
    w3 = build_weight([0, ["37/100", "21/100"], 1], ["1/3", "-1/2", "1/4"])
    p3 = build_poly_pair(w3)
    t = mpc("0.37", "0.21")
    worst_lit = mpf(0)
    for _ in range(20):
        n = rng.randint(0, 9)
        f = mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
        om = mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
        stepped = dg_step(DGState(n=n, f=[f], omega=[om]), p3)
        want = _m3_literal_step(f, om, t, mpc("1/3"), mpc("-1/2"),
                                mpc("1/4"), n)
        worst_lit = max(worst_lit,
                        abs(stepped.f[0] - want) / max(abs(want), mpf(1)))
        want_sum = _m3_literal_omega_sum(stepped.f[0], t, mpc("1/3"),
                                         mpc("-1/2"), mpc("1/4"), n + 1)
        worst_lit = max(worst_lit, abs(stepped.omega[0] + om - want_sum) /
                        max(abs(want_sum), mpf(1)))
    w4 = build_weight([0, ["1/4", "1/3"], ["-3/5", 0], 1],
                      ["-2/7", "1/5", "2/9", "1/2"])
    p4 = build_poly_pair(w4)
    s4, t4 = mpc("0.25", "1/3"), mpc("-0.6")
    for _ in range(20):
        n = rng.randint(0, 9)
        f, g, om, vp = (mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
                        for _ in range(4))
        stepped = dg_step(DGState(n=n, f=[f, g], omega=[om, vp]), p4)
        wf, wg = _m4_literal_f_updates(f, g, om, vp, s4, t4, mpc("-2/7"),
                                       mpc("1/5"), mpc("2/9"), mpc("1/2"), n)
        worst_lit = max(worst_lit,
                        abs(stepped.f[0] - wf) / max(abs(wf), mpf(1)),
                        abs(stepped.f[1] - wg) / max(abs(wg), mpf(1)))
    assert worst_lit < mpf(1e-24)
    print(f"[criterion  8] discrete recurrences vs oracle: PASS "
          f"(worst {mpmath.nstr(worst_delta, 3)} over {count} states; "
          f"literal forms {mpmath.nstr(worst_lit, 3)})")


def test_criterion_09_tau_recovery():
    worst_delta = mpf(0)
    for ws in cases().values():
        pair = ws.pair
        ms = ws.oracle.moments
        st0 = dg_initial(ms)
        traj = dg_trajectory(st0, pair, 12)
        rec = tau_recovery(traj, ms)
        for n in range(11):
            In = ws.oracle.det(n)
            worst_delta = max(worst_delta,
                              abs(rec["I"][n] - In) / max(abs(In), mpf(1e-30)))
    print(f"[criterion  9] determinant recovery from the recurrences: "
          f"{'PASS' if worst_delta < mpf(1e-16) else 'FAIL'} "
          f"(worst {mpmath.nstr(worst_delta, 3)})")
    assert worst_delta < mpf(1e-16)


def test_criterion_10_deformation_derivatives():
    from circlebops.deform import (deformation_residuals, flow_stencil,
                                   rational_workspace)
    from circlebops.exact import QC
    with working_precision(256):
        weight = rational_case_m3()
        zdot = [QC(0), QC(1), QC(0)]
        ws = rational_workspace(weight)
        results = judge(deformation_residuals(
            ws, flow_stencil(weight, zdot), zdot, 3), ws.plan.flow_tolerance, 3)
    # judged by residual < flow_tolerance, as criterion 7 says
    _report(10, "deformation derivatives of reflections and residues",
            results)


def test_criterion_11_determinism(tmp_path):
    import yaml
    from circlebops.cli import main
    cfg = {
        "mode": "formal", "precision_bits": 128, "tolerance": 1.0e-20,
        "n_max": 4, "seed": 7,
        "checks": ["identities", "oracle", "tau"],
        "weight": {"placement": "canonical",
                   "singularities": [[0, 0], ["2/5", 0], [1, 0]],
                   "residues": [["1/3", 0], ["-1/2", 0], ["1/4", 0]]},
        "seeds": {"start": -1, "values": [[0.31, 0.17], [1, 0]]},
    }
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    outputs = []
    for name in ("a.json", "b.json"):
        code = main(["--config", str(path), "verify",
                     "--out", str(tmp_path / name)])
        assert code == 0
        data = json.loads((tmp_path / name).read_text())
        data.pop("timing_s", None)     # the one field allowed to differ
        outputs.append(json.dumps(data, indent=1, sort_keys=True).encode())
    same = outputs[0] == outputs[1]
    print(f"[criterion 11] determinism: {'PASS' if same else 'FAIL'} "
          f"({len(outputs[0])} bytes)")
    assert same
