"""Canonical coordinates, Hamiltonians, flow closed forms, transform."""

import mpmath
import pytest
from mpmath import mpc, mpf

from conftest import make_workspace, standard_case_m3, standard_case_m4
from circlebops.deform import hamilton_equations_check
from circlebops.errors import Degenerate, NonConvergent
from circlebops.garnier import (GarnierPoint, canonical_transform,
                                coordinates_from_spectral, hamiltonian,
                                hamiltonian_from_residues, polynomial_roots,
                                representation_residuals, riemann_exponents)
from circlebops.mputil import match_roots
from circlebops.polys import pmul
from circlebops.report import failures, judge
from circlebops.spectral import (SpectralData, SpectralWorkspace,
                                 residue_matrices)

TOL = mpf(1e-25)


def test_polynomial_roots_small_degrees():
    r = polynomial_roots([mpc(-6), mpc(1)])
    assert abs(r[0] - 6) < mpf(1e-35)
    r = sorted(polynomial_roots([mpc(6), mpc(-5), mpc(1)]),
               key=lambda z: mpmath.re(z))
    assert abs(r[0] - 2) < mpf(1e-33) and abs(r[1] - 3) < mpf(1e-33)
    r = polynomial_roots([mpc(-1), mpc(0), mpc(0), mpc(1)])
    assert min(abs(x - 1) for x in r) < mpf(1e-30)


def test_polynomial_roots_at_degree_five_and_a_stalled_search(monkeypatch):
    """Above degree 2 the roots come from ``mpmath.polyroots`` and one
    Newton step; a search that does not converge is ``NonConvergent``."""
    want = [mpc(1), mpc(-2), mpc("0.5", "0.25"), mpc(0, 3), mpc("-0.75")]
    coeffs = [mpc(1)]
    for z in want:
        coeffs = pmul(coeffs, [-z, mpc(1)])
    got = polynomial_roots(coeffs)
    assert len(got) == 5
    for z in want:
        assert min(abs(x - z) for x in got) < mpf(1e-35)

    def stalled(*args, **kwargs):
        raise mpmath.libmp.NoConvergence("stalled")
    monkeypatch.setattr(mpmath, "polyroots", stalled)
    with pytest.raises(NonConvergent, match="degree-5"):
        polynomial_roots(coeffs)


def test_linear_coordinate_case():
    ws = make_workspace(*standard_case_m3())
    pt = coordinates_from_spectral(ws, 2)
    sd = ws.data(2)
    assert len(pt.q) == 1
    assert abs(pt.q[0] + sd.theta[0] / sd.theta[1]) < mpf(1e-33)


def test_reconstruction_representations():
    ws = make_workspace(*standard_case_m4())
    for n in (0, 2, 4):
        pt = coordinates_from_spectral(ws, n)
        res = dict(representation_residuals(ws, n, pt))
        assert res["OmegaRep"] < TOL
        assert res["2VRep"] < TOL
        assert res["WRep"] < TOL


def test_momentum_equals_matrix_entry_at_roots():
    ws = make_workspace(*standard_case_m4())
    n = 2
    pt = coordinates_from_spectral(ws, n)
    mats = residue_matrices(ws, n)
    zs = ws.singularities()
    for qr, pr in zip(pt.q, pt.p):
        a11 = sum(m[0][0] / (qr - zj) for m, zj in zip(mats, zs))
        assert abs(a11 - pr) < TOL * max(abs(pr), mpf(1))


def test_hamiltonian_dual_formula():
    for case in (standard_case_m3, standard_case_m4):
        ws = make_workspace(*case())
        for n in (1, 3):
            pt = coordinates_from_spectral(ws, n)
            dual = hamiltonian_from_residues(ws, n, pt)
            for a, b in zip(hamiltonian(ws, n), dual):
                assert abs(a - b) < TOL * max(abs(a), mpf(1))


def test_hamiltonians_leave_the_cached_point_alone():
    """Asking for K leaves the point a caller already holds unchanged, and
    the workspace keeps K per level."""
    ws = make_workspace(*standard_case_m4())
    p = coordinates_from_spectral(ws, 2)
    copy = GarnierPoint(n=p.n, q=list(p.q), p=list(p.p),
                        theta_inf=p.theta_inf)
    assert p == copy
    K = hamiltonian(ws, 2)
    assert p == copy and coordinates_from_spectral(ws, 2) is p
    assert len(K) == ws.pair.N and hamiltonian(ws, 2) is K


def test_exponent_table_and_accessory():
    ws = make_workspace(*standard_case_m3())
    rhos = ws.residues()
    m0 = ws.pair.m_mpc()[0]
    info = riemann_exponents(ws, 3)
    assert abs(info["exponents"]["origin"] - (3 - rhos[0])) == 0
    assert abs(info["exponents"]["one"] + rhos[-1]) == 0
    assert abs(info["exponents"]["infinity"] - (3 + 1 + sum(rhos))) < mpf(1e-33)
    assert abs(info["accessory"] + 3 * (1 + m0)) < mpf(1e-33)
    # the accessory constant vanishes for the seed level
    assert abs(riemann_exponents(ws, 0)["accessory"]) == 0


def test_hamilton_equations_fd():
    ws = make_workspace(*standard_case_m4())
    res = judge(hamilton_equations_check(ws, 2), ws.plan.flow_tolerance, 2)
    assert not failures(res), [(r.label, r.note) for r in failures(res)]


def test_hamilton_equations_fd_three_coordinates():
    from conftest import standard_case_m5
    ws = make_workspace(*standard_case_m5())
    res = judge(hamilton_equations_check(ws, 2), ws.plan.flow_tolerance, 2)
    assert not failures(res), [(r.label, r.note) for r in failures(res)]


def test_canonical_transform_roundtrip_and_gauge():
    weight, seeds = standard_case_m4()
    ws = make_workspace(weight, seeds)
    n = 2
    pt = coordinates_from_spectral(ws, n)
    triples = canonical_transform(ws, n, pt)
    for (tj, Qj, Pj), zj in zip(triples, ws.singularities()[1:-1]):
        # Moebius inverse recovers the singularity
        assert abs(tj / (tj - 1) - zj) < mpf(1e-30)
    # gauge flip leaves the transform unchanged
    from circlebops.bops import ToeplitzOracle
    from circlebops.moments import MomentSequence
    from circlebops.spectral import SpectralWorkspace
    from circlebops.weights import build_poly_pair
    pair = build_poly_pair(weight)
    ms = MomentSequence.from_seeds(pair, -1, seeds)
    flip = SpectralWorkspace(ToeplitzOracle(ms, gauge={2: -1}))
    pt2 = coordinates_from_spectral(flip, n)
    triples2 = canonical_transform(flip, n, pt2)
    for (a, b, c), (a2, b2, c2) in zip(triples, triples2):
        assert abs(a - a2) < mpf(1e-30)
        assert abs(b - b2) < mpf(1e-28) * max(abs(b), mpf(1))
        assert abs(c - c2) < mpf(1e-28) * max(abs(c), mpf(1))


def test_deterministic_ordering_and_matching():
    ws = make_workspace(*standard_case_m4())
    a = coordinates_from_spectral(ws, 3)
    b = coordinates_from_spectral(ws, 3)
    assert all(abs(x - y) == 0 for x, y in zip(a.q, b.q))
    # nearest-neighbour matching keeps labels under tiny perturbations
    perturbed = [q + mpf("1e-20") for q in reversed(a.q)]
    matched = match_roots(a.q, perturbed)
    for qm, q in zip(matched, a.q):
        assert abs(qm - q) < mpf("1e-19")
    with pytest.raises(Degenerate, match="ambiguous pairing near "):
        match_roots([mpc(0), mpc(1)], [mpc("0.5"), mpc("0.5001")])


def test_multiple_root_guard():
    """A coordinate polynomial with a double root must be refused."""
    ws = make_workspace(*standard_case_m4())

    class Stub(SpectralWorkspace):
        def data(self, n):
            # (z - 1/3)^2 has a double root
            theta = [mpc(1) / 9, mpc(-2) / 3, mpc(1)]
            return SpectralData(n, theta, [mpc(0)] * 4, theta, [mpc(0)] * 4,
                                mpf(0))

    with pytest.raises(Degenerate, match="near-multiple root at "):
        coordinates_from_spectral(Stub(ws.oracle), 1)
