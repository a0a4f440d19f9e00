"""Layer tracing installed from outside the program.

The wrappers replace public functions and methods of ``circlebops`` after it
is imported.  Modules bind names with ``from ... import``, so a function is
replaced in every loaded ``circlebops`` module that holds it, not only in
the module that defines it.  Spans (name, start, end, parent) are kept in
memory and reduced to per-layer metrics when the worker ends.

Metric conventions: ``*.s`` is self time (span time minus the time covered
by its direct child spans), except ``suite.*.s`` and
``config.build_workspace.s``, which are inclusive.  Counts are exact and
repeat across runs of the same inputs.

Layer -> end-to-end metric it should move (and on which workload):

* moments (``moments.*``) -> wall_s/setup_s on flow-rational, setup_s on
  verify-deep.
* bops (``bops.*``, ``mputil.lu.*``) -> wall_s, ops_per_s, peak_rss_mb on
  verify-deep; flat on flow-rational.
* spectral/polys -> wall_s on verify-deep.
* garnier -> wall_s on verify-deep (its summation suite).
* discrete_garnier (``dg.*``) -> wall_s/ops_per_s on verify-deep (its
  oracle and tau suites).
* deform -> wall_s on flow-rational.
* exact (``exact.to_mpc.calls``) -> wall_s on both workloads.
* suites (``suite.*``) -> wall_s on the workloads that run them.
* config/jsonout -> setup_s everywhere; ``jsonout.dump.s``.
"""

from __future__ import annotations

import math
import sys
import time

SUITES = ("identities", "bilinear", "summation", "oracle", "tau", "flow")

# span name -> metric name; self time unless listed in INCLUSIVE
SPAN_METRICS = {
    "moments.extend": "moments.extend.s",
    "moments.rational": "moments.rational.s",
    "bops.det": "bops.det.s",
    "bops.level": "bops.level.s",
    "bops.eps": "bops.eps.s",
    "spectral.extract": "spectral.extract.s",
    "garnier.coords": "garnier.coords.s",
    "garnier.hamiltonian": "garnier.hamiltonian.s",
    "dg.step": "dg.step.s",
    "dg.tau": "dg.tau.s",
    "deform": "deform.s",
    "jsonout.dump": "jsonout.dump.s",
}
INCLUSIVE = {"config.build_workspace": "config.build_workspace.s",
             **{f"suite.{s}": f"suite.{s}.s" for s in SUITES}}

COUNT_METRICS = ("moments.steps", "moments.window", "moments.rational.calls",
                 "mputil.lu.calls", "mputil.lu.ops", "spectral.extract.calls",
                 "polys.mul_poly.calls", "polys.mul_poly.mults",
                 "garnier.roots.calls", "dg.step.calls", "deform.workspaces",
                 "exact.to_mpc.calls")


class Tracer:
    """Nested spans and counters for one worker process."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.stack = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.hits = {"bops.det": [0, 0], "bops.level": [0, 0]}
        self.level_spans = []      # (n, span index) of computed levels

    def span(self, name, fn, on_enter=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, on_call):
        def wrapper(*args, **kwargs):
            on_call(*args, **kwargs)
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def bump(self, key, by=1):
        self.counts[key] += by

    # -- reduction ---------------------------------------------------------

    def metrics(self) -> dict:
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for s, d in zip(self.spans, dur):
            if s[3] is not None:
                child[s[3]] += d
        self_s = {name: 0.0 for name in SPAN_METRICS}
        incl = {name: 0.0 for name in INCLUSIVE}
        for i, s in enumerate(self.spans):
            if s[0] in self_s:
                self_s[s[0]] += dur[i] - child[i]
            elif s[0] in incl:
                incl[s[0]] += dur[i]
        out = {SPAN_METRICS[k]: v for k, v in self_s.items()}
        out.update({INCLUSIVE[k]: v for k, v in incl.items()})
        out.update(self.counts)
        for key, (hit, calls) in self.hits.items():
            out[f"{key}.hit_ratio"] = hit / calls if calls else 0.0
        out["bops.level.n_exp"] = _fit_exponent(
            [(n, dur[i] - child[i]) for n, i in self.level_spans])
        return out


def _fit_exponent(points) -> float:
    """Least-squares slope of log(self time) on log(n), top half of levels."""
    if not points:
        return 0.0
    top = max(n for n, _ in points)
    pts = [(math.log(n), math.log(t)) for n, t in points
           if n >= max(top / 2, 1) and t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def _replace_everywhere(original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every circlebops module."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "circlebops"
                               or name.startswith("circlebops.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def _mul_poly_mults(series, p, top) -> int:
    """Products mul_poly forms before its zero skips (computed)."""
    P = len(p)
    R = top - series.offset + 1
    L = max(0, min(len(series.coeffs), R))
    a = max(0, min(L, R - P + 1))
    return a * P + (L - a) * R - (L - 1 + a) * (L - a) // 2


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported circlebops."""
    from circlebops import (bops, cli, deform, discrete_garnier, exact,
                            garnier, jsonout, moments, polys, spectral,
                            suites)

    def span(original, name, on_enter=None):
        _replace_everywhere(original,
                            tracer.span(name, original, on_enter))

    def count(original, on_call):
        _replace_everywhere(original, tracer.counter(original, on_call))

    # moments
    MS = moments.MomentSequence

    def widest(ms, kmin, kmax):
        lo, hi = min(kmin, ms.k_min), max(kmax, ms.k_max)
        if hi - lo + 1 > tracer.counts["moments.window"]:
            tracer.counts["moments.window"] = hi - lo + 1
    MS.extend = tracer.span("moments.extend", MS.extend, widest)
    for step in ("_step_forward", "_step_backward"):
        setattr(MS, step, tracer.counter(
            getattr(MS, step), lambda ms: tracer.bump("moments.steps")))
    span(moments.rational_weight_moments, "moments.rational",
       lambda *a, **k: tracer.bump("moments.rational.calls"))

    # bops: read the oracle caches before delegating, never write them
    TO = bops.ToeplitzOracle

    def det_enter(oracle, n):
        h = tracer.hits["bops.det"]
        h[0] += n in oracle._dets
        h[1] += 1

    def level_enter(oracle, n):
        h = tracer.hits["bops.level"]
        h[0] += n in oracle._levels
        h[1] += 1
        if n not in oracle._levels:
            tracer.level_spans.append((n, len(tracer.spans)))
    TO.det = tracer.span("bops.det", TO.det, det_enter)
    TO.level = tracer.span("bops.level", TO.level, level_enter)
    TO.eps_series = tracer.span("bops.eps", TO.eps_series)
    TO.epsstar_series = tracer.span("bops.eps", TO.epsstar_series)

    def lu(rows, *rest):
        tracer.bump("mputil.lu.calls")
        tracer.bump("mputil.lu.ops", len(rows) ** 3)
    count(bops.lu_det, lu)
    count(bops.lu_solve, lu)

    # spectral / polys
    span(spectral.spectral_from_oracle, "spectral.extract",
       lambda *a, **k: tracer.bump("spectral.extract.calls"))

    def mul(series, p, top):
        tracer.bump("polys.mul_poly.calls")
        tracer.bump("polys.mul_poly.mults", _mul_poly_mults(series, p, top))
    polys.OffsetSeries.mul_poly = tracer.counter(
        polys.OffsetSeries.mul_poly, mul)

    # garnier
    span(garnier.coordinates_from_spectral, "garnier.coords")
    count(garnier.polynomial_roots,
          lambda *a, **k: tracer.bump("garnier.roots.calls"))
    span(garnier.hamiltonian, "garnier.hamiltonian")
    span(garnier.hamiltonian_from_residues, "garnier.hamiltonian")

    # discrete_garnier
    span(discrete_garnier.dg_step, "dg.step",
       lambda *a, **k: tracer.bump("dg.step.calls"))
    span(discrete_garnier.tau_recovery, "dg.tau")

    # deform
    span(deform.deformation_residuals, "deform")
    span(deform.hamilton_flow_pipeline_check, "deform")
    count(deform.rational_workspace,
          lambda *a, **k: tracer.bump("deform.workspaces"))

    # exact
    exact.QC.to_mpc = tracer.counter(
        exact.QC.to_mpc, lambda q: tracer.bump("exact.to_mpc.calls"))

    # suites
    for name, suite_fn in list(suites.SUITE_BUILDERS.items()):
        suites.SUITE_BUILDERS[name] = tracer.span(f"suite.{name}", suite_fn)
    span(suites.flow_suite, "suite.flow")

    # config / jsonout
    span(cli.build_workspace, "config.build_workspace")
    span(jsonout.dump, "jsonout.dump")
