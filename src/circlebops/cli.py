"""Command-line front end.

    circlebops --config run.yaml verify
    circlebops --config run.yaml moments --range -8:8 --out moments.json
    circlebops --config run.yaml bops --nmax 6 --out levels.json
    circlebops --config run.yaml spectral --nmax 6 --out spectral.json
    circlebops --config run.yaml garnier --nmax 4 --out garnier.json
    circlebops --config run.yaml dgarnier --nmax 8 --out dg.json
    circlebops --config run.yaml sweep --param t1 --grid 0.2:0.8:13 --out sweep.csv

The configuration's ``checks`` list names the suites that ``verify``,
``spectral``, ``garnier`` and ``dgarnier`` judge; each writes their checks
under ``checks``, and an empty list judges none (``verify`` refuses it).

Exit codes: 0 all residuals below tolerance, 1 residual failure, 2 config
error (``ConfigInvalid``: bad configuration, argument or weight data, or an
output path that cannot be written), 3
singular or degenerate abort (any other ``CircleBopsError``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from mpmath import mpf
from mpmath.libmp import to_str

from . import jsonout
from .config import (RunConfig, as_dict, build_weight_from_config,
                     build_workspace, config_from_dict, load_config)
from .discrete_garnier import dg_run
from .errors import CircleBopsError, ConfigInvalid, SingularStep
from .garnier import (coordinates_from_spectral, hamiltonian,
                      riemann_exponents)
from .mputil import working_precision
from .report import failures
from .spectral import residue_matrices, a_infinity
from .suites import (judge_rows, run_verification, tau_levels,
                     toeplitz_checks)

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_CONFIG = 2
EXIT_SINGULAR = 3

# quantities whose sign flips under a kappa gauge flip
GAUGE_DEPENDENT = ("kappa", "phi", "phibar", "theta", "thetastar", "eps")

# commands that read the spectral data or the level recurrences, both built
# on the canonical placement {0, t_1..t_N, 1}
CANONICAL_ONLY = ("verify", "spectral", "garnier", "dgarnier", "sweep")

# the file each command writes when neither --out nor the config names one
OUT_NAMES = {"verify": "verify.json", "moments": "moments.json",
             "bops": "levels.json", "spectral": "spectral.json",
             "garnier": "garnier.json", "dgarnier": "dg.json",
             "sweep": "sweep.csv"}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="circlebops",
        description="bi-orthogonal systems on the unit circle: pipelines "
                    "and identity verification")
    ap.add_argument("--config", required=True, help="YAML run configuration")
    ap.add_argument("--precision", type=int, help="override precision bits")
    ap.add_argument("--tol", type=float, help="override relative tolerance")
    ap.add_argument("--seed", type=int, help="override sample-point seed")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", parents=[common],
                   help="run the configured check suites")

    p = sub.add_parser("moments", parents=[common],
                       help="emit a window of moments")
    p.add_argument("--range", default="-8:8",
                   help="kmin:kmax (use --range=-8:8 for negative bounds)")

    for name, text in (
            ("bops", "emit level data"),
            ("spectral", "emit spectral data and the configured checks"),
            ("garnier", "emit canonical coordinates"),
            ("dgarnier", "iterate the coupled recurrences")):
        sub.add_parser(name, parents=[common], help=text).add_argument(
            "--nmax", type=int, default=None)

    p = sub.add_parser("sweep", parents=[common],
                       help="vary one parameter, record first singular level")
    p.add_argument("--param", required=True,
                   help="t<j> or rho<j> (j indexes singularities)")
    p.add_argument("--grid", required=True, help="start:stop:count (real)")
    return ap


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    # a given option replaces its YAML value before validation
    overrides = {"precision_bits": args.precision, "tolerance": args.tol,
                 "seed": args.seed, "out": args.out,
                 "n_max": getattr(args, "nmax", None)}
    try:
        cfg = load_config(args.config, {k: v for k, v in overrides.items()
                                        if v is not None})
        with working_precision(cfg.precision_bits):
            return _dispatch(args, cfg)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularStep as exc:
        print(f"singular abort: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except CircleBopsError as exc:
        print(f"degenerate abort: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


def _verdict(results) -> int:
    """The exit code of a run whose judged checks are ``results``."""
    return EXIT_RESIDUAL if failures(results) else EXIT_OK


def _out_path(cfg: RunConfig, cmd: str) -> str:
    """The command's output path; ConfigInvalid, before any work, if it is
    a directory or its parent is not one."""
    path = cfg.out or OUT_NAMES[cmd]
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ConfigInvalid(f"cannot write {path}: it is a directory")
    if not os.path.isdir(parent):
        raise ConfigInvalid(f"cannot write {path}: no directory {parent}")
    return path


def _emit(payload: dict, path: str, started: float) -> None:
    # timing lives beside the numeric payload; comparisons strip it
    payload = dict(payload)
    payload["timing_s"] = round(time.time() - started, 6)
    try:
        jsonout.dump(payload, path)
    except OSError as exc:
        raise ConfigInvalid(f"cannot write {path}: {exc}") from exc
    print(f"wrote {path} ({payload['timing_s']:.2f}s)")


def _dispatch(args, cfg: RunConfig) -> int:
    started = time.time()
    cmd = args.command
    if cmd in CANONICAL_ONLY and cfg.weight_placement != "canonical":
        raise ConfigInvalid(f"{cmd} needs placement: canonical; moments and "
                            "bops take any placement")
    path = _out_path(cfg, cmd)
    if cmd == "verify":
        return _cmd_verify(cfg, path, started)
    if cmd == "moments":
        return _cmd_moments(cfg, args, path, started)
    if cmd == "bops":
        return _cmd_bops(cfg, path, started)
    if cmd == "spectral":
        return _cmd_spectral(cfg, path, started)
    if cmd == "garnier":
        return _cmd_garnier(cfg, path, started)
    if cmd == "dgarnier":
        return _cmd_dgarnier(cfg, path, started)
    return _cmd_sweep(cfg, args, path, started)     # argparse admits no other


def check_line(r, tol_text: str) -> str:
    """The stdout line of a check; its residual to 6 digits."""
    status = "pass" if r.passed else "FAIL"
    level = f" n={r.n}" if r.n is not None else ""
    return (f"[{status}] {r.label}{level}: {to_str(r.residual._mpf_, 6)}"
            f" < {tol_text}")


def _judge(ws, cfg: RunConfig) -> list:
    """The checks of the suites that the configuration's ``checks`` names."""
    return run_verification(ws, cfg.checks, cfg.n_max, cfg.tolerance_mpf(),
                            seed=cfg.seed)


def _cmd_verify(cfg: RunConfig, path: str, started: float) -> int:
    if not cfg.checks:
        raise ConfigInvalid("verify needs a nonempty checks list")
    results = _judge(build_workspace(cfg), cfg)
    tols = {}                   # tolerance -> its text, made once
    for r in results:
        tol_text = tols.get(r.tol._mpf_)
        if tol_text is None:
            tol_text = tols[r.tol._mpf_] = to_str(r.tol._mpf_, 3)
        print(check_line(r, tol_text))
    bad = failures(results)
    payload = {
        "checks": results,
        "summary": {"total": len(results), "failed": len(bad),
                    "tolerance": cfg.tolerance_mpf(),
                    "n_max": cfg.n_max, "mode": cfg.mode,
                    "precision_bits": cfg.precision_bits},
    }
    _emit(payload, path, started)
    print(f"{len(results) - len(bad)}/{len(results)} checks passed")
    return _verdict(results)


def _cmd_moments(cfg: RunConfig, args, path: str, started: float) -> int:
    try:
        lo, hi = (int(x) for x in args.range.split(":"))
    except ValueError as exc:
        raise ConfigInvalid(f"bad --range {args.range!r}") from exc
    if lo > hi:
        raise ConfigInvalid(f"bad --range {args.range!r}: kmin > kmax")
    ws = build_workspace(cfg)
    ms = ws.oracle.moments
    ms.extend(lo, hi)
    rows = []
    for k in range(lo, hi + 1):
        entry = {"k": k}
        entry.update(jsonout.complex_field(ms.w(k)))
        in_window = k - ms.pair.M >= ms.k_min and k <= ms.k_max
        entry["residual"] = (ms.equation_residual(k) if in_window
                             else mpf(0))
        rows.append(entry)
    _emit({"moments": rows, "provenance": ms.provenance}, path, started)
    return EXIT_OK


def _cmd_bops(cfg: RunConfig, path: str, started: float) -> int:
    ws = build_workspace(cfg)
    o = ws.oracle
    tol = cfg.tolerance_mpf()
    results = judge_rows(ws, tol, [(toeplitz_checks,
                                     range(1, cfg.n_max + 1))])
    residuals = {(r.label, r.n): r.residual for r in results}
    levels = []
    for n in range(cfg.n_max + 1):
        lev = o.level(n)
        rec = {
            "n": n, "I": lev.I, "kappa": lev.kappa, "gauge": lev.gauge,
            "r": lev.r, "rbar": lev.rbar,
            "lambda": lev.lam, "lambdabar": lev.lambar,
            "mu": lev.mu, "mubar": lev.mubar, "nu": lev.nu, "nubar": lev.nubar,
            "phi": lev.phi, "phibar": lev.phibar,
            "gauge_dependent_fields": list(GAUGE_DEPENDENT),
        }
        if n >= 1:
            rec["residual_I0"] = residuals["I0", n]
            rec["residual_l"] = residuals["l:kappa", n]
        levels.append(rec)
    _emit({"levels": levels, "tolerance": tol}, path, started)
    return _verdict(results)


def _cmd_spectral(cfg: RunConfig, path: str, started: float) -> int:
    ws = build_workspace(cfg)
    records = []
    for n in range(cfg.n_max + 1):
        sd = ws.data(n)
        mats = residue_matrices(ws, n)
        records.append({
            "n": n, "theta": sd.theta, "omega": sd.omega,
            "thetastar": sd.thetastar, "omegastar": sd.omegastar,
            "band_residual": sd.band_residual,
            "residues": mats, "residue_infinity": a_infinity(mats),
        })
    results = _judge(ws, cfg)
    _emit({"levels": records, "checks": results}, path, started)
    return _verdict(results)


def _cmd_garnier(cfg: RunConfig, path: str, started: float) -> int:
    ws = build_workspace(cfg)
    recs = []
    for n in range(cfg.n_max + 1):
        pt = coordinates_from_spectral(ws, n)
        info = riemann_exponents(ws, n)
        recs.append({"n": n, "q": pt.q, "p": pt.p, "K": hamiltonian(ws, n),
                     "theta_inf": pt.theta_inf, **info})
    results = _judge(ws, cfg)
    _emit({"levels": recs, "checks": results}, path, started)
    return _verdict(results)


def _cmd_dgarnier(cfg: RunConfig, path: str, started: float) -> int:
    ws = build_workspace(cfg)
    tau = "tau" in cfg.checks
    singular, traj, checks = None, [], []
    try:
        # the tau suite recovers from the trajectory to n_max + 2
        dg_run(ws, cfg.n_max + (2 if tau else 0))
    except SingularStep as exc:
        singular = {"index": exc.index, "factor": exc.factor,
                    "message": str(exc)}
    else:
        traj = dg_run(ws, cfg.n_max)
        checks = _judge(ws, cfg)
    deltas = [c.residual for c in checks
              if c.label in ("dGarnier:init", "dGarnier:ab")]
    levels = [{"n": st.n, "f": st.f, "omega": st.omega} for st in traj]
    payload = {"levels": levels, "singular": singular, "checks": checks}
    if "oracle" in cfg.checks:
        for level, delta in zip(levels, deltas):
            level["oracle_delta"] = delta
        payload["max_oracle_delta"] = max(deltas, default=mpf(0))
    if tau and traj:
        recovered, tau_deltas = tau_levels(ws, cfg.n_max)
        judged = {c.label: c.residual for c in checks}
        payload["tau"] = {
            "I": [{"n": n, "delta": delta,
                   **jsonout.complex_field(recovered["I"][n])}
                  for n, delta in enumerate(tau_deltas)],
            "lambda_paths": judged["tau:lambda-paths"],
            "max_delta": judged["tau:I"]}
    _emit(payload, path, started)
    return EXIT_SINGULAR if singular else _verdict(checks)


def _parse_param(param: str, weight):
    """('rho', j) for rho0..rho{M-1}, ('t', j) for t1..t{M-2}."""
    for kind, lo, hi in (("rho", 0, weight.M - 1), ("t", 1, weight.M - 2)):
        if param.startswith(kind):
            idx = param[len(kind):]
            if not idx.isdecimal() or not lo <= int(idx) <= hi:
                raise ConfigInvalid(
                    f"sweep parameter {param!r} needs an index {lo}..{hi}")
            return kind, int(idx)
    raise ConfigInvalid(f"cannot parse sweep parameter {param!r}")


def _cmd_sweep(cfg: RunConfig, args, path: str, started: float) -> int:
    try:
        a, b, count = args.grid.split(":")
        a, b, count = float(a), float(b), int(count)
    except ValueError as exc:
        raise ConfigInvalid(f"bad --grid {args.grid!r}") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ConfigInvalid(f"bad --grid {args.grid!r}: bounds must be finite")
    if count < 1:
        raise ConfigInvalid("grid count must be >= 1")
    kind, idx = _parse_param(args.param, build_weight_from_config(cfg))
    key = "singularities" if kind == "t" else "residues"
    points = []                 # every grid point validated before any runs
    for i in range(count):
        val = a + (b - a) * i / max(count - 1, 1)
        raw = as_dict(cfg)
        raw["weight"][key][idx] = [repr(val), "0"]
        point = config_from_dict(raw)
        build_weight_from_config(point)     # bad weight data exits 2 here
        points.append((val, point))
    rows = []
    for val, point in points:
        try:
            ws = build_workspace(point)
            dg_run(ws, cfg.n_max)
            first_singular = -1
        except SingularStep as exc:
            first_singular = exc.index if exc.index is not None else -2
        except ConfigInvalid:
            raise               # bad input exits 2 and writes no CSV
        except CircleBopsError:
            first_singular = -2
        rows.append((val, first_singular))
    try:
        with open(path, "w") as fh:
            fh.write(f"{args.param}, first_singular_n\n")
            for val, fs in rows:
                fh.write(f"{val!r}, {fs}\n")
    except OSError as exc:
        raise ConfigInvalid(f"cannot write {path}: {exc}") from exc
    print(f"wrote {path} ({time.time() - started:.2f}s)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
