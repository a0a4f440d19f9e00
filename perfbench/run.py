"""circlebops benchmark: the CLI end to end, and a traced run by layer.

    python3 perfbench/run.py --workload verify-deep --seed 0 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Each measurement is one fresh, single-threaded ``python3`` process that calls
``circlebops.cli.main`` on a YAML file generated from the seed (see
``workloads.py``), so it pays the cold caches a CLI user pays.  Two lanes
run workers side by side, each pinned to one core.  Each lane repeats the
full command while another repetition is expected to end within
``--seconds`` (default: ``run_seconds`` of ``BENCHMARK.json``), and the run
reports medians over the repetitions of both lanes.

Times are scaled to a machine of fixed speed.  Right after its command,
each worker times a fixed mpmath kernel (``worker.reference_kernel_s``).  A
repetition's reference time is the mean of the kernel times just before it
(the lane's previous worker) and just after it, and every time of that
repetition is multiplied by ``REF_KERNEL_S`` / that reference time.  On a
shared host the speed of a core wanders by up to 2x over seconds to
minutes; the kernel follows it, so scaled times hold steady where raw ones
do not.  The raw median wall time and the median reference time are
printed beside the metrics and written by ``--out``.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced processes and carries the
per-layer metrics of ``layers.py`` plus ``trace.overhead_s``.

Every output is checked: the exit code, ``summary.failed == 0`` and the
multiset of check ids against ``expected_checks.json`` (what the parent
commit produces; the ids do not depend on the seed).  Report bytes are not
compared, because an algorithm change legitimately moves residual digits;
the smallest headroom over checks, log2(tol / residual), watches accuracy
instead.  It is printed and written by ``--out``, without a bound.  An op
is one check; an aborted process fails all its ops.

``--out FILE`` also writes the result with its environment (Python,
mpmath backend, nproc, git commit) for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from decimal import Decimal, InvalidOperation
from pathlib import Path

import yaml

from workloads import WORKLOADS, cli_argv, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170           # a run ends within 180 s even if a worker hangs
# The speeds of a shared host's cores wander independently, so a median over
# two lanes, one per core of the 2-core machines this is tuned on, is
# steadier than one over a single lane.
CPUS = sorted(os.sched_getaffinity(0))
LANES = min(2, len(CPUS))
REF_KERNEL_S = 0.4          # reference kernel time of the scaled machine


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict:
    """Metric name -> unit, for "end_to_end" or "per_layer"."""
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def environment() -> dict:
    import mpmath.libmp
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": sys.version.split()[0],
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(), "commit": commit}


def run_worker(job: dict, workdir: Path, tag: str, deadline: float) -> dict:
    """One fresh worker process; returns its result, or {} if it died."""
    job = dict(job, result=str(workdir / f"{tag}.result.json"))
    job_path = workdir / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    with open(workdir / f"{tag}.log", "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(job_path), repr(t0)],
            cwd=workdir, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    try:
        return json.loads(Path(job["result"]).read_text())
    except (OSError, ValueError):
        return {}


# -- correctness gate ---------------------------------------------------

def _check_headroom(check) -> tuple:
    """(id, headroom bits or None) of a passed, well-formed check.

    Raises ValueError for a failed check or a malformed one: missing
    fields, or a residual or tolerance that is not a finite number.
    """
    try:
        cid = check["id"]
        resid = Decimal(check["residual"]["s"])
        tol = Decimal(check["tol"]["s"])
        ok = (isinstance(cid, str) and check["passed"] is True
              and resid.is_finite()
              and resid >= 0 and tol.is_finite() and tol > 0)
    except (KeyError, TypeError, InvalidOperation) as exc:
        raise ValueError(exc) from None
    if not ok:
        raise ValueError(cid)
    if resid == 0:
        return cid, None
    return cid, float((tol / resid).ln() / Decimal(2).ln())


def gate_verify(report_path: Path, expected: Counter):
    """(ops attempted, ops failed, min headroom) of one verify report.

    An expected check that is missing, failed or malformed is a failed op,
    and so is each unexpected one.
    """
    total = sum(expected.values())
    try:
        report = json.loads(report_path.read_text())
        checks = list(report["checks"])
        summary = dict(report["summary"])
    except (OSError, ValueError, KeyError, TypeError):
        return total, total, None
    got, heads = Counter(), []
    for check in checks:
        try:
            cid, head = _check_headroom(check)
        except ValueError:
            continue
        got[cid] += 1
        if head is not None:
            heads.append(head)
    bad = sum(((expected - got) + (got - expected)).values())
    if summary.get("failed") != 0 or summary.get("total") != len(checks):
        bad = max(bad, 1)
    return total, min(total, bad), min(heads, default=None)


# -- one run ------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    expected = Counter(json.loads(
        (HERE / "expected_checks.json").read_text())[name])
    workdir = WORK / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cfg = make_config(workload, seed)
    config_path = workdir / "config.yaml"
    config_path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=120)

    outcomes = []               # (mode, ops attempted, ops failed, result)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    def lane(index: int) -> None:
        out_path = workdir / f"report{index}.json"
        job = {"src": str(SRC), "cpu": CPUS[index],
               "argv": cli_argv(str(config_path), out_path.name)}
        before = None           # kernel time of the lane's previous worker
        rounds = []             # durations of this lane's finished rounds
        # start another round only if a median round still ends in budget
        while not rounds or (time.monotonic() - start
                             + statistics.median(rounds) <= seconds):
            round_start = time.monotonic()
            for mode in ("plain", "traced") if trace else ("plain",):
                out_path.unlink(missing_ok=True)
                res = run_worker(dict(job, mode=mode), workdir,
                                 f"{mode}{index}-{len(rounds)}", deadline)
                a, f, head = gate_verify(out_path, expected)
                if res.get("exit_code") != 0 or res.get("setup_s") is None:
                    f = a
                res["ops"], res["headroom_bits"] = a, head
                after = res.get("kernel_s")
                if after is not None:
                    res["ref_s"] = (after if before is None
                                    else (before + after) / 2)
                before = after
                outcomes.append((mode, a, f, res))
            rounds.append(time.monotonic() - round_start)

    threads = [threading.Thread(target=lane, args=(i,)) for i in range(LANES)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    attempted = sum(a for _, a, _, _ in outcomes)
    failed = sum(f for _, _, f, _ in outcomes)
    samples = {"plain": [], "traced": []}
    for mode, _, f, res in outcomes:
        if f == 0:
            samples[mode].append(res)
    if failed:
        print(f"{name} seed={seed}: failed ops; config, outputs and worker "
              f"logs kept in {workdir}")
    else:
        shutil.rmtree(workdir, ignore_errors=True)
    heads = [s["headroom_bits"] for s in samples["plain"]
             if s["headroom_bits"] is not None]
    plain = samples["plain"]
    return {"attempted": attempted, "failed": failed,
            "min_headroom_bits": min(heads, default=None),
            "raw_wall_s": _median(s["wall_s"] for s in plain),
            "ref_kernel_s": _median(s["ref_s"] for s in plain),
            "metrics": (layer_metrics(samples) if trace
                        else end_to_end(samples))}


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _scaled(seconds: float, sample: dict) -> float:
    """A time of one repetition, at the speed of the scaled machine."""
    return seconds * REF_KERNEL_S / sample["ref_s"]


def end_to_end(samples: dict) -> dict:
    plain = samples["plain"]
    values = {
        "wall_s": _median(_scaled(s["wall_s"], s) for s in plain),
        "setup_s": _median(_scaled(s["setup_s"], s) for s in plain),
        "ops_per_s": _median(s["ops"] / _scaled(s["compute_s"], s)
                             for s in plain),
        "peak_rss_mb": _median(s["peak_rss_mb"] for s in plain),
    }
    units = metric_units("end_to_end")
    return {k: {"value": v, "unit": units[k]}
            for k, v in values.items() if v is not None}


def layer_metrics(samples: dict) -> dict:
    traced = samples["traced"]
    values = {"trace.overhead_s": None}
    if traced:
        values = {key: _median(_scaled(s["layers"][key], s)
                               if key.endswith(".s") else s["layers"][key]
                               for s in traced)
                  for key in traced[0]["layers"]}
        plain = _median(_scaled(s["wall_s"], s) for s in samples["plain"])
        if plain is not None:
            values["trace.overhead_s"] = _median(
                _scaled(s["wall_s"], s) for s in traced) - plain
    return {k: {"value": values[k], "unit": u}
            for k, u in metric_units("per_layer").items()
            if values.get(k) is not None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="measuring time of one run (default: run_seconds "
                    "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the result and environment")
    args = ap.parse_args(argv)
    if not (SRC / "circlebops" / "cli.py").is_file():
        print(f"no circlebops source under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print("environment: " + json.dumps(env))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        r = run(name, args.seed, args.seconds, bool(args.trace))
        results[name] = r
        ratio = r["failed"] / r["attempted"]
        print(f"{name} seed={args.seed}: failed_ratio {ratio:.6g} "
              f"({r['failed']}/{r['attempted']} ops)")
        for key in ("raw_wall_s", "ref_kernel_s"):
            if r[key] is not None:
                print(f"  {key + ' (unscaled)':28s} {r[key]:>12.6g} s")
        if r["min_headroom_bits"] is not None:
            print(f"  {'min_headroom_bits':28s} "
                  f"{r['min_headroom_bits']:>12.6g} bits")
        for key, m in r["metrics"].items():
            print(f"  {key:28s} {m['value']:>12.6g} {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"environment": env, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "results": results}, indent=1) + "\n")
    if len(names) == 1:
        r = results[names[0]]
        line = {"correct": r["failed"] == 0, "attempted": r["attempted"],
                "failed": r["failed"], "metrics": r["metrics"]}
    else:
        line = {name: {"correct": r["failed"] == 0, **r}
                for name, r in results.items()}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
