"""Compare benchmark results of two commits, metric by metric.

    python3 perfbench/compare.py --base old1.json old2.json --head new1.json

Each file is one ``run.py --out`` result.  Results measured on different
mpmath backends are refused: the pure-Python and gmpy backends differ by
large factors, so such a comparison says nothing about the code.  For every
workload and metric the medians of both sides are printed with the base's
quartile spread; an end-to-end metric whose head median is worse than the
base median by more than its bound in ``BENCHMARK.json`` is marked.  The
verify workloads' ``min_headroom_bits`` is compared too, without a bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    values = defaultdict(list)        # (workload, metric) -> [value]
    envs = []
    for p in paths:
        rec = json.loads(Path(p).read_text())
        envs.append(rec["environment"])
        for workload, res in rec["results"].items():
            for key, m in res["metrics"].items():
                values[workload, key].append(m["value"])
            if res.get("min_headroom_bits") is not None:
                values[workload, "min_headroom_bits"].append(
                    res["min_headroom_bits"])
    return values, envs


def spread(vals) -> float:
    if len(vals) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q3 - q1) / abs(med) if med else float("nan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, base_env = load(args.base)
    head, head_env = load(args.head)
    backends = {e["mpmath_backend"] for e in base_env + head_env}
    if len(backends) != 1:
        print(f"refusing to compare across mpmath backends {sorted(backends)}",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    better = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse_any = False
    for key in sorted(set(base) & set(head)):
        workload, metric = key
        b, h = statistics.median(base[key]), statistics.median(head[key])
        change = (h - b) / abs(b) if b else float("nan")
        m = better.get(metric, {})
        worse = change if m.get("better") == "lower" else -change
        flag = ""
        if "bound" in m and worse > m["bound"]:
            flag, worse_any = "  WORSE THAN BOUND", True
        print(f"{workload:14s} {metric:26s} base {b:<12.6g} head {h:<12.6g} "
              f"change {change:+.3f} (base spread {spread(base[key]):.3f})"
              f"{flag}")
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main())
