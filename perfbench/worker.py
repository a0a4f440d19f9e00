"""One measured CLI invocation in a fresh interpreter.

    python3 perfbench/worker.py JOB.json T0

JOB.json names the source tree, the core to run on, the CLI arguments, the
mode and the result path.  T0 is run.py's ``time.monotonic()`` taken just
before it started this process, so ``wall_s`` counts interpreter start-up
and imports as a CLI user pays them.  ``setup_s`` ends when the workspace
is first built.  Modes: ``plain`` runs the command untraced, ``traced``
with the layer wrappers of ``layers.py``.  After the command, the worker
times the reference kernel that run.py scales times by.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _stamp_first_return(fn, stamps):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        stamps.setdefault("setup", time.monotonic())
        return out
    return wrapper


def reference_kernel_s() -> float:
    """Seconds for a fixed piece of mpmath work of the kind circlebops does.

    Fifteen LU solves of one 12x12 complex system at 128 bits; run.py scales
    the times of a repetition by the kernel times on the same core just
    before and just after it.
    """
    import mpmath
    with mpmath.mp.workprec(128):
        n = 12
        a = mpmath.matrix([[mpmath.mpc(i + 1, j) / (i + 2 * j + 1)
                            for j in range(n)] for i in range(n)])
        b = mpmath.matrix([mpmath.mpc(1, k) for k in range(n)])
        start = time.perf_counter()
        for _ in range(15):
            mpmath.lu_solve(a, b)
        return time.perf_counter() - start


def main(job_path: str, t0: float) -> None:
    with open(job_path) as fh:
        job = json.load(fh)
    os.sched_setaffinity(0, {job["cpu"]})
    sys.path.insert(0, job["src"])
    import circlebops.cli as cli
    if not os.path.abspath(cli.__file__).startswith(job["src"] + os.sep):
        raise SystemExit(f"circlebops imported from {cli.__file__}, "
                         f"not from {job['src']}")
    tracer = None
    if job["mode"] == "traced":
        from layers import Tracer, install
        tracer = Tracer()
        install(tracer)
    stamps = {}
    cli.build_workspace = _stamp_first_return(cli.build_workspace, stamps)
    result = {"exit_code": cli.main(job["argv"])}
    done = time.monotonic()
    result["setup_s"] = stamps["setup"] - t0 if "setup" in stamps else None
    result["wall_s"] = done - t0
    result["compute_s"] = done - stamps.get("setup", t0)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics()
    result["kernel_s"] = reference_kernel_s()
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
