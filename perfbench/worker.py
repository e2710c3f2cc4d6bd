"""One workload in one fresh process.

``worker.py WORKLOAD --seed N --seconds S --spawned NS [--setup-only]
[--reps R] [--trace]`` sets the workload up, reports how long it took from
``--spawned`` (the parent's ``time.monotonic_ns()`` at launch), then runs
whole repetitions in a closed loop, one task at a time, until ``--seconds``
have passed and at least the workload's ``min_reps`` have run (at most its
``max_reps``), or exactly ``--reps`` of them.  The result is one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import random
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def blas_info() -> dict:
    """BLAS name from numpy's build config and its live thread count."""
    import numpy as np

    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    return {"name": config.get("name"), "version": config.get("version"),
            "threads": threads,
            "threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS")}


def provenance() -> dict:
    import numpy as np
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_info(),
            "nproc": len(os.sched_getaffinity(0))}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out-dir", type=Path, default=None)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    start = time.perf_counter()
    import redhom.cli

    if tracer is not None:
        tracer.record("cli.import", start, time.perf_counter())
    if not Path(redhom.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"redhom imported from {redhom.__file__}, not {SRC}")
    import_done = time.monotonic_ns()
    if tracer is not None:
        tracer.install()

    from workloads import WORKLOADS, Context

    ctx = Context(tracer, args.out_dir)
    workload = WORKLOADS[args.workload](ctx)
    workload.setup()
    setup_s = (time.monotonic_ns() - args.spawned) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rng = random.Random(args.seed)
    tasks = []
    loop_start = time.perf_counter()
    reps = 0
    while (reps < args.reps if args.reps is not None
           else reps < workload.min_reps
           or (time.perf_counter() - loop_start < args.seconds
               and (workload.max_reps is None or reps < workload.max_reps))):
        for label, task in workload.repetition(rng):
            if tracer is not None:
                tracer.task = f"{len(tasks)}:{label}"
            begin = time.perf_counter()
            try:
                errors = task()
            except Exception as exc:  # a failed task is counted, the run goes on
                errors = [f"{type(exc).__name__}: {exc}"]
            tasks.append([label, time.perf_counter() - begin, errors])
        reps += 1
    loop_s = time.perf_counter() - loop_start

    if args.workload == "cli-cold":
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"setup_s": setup_s, "reps": reps, "loop_s": loop_s, "tasks": tasks,
              "peak_rss_mb": peak / 1024, "provenance": provenance()}
    if tracer is not None:
        dump = tracer.dump()
        dump["cache"] = ctx.ledger.totals()
        result["dumps"] = [dump, *ctx.child_dumps]
        result["cli"] = {
            "cli.startup_s": ctx.startup_s + (import_done - args.spawned) / 1e9,
            "cli.output_bytes": ctx.output_bytes,
            "cli.nonzero_exits": ctx.nonzero_exits,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
