"""redhom benchmark: cold flag builds, warm flag queries and cold CLI runs.

    python3 perfbench/run.py --workload {flag-build,flag-query,cli-cold,all}
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that holds ``src/redhom``.  Each
workload runs in fresh worker processes (``worker.py``), one task at a time
(a closed loop with one client), with BLAS pinned to one thread.

``BENCHMARK.json`` lists ``flag-query`` and ``cli-cold``.  ``flag-build``
stays available for build-focused runs; its cold triple build is also what
``setup_s`` on ``flag-query`` measures, twice per run.

``--trace 0`` measures the end-to-end metrics: set-up is repeated in fresh
processes, at least ``MIN_SETUPS`` times and until ``SETUP_SECONDS`` have
been spent on it (at most ``MAX_SETUPS``), and its median reported; then one
more process sets up and runs whole repetitions of the workload's task mix
until ``--seconds`` have passed and at least ``min_reps`` of them ran (at
most ``max_reps``).
``--trace 1`` runs ``TRACE_REPS`` repetitions untraced and then the same
repetitions with spans around every public function of the eight modules,
and reports the per-layer metrics and the tracing overhead.  A fixed
repetition count makes the per-layer counts repeat exactly.

Every answer is checked against ``expected.py``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when an answer was wrong and 2 when the
checkout has no ``src/redhom``.  Full results, with provenance and spans,
are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("flag-build", "flag-query", "cli-cold")
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 2, 9, 3.0
TRACE_REPS = 1
BLAS_THREADS = "1"
RUN_BUDGET_S = 170.0

E2E_UNITS = {"setup_s": "s", "task_p50_s": "s", "task_tail_s": "s",
             "tasks_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """A worker failed or the run would exceed its time budget."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(workload: str, seed: int, seconds: float, deadline: float,
               *extra: str) -> dict:
    """Run one worker process to completion; its JSON result plus its wall time."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time budget exhausted")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(seed),
           "--seconds", str(seconds), "--spawned", str(time.monotonic_ns()), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=worker_env())
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker exceeded the run time budget") from None
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def tail(walls: list) -> tuple:
    """Highest percentile with at least ten tasks beyond it, as (value, percentile).

    With fewer than 11 tasks no percentile qualifies and the maximum is given.
    """
    ordered = sorted(walls)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload: str, result: dict, setups: list) -> tuple:
    """End-to-end metrics and notes on their sample counts."""
    walls = [wall for _, wall, _ in result["tasks"]]
    n = len(walls)
    tail_value, tail_pct = tail(walls)
    values = {"setup_s": statistics.median(setups),
              "task_p50_s": statistics.median(walls),
              "task_tail_s": tail_value,
              "tasks_per_s": n / result["loop_s"],
              "peak_rss_mb": result["peak_rss_mb"]}
    notes = {"setup_s": f"median of {len(setups)} set-ups",
             "task_p50_s": f"{n} tasks",
             "task_tail_s": f"p{tail_pct:.4g} of {n} tasks",
             "tasks_per_s": f"{n} tasks in {result['loop_s']:.2f} s",
             "peak_rss_mb": ("max over cold CLI processes" if workload == "cli-cold"
                             else "worker process")}
    return values, notes


def layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Run one workload; returns (metrics with units, notes, tasks, full record)."""
    if not trace:
        setups = []
        while len(setups) < MIN_SETUPS - 1 or (
                sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS - 1):
            setups.append(run_worker(workload, seed, seconds, deadline,
                                     "--setup-only")["setup_s"])
        result = run_worker(workload, seed, seconds, deadline)
        setups.append(result["setup_s"])
        values, notes = end_to_end(workload, result, setups)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        return metrics, notes, result["tasks"], {"setups": setups, "worker": result}

    reps = str(TRACE_REPS)
    base = run_worker(workload, seed, seconds, deadline, "--reps", reps)
    traced = run_worker(workload, seed, seconds, deadline, "--reps", reps, "--trace",
                        "--out-dir", str(OUT))
    from spans import MODULES, layer_metrics

    values = layer_metrics(traced["dumps"])
    values.update(traced["cli"])
    values["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    order = [*MODULES, "trace"]
    metrics = {k: {"value": values[k], "unit": layer_units(k)}
               for k in sorted(values, key=lambda k: order.index(k.split(".")[0]))}
    notes = {"trace.overhead_s": f"traced wall {traced['wall_s']:.3f} s minus "
                                 f"untraced wall {base['wall_s']:.3f} s"}
    return metrics, notes, base["tasks"] + traced["tasks"], {"untraced": base,
                                                             "traced": traced}


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not its own git repo."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def report(workload: str, metrics: dict, notes: dict, tasks: list) -> None:
    """Print every metric with its unit and notes, then the failed tasks."""
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:10s} {name:38s} {metric['value']:>14.6g} {metric['unit']}{note}")
    failed = sum(1 for t in tasks if t[2])
    print(f"{workload:10s} {'failed_ratio':38s} {failed / len(tasks):>14.6g} "
          f"ratio  ({failed}/{len(tasks)} tasks)")
    for label, _, errors in tasks:
        for error in errors:
            print(f"{workload:10s} FAILED {label}: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "redhom" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/redhom to benchmark", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    commit = git_commit()
    OUT.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            metrics, notes, tasks, record = measure(workload, args.seed, args.seconds,
                                                    bool(args.trace), deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        worker = record.get("worker") or record["traced"]
        prov = dict(worker["provenance"], seed=args.seed, commit=commit)
        print(f"# {workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
              f"provenance={json.dumps(prov)}")
        report(workload, metrics, notes, tasks)
        failed = sum(1 for t in tasks if t[2])
        summary["correct"] &= failed == 0
        summary["attempted"] += len(tasks)
        summary["failed"] += failed
        prefix = f"{workload}." if len(workloads) > 1 else ""
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
        path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"workload": workload, "seconds": args.seconds,
                                    "trace": args.trace, "provenance": prov,
                                    "metrics": metrics, "notes": notes, **record}))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
