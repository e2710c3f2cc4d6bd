"""Smoke tests of the benchmark itself (about a minute):

    python3 -m pytest perfbench/smoke.py

They are kept out of the library's test suite, whose file pattern does not
match this name.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import expected  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from guards import GuardError, check_hom_budget  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FLAG = "flag-B(5,4)"


@pytest.fixture(scope="module")
def cold_flag():
    """One cold flag-build task; returns its context and the space it built."""
    ctx = workloads.Context()
    build = workloads.FlagBuild(ctx)
    tasks = dict(build.repetition(random.Random(0)))
    assert tasks[FLAG]() == []
    return ctx, build.previous[FLAG]


@pytest.fixture(scope="module")
def cli_runs():
    """An untraced and a traced cli-cold run, as parsed last lines and result files."""
    runs = {}
    for trace in (0, 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "cli-cold", "--seed", "3",
             "--seconds", "0", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        record = json.loads((HERE / "out" / f"cli-cold-seed3-trace{trace}.json").read_text())
        runs[trace] = (proc.stdout.splitlines(), record)
    return runs


def test_flag_tables_agree_with_the_family_formulas():
    from redhom import catalog

    for sid, row in expected.FLAGS.items():
        desc = catalog.parse_id(sid)
        spec = catalog.FamilySpec(desc.family[-1], *desc.params)
        assert row["dims"] == catalog.family_dims(spec)
        assert row["cas_equal"] == (catalog.killing_einstein_p(spec.family, spec.ell) == spec.p)


def test_one_task_per_workload(cold_flag, monkeypatch):
    ctx, space = cold_flag
    query = workloads.FlagQuery(ctx)
    query.warm[FLAG] = space
    assert query.point(FLAG, 2.0, 0.5) == []
    assert query.quadratic(FLAG, "skew") == []

    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    assert workloads.CliCold(ctx).run(("einstein", "riemannian", "--space", "cp3")) == []


def test_cold_build_guard_flags_a_cached_space(cold_flag):
    ctx, space = cold_flag
    build = workloads.FlagBuild(ctx)
    build.previous[FLAG] = space          # no clear: build_space hits the cache
    assert any("cached space" in e for e in build.build(FLAG))


def test_every_metric_printed_with_its_unit(cli_runs):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines, _ = cli_runs[trace]
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        for name, unit in want.items():
            assert any(line.split()[1:2] == [name] and f" {unit}" in line
                       for line in lines[:-1]), name
    assert any("failed_ratio" in line for line in cli_runs[0][0])


def test_self_times_within_task_wall(cli_runs):
    _, record = cli_runs[1]
    walls = {f"{i}:{label}": wall
             for i, (label, wall, _) in enumerate(record["traced"]["tasks"])}
    per_task = {}
    for dump in record["traced"]["dumps"]:
        for span, own in zip(dump["spans"], spans.self_times(dump["spans"])):
            if span[4] is not None:
                per_task[span[4]] = per_task.get(span[4], 0.0) + own
    assert per_task and set(per_task) <= set(walls)
    for task, total in per_task.items():
        assert 0.0 <= total <= walls[task], task


def test_self_time_subtracts_direct_children():
    nested = [["a", 0.0, 10.0, None, "t"], ["b", 1.0, 4.0, 0, "t"],
              ["c", 2.0, 3.0, 1, "t"], ["b", 5.0, 6.0, 0, "t"]]
    assert spans.self_times(nested) == [6.0, 2.0, 1.0, 1.0]
    assert spans.outermost(nested + [["b", 2.5, 2.6, 2, "t"]]) == [True] * 4 + [False]


def test_memory_guard_refuses_without_building_the_system(cold_flag, monkeypatch):
    from redhom import equivariant

    def forbidden(*args, **kwargs):
        raise AssertionError("equivariance system built")

    monkeypatch.setattr(equivariant, "_equivariance_operator", forbidden)
    monkeypatch.setattr(subprocess, "run", forbidden)
    with pytest.raises(GuardError):
        check_hom_budget(FLAG, cold_flag[1])

    args = ("homdim", "--space", FLAG)
    monkeypatch.setitem(workloads.CLI_COMMANDS, args, expected.CLI_COMMANDS[
        ("homdim", "--space", "sphere-s7")])
    cli = workloads.CliCold(cold_flag[0])
    cli.setup()
    errors = cli.run(args)
    assert len(errors) == 1 and "budget" in errors[0]
