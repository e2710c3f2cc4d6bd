"""The three benchmark workloads: set-up and seed-drawn repetitions of tasks.

Each repetition returns ``(label, task)`` pairs; a task returns a list of
mismatch messages, empty when its answers match ``expected``.  Every
repetition of a workload holds the same mix of tasks, so the median and
tail of a run do not depend on where the run stops.

- ``flag-build``: cold builds of the three flag spaces; every repetition
  clears all builders first, so no input repeats.
- ``flag-query``: warm tensor and Einstein queries on the same spaces, which
  set-up builds; the tasks only read cached spaces and tables.
- ``cli-cold``: one fresh ``python -m redhom.cli`` process per task, over the
  README commands and ``homdim --space sphere-s7``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from expected import (
    CLI_COMMANDS,
    FLAGS,
    check_build,
    check_point,
    check_quadratic,
    homdim_space,
)
from guards import CacheLedger, GuardError, check_hom_budget

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT = 150
CACHED_TABLES = ("m_bracket_vectors", "bm", "bk", "adk")

# Run in-process by every in-process workload before it is ready: the answers
# are checked before any timing, and each module does some work.
PREFLIGHT = (
    ("check", "--space", "cp3"),
    ("einstein", "riemannian", "--space", "cp3"),
    ("homdim", "--space", "sphere-s6"),
)


class Context:
    """What the tasks of one worker process share."""

    def __init__(self, tracer=None, out_dir: Path | None = None):
        self.tracer = tracer
        self.out_dir = out_dir
        self.ledger = CacheLedger()
        self.output_bytes = 0
        self.nonzero_exits = 0
        self.startup_s = 0.0          # cold CLI processes: wall minus cli.main
        self.child_dumps: list = []


def guarded_space(space_id: str):
    """The catalog space of a ``homdim`` target, refused above the memory budget."""
    from redhom import catalog

    space = catalog.build_space(space_id)
    check_hom_budget(space_id, space)
    return space


def preflight(ctx: Context) -> None:
    """Run the preflight CLI commands in-process; raise on a wrong answer."""
    from redhom import cli

    for args in PREFLIGHT:
        if homdim_space(args):
            guarded_space(homdim_space(args))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--format", "json", *args])
        ctx.output_bytes += len(buf.getvalue().encode())
        errors = [f"exit code {code}"] if code else CLI_COMMANDS[args](json.loads(buf.getvalue()))
        if errors:
            raise GuardError(f"preflight {' '.join(args)}: {errors}")


class FlagBuild:
    min_reps, max_reps = 1, None

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.previous = {}

    def setup(self) -> None:
        preflight(self.ctx)

    def repetition(self, rng) -> list:
        self.ctx.ledger.clear()
        order = list(FLAGS)
        rng.shuffle(order)
        return [(sid, functools.partial(self.build, sid)) for sid in order]

    def build(self, sid: str) -> list:
        from redhom import catalog, reductive

        space = catalog.build_space(sid)
        errors = []
        if space is self.previous.get(sid):
            errors.append(f"{sid}: cold build returned the cached space")
        if any(name in vars(space) for name in CACHED_TABLES):
            errors.append(f"{sid}: cold build returned computed bracket tables")
        self.previous[sid] = space
        space.bm, space.bk, space.adk
        cas = reductive.casimir(space)
        return errors + check_build(sid, space, cas.constants)


class FlagQuery:
    # These memory-bound tensor tasks slow down with other traffic on the
    # host for a minute or more at a time, so a run measures tens of seconds.
    # Four repetitions put the tail (the 11th-largest task) well inside the
    # flag-D(6,4) points, clear of the step down to the other spaces.
    min_reps, max_reps = 4, None

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.warm = {}

    def setup(self) -> None:
        from redhom import catalog, reductive

        preflight(self.ctx)
        for sid in FLAGS:
            space = catalog.build_space(sid)
            space.bm, space.bk, space.adk
            errors = check_build(sid, space, reductive.casimir(space).constants)
            if errors:
                raise GuardError(f"flag-query set-up: {errors}")
            self.warm[sid] = space

    def repetition(self, rng) -> list:
        # t = 1/2 plus one drawn t per space, each shared by three drawn s.
        # Six flag-D(6,4) points per repetition, the costliest tasks.
        tasks = []
        for sid in FLAGS:
            for t in (0.5, round(rng.uniform(0.25, 1.5), 3)):
                for _ in range(3):
                    s = round(rng.uniform(-1.0, 3.0), 3)
                    tasks.append((f"{sid} s={s} t={t}",
                                  functools.partial(self.point, sid, s, t)))
            for kind in ("riemannian", "skew"):
                tasks.append((f"{sid} {kind}", functools.partial(self.quadratic, sid, kind)))
        rng.shuffle(tasks)
        return tasks

    def _cached_space(self, sid: str, misses: int, errors: list):
        from redhom import catalog

        space = catalog.build_space(sid)
        if space is not self.warm[sid] or self.ctx.ledger.misses() != misses:
            errors.append(f"{sid}: warm task missed the builder cache")
        return space

    def point(self, sid: str, s: float, t: float) -> list:
        from redhom import connections, curvature

        errors = []
        space = self._cached_space(sid, self.ctx.ledger.misses(), errors)
        nm = connections.nomizu_st(space, s, t)
        torsion = curvature.torsion(nm)
        oracle = curvature.ricci_oracle(nm)
        closed = curvature.ricci_st_closed(space, s, t)
        codiff = curvature.codifferential(nm)
        return errors + check_point(sid, s, t, torsion, oracle, closed, codiff)

    def quadratic(self, sid: str, kind: str) -> list:
        from redhom import einstein

        errors = []
        space = self._cached_space(sid, self.ctx.ledger.misses(), errors)
        if kind == "riemannian":
            report = einstein.riemannian_quadratic(space)
            residuals = {r: einstein.riemannian_root_residual(space, r)
                         for r in report.positive_roots}
        else:
            report = einstein.skew_einstein_quadratic(space)
            residuals = {r: einstein.skew_root_residual(space, r)
                         for r in report.root_values}
        return errors + check_quadratic(sid, kind, report, residuals)


class CliCold:
    # One repetition, whatever --seconds: nine cold processes, about 15 s.
    # The tail is then the slowest command; a second repetition would put it
    # (the 8th of 18) below the median, a third at one command or another
    # depending on host speed.
    min_reps, max_reps = 1, 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.refused = {}

    def setup(self) -> None:
        for args in CLI_COMMANDS:
            if homdim_space(args):
                try:
                    guarded_space(homdim_space(args))
                except GuardError as exc:
                    self.refused[args] = str(exc)

    def repetition(self, rng) -> list:
        commands = list(CLI_COMMANDS)
        rng.shuffle(commands)
        return [(" ".join(args), functools.partial(self.run, args)) for args in commands]

    def run(self, args) -> list:
        if args in self.refused:
            return [self.refused[args]]
        ctx = self.ctx
        cli_args = ["--format", "json", *args]
        if ctx.tracer is None:
            cmd = [sys.executable, "-m", "redhom.cli", *cli_args]
        else:
            dump_path = ctx.out_dir / f"child-{os.getpid()}-{len(ctx.child_dumps)}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(dump_path),
                   str(ctx.tracer.task), *cli_args]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, timeout=CHILD_TIMEOUT)
        wall = time.perf_counter() - start
        ctx.output_bytes += len(proc.stdout)
        if ctx.tracer is not None:
            dump = json.loads(dump_path.read_text())
            dump_path.unlink()
            ctx.child_dumps.append(dump)
            main_s = sum(end - begin for name, begin, end, _, _ in dump["spans"]
                         if name == "cli.main")
            ctx.startup_s += wall - main_s
        if proc.returncode != 0:
            ctx.nonzero_exits += 1
            return [f"exit code {proc.returncode}: {proc.stderr.decode()[-300:]}"]
        return CLI_COMMANDS[args](json.loads(proc.stdout))


WORKLOADS = {"flag-build": FlagBuild, "flag-query": FlagQuery, "cli-cold": CliCold}
