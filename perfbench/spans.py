"""Spans and counters around the public functions of each redhom module.

The traced run installs wrappers from outside the package: every name a
module resolves for a wrapped function is replaced, so ``catalog.decompose``
is traced as well as ``reductive.decompose``.  Spans are kept in memory and
written out when the run ends.  Nothing here is imported by the untraced run.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import Counter

from guards import system_bytes

# (module, attribute, span name) for every traced free function
FUNCTIONS = [
    ("liealg", "from_basis", "liealg.build"),
    ("reductive", "decompose", "reductive.decompose"),
    ("reductive", "split_isotropy", "reductive.split_isotropy"),
    ("reductive", "casimir", "reductive.casimir"),
    ("reductive", "frame_tables", "reductive.frame_tables"),
    ("reductive", "check_inclusions", "reductive.check_inclusions"),
    ("catalog", "build_space", "catalog.build_space"),
    ("connections", "nomizu_st", "connections.nomizu"),
    ("connections", "nomizu_alpha", "connections.nomizu"),
    ("connections", "nomizu_levi_civita_gt", "connections.nomizu"),
    ("curvature", "curvature", "curvature.curvature"),
    ("curvature", "ricci_oracle", "curvature.ricci_oracle"),
    ("curvature", "ricci_st_closed", "curvature.ricci_closed"),
    ("curvature", "ricci_alpha_closed", "curvature.ricci_closed"),
    ("curvature", "codifferential", "curvature.codifferential"),
    ("curvature", "torsion", "curvature.torsion"),
    ("einstein", "riemannian_quadratic", "einstein.quadratic"),
    ("einstein", "skew_einstein_quadratic", "einstein.quadratic"),
    ("einstein", "riemannian_root_residual", "einstein.root_residual"),
    ("einstein", "skew_root_residual", "einstein.root_residual"),
    ("equivariant", "hom_dimension", "equivariant.hom_dimension"),
    ("equivariant", "certify_bracket_span", "equivariant.certify"),
    ("equivariant", "group_spot_check", "equivariant.spot_check"),
    ("cli", "main", "cli.main"),
    ("cli", "emit", "cli.emit"),
]

# (module, class, attribute, span name) for traced methods and cached tables
METHODS = [
    ("liealg", "LieAlgebra", "validate", "liealg.validate"),
    ("reductive", "ReductiveSpace", "validate", "reductive.validate"),
]
CACHED_TABLES = ("m_bracket_vectors", "bm", "bk", "adk", "k_structure")

MODULES = ("liealg", "reductive", "catalog", "connections", "curvature",
           "einstein", "equivariant", "cli")


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, task]``; ``parent`` is the index
    of the enclosing span or None, ``task`` the task label active when it
    opened.  Counters and maxima hold the per-layer counts.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.task = None
        self._stack: list = []
        self._frames: dict = {}

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span measured by the caller."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent, self.task])

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0.0), value)

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` updates counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.task]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- per-call counters ---------------------------------------------------

    def _count(self, key):
        def after(args, result):
            self.counts[key] += 1
        return after

    def _frame_tables(self, args, result):
        space, metric = args[0], args[1]
        key = (id(space), tuple(metric.scales))
        self.counts["reductive.frame_tables_calls"] += 1
        if key in self._frames:
            self.counts["reductive.frame_tables_repeats"] += 1
        self._frames[key] = space  # keeps the id from being reused

    def _curvature(self, args, result):
        self.counts["curvature.calls"] += 1
        self.counts["curvature.tensor_bytes"] += 8 * result.components.size

    def _hom_dimension(self, fn, equivariant):
        """hom_dimension with its tracemalloc peak and rank failures."""

        @functools.wraps(fn)
        def measured(space, *args, **kwargs):
            self.peak("equivariant.system_bytes", system_bytes(space))
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                return fn(space, *args, **kwargs)
            except equivariant.RankAmbiguityError:
                self.counts["equivariant.rank_failures"] += 1
                raise
            finally:
                self.peak("equivariant.peak_alloc_mb",
                          tracemalloc.get_traced_memory()[1] / 2**20)
                if started:
                    tracemalloc.stop()

        return measured

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function at each name that resolves to it."""
        import importlib

        import redhom

        mods = {name: importlib.import_module(f"redhom.{name}") for name in MODULES}
        namespaces = [redhom, *mods.values()]
        after = {
            "liealg.build": self._count("liealg.builds"),
            "reductive.casimir": self._count("reductive.casimir_calls"),
            "reductive.check_inclusions": self._count("reductive.check_inclusions_calls"),
            "reductive.frame_tables": self._frame_tables,
            "connections.nomizu": self._count("connections.nomizu_calls"),
            "curvature.curvature": self._curvature,
        }
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(mods[mod_name], attr)
            fn = original
            if span == "equivariant.hom_dimension":
                fn = self._hom_dimension(fn, mods["equivariant"])
            wrapper = self.wrap(span, fn, after.get(span))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            setattr(cls, attr, self.wrap(span, getattr(cls, attr)))
        space_cls = mods["reductive"].ReductiveSpace
        for attr in CACHED_TABLES:
            table = functools.cached_property(
                self.wrap("reductive.bracket_tables", vars(space_cls)[attr].func))
            table.__set_name__(space_cls, attr)
            setattr(space_cls, attr, table)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "maxima": dict(self.maxima)}


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def outermost(spans) -> list:
    """Flags marking spans with no enclosing span of the same name."""
    flags = []
    for name, _, _, parent, _ in spans:
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        flags.append(parent is None)
    return flags


# span names whose busy time is reported as "<name>_s"
TIMED = (
    "liealg.build", "liealg.validate",
    "reductive.decompose", "reductive.validate", "reductive.split_isotropy",
    "reductive.bracket_tables", "reductive.casimir", "reductive.frame_tables",
    "catalog.build_space",
    "connections.nomizu",
    "curvature.curvature", "curvature.ricci_oracle", "curvature.ricci_closed",
    "curvature.codifferential", "curvature.torsion",
    "einstein.quadratic", "einstein.root_residual",
    "equivariant.hom_dimension", "equivariant.certify", "equivariant.spot_check",
    "cli.import", "cli.main", "cli.emit",
)


def span_totals(spans) -> dict:
    """Busy seconds per span name (outermost spans only) and catalog self time."""
    totals = Counter()
    for (name, start, end, _, _), top in zip(spans, outermost(spans)):
        if top:
            totals[name] += end - start
    own = self_times(spans)
    totals["catalog.self"] = sum(t for s, t in zip(spans, own)
                                 if s[0] == "catalog.build_space")
    return totals


def layer_metrics(dumps) -> dict:
    """Per-layer metrics from the span dumps of every traced process of a run.

    Times and counts add up over processes; peaks take the maximum.  Each
    dump also carries the builder cache totals of its process.
    """
    totals, counts, maxima = Counter(), Counter(), {}
    hits = misses = 0
    for dump in dumps:
        totals.update(span_totals(dump["spans"]))
        counts.update(dump["counts"])
        for key, value in dump["maxima"].items():
            maxima[key] = max(maxima.get(key, 0.0), value)
        hits += dump["cache"]["hits"]
        misses += dump["cache"]["misses"]
    out = {f"{name}_s": totals[name] for name in TIMED}
    out["catalog.self_s"] = totals["catalog.self"]
    for key in ("liealg.builds", "reductive.casimir_calls", "reductive.frame_tables_calls",
                "reductive.check_inclusions_calls", "connections.nomizu_calls",
                "curvature.calls", "curvature.tensor_bytes", "equivariant.rank_failures"):
        out[key] = counts[key]
    calls = counts["reductive.frame_tables_calls"]
    out["reductive.frame_tables_repeat_ratio"] = (
        counts["reductive.frame_tables_repeats"] / calls if calls else 0.0)
    out["catalog.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["equivariant.peak_alloc_mb"] = maxima.get("equivariant.peak_alloc_mb", 0.0)
    out["equivariant.system_bytes"] = maxima.get("equivariant.system_bytes", 0)
    return out
