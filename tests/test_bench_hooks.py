"""The names the benchmark harness hooks into still exist.

``perfbench/spans.py`` wraps functions, methods and cached tables of the
package by name, and ``perfbench/workloads.py`` checks that a cold build
leaves its cached tables uncomputed.  Both files are read with ``ast``,
never imported, so a refactor that renames a traced name or turns a
cached table into something else fails here rather than only in the
benchmark's own smoke run.
"""

import ast
import functools
import importlib
from pathlib import Path

from redhom import catalog
from redhom.reductive import ReductiveSpace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def constants(filename: str, *names: str) -> dict:
    """The literal values of the named module-level constants of a perfbench file."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names}


SPANS = constants("spans.py", "FUNCTIONS", "METHODS", "CACHED_TABLES")
CACHED_TABLES = sorted(set(SPANS["CACHED_TABLES"])
                       | set(constants("workloads.py", "CACHED_TABLES")["CACHED_TABLES"]))


def test_traced_functions_and_methods_resolve():
    assert SPANS["FUNCTIONS"] and SPANS["METHODS"]
    for module, attr, _ in SPANS["FUNCTIONS"]:
        assert callable(getattr(importlib.import_module(f"redhom.{module}"), attr)), attr
    for module, cls, attr, _ in SPANS["METHODS"]:
        klass = getattr(importlib.import_module(f"redhom.{module}"), cls)
        assert callable(getattr(klass, attr)), f"{cls}.{attr}"


def test_cached_tables_are_cached_properties_left_cold_by_a_build():
    for name in CACHED_TABLES:
        assert isinstance(vars(ReductiveSpace).get(name), functools.cached_property), name
    space = catalog.build_flag.__wrapped__("B", 5, 4)
    assert not set(CACHED_TABLES) & set(vars(space))
