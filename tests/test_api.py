"""API lints over the package and its tests.

Knob lint: every defaulted parameter of ``redhom`` is set by some caller.

A default that no call site in ``src/``, ``tests/`` or ``perfbench/``
ever overrides is a constant in disguise: it widens the API, and a value
other than the default is never exercised.  The scan is syntactic
(``ast``): a call matches a function by its bare or attribute name, and
sets a parameter when it passes it by keyword, by position, or through
``*args`` / ``**kwargs``.  A call that only forwards a defaulted
parameter of its own caller (``f(x, q=q)``) sets it exactly when that
parameter is itself set somewhere.

Import lint: every name a module of ``src/redhom`` or ``tests/`` imports
is read in that module.  ``redhom/__init__.py`` is exempt: its imports
are the public re-exports.

Threshold lint: no float literal in (0, 1e-6] appears in ``src/redhom``
outside ``redhom/tolerances.py``.  Every pass/fail threshold and numerical
cut is a field of the one policy there; docstring prose is not an ``ast``
float and is not counted.

Verdict lint: every ordering comparison (``<``, ``<=``, ``>``, ``>=``) in
``redhom/cli.py`` sits in ``verdict``, the one function that judges a
residual against its tolerance, or in an argparse type (a function that
``cli.py`` passes as ``type=``).  A command that compares a residual of
its own grows a second pass/fail rule.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "tests", "perfbench")
_ANY = "*"  # a starred argument or ``**`` mapping: every parameter


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _defaulted(fn) -> dict:
    """{parameter: positional index at a call site, or None if keyword-only}.

    ``bound`` functions (methods) lose their first parameter at a call site.
    """
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    bound = int(getattr(fn, "bound", False))
    out = {a.arg: i - bound for i, a in enumerate(positional[first:], start=first)}
    out.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None})
    return out


def _mark_methods(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list):
                    item.bound = True


def _defaulted_parameters() -> dict:
    """{(file, function, parameter): positional index or None} over the package."""
    out = {}
    for path, tree in _trees("src/redhom"):
        _mark_methods(tree)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for param, index in _defaulted(fn).items():
                    out[(path.name, fn.name, param)] = index
    return out


def _settings() -> list:
    """(callee, keyword or position or ``_ANY``, source) per argument passed.

    ``source`` is None for a value, or (function, parameter) when the value
    is a defaulted parameter of the enclosing function, passed on as is.
    """
    out = []

    def visit(node, forwardable, fn_name):
        if isinstance(node, ast.FunctionDef):
            fn_name, forwardable = node.name, set(_defaulted(node))
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

            def source(value):
                if isinstance(value, ast.Name) and value.id in forwardable:
                    return fn_name, value.id
                return None

            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    out.append((callee, _ANY, None))
                else:
                    out.append((callee, i, source(arg)))
            for kw in node.keywords:
                out.append((callee, kw.arg or _ANY, source(kw.value)))
        for child in ast.iter_child_nodes(node):
            visit(child, forwardable, fn_name)

    for _, tree in _trees(*CALLERS):
        _mark_methods(tree)
        visit(tree, set(), None)
    return out


def unset_parameters() -> list:
    """Sorted ``file:function(parameter)`` of every default no caller sets."""
    params = _defaulted_parameters()
    settings = _settings()
    is_set = set()
    changed = True
    while changed:
        changed = False
        for key, index in params.items():
            if key in is_set:
                continue
            _, fn, param = key
            for callee, slot, source in settings:
                if callee != fn or slot not in (param, index, _ANY):
                    continue
                if source is None or any(k[1:] == source for k in is_set):
                    is_set.add(key)
                    changed = True
                    break
    return sorted(f"{f}:{fn}({p})" for f, fn, p in set(params) - is_set)


def test_every_default_is_set_by_some_caller():
    unset = unset_parameters()
    assert not unset, f"{len(unset)} defaulted parameters no caller sets: {unset}"


def _imported_names(tree) -> list:
    """(bound name, line) of every import outside ``__future__``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names if a.name != "*"]
    return out


def unread_imports() -> list:
    """Sorted ``path:line name`` of every imported name its module never reads."""
    out = []
    for path, tree in _trees("src/redhom", "tests"):
        if path.name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        rel = path.relative_to(ROOT)
        out += [f"{rel}:{line} {name}" for name, line in _imported_names(tree)
                if name not in read]
    return sorted(out)


def test_every_import_is_read():
    unread = unread_imports()
    assert not unread, f"{len(unread)} imported names never read: {unread}"


def threshold_literals() -> list:
    """Sorted ``file:line value`` of every float literal in (0, 1e-6] outside the policy."""
    out = []
    for path, tree in _trees("src/redhom"):
        if path.name != "tolerances.py":
            out += [f"{path.name}:{node.lineno} {node.value!r}" for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and type(node.value) is float
                    and 0 < node.value <= 1e-6]
    return sorted(out)


def test_thresholds_live_in_the_tolerance_policy():
    found = threshold_literals()
    assert not found, f"{len(found)} threshold literals outside tolerances.py: {found}"


def stray_comparisons() -> list:
    """Sorted ``function:line`` of every ordering comparison in cli.py outside the verdict."""
    tree = ast.parse((ROOT / "src/redhom/cli.py").read_text())
    allowed = {"verdict"} | {kw.value.id for node in ast.walk(tree) if isinstance(node, ast.Call)
                             for kw in node.keywords
                             if kw.arg == "type" and isinstance(kw.value, ast.Name)}
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    out = []
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        if name not in allowed:
            out += [f"{name}:{node.lineno}" for node in ast.walk(top)
                    if isinstance(node, ast.Compare)
                    and any(isinstance(op, ordering) for op in node.ops)]
    return sorted(out)


def test_every_residual_is_judged_by_the_verdict():
    found = stray_comparisons()
    assert not found, f"{len(found)} comparisons outside cli.verdict: {found}"
