"""CLI outputs against the golden JSON in tests/golden (see capture.py there).

Numbers under ``result`` (and the other descriptive fields) must match to
1e-12 * max(1, |x|); strings and booleans exactly.  Residual leaves only
have to stay below their tolerance with the same pass flags, and the
homdim singular-value gap only has to stay above the rank-gap minimum:
both are rounding noise whose digits carry no meaning.
"""

import importlib.util
import json
import math
import pathlib

import pytest

from redhom.cli import main

GOLDEN = sorted((pathlib.Path(__file__).parent / "golden").glob("*.json"))
RANK_GAP_MIN = 1e3


def _assert_close(got, want, path):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}.{i}")
    elif isinstance(want, (bool, str)) or want is None:
        assert got == want and type(got) is type(want), path
    else:
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), \
            f"{path}: {got!r} != {want!r}"


def _assert_residuals(got, want, tol, path):
    assert got.keys() == want.keys(), path
    for key, val in got.items():
        assert val < tol, f"{path}.{key}: {val!r} >= {tol!r}"


def _assert_checks(got, want):
    assert got["failed"] == want["failed"]
    assert len(got["checks"]) == len(want["checks"])
    for g, w in zip(got["checks"], want["checks"]):
        for key in ("space", "check", "tolerance", "ok"):
            assert g[key] == w[key], (w["check"], key)
        assert (g["residual"] < g["tolerance"]) == w["ok"], w["check"]


def test_capture_commands_are_the_golden_files():
    spec = importlib.util.spec_from_file_location("capture", GOLDEN[0].parent / "capture.py")
    capture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(capture)
    assert sorted(capture.COMMANDS) == [p.stem for p in GOLDEN]


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_cli_matches_golden(path, capsys):
    golden = json.loads(path.read_text())
    code = main(["--format", "json", *golden["argv"]])
    got = json.loads(capsys.readouterr().out)
    want = golden["output"]
    assert code == golden["exit_code"]
    if "checks" in want:
        _assert_checks(got, want)
        return
    if "residuals" in want:
        _assert_residuals(got.pop("residuals"), want.pop("residuals"),
                          want["tolerances"]["tol"], "residuals")
    if "singular_value_gap" in want.get("result", {}):
        assert got["result"].pop("singular_value_gap") >= RANK_GAP_MIN
        want["result"].pop("singular_value_gap")
    _assert_close(got, want, "output")
