"""The tolerance policy: ``--tol`` scales every check threshold and moves no
computed number; the normalization moves Casimir constants, not roots."""

import json

import numpy as np
import pytest

from redhom import reductive
from redhom.cli import main, resolve_space
from redhom.tolerances import CUTS, REFERENCE_TOL, TOL


def run_json(capsys, *argv):
    code = main(["--format", "json", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_scaled_moves_check_thresholds_and_never_cuts():
    assert TOL.scaled(REFERENCE_TOL) == TOL
    assert len(CUTS) == 17 and {"nullspace_rtol", "rank_gap_min", "weight_zero"} <= CUTS
    scaled = TOL.scaled(1e-6)
    for name, value in zip(TOL._fields, TOL):
        want = value if name in CUTS else value * (1e-6 / REFERENCE_TOL)
        assert getattr(scaled, name) == want, name
    assert scaled.rank_gap_min == TOL.rank_gap_min and scaled.valid != TOL.valid


@pytest.mark.parametrize("argv", [("check", "--space", "cp3"), ("check", "--all")])
@pytest.mark.parametrize("tol", [1e-12, 1e-6])
def test_tol_scales_every_row_threshold_and_no_residual(capsys, argv, tol):
    _, base = run_json(capsys, *argv)
    _, got = run_json(capsys, "--tol", repr(tol), *argv)
    assert len(got["checks"]) == len(base["checks"])
    for row, ref in zip(got["checks"], base["checks"]):
        assert (row["space"], row["check"]) == (ref["space"], ref["check"])
        assert row["residual"] == ref["residual"], row["check"]
        if "skew_iff_killing" in row["check"]:  # a 0/1 indicator of the scaled skew test
            assert row["tolerance"] == ref["tolerance"] == 0.5
        else:
            assert row["tolerance"] == ref["tolerance"] * (tol / REFERENCE_TOL), row["check"]
        assert row["ok"] == (row["residual"] < row["tolerance"])
    assert got["failed"] == sum(not row["ok"] for row in got["checks"])


def test_tol_reaches_the_skew_test_inside_skew_iff_killing(capsys):
    # at t = 0.8 the torsion is not totally skew; a loose enough --tol calls it skew
    row = "connections/skew_iff_killing_s2_t0.8"
    for tol, residual in ((1e-9, 0.0), (1e9, 1.0)):
        _, got = run_json(capsys, "--tol", repr(tol), "check", "--space", "cp3",
                          "--suite", "connections")
        assert {r["check"]: r["residual"] for r in got["checks"]}[row] == residual


# bprime gram over the -K gram: -K = 2 (n - 2) B' on so(n), 2 (n + 1) B' on sp(n)
GRAM_RATIOS = {"cp3": 1 / 6, "flag-B(2,2)": 1 / 6, "flag-C(3,1)": 1 / 8,
               "flag-D(6,4)": 1 / 20}


@pytest.mark.parametrize("sid", GRAM_RATIOS)
def test_normalization_scales_casimirs_and_keeps_roots(capsys, sid):
    spaces = {norm: resolve_space(sid, norm)[0] for norm in ("negK", "bprime")}
    neg, bpr = spaces["negK"].ip.gram, spaces["bprime"].ip.gram
    ratio = float(np.sum(bpr * neg) / np.sum(neg * neg))
    assert ratio == pytest.approx(GRAM_RATIOS[sid], rel=1e-12)
    assert np.abs(bpr - ratio * neg).max() <= 1e-12 * np.abs(bpr).max()
    cas = {norm: reductive.casimir(space).constants for norm, space in spaces.items()}
    assert np.allclose(cas["negK"], ratio * np.array(cas["bprime"]), rtol=1e-12, atol=0)
    for kind in ("riemannian", "skew"):
        roots = [run_json(capsys, "--normalization", norm, "einstein", kind, "--space", sid)[1]
                 ["result"]["roots"] for norm in ("negK", "bprime")]
        assert len(roots[0]) == len(roots[1])
        assert np.allclose(roots[0], roots[1], rtol=0, atol=1e-12), (kind, roots)
