import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import redhom
from redhom import equivariant
from redhom.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_einstein_riemannian_cp3_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json",
                           "einstein", "riemannian", "--space", "cp3")
    assert code == 0
    data = json.loads(out)
    coeffs = data["result"]["coefficients"]
    assert abs(coeffs[0] + 4.0) < 1e-10
    assert abs(coeffs[1] - 6.0) < 1e-10
    assert abs(coeffs[2] + 2.0) < 1e-10
    roots = data["result"]["roots"]
    assert abs(roots[0] - 0.5) < 1e-10 and abs(roots[1] - 1.0) < 1e-10
    assert data["metric"]["normalization"] == "b-prime"


def test_einstein_skew_cp3_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json",
                           "einstein", "skew", "--space", "cp3")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["roots"] == [0, 2]
    assert data["result"]["flags"]["degenerate_c"] is True


def test_homdim_s6_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "homdim",
                           "--space", "sphere-s6")
    assert code == 0
    data = json.loads(out)
    r = data["result"]
    assert (r["dimension"], r["skew"], r["symmetric"]) == (2, 2, 0)


def test_catalog_list_killing_einstein(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "catalog", "list",
                           "--family", "C", "--lmax", "8", "--killing-einstein")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(int(r["l"]), int(r["p"])) for r in rows] == [(2, 1), (5, 3), (8, 5)]


def test_space_build_table(capsys):
    code, out, _ = run_cli(capsys, "space", "build", "sphere-s7")
    assert code == 0
    assert "dim_m: 7" in out


def test_tensor_ricci_alpha(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "tensor", "ricci",
                           "--space", "sphere-s7", "--alpha", "1.0")
    assert code == 0
    data = json.loads(out)
    assert data["residuals"]["closed_vs_oracle"] < 1e-9
    assert data["params"]["alpha"] == 1.0


def test_tensor_torsion_st(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "tensor", "torsion",
                           "--space", "cp3", "--s", "2.0", "--t", "0.5")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["totally_skew"] is True


def test_tensor_scalar_relation(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "tensor", "scalar",
                           "--space", "cp3", "--s", "3.0", "--t", "0.5")
    assert code == 0
    data = json.loads(out)
    assert data["residuals"]["scalar_relation"] < 1e-8


def test_unknown_space_exit_code(capsys):
    code, _, err = run_cli(capsys, "space", "build", "nosuch")
    assert code == 2
    assert "unknown space" in err


def test_invalid_flag_params_exit_code(capsys):
    code, _, err = run_cli(capsys, "space", "build", "flag-B(2,9)")
    assert code == 2


def test_oversized_homdim_exits_2(capsys):
    code, out, err = run_cli(capsys, "homdim", "--space", "flag-C(5,3)")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "GiB" in err and "Traceback" not in err


@pytest.mark.parametrize("exc, want", [
    (np.linalg.LinAlgError("Eigenvalues did not converge"), 1),
    (MemoryError("Unable to allocate 80.0 GiB for an array"), 2),
    (MemoryError(), 2),
])
def test_solver_failures_exit_with_one_line(capsys, monkeypatch, exc, want):
    def failing(space, *args, **kwargs):
        raise exc

    monkeypatch.setattr(equivariant, "hom_dimension", failing)
    code, out, err = run_cli(capsys, "homdim", "--space", "sphere-s6")
    assert code == want and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_einstein_on_irreducible_space_is_rejected(capsys):
    code, _, err = run_cli(capsys, "einstein", "riemannian", "--space", "sphere-s7")
    assert code == 2


def test_check_suite_cp3(capsys):
    code, out, _ = run_cli(capsys, "check", "--space", "cp3", "--suite", "reductive")
    assert code == 0
    assert "FAIL" not in out


def test_check_json_output(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "check",
                           "--space", "lie-group(su2)", "--suite", "einstein")
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "--format", "json", "--out", str(target),
                           "homdim", "--space", "sphere-s4")
    assert code == 0
    data = json.loads(target.read_text())
    assert data["result"]["dimension"] == 0
    # the file holds the bytes stdout would
    for argv in (("--format", "csv", "catalog", "list"),
                 ("--format", "json", "einstein", "skew", "--space", "cp3")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
        assert run_cli(capsys, "--out", str(target), *argv) == (0, "", "")
        assert target.read_bytes() == out.encode()


def test_normalization_override(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "--normalization", "negK",
                           "space", "build", "cp3")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["normalization"] == "negative-killing"
    # Einstein roots do not depend on the normalization
    code, out, _ = run_cli(capsys, "--format", "json", "--normalization", "negK",
                           "einstein", "riemannian", "--space", "cp3")
    data = json.loads(out)
    roots = data["result"]["roots"]
    assert abs(roots[0] - 0.5) < 1e-9 and abs(roots[1] - 1.0) < 1e-9


@pytest.mark.parametrize("argv", [
    ("tensor", "ricci", "--space", "cp3", "--s", "1", "--t", "nan"),
    ("tensor", "ricci", "--space", "cp3", "--s", "1", "--t", "inf"),
    ("tensor", "ricci", "--space", "cp3", "--s", "1", "--t", "-1"),
    ("tensor", "ricci", "--space", "cp3", "--s", "1", "--t", "0"),
    ("tensor", "ricci", "--space", "cp3", "--s", "nan", "--t", "0.5"),
    ("tensor", "torsion", "--space", "cp3", "--s", "-inf"),
    ("tensor", "ricci", "--space", "sphere-s7", "--alpha", "nan"),
    ("tensor", "ricci", "--space", "sphere-s7", "--alpha", "inf"),
    ("--tol", "nan", "check", "--space", "cp3"),
    ("--tol", "inf", "check", "--space", "cp3"),
    ("--tol", "0", "check", "--space", "cp3"),
    ("--tol", "-1e-9", "check", "--space", "cp3"),
])
def test_bad_numeric_parameters_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert "Traceback" not in out.err and "error: argument" in out.err


def test_cold_flag_build_does_not_load_scipy():
    # nor numpy.random (with secrets, hashlib and OpenSSL), also after the
    # homdim spot check
    src = Path(redhom.__file__).resolve().parents[1]
    probe = ("import sys; from redhom import cli; "
             "codes = [cli.main(['--format', 'json', *args]) for args in "
             "(['einstein', 'skew', '--space', 'flag-C(5,3)'], "
             "['homdim', '--space', 'sphere-s7'])]; "
             "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
             "or m.startswith('numpy.random') or m in ('secrets', '_hashlib')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(src)})
    assert out.stdout.splitlines()[-1] == "[0, 0] []"
