"""Write the golden CLI outputs compared by tests/test_golden.py.

Each command runs in-process with ``--format json``; its exit code, argv
and parsed output go to ``<name>.json`` next to this script.  Run it
against the source tree whose outputs should become the reference:

    PYTHONPATH=<tree>/src python tests/golden/capture.py [name ...]

With names, only those files are rewritten; an unknown name exits 2.
With none, every file is.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

from redhom.cli import main

COMMANDS = {
    "einstein_riemannian_cp3": ["einstein", "riemannian", "--space", "cp3"],
    "einstein_skew_flag_c53": ["einstein", "skew", "--space", "flag-C(5,3)"],
    "homdim_sphere_s6": ["homdim", "--space", "sphere-s6"],
    "homdim_flag_c53": ["homdim", "--space", "flag-C(5,3)"],
    "catalog_c_lmax8_ke": ["catalog", "list", "--family", "C", "--lmax", "8",
                           "--killing-einstein"],
    "tensor_ricci_cp3_s2_t05": ["tensor", "ricci", "--space", "cp3",
                                "--s", "2", "--t", "0.5"],
    "tensor_ricci_s7_alpha_m1": ["tensor", "ricci", "--space", "sphere-s7",
                                 "--alpha", "-1"],
    "check_cp3": ["check", "--space", "cp3"],
    "einstein_riemannian_flag_d64": ["einstein", "riemannian", "--space",
                                     "flag-D(6,4)"],
    "tensor_ricci_flag_b54_s1_t07": ["tensor", "ricci", "--space", "flag-B(5,4)",
                                     "--s", "1", "--t", "0.7"],
    "space_build_flag_c53": ["space", "build", "flag-C(5,3)"],
    "catalog_lmax6": ["catalog", "list", "--lmax", "6"],
    "check_all": ["check", "--all"],
}


def run(argv):
    """Exit code and parsed JSON output of one CLI invocation."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--format", "json", *argv])
    return code, json.loads(buf.getvalue())


if __name__ == "__main__":
    names = sys.argv[1:] or list(COMMANDS)
    unknown = [name for name in names if name not in COMMANDS]
    if unknown:
        print(f"unknown golden name(s): {', '.join(unknown)}; "
              f"known: {', '.join(COMMANDS)}", file=sys.stderr)
        sys.exit(2)
    here = pathlib.Path(__file__).resolve().parent
    for name in names:
        argv = COMMANDS[name]
        code, output = run(argv)
        record = {"argv": argv, "exit_code": code, "output": output}
        (here / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
        print(name, code)
