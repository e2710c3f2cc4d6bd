"""Expected answers for every benchmark task.

The flag rows restate the closed-form summand dimensions (``family_dims``),
the Killing-Einstein rule (``killing_einstein_p``: equal Casimir constants)
and the paper's Einstein roots.  The CLI rows hold the README values: cp3
quadratic (-4, 6, -2) with roots 1/2 and 1, skew roots {0, 2} when the
Casimir constants agree, and Hom dimensions 2 on the 6-sphere and 1 on the
7-sphere.  Each checker returns a list of mismatch messages, empty when the
answer is right.
"""

from __future__ import annotations

import math

RESIDUAL_TOL = 1e-8      # oracle vs closed form, root substitution
SYMMETRY_TOL = 1e-9      # Ricci symmetry, torsion skewness at t = 1/2
VALUE_TOL = 1e-9         # coefficients and roots, relative

# Budget for the dense equivariance system, 8 dim k n^6 bytes.  The 7-sphere
# needs 13 MB; flag-C(5,3) would need about 330 GB.
HOM_SYSTEM_BUDGET = 32 * 2**20

FLAGS = {
    "flag-B(5,4)": {"dims": (24, 12), "cas_equal": True,
                    "riemannian_roots": (0.5, 1.0), "skew_roots": (0.0, 2.0)},
    "flag-C(5,3)": {"dims": (24, 12), "cas_equal": True,
                    "riemannian_roots": (0.5, 1.0), "skew_roots": (0.0, 2.0)},
    "flag-D(6,4)": {"dims": (32, 12), "cas_equal": False,
                    "riemannian_roots": (3.0 / 7.0, 1.0), "skew_roots": ()},
}


def close(a, b, tol=VALUE_TOL) -> bool:
    return math.isclose(float(a), float(b), rel_tol=tol, abs_tol=tol)


def close_all(got, want, tol=VALUE_TOL) -> bool:
    got, want = list(got), list(want)
    return len(got) == len(want) and all(close(a, b, tol) for a, b in zip(got, want))


def _small(errors, label, value, tol):
    if not value < tol:
        errors.append(f"{label} = {value:.3e}, expected < {tol:.0e}")


# ---------------------------------------------------------------------------
# in-process answers


def check_build(space_id, space, casimir_constants) -> list:
    want = FLAGS[space_id]
    errors = []
    if tuple(space.summand_dims) != want["dims"]:
        errors.append(f"{space_id}: summand dims {space.summand_dims} != {want['dims']}")
    c1, c2 = casimir_constants
    if close(c1, c2) != want["cas_equal"]:
        errors.append(f"{space_id}: Casimir constants {c1!r}, {c2!r} "
                      f"{'differ' if want['cas_equal'] else 'agree'}")
    return errors


def check_point(space_id, s, t, torsion, oracle, closed, codiff) -> list:
    errors = []
    label = f"{space_id} s={s} t={t}"
    _small(errors, f"{label} oracle vs closed Ricci",
           float(abs(oracle.components - closed.components).max()), RESIDUAL_TOL)
    _small(errors, f"{label} Ricci symmetry", oracle.symmetry_residual(), SYMMETRY_TOL)
    if t == 0.5:
        _small(errors, f"{label} torsion skewness", torsion.skew_residual(), SYMMETRY_TOL)
    if not (math.isfinite(float(abs(codiff.components).max()))
            and math.isfinite(oracle.scalar)):
        errors.append(f"{label}: non-finite tensor")
    return errors


def check_quadratic(space_id, kind, report, residuals) -> list:
    errors = []
    want = FLAGS[space_id][f"{kind}_roots"]
    if not close_all(report.root_values, want):
        errors.append(f"{space_id} {kind} roots {report.root_values} != {want}")
    for root, value in residuals.items():
        _small(errors, f"{space_id} {kind} root {root} residual", value, RESIDUAL_TOL)
    return errors


# ---------------------------------------------------------------------------
# CLI answers (parsed --format json output)


def _residuals_small(out, tol=RESIDUAL_TOL):
    errors = []
    for key, value in out["residuals"].items():
        if key != "coefficient_spread":
            _small(errors, f"residual {key}", value, tol)
    return errors


def _quadratic(coefficients, roots):
    def check(out):
        errors = _residuals_small(out)
        res = out["result"]
        if coefficients and not close_all(res["coefficients"], coefficients):
            errors.append(f"coefficients {res['coefficients']} != {coefficients}")
        if not close_all(res["roots"], roots):
            errors.append(f"roots {res['roots']} != {roots}")
        return errors
    return check


def _homdim(dimension):
    def check(out):
        errors = _residuals_small(out)
        if out["result"]["dimension"] != dimension:
            errors.append(f"dimension {out['result']['dimension']} != {dimension}")
        return errors
    return check


def _ricci(out):
    errors = []
    _small(errors, "closed vs oracle", out["residuals"]["closed_vs_oracle"], RESIDUAL_TOL)
    _small(errors, "symmetry", out["residuals"]["symmetry"], SYMMETRY_TOL)
    return errors


def _killing_einstein_c(out):
    rows = [(r["l"], r["p"]) for r in out["rows"]]
    want = [(2, 1), (5, 3), (8, 5)]
    return [] if rows == want else [f"Killing-Einstein rows {rows} != {want}"]


def _no_failed_checks(out):
    errors = [f"{r['space']} {r['check']} failed" for r in out["checks"] if not r["ok"]]
    if out["failed"] != 0:
        errors.append(f"failed: {out['failed']}")
    return errors


# The README commands plus the 7-sphere Hom dimension, each with its checker.
CLI_COMMANDS = {
    ("einstein", "riemannian", "--space", "cp3"): _quadratic((-4.0, 6.0, -2.0), (0.5, 1.0)),
    ("einstein", "skew", "--space", "flag-C(5,3)"): _quadratic(None, (0.0, 2.0)),
    ("homdim", "--space", "sphere-s6"): _homdim(2),
    ("homdim", "--space", "sphere-s7"): _homdim(1),
    ("catalog", "list", "--family", "C", "--lmax", "8", "--killing-einstein"):
        _killing_einstein_c,
    ("tensor", "ricci", "--space", "cp3", "--s", "2", "--t", "0.5"): _ricci,
    ("tensor", "ricci", "--space", "sphere-s7", "--alpha", "-1"): _ricci,
    ("check", "--space", "cp3"): _no_failed_checks,
    ("check", "--all", "--suite", "curvature"): _no_failed_checks,
}


def homdim_space(args) -> str | None:
    """Space id of a ``homdim`` command, None for other commands."""
    return args[args.index("--space") + 1] if args[0] == "homdim" else None
