"""Command-line interface: catalog tables, space builds, tensors,
Einstein reports, Hom dimensions and invariant check suites.

Exit codes (``verdict`` judges every residual row): 0 success, 1 a failed
row or invariant, 2 unknown spaces, invalid parameters, non-finite results.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import catalog, connections, curvature, einstein, equivariant, liealg, reductive
from .tolerances import REFERENCE_TOL, TOL

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_REQUEST = 2
LMAX_BOUND = 100  # ``catalog list --lmax``: 0.44 s and 43 MB cold at the bound


class BadRequest(Exception):
    """A request the CLI refuses with exit 2 and one ``error:`` line."""


# ---------------------------------------------------------------------------
# output formatting


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(obj, np.ndarray):
        yield from _flatten(obj.tolist(), prefix)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj


def _to_csv(obj) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])
    for key, val in _flatten(obj):
        # csv writes a float by its repr, and numpy's repr names the type
        writer.writerow([key, float(val) if isinstance(val, float) else val])
    return buf.getvalue()


def _to_table(obj, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list, tuple)):
                lines.append(f"{pad}{k}:")
                lines.append(_to_table(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_str(v)}")
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            if isinstance(v, (dict, list, tuple)):
                lines.append(_to_table(v, indent))
                lines.append("")
            else:
                lines.append(f"{pad}- {_scalar_str(v)}")
    return "\n".join(lines)


def _scalar_str(v) -> str:
    if isinstance(v, np.ndarray):
        return np.array2string(v, precision=10, suppress_small=True, max_line_width=120)
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def emit(obj, args, **render) -> None:
    """Write ``obj`` in ``args.format`` to ``args.out`` if given, else to stdout.

    ``render`` gives a command's own writer of a format.  A NaN or an
    infinity anywhere in ``obj`` is refused before any format writes it.
    """
    bad = next((key for key, val in _flatten(obj)
                if isinstance(val, float) and not math.isfinite(val)), None)
    if bad is not None:
        raise BadRequest(f"non-finite result at {bad}: the request overflows")
    writers = {"json": lambda o: json.dumps(o, indent=2, default=lambda x: x.tolist()),
               "csv": _to_csv, "table": _to_table, **render}
    text = writers[args.format](obj) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


# ---------------------------------------------------------------------------
# residual rows, their verdict and the report


def verdict(rows) -> tuple:
    """Pass flag of each ``(name, residual, tolerance)`` row, and the exit code.

    A row passes when its residual is below its tolerance, so a NaN fails;
    a row whose tolerance is None is reported and not judged.
    """
    passed = [tol is None or bool(residual < tol) for _, residual, tol in rows]
    return passed, EXIT_OK if all(passed) else EXIT_CHECK_FAILED


def _finish(args, out, rows, **render) -> int:
    """Emit a command's report; the exit code of its rows."""
    emit(out, args, **render)
    return verdict(rows)[1]


def _single(args, space, result, rows, t=None, params=None, **tolerances) -> int:
    """``_finish`` on the one-space envelope; ``space build`` has no metric."""
    out = {"space": space.name}
    if t is not None:
        out["metric"] = {"t": t, "normalization": space.ip.provenance}
        out["params"] = params
    out["result"] = result
    out["residuals"] = {name: residual for name, residual, _ in rows}
    out["tolerances"] = {"tol": args.tol, **tolerances}
    return _finish(args, out, rows)


def _space_rows(space, tols, prefix, casimir_name):
    """The ``validate`` rows of a space, then its Casimir-scalar row."""
    rows = [(prefix + key, val, tols.valid)
            for key, val in space.validate().items() if key != "ok"]
    return rows + [(casimir_name, reductive.casimir(space).deviation, tols.summand_scalar)]


def _oracle_row(name, oracle, closed, tols):
    """A closed-form Ricci tensor against the traced oracle."""
    return name, float(np.abs(oracle.components - closed.components).max()), tols.oracle


def _root_rows(space, kind, tols, prefix):
    """The Einstein quadratic of ``kind``, and its Einstein defect at each root."""
    if kind == "riemannian":
        rep = einstein.riemannian_quadratic(space)
        roots, residual = rep.positive_roots, einstein.riemannian_root_residual
    else:
        rep = einstein.skew_einstein_quadratic(space)
        roots, residual = rep.root_values, einstein.skew_root_residual
    return rep, [(f"{prefix}{r:g}", residual(space, r), tols.einstein_root) for r in roots]


# ---------------------------------------------------------------------------
# space resolution


def resolve_space(space_id: str, normalization: str | None):
    """Catalog space, optionally rebuilt under a requested normalization."""
    desc = catalog.parse_id(space_id)
    space = catalog.build_space(desc)
    if normalization is None:
        return space, desc
    want = {"negK": "negative-killing", "bprime": "b-prime"}[normalization]
    if space.ip.provenance == want:
        return space, desc
    alg = space.algebra
    if normalization == "bprime":
        ip = liealg.bprime(alg)
    else:
        try:
            ip = liealg.negative_killing(alg)
        except liealg.LieAlgebraError:
            ip = liealg.negative_killing(alg, center_weight=1.0)
    rebuilt = reductive.decompose(alg, space.k_basis, ip=ip, name=space.name)
    if space.nsummands != 1:
        rebuilt = reductive.split_isotropy(rebuilt)
    return rebuilt, desc


# ---------------------------------------------------------------------------
# subcommands


def _catalog_csv(out) -> str:
    rows = out["rows"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()) if rows else ["family"])
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def cmd_catalog(args) -> int:
    table = catalog.killing_einstein_table if args.killing_einstein else catalog.family_table
    rows = [row for fam in (args.family or "BCD") for row in table(fam, args.lmax)]
    rows.sort(key=lambda r: (r["family"], r["l"], r["p"]))
    return _finish(args, {"rows": rows, "named_spaces": catalog.known_ids()}, [],
                   csv=_catalog_csv)


def cmd_space(args) -> int:
    space, _ = resolve_space(args.id, args.normalization)
    result = {
        "algebra": space.algebra.name,
        "dim_g": space.algebra.dim,
        "dim_k": space.dim_k,
        "dim_m": space.dim_m,
        "summand_dims": list(space.summand_dims),
        "normalization": space.ip.provenance,
        "casimir_constants": list(reductive.casimir(space).constants),
    }
    return _single(args, space, result,
                   _space_rows(space, args.tols, "", "casimir_scalar_deviation"))


def _connection_for(space, args):
    if args.alpha is not None:
        return connections.nomizu_alpha(space, args.alpha), {"alpha": args.alpha}, 0.5
    s = args.s if args.s is not None else 0.0
    t = args.t if args.t is not None else 0.5
    if len(space.summands) == 2:
        return connections.nomizu_st(space, s, t), {"s": s, "t": t}, t
    return connections.nomizu_alpha(space, 1.0 - s), {"s": s, "t": 0.5}, 0.5


def cmd_tensor(args) -> int:
    space, _ = resolve_space(args.space, args.normalization)
    nm, params, t = _connection_for(space, args)
    tols = args.tols
    if args.what == "ricci":
        oracle = curvature.ricci_oracle(nm)
        if "alpha" in params:
            closed = curvature.ricci_alpha_closed(space, params["alpha"])
        elif len(space.summands) == 2:
            closed = curvature.ricci_st_closed(space, params["s"], params["t"])
        else:
            closed = oracle
        result = {"components": oracle.components, "scalar": oracle.scalar}
        rows = [_oracle_row("closed_vs_oracle", oracle, closed, tols),
                ("symmetry", oracle.symmetry_residual(), tols.ricci_symmetry)]
    elif args.what == "torsion":
        t3 = curvature.torsion(nm)
        result = {
            "norm_squared": t3.norm_squared(),
            "totally_skew": t3.is_totally_skew(tols.torsion_skew),
            "components": t3.components,
        }
        # skew only on the Killing metric, which ``totally_skew`` reports
        rows = [("skew_residual", t3.skew_residual(), None)]
    else:  # scalar
        result = {
            "scalar": curvature.ricci_oracle(nm).scalar,
            "torsion_norm_squared": curvature.torsion(nm).norm_squared(),
        }
        try:  # the relation applies to skew torsion only
            rows = [("scalar_relation", curvature.scalar_relation_residual(nm),
                     tols.scalar_relation)]
        except connections.ConnectionError_:
            rows = []
    return _single(args, space, result, rows, t, params)


def cmd_einstein(args) -> int:
    space, _ = resolve_space(args.space, args.normalization)
    if len(space.summands) != 2:
        raise BadRequest(f"{args.space} is not a two-summand space")
    prefix = "t=" if args.kind == "riemannian" else "s="
    rep, roots = _root_rows(space, args.kind, args.tols, prefix)
    result = {
        "kind": rep.kind,
        "coefficients": list(rep.coefficients),
        "discriminant": rep.discriminant,
        "roots": list(rep.root_values),
        "multiplicities": [m for _, m in rep.roots],
        "flags": rep.flags,
        **rep.extras,
    }
    rows = [("coefficient_spread", rep.spread, args.tols.summand_scalar), *roots]
    return _single(args, space, result, rows, 0.5, {})


def cmd_homdim(args) -> int:
    space, _ = resolve_space(args.space, args.normalization)
    result = equivariant.hom_dimension(space, seed=args.seed)
    cert = equivariant.certify_bracket_span(result, space, tol=args.tols.bracket_certificate)
    rows = [
        ("bracket_system", cert["system_residual"], cert["bound"]),
        ("bracket_projection", cert["projection_residual"], cert["bound"]),
        ("group_spot_check", equivariant.group_spot_check(result, space, seed=args.seed),
         args.tols.equivariance),
    ]
    dims = {
        "dimension": result.dimension,
        "skew": result.skew_dim,
        "symmetric": result.sym_dim,
        # infinite when no singular value is cut, or none kept: no gap to print
        "singular_value_gap": result.gap if math.isfinite(result.gap) else None,
    }
    return _single(args, space, dims, rows, 0.5, {}, rank_gap_min=TOL.rank_gap_min)


# ---------------------------------------------------------------------------
# check suites


def _suite_reductive(space, tols):
    *checks, casimir_row = _space_rows(space, tols, "reductive/", "reductive/casimir_scalar")
    use1 = reductive.verify_use1(space)
    checks.append(("reductive/use1_a", use1["a_identity"], tols.use1))
    checks.append(("reductive/use1_b", use1["b_identity"], tols.use1))
    checks.append(casimir_row)
    if len(space.summands) == 2:
        checks += [(f"reductive/incl_{key}", val, tols.inclusions)
                   for key, val in space.inclusion_residuals.items()]
    return checks


def _suite_connections(space, tols):
    checks = []
    for alpha in (-1.0, 0.5, 2.0):
        nm = connections.nomizu_alpha(space, alpha)
        checks.append((f"connections/equivariance_alpha_{alpha:g}",
                       connections.equivariance_residual(nm), tols.equivariance))
        checks.append((f"connections/stc_alpha_{alpha:g}",
                       connections.satisfies_stc(nm)[1], tols.stc))
    if len(space.summands) == 2:
        for s, t in ((2.0, 0.5), (2.0, 0.8), (0.0, 0.3)):
            nm = connections.nomizu_st(space, s, t)
            checks.append((f"connections/equivariance_s{s:g}_t{t:g}",
                           connections.equivariance_residual(nm), tols.equivariance))
            skew = curvature.torsion(nm).is_totally_skew(tols.torsion_skew)
            checks.append((f"connections/skew_iff_killing_s{s:g}_t{t:g}",
                           0.0 if skew == (t == 0.5) else 1.0, 0.5))
    return checks


def _suite_curvature(space, tols):
    checks = []
    for alpha in (-1.0, 0.0, 2.0):
        nm = connections.nomizu_alpha(space, alpha)
        oracle = curvature.ricci_oracle(nm)
        try:
            checks.append(_oracle_row(f"curvature/oracle_alpha_{alpha:g}", oracle,
                                      curvature.ricci_alpha_closed(space, alpha), tols))
        except reductive.ReductiveError:
            pass
        checks.append((f"curvature/ricci_symmetric_alpha_{alpha:g}",
                       oracle.symmetry_residual(), tols.ricci_symmetry))
        dt = curvature.codifferential(nm)
        checks.append((f"curvature/codifferential_alpha_{alpha:g}",
                       float(np.abs(dt.components).max()), tols.codifferential))
    if len(space.summands) == 2:
        for s, t in ((0.0, 0.3), (2.0, 0.5), (1.0, 1.0)):
            nm = connections.nomizu_st(space, s, t)
            checks.append(_oracle_row(f"curvature/oracle_s{s:g}_t{t:g}",
                                      curvature.ricci_oracle(nm),
                                      curvature.ricci_st_closed(space, s, t), tols))
        nm = connections.nomizu_st(space, 3.0, 0.5)
        checks.append(("curvature/scalar_relation_s3",
                       curvature.scalar_relation_residual(nm), tols.scalar_relation))
    return checks


def _suite_einstein(space, tols):
    checks = []
    if len(space.summands) == 2:
        checks += _root_rows(space, "riemannian", tols, "einstein/riemannian_root_t")[1]
        checks += _root_rows(space, "skew", tols, "einstein/skew_root_s")[1]
    elif space.nsummands == 1 and space.dim_k:
        checks.append(("einstein/thm4_identity",
                       einstein.thm4_identity_residual(space), tols.thm4))
        for alpha in (-2.0, 0.0, 2.0):
            checks.append((f"einstein/nabla_alpha_{alpha:g}",
                           einstein.nabla_alpha_einstein_residual(space, alpha),
                           tols.nabla_alpha))
    else:
        nm = connections.nomizu_alpha(space, 2.0)
        # Ric = ((1 - alpha^2) / 4) B on a group, B = b_form (zero on a centre)
        expected = (1 - 4.0) / 4.0 * np.trace(space.b_form)
        checks.append(("einstein/group_scalar_alpha2",
                       abs(curvature.ricci_oracle(nm).scalar - expected), tols.group_scalar))
    return checks


_SUITES = {
    "reductive": _suite_reductive,
    "connections": _suite_connections,
    "curvature": _suite_curvature,
    "einstein": _suite_einstein,
}


def _check_table(out) -> str:
    checks = out["checks"]
    lines = [f'{"PASS" if row["ok"] else "FAIL"}  {row["space"]:18s} {row["check"]:45s} '
             f'{row["residual"]:.3e} < {row["tolerance"]:.0e}\n' for row in checks]
    return "".join(lines) + f"{len(checks) - out['failed']}/{len(checks)} checks passed"


def cmd_check(args) -> int:
    if args.all:
        ids = [sid for sid in catalog.known_ids() if not sid.startswith("flag-")]
    elif args.space:
        ids = [args.space]
    else:
        raise BadRequest("pass --space <id> or --all")
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    rows, spaces = [], []
    for sid in sorted(ids):
        space, _ = resolve_space(sid, args.normalization)
        for suite in suites:
            found = _SUITES[suite](space, args.tols)
            rows += found
            spaces += [sid] * len(found)
    passed, _ = verdict(rows)
    checks = [{"space": sid, "check": name, "residual": float(residual), "tolerance": tol,
               "ok": ok} for sid, (name, residual, tol), ok in zip(spaces, rows, passed)]
    return _finish(args, {"checks": checks, "failed": passed.count(False)}, rows,
                   table=_check_table)


# ---------------------------------------------------------------------------
# parser


def finite(text: str) -> float:
    """argparse type: a finite float (NaN and infinities exit 2)."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def positive(text: str) -> float:
    """argparse type: a finite float > 0."""
    value = finite(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return value


def lmax(text: str) -> int:
    """argparse type: an integer up to ``LMAX_BOUND``."""
    value = int(text)
    if value > LMAX_BOUND:
        raise argparse.ArgumentTypeError(f"{value} is above the bound {LMAX_BOUND}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redhom",
        description="Invariant connections and Einstein equations on "
                    "reductive homogeneous spaces",
    )
    parser.add_argument("--format", choices=["table", "json", "csv"], default="table")
    parser.add_argument("--tol", type=positive, default=REFERENCE_TOL)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--normalization", choices=["negK", "bprime"], default=None)
    parser.add_argument("--out", default=None, help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list catalog spaces and family tables")
    psub = p.add_subparsers(dest="catalog_cmd", required=True)
    plist = psub.add_parser("list")
    plist.add_argument("--family", choices=["B", "C", "D"], default=None)
    plist.add_argument("--lmax", type=lmax, default=10)
    plist.add_argument("--killing-einstein", action="store_true")
    plist.set_defaults(func=cmd_catalog)

    p = sub.add_parser("space", help="build a space and validate it")
    psub = p.add_subparsers(dest="space_cmd", required=True)
    pbuild = psub.add_parser("build")
    pbuild.add_argument("id")
    pbuild.set_defaults(func=cmd_space)

    p = sub.add_parser("tensor", help="Ricci/torsion/scalar of a connection")
    p.add_argument("what", choices=["ricci", "torsion", "scalar"])
    p.add_argument("--space", required=True)
    p.add_argument("--alpha", type=finite, default=None)
    p.add_argument("--s", type=finite, default=None)
    p.add_argument("--t", type=positive, default=None)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("einstein", help="Einstein quadratics on two-summand spaces")
    p.add_argument("kind", choices=["riemannian", "skew"])
    p.add_argument("--space", required=True)
    p.set_defaults(func=cmd_einstein)

    p = sub.add_parser("homdim", help="dimension of invariant affine connections")
    p.add_argument("--space", required=True)
    p.set_defaults(func=cmd_homdim)

    p = sub.add_parser("check", help="run invariant check suites")
    p.add_argument("--space", default=None)
    p.add_argument("--all", action="store_true")
    p.add_argument("--suite", choices=list(_SUITES) + ["all"], default="all")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.tols = TOL.scaled(args.tol)  # the check thresholds of this call
    try:
        # silent only because ``emit`` refuses every NaN and infinity
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (BadRequest, catalog.CatalogError, KeyError, equivariant.SolveTooLargeError,
            OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_REQUEST
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_BAD_REQUEST
    except (reductive.ReductiveError, liealg.LieAlgebraError,
            connections.ConnectionError_, equivariant.RankAmbiguityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
