"""Command-line interface: catalog tables, space builds, tensors,
Einstein reports, Hom dimensions and invariant check suites.

Exit codes: 0 success, 1 failed checks or invariant violations,
2 unknown spaces or invalid parameters.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

import numpy as np

from . import catalog, connections, curvature, einstein, equivariant, liealg, reductive

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_REQUEST = 2


# ---------------------------------------------------------------------------
# output formatting


def _fmt_float(x: float) -> str:
    x = float(x)
    if np.isnan(x):
        return "NaN"
    if np.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _to_json(obj, indent: int = 0) -> str:
    """JSON with every float printed to 17 significant digits."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{"  " * (indent + 1)}"{k}": {_to_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + "  " * indent + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f'{"  " * (indent + 1)}{_to_json(v, indent + 1)}' for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + "  " * indent + "]"
    if isinstance(obj, np.ndarray):
        return _to_json(obj.tolist(), indent)
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


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
        if isinstance(val, (float, np.floating)):
            val = _fmt_float(val)
        writer.writerow([key, val])
    return buf.getvalue()


def _to_table(obj, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list, tuple, np.ndarray)) and not _is_matrix(v):
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
    else:
        lines.append(f"{pad}{_scalar_str(obj)}")
    return "\n".join(line for line in lines if line is not None)


def _is_matrix(v) -> bool:
    return isinstance(v, np.ndarray) and v.ndim >= 1


def _scalar_str(v) -> str:
    if isinstance(v, np.ndarray):
        return np.array2string(v, precision=10, suppress_small=True, max_line_width=120)
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def _write(text: str, args) -> None:
    """Write text as it is to ``args.out`` if given, else to stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


def emit(obj, args) -> None:
    if args.format == "json":
        text = _to_json(obj)
    elif args.format == "csv":
        text = _to_csv(obj)
    else:
        text = _to_table(obj)
    _write(text + "\n", args)


# ---------------------------------------------------------------------------
# space resolution


def resolve_space(space_id: str, normalization: str | None):
    """Catalog space, optionally rebuilt under a requested normalization."""
    desc = catalog.parse_id(space_id)
    space = catalog.build_space(desc)
    if normalization is None:
        return space, desc
    current = space.ip.provenance
    want = {"negK": "negative-killing", "bprime": "b-prime"}[normalization]
    if current == want:
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
    if len(space.summands) > 1:
        rebuilt = reductive.split_isotropy(rebuilt)
    return rebuilt, desc


# ---------------------------------------------------------------------------
# subcommands


def cmd_catalog(args) -> int:
    table = catalog.killing_einstein_table if args.killing_einstein else catalog.family_table
    rows = [row for fam in (args.family or "BCD") for row in table(fam, args.lmax)]
    rows.sort(key=lambda r: (r["family"], r["l"], r["p"]))
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()) if rows else ["family"])
        writer.writeheader()
        writer.writerows(rows)
        _write(buf.getvalue(), args)
    else:
        emit({"rows": rows, "named_spaces": catalog.known_ids()}, args)
    return EXIT_OK


def cmd_space(args) -> int:
    space, desc = resolve_space(args.id, args.normalization)
    report = space.validate(tol=args.tol * 10)
    cas = reductive.casimir(space)
    out = {
        "space": space.name,
        "result": {
            "algebra": space.algebra.name,
            "dim_g": space.algebra.dim,
            "dim_k": space.dim_k,
            "dim_m": space.dim_m,
            "summand_dims": list(space.summand_dims),
            "normalization": space.ip.provenance,
            "casimir_constants": list(cas.constants),
        },
        "residuals": {
            **{k: v for k, v in report.items() if k != "ok"},
            "casimir_scalar_deviation": cas.deviation,
        },
        "tolerances": {"tol": args.tol},
    }
    emit(out, args)
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


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
    out = {
        "space": space.name,
        "metric": {"t": t, "normalization": space.ip.provenance},
        "params": params,
        "tolerances": {"tol": args.tol},
    }
    if args.what == "ricci":
        oracle = curvature.ricci_oracle(nm)
        if "alpha" in params:
            closed = curvature.ricci_alpha_closed(space, params["alpha"])
        elif len(space.summands) == 2:
            closed = curvature.ricci_st_closed(space, params["s"], params["t"])
        else:
            closed = oracle
        out["result"] = {
            "components": oracle.components,
            "scalar": oracle.scalar,
        }
        out["residuals"] = {
            "closed_vs_oracle": float(np.abs(oracle.components - closed.components).max()),
            "symmetry": oracle.symmetry_residual(),
        }
    elif args.what == "torsion":
        t3 = curvature.torsion(nm)
        out["result"] = {
            "norm_squared": t3.norm_squared(),
            "totally_skew": t3.is_totally_skew(args.tol),
            "components": t3.components,
        }
        out["residuals"] = {"skew_residual": t3.skew_residual()}
    else:  # scalar
        oracle = curvature.ricci_oracle(nm)
        t3 = curvature.torsion(nm)
        out["result"] = {
            "scalar": oracle.scalar,
            "torsion_norm_squared": t3.norm_squared(),
        }
        res = {}
        if t3.is_totally_skew(1e-7):
            res["scalar_relation"] = curvature.scalar_relation_residual(nm)
        out["residuals"] = res
    emit(out, args)
    return EXIT_OK


def cmd_einstein(args) -> int:
    space, _ = resolve_space(args.space, args.normalization)
    if len(space.summands) != 2:
        print(f"error: {args.space} is not a two-summand space", file=sys.stderr)
        return EXIT_BAD_REQUEST
    if args.kind == "riemannian":
        rep = einstein.riemannian_quadratic(space)
        subst = {f"t={r:g}": einstein.riemannian_root_residual(space, r)
                 for r, _ in rep.roots if r > 0}
    else:
        rep = einstein.skew_einstein_quadratic(space)
        subst = {f"s={r:g}": einstein.skew_root_residual(space, r)
                 for r, _ in rep.roots}
    out = {
        "space": space.name,
        "metric": {"t": 0.5, "normalization": space.ip.provenance},
        "params": {},
        "result": {
            "kind": rep.kind,
            "coefficients": list(rep.coefficients),
            "discriminant": rep.discriminant,
            "roots": [r for r, _ in rep.roots],
            "multiplicities": [m for _, m in rep.roots],
            "flags": rep.flags,
            **{k: v for k, v in rep.extras.items()},
        },
        "residuals": {"coefficient_spread": rep.spread, **subst},
        "tolerances": {"tol": args.tol},
    }
    emit(out, args)
    return EXIT_OK


def cmd_homdim(args) -> int:
    space, _ = resolve_space(args.space, args.normalization)
    result = equivariant.hom_dimension(space)
    cert = equivariant.certify_bracket_span(result, space)
    spot = equivariant.group_spot_check(result, space, seed=args.seed)
    out = {
        "space": space.name,
        "metric": {"t": 0.5, "normalization": space.ip.provenance},
        "params": {},
        "result": {
            "dimension": result.dimension,
            "skew": result.skew_dim,
            "symmetric": result.sym_dim,
            "singular_value_gap": result.gap,
        },
        "residuals": {
            "bracket_system": cert["system_residual"],
            "bracket_projection": cert["projection_residual"],
            "group_spot_check": spot,
        },
        "tolerances": {"tol": args.tol, "rank_gap_min": equivariant.RANK_GAP_MIN},
    }
    emit(out, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check suites


def _suite_reductive(space, tol):
    checks = []
    rep = space.validate(tol=tol * 10)
    for key, val in rep.items():
        if key != "ok":
            checks.append((f"reductive/{key}", val, tol * 10))
    use1 = reductive.verify_use1(space)
    checks.append(("reductive/use1_a", use1["a_identity"], 1e-8))
    checks.append(("reductive/use1_b", use1["b_identity"], 1e-8))
    cas = reductive.casimir(space)
    checks.append(("reductive/casimir_scalar", cas.deviation, 1e-7))
    if len(space.summands) == 2:
        incl = reductive.check_inclusions(space)
        for key, val in incl.items():
            if isinstance(val, dict):
                checks.append((f"reductive/incl_{key}", val["residual"], 1e-8))
    return checks


def _suite_connections(space, tol):
    checks = []
    for alpha in (-1.0, 0.5, 2.0):
        nm = connections.nomizu_alpha(space, alpha)
        checks.append((f"connections/equivariance_alpha_{alpha:g}",
                       connections.equivariance_residual(nm), 1e-9))
        checks.append((f"connections/stc_alpha_{alpha:g}",
                       connections.satisfies_stc(nm)[1], 1e-9))
    if len(space.summands) == 2:
        for s, t in ((2.0, 0.5), (2.0, 0.8), (0.0, 0.3)):
            nm = connections.nomizu_st(space, s, t)
            checks.append((f"connections/equivariance_s{s:g}_t{t:g}",
                           connections.equivariance_residual(nm), 1e-9))
            skew = curvature.torsion(nm).is_totally_skew(1e-9)
            want = abs(t - 0.5) < 1e-12
            checks.append((f"connections/skew_iff_killing_s{s:g}_t{t:g}",
                           0.0 if skew == want else 1.0, 0.5))
    return checks


def _suite_curvature(space, tol):
    checks = []
    for alpha in (-1.0, 0.0, 2.0):
        nm = connections.nomizu_alpha(space, alpha)
        oracle = curvature.ricci_oracle(nm)
        try:
            closed = curvature.ricci_alpha_closed(space, alpha)
            checks.append((f"curvature/oracle_alpha_{alpha:g}",
                           float(np.abs(oracle.components - closed.components).max()),
                           1e-8))
        except reductive.ReductiveError:
            pass
        checks.append((f"curvature/ricci_symmetric_alpha_{alpha:g}",
                       oracle.symmetry_residual(), 1e-9))
        dt = curvature.codifferential(nm)
        checks.append((f"curvature/codifferential_alpha_{alpha:g}",
                       float(np.abs(dt.components).max()), 1e-9))
    if len(space.summands) == 2:
        for s, t in ((0.0, 0.3), (2.0, 0.5), (1.0, 1.0)):
            nm = connections.nomizu_st(space, s, t)
            oracle = curvature.ricci_oracle(nm)
            closed = curvature.ricci_st_closed(space, s, t)
            checks.append((f"curvature/oracle_s{s:g}_t{t:g}",
                           float(np.abs(oracle.components - closed.components).max()),
                           1e-8))
        nm = connections.nomizu_st(space, 3.0, 0.5)
        checks.append(("curvature/scalar_relation_s3",
                       curvature.scalar_relation_residual(nm), 1e-8))
    return checks


def _suite_einstein(space, tol):
    checks = []
    if len(space.summands) == 2:
        rep = einstein.riemannian_quadratic(space)
        for r, _ in rep.roots:
            if r > 0:
                checks.append((f"einstein/riemannian_root_t{r:g}",
                               einstein.riemannian_root_residual(space, r), 1e-8))
        skew = einstein.skew_einstein_quadratic(space)
        for r, _ in skew.roots:
            checks.append((f"einstein/skew_root_s{r:g}",
                           einstein.skew_root_residual(space, r), 1e-8))
    elif space.nsummands == 1 and space.dim_k > 0:
        checks.append(("einstein/thm4_identity",
                       einstein.thm4_identity_residual(space), 1e-7))
        for alpha in (-2.0, 0.0, 2.0):
            checks.append((f"einstein/nabla_alpha_{alpha:g}",
                           einstein.nabla_alpha_einstein_residual(space, alpha), 1e-7))
    else:
        nm = connections.nomizu_alpha(space, 2.0)
        scal = curvature.ricci_oracle(nm).scalar
        n = space.dim_m
        checks.append(("einstein/group_scalar_alpha2",
                       abs(scal - n * (1 - 4.0) / 4.0), 1e-8))
    return checks


_SUITES = {
    "reductive": _suite_reductive,
    "connections": _suite_connections,
    "curvature": _suite_curvature,
    "einstein": _suite_einstein,
}


def cmd_check(args) -> int:
    if args.all:
        ids = [sid for sid in catalog.known_ids() if not sid.startswith("flag-")]
    elif args.space:
        ids = [args.space]
    else:
        print("error: pass --space <id> or --all", file=sys.stderr)
        return EXIT_BAD_REQUEST
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    rows = []
    failed = 0
    for sid in sorted(ids):
        space, _ = resolve_space(sid, args.normalization)
        for suite in suites:
            for name, residual, tol in _SUITES[suite](space, args.tol):
                ok = residual < tol
                failed += 0 if ok else 1
                rows.append({"space": sid, "check": name,
                             "residual": float(residual), "tolerance": tol,
                             "ok": ok})
    if args.format in ("json", "csv"):
        emit({"checks": rows, "failed": failed}, args)
    else:
        for row in rows:
            status = "PASS" if row["ok"] else "FAIL"
            print(f'{status}  {row["space"]:18s} {row["check"]:45s} '
                  f'{row["residual"]:.3e} < {row["tolerance"]:.0e}')
        print(f"{len(rows) - failed}/{len(rows)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redhom",
        description="Invariant connections and Einstein equations on "
                    "reductive homogeneous spaces",
    )
    parser.add_argument("--format", choices=["table", "json", "csv"], default="table")
    parser.add_argument("--tol", type=positive, default=1e-9)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--normalization", choices=["negK", "bprime"], default=None)
    parser.add_argument("--out", default=None, help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list catalog spaces and family tables")
    psub = p.add_subparsers(dest="catalog_cmd", required=True)
    plist = psub.add_parser("list")
    plist.add_argument("--family", choices=["B", "C", "D"], default=None)
    plist.add_argument("--lmax", type=int, default=10)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (catalog.CatalogError, KeyError, equivariant.SolveTooLargeError) as exc:
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
