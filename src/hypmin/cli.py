"""Command-line entry point.

Subcommands: curvature, scherk, verify, search, report.  All outputs are
deterministic files (no timestamps); the JSON/CSV schemas carry a version
field so downstream consumers can re-parse them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import algebra, surfaces
from .descriptors import SurfaceFileError, load_surface
from .kernel import hyperbolic_curvature
from .kernel import euclidean_mean_curvature, fundamental_forms
from .search import SearchConfig, generate_seeds, run_seeds
from .surfaces import Kind

SCHEMA_VERSION = 1

CURVATURE_COLUMNS = ("u", "v", "x", "y", "z", "He", "N3", "H")
SEARCH_COLUMNS = (
    "seed",
    "supResidual",
    "meanSquareResidual",
    "planeDistance",
    "iterations",
    "converged",
)


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (exit 2 is reserved for verify mismatches)
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_verify(args) -> int:
    reports = algebra.run_all_verifications()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "verify_report.json", {"identities": [r.to_json() for r in reports]})
    for r in reports:
        print(f"{r.id}: {r.status}")
    return 0 if all(r.ok for r in reports) else 2


def cmd_curvature(args) -> int:
    try:
        patch = load_surface(args.surface)
    except SurfaceFileError as exc:
        print(f"error: {args.surface}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (u0, u1), (v0, v1) = patch.domain
    us = np.linspace(u0, u1, args.grid)
    vs = np.linspace(v0, v1, args.grid)
    rows = []
    for u in us:
        for v in vs:
            jet = patch.jet(float(u), float(v))
            rep = hyperbolic_curvature(jet)
            x, y, z = (float(c) for c in jet.X)
            rows.append((float(u), float(v), x, y, z, rep.He, rep.N3, rep.H))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        _write_csv(out / "curvature.csv", CURVATURE_COLUMNS, rows)
    else:
        _write_json(
            out / "curvature.json",
            {"columns": list(CURVATURE_COLUMNS), "rows": [list(r) for r in rows]},
        )
    print(f"max |H| = {max(abs(r[7]) for r in rows):.3e} over {len(rows)} points")
    return 0


def cmd_scherk(args) -> int:
    a = args.a
    if a == 0.0:
        print("error: --a must be nonzero", file=sys.stderr)
        return 1
    s = surfaces.scherk(a)
    half = math.pi / (2.0 * abs(a))
    margin = args.margin
    lo, hi = -half + margin, half - margin
    grid = np.linspace(lo, hi, args.grid)
    max_he = 0.0
    max_h = 0.0
    for x in grid:
        for y in grid:
            jet = surfaces.patch_jet(s, float(x), float(y), check_halfspace=False)
            he = euclidean_mean_curvature(fundamental_forms(jet))
            max_he = max(max_he, abs(he))
            if jet.X[2] > 0.0:
                max_h = max(max_h, abs(hyperbolic_curvature(jet).H))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "scherk_report.json",
        {
            "a": a,
            "grid": args.grid,
            "margin": margin,
            "max_abs_He": max_he,
            "max_abs_H": max_h,
            "note": "Euclidean-minimal (He ~ 0) but not hyperbolically minimal (H != 0)",
        },
    )
    print(f"Scherk a={a}: max|He| = {max_he:.3e}, max|H| = {max_h:.3e} (not hyperbolically minimal)")
    return 0


_SEARCH_SETUPS = {
    "type1": (Kind.TYPE_I, (-1.0, 1.0), (-1.0, 1.0), False),
    "type2": (Kind.TYPE_II, (-1.0, 1.0), (1.0, 2.0), False),
    "control": (Kind.TYPE_I, (-1.0, 1.0), (-1.0, 1.0), True),
}


def cmd_search(args) -> int:
    kind, f_dom, g_dom, control = _SEARCH_SETUPS[args.kind]
    cfg = SearchConfig(euclidean_control=control)
    seeds = generate_seeds(args.seeds, kind, args.seed, f_dom, g_dom, euclidean_control=control)
    results = run_seeds(seeds, cfg, workers=args.workers)
    rows = []
    for i, res in enumerate(results):
        rows.append(
            (
                i,
                res.sup_residual,
                res.mean_square_residual,
                res.plane_distance if res.plane_distance is not None else float("nan"),
                res.iterations,
                res.converged,
            )
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / f"search_{args.kind}.csv", SEARCH_COLUMNS, rows)
    sups = [r.sup_residual for r in results]
    _write_json(
        out / f"search_{args.kind}_summary.json",
        {
            "kind": args.kind,
            "seeds": args.seeds,
            "generator_seed": args.seed,
            "best_supResidual": min(sups),
            "worst_supResidual": max(sups),
            "converged": sum(1 for r in results if r.converged),
        },
    )
    print(
        f"{args.kind}: {len(results)} seeds, best sup|residual| = {min(sups):.3e}, "
        f"worst = {max(sups):.3e}"
    )
    return 0


def cmd_report(args) -> int:
    reports = algebra.run_all_verifications()
    oracles = {}
    for name, patch in (
        ("hemisphere_r2", surfaces.hemisphere(2.0)),
        ("horosphere_c1", surfaces.horosphere(1.0)),
        ("vplane", surfaces.vertical_plane(5.0)),
    ):
        (u0, u1), (v0, v1) = patch.domain
        worst = 0.0
        target = 1.0 if name.startswith("horosphere") else 0.0
        for u in np.linspace(u0, u1, 25):
            for v in np.linspace(v0, v1, 25):
                worst = max(worst, abs(hyperbolic_curvature(patch.jet(float(u), float(v))).H - target))
        oracles[name] = worst
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "report.json",
        {
            "identities": [r.to_json() for r in reports],
            "curvature_oracles_max_error": oracles,
        },
    )
    ok = all(r.ok for r in reports)
    print("identities:", "all verified" if ok else "MISMATCH FOUND")
    for name, err in oracles.items():
        print(f"{name}: max curvature error {err:.3e}")
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypmin", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", help="verify the exact elimination identities")
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("curvature", help="curvature grid over a surface file")
    p.add_argument("--surface", required=True)
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--out", default="out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("scherk", help="Scherk-surface sanity report")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--margin", type=float, default=0.1)
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_scherk)

    p = sub.add_parser("search", help="least-squares falsification run")
    p.add_argument("--kind", choices=tuple(_SEARCH_SETUPS), required=True)
    p.add_argument("--seeds", type=positive_int, default=20)
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--workers", type=positive_int, default=1)
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("report", help="combined verification + oracle summary")
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
