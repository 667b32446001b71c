"""Command-line entry point.

Subcommands: curvature, scherk, verify, search, report.  All outputs are
deterministic files (no timestamps); the JSON/CSV schemas carry a version
field so downstream consumers can re-parse them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import algebra, surfaces
from .descriptors import SurfaceFileError, load_surface
from .kernel import ImmersionJet, hyperbolic_curvature
from .kernel import euclidean_mean_curvature, fundamental_forms
from .search import STOP_REASONS, SearchConfig, generate_seeds, run_seeds
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


# rows per formatted block: bounds the strings alive at once, and so peak RSS
CSV_BLOCK_ROWS = 4096


@contextmanager
def _atomic_open(path: Path):
    """Text file handle on a temp file beside `path`, moved onto `path` when
    the block completes and removed if it raises, so a failed write leaves
    no partial output."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# json.dumps spells the non-finite floats as JavaScript does
JSON_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _format_column(values: np.ndarray, specials: dict[str, str] | None = None) -> list[str]:
    """repr of each entry of a 1-d int64 or float64 array, with one repr call
    per distinct bit pattern (so -0.0 and 0.0 stay apart).  With `specials`,
    the repr of a NaN or an infinity is replaced by its entry there."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    unique = bits.view(values.dtype)
    text = np.array(list(map(repr, unique.tolist())), dtype=object)
    if specials is not None:
        special = ~np.isfinite(unique)
        text[special] = [specials[t] for t in text[special]]
    return text[inverse].tolist()


def _write_csv(path: Path, header, columns) -> None:
    """Write a CSV of equal-length 1-d int64/float64 columns, atomically.

    Each cell is the repr of its Python value: an int, or the shortest
    string that round-trips the float.  Rows go out in blocks of
    CSV_BLOCK_ROWS, each formatted column by column and written in one call.
    """
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            # a generator, so no block's strings outlive its write
            cells = (_format_column(c[start : start + CSV_BLOCK_ROWS]) for c in columns)
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_json(path: Path, payload: dict, columns=None) -> None:
    """Write `payload` and the schema version as json.dumps(..., indent=2,
    sort_keys=True) would, atomically.

    `columns`, if given, are equal-length 1-d float64 arrays that go in as
    payload["rows"], one list per row.  The rows are spelled column by column
    in blocks of CSV_BLOCK_ROWS, as `_write_csv` does, and the bytes equal
    json.dumps of the whole payload.
    """
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    if columns is not None:
        payload["rows"] = []
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with _atomic_open(path) as fh:
        if columns is None or len(columns[0]) == 0:
            fh.write(text)
            return
        head, tail = text.split('"rows": []')
        fh.write(head + '"rows": [')
        sep = "\n"
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            cells = (_format_column(c[start : start + CSV_BLOCK_ROWS], JSON_SPECIALS) for c in columns)
            rows = map(",\n      ".join, zip(*cells))
            fh.write(sep + "    [\n      " + "\n    ],\n    [\n      ".join(rows) + "\n    ]")
            sep = ",\n"
        fh.write("\n  ]" + tail)


def _grid_axes(domain, n: int):
    """Axes of the uniform n-by-n grid over a (u-range, v-range) domain,
    shaped (n, 1) and (1, n) so they broadcast to the grid."""
    (u0, u1), (v0, v1) = domain
    return np.linspace(u0, u1, n)[:, None], np.linspace(v0, v1, n)[None, :]


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
    us, vs = _grid_axes(patch.domain, args.grid)
    jet = patch.jet(us, vs)
    rep = hyperbolic_curvature(jet)
    grid = (us, vs, jet.X[..., 0], jet.X[..., 1], jet.X[..., 2], rep.He, rep.N3, rep.H)
    columns = [c.ravel() for c in np.broadcast_arrays(*grid)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        _write_csv(out / "curvature.csv", CURVATURE_COLUMNS, columns)
    else:
        _write_json(out / "curvature.json", {"columns": list(CURVATURE_COLUMNS)}, columns)
    print(f"max |H| = {np.max(np.abs(rep.H)):.3e} over {len(columns[0])} points")
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
    us, vs = _grid_axes(((lo, hi), (lo, hi)), args.grid)
    jet = surfaces.patch_jet(s, us, vs, check_halfspace=False)
    max_he = float(np.max(np.abs(euclidean_mean_curvature(fundamental_forms(jet)))))
    # H is defined only above the ideal boundary: take it at the points with z > 0
    above = jet.X[..., 2] > 0.0
    max_h = 0.0
    if np.any(above):
        jet_above = ImmersionJet(*(getattr(jet, f.name)[above] for f in fields(ImmersionJet)))
        max_h = float(np.max(np.abs(hyperbolic_curvature(jet_above).H)))
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
    columns = [
        np.arange(len(results)),
        np.array([r.sup_residual for r in results]),
        np.array([r.mean_square_residual for r in results]),
        np.array([np.nan if r.plane_distance is None else r.plane_distance for r in results]),
        np.array([r.iterations for r in results], dtype=np.int64),
        np.array([r.converged for r in results], dtype=np.int64),
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / f"search_{args.kind}.csv", SEARCH_COLUMNS, columns)
    sups = [r.sup_residual for r in results]
    _write_json(
        out / f"search_{args.kind}_summary.json",
        {
            "kind": args.kind,
            "config": asdict(cfg),
            "seeds": args.seeds,
            "generator_seed": args.seed,
            "best_supResidual": min(sups),
            "worst_supResidual": max(sups),
            "converged": sum(1 for r in results if r.converged),
            "nfev_per_stage": [sum(stage) for stage in zip(*(r.stage_nfev for r in results))],
            "stop_reasons": {
                reason: sum(r.stop_reasons.count(reason) for r in results) for reason in STOP_REASONS
            },
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
        target = 1.0 if name.startswith("horosphere") else 0.0
        H = hyperbolic_curvature(patch.jet(*_grid_axes(patch.domain, 25))).H
        oracles[name] = float(np.max(np.abs(H - target)))
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
    p.add_argument("--grid", type=positive_int, default=100)
    p.add_argument("--out", default="out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("scherk", help="Scherk-surface sanity report")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--grid", type=positive_int, default=50)
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
