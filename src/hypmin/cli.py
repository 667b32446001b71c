"""Command-line entry point.

Subcommands: curvature, scherk, verify, search, report.  All outputs are
deterministic files (no timestamps); the JSON/CSV schemas carry a version
field so downstream consumers can re-parse them.

Each subcommand is defined once, in `SUBCOMMANDS`.  A command builds only
the parser of the subcommand it names.  Help, a usage error and a missing or
unknown subcommand go to the parser of every subcommand (`build_parser`),
so every text printed and every exit code are that parser's.  `hypmin -h`
shows the first two paragraphs above.

This module imports only the standard library, `algebra` and `cpus` when it
loads.  A command imports numpy and the other modules it uses when it runs,
so `verify` loads neither, and `--kind`'s choices are read from
`search.CAMPAIGNS` only when a parser with the `search` subcommand is built.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import asdict
from itertools import groupby
from operator import attrgetter
from pathlib import Path

from . import algebra, cpus

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


def _int_at_least(low: int, name: str):
    """An argparse type: an int of at least `low`.  `name` is what argparse
    calls the type when the text is no int ("invalid <name> value")."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = name
    return parse


positive_int = _int_at_least(1, "positive_int")


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


# rows per formatted block: bounds the bytes alive at once, and so peak RSS
CSV_BLOCK_ROWS = 4096
# grid points per kernel call of `cmd_curvature`: its temporaries span a block, not the grid
KERNEL_BLOCK_POINTS = 8192


@contextmanager
def _atomic_open(path: Path):
    """Text file handle on a temp file beside `path`, moved onto `path` when
    the block completes and removed if it raises, so a failed write leaves
    no partial output.  Makes the directory of `path` first, so a command
    makes its `--out` when it writes its first file, after all validation."""
    path.parent.mkdir(parents=True, exist_ok=True)
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


def _format_column(values: np.ndarray):
    """(distinct, inverse): the distinct bit patterns of a 1-d int64 or
    float64 array, as values of its dtype (so -0.0 and 0.0 stay apart), and
    the index of each entry's.  `_rows` spells each distinct value once."""
    import numpy as np

    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return bits.view(values.dtype), inverse


def _rows(columns, specials, head: bytes, separator: bytes, tail: bytes):
    """(rows, bytes) uint8 array: per row `head`, the cells of `columns`
    (equal-length 1-d int64/float64 arrays) joined by `separator`, then
    `tail`.  A cell is the repr of its Python value, or its entry in
    `specials` (see `floatrepr.slots`), padded with NULs to the widest of its
    column."""
    import numpy as np

    from . import floatrepr

    distinct, inverses = zip(*map(_format_column, columns))
    # the distinct values of the columns of a dtype go through floatrepr in
    # pieces of at most CSV_BLOCK_ROWS values, which bound its temporaries
    parts = []
    for _, run in groupby(distinct, key=attrgetter("dtype")):
        values = np.concatenate(list(run))
        parts += [floatrepr.slots(v, specials) for v in np.array_split(values, -(-len(values) // CSV_BLOCK_ROWS))]
    text, lengths = (np.concatenate(part) for part in zip(*parts))
    bounds = np.cumsum([0, *map(len, distinct)]).tolist()  # column i's slots: bounds[i]:bounds[i + 1]
    spans = list(zip(bounds, bounds[1:]))
    widths = [int(lengths[lo:hi].max()) for lo, hi in spans]
    glue = [head] + [separator] * (len(columns) - 1)
    rows = np.empty((len(inverses[0]), sum(map(len, glue)) + sum(widths) + len(tail)), np.uint8)
    at = 0
    for before, (lo, hi), width, inverse in zip(glue, spans, widths, inverses):
        rows[:, at : at + len(before)] = np.frombuffer(before, np.uint8)
        at += len(before)
        # each cell as one item of `width` bytes
        cells = np.ascontiguousarray(text[lo:hi, :width]).view(f"V{width}")[:, 0]
        rows[:, at : at + width].view(f"V{width}")[:, 0] = cells.take(inverse)
        at += width
    rows[:, at:] = np.frombuffer(tail, np.uint8)
    return rows


def _text(rows) -> str:
    """The bytes of `rows` without their NUL padding, as text."""
    # each array goes as soon as the next is made: a block's copies are the writer's peak
    kept = rows[rows != 0]
    del rows
    data = kept.tobytes()
    del kept
    return data.decode("ascii")


def _render_csv(start: int, block) -> str:
    """CSV lines of the rows in `block`, a list of equal-length column slices."""
    return _text(_rows(block, None, b"", b",", b"\n"))


def _render_json(start: int, block) -> str:
    """The rows in `block` as json.dumps(..., indent=2) spells them inside
    "rows", with the separator that precedes them unless `start` is 0."""
    rows = _rows(block, JSON_SPECIALS, b",\n    [\n      ", b",\n      ", b"\n    ]")
    if start == 0:
        rows[0, 0] = 0  # the first row of the table follows no comma
    return _text(rows)


def _write_range(out, render, columns, lo: int, hi: int) -> None:
    """Write render(start, block) to `out` for each block of at most
    CSV_BLOCK_ROWS rows of `columns` that covers range(lo, hi), in order."""
    for start in range(lo, hi, CSV_BLOCK_ROWS):
        stop = min(start + CSV_BLOCK_ROWS, hi)
        out.write(render(start, [c[start:stop] for c in columns]))


# (render, columns) of the table a pool worker formats, set by _init_worker
_table = None


def _init_worker(render, columns) -> None:
    global _table
    _table = (render, columns)


def _write_part(part: Path, lo: int, hi: int) -> None:
    with open(part, "w", encoding="utf-8") as fh:
        _write_range(fh, *_table, lo, hi)


def _write_blocks(fh, render, columns) -> None:
    """Write the rows of `columns` (equal-length 1-d arrays) to the text file
    `fh` (an `_atomic_open` handle) as `_write_range` does, in up to
    min(usable CPUs, blocks) processes.

    The rows are split into k = min(usable CPUs, blocks) contiguous ranges
    of near-equal length.  This process formats the first range into `fh`,
    while a pool of k - 1 workers writes the others to part files beside
    `fh`, which are appended in order.  Every process holds one block's
    bytes at a time, and the bytes do not depend on k.  With k = 1 no
    process starts.  A worker's exception is raised here, and the part
    files are always removed.
    """
    n_rows = len(columns[0])
    k = max(1, min(cpus.usable_cpus(), -(-n_rows // CSV_BLOCK_ROWS)))
    if k == 1:
        _write_range(fh, render, columns, 0, n_rows)
        return
    from concurrent.futures import ProcessPoolExecutor

    bounds = [i * n_rows // k for i in range(k + 1)]
    parts = [Path(f"{fh.name}.part{i}") for i in range(1, k)]
    try:
        # the workers get the table through initargs: inherited, not
        # pickled, where processes are forked
        with ProcessPoolExecutor(k - 1, initializer=_init_worker, initargs=(render, columns)) as pool:
            futures = [
                pool.submit(_write_part, part, bounds[i], bounds[i + 1])
                for i, part in enumerate(parts, 1)
            ]
            _write_range(fh, render, columns, 0, bounds[1])
            fh.flush()
            for future, part in zip(futures, parts):
                future.result()
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)


def _write_csv(path: Path, header, columns) -> None:
    """Write a CSV of equal-length 1-d int64/float64 columns, atomically.

    Each cell is the repr of its Python value: an int, or the shortest
    string that round-trips the float.  Rows are formatted column by column
    in blocks, by `_write_blocks`.
    """
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        _write_blocks(fh, _render_csv, columns)


def _write_json(path: Path, payload: dict, columns=None) -> None:
    """Write `payload` and the schema version as json.dumps(..., indent=2,
    sort_keys=True) would, atomically.

    `columns`, if given, are equal-length 1-d float64 arrays that go in as
    payload["rows"], one list per row.  The rows are spelled column by column
    in blocks, by `_write_blocks`, and the bytes equal json.dumps of the
    whole payload.
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
        _write_blocks(fh, _render_json, columns)
        fh.write("\n  ]" + tail)


def _grid_axes(domain, n: int):
    """Axes of the uniform n-by-n grid over a (u-range, v-range) domain,
    shaped (n, 1) and (1, n) so they broadcast to the grid.  A domain whose
    width overflows is rejected: its grid would hold NaNs."""
    import numpy as np

    (u0, u1), (v0, v1) = domain
    if not (math.isfinite(u1 - u0) and math.isfinite(v1 - v0)):
        raise ValueError(f"domain {domain} is too wide: its width is not finite")
    return np.linspace(u0, u1, n)[:, None], np.linspace(v0, v1, n)[None, :]


def cmd_verify(args) -> int:
    reports = algebra.run_all_verifications()
    _write_json(args.out / "verify_report.json", {"identities": [r.to_json() for r in reports]})
    for r in reports:
        print(f"{r.id}: {r.status}")
    return 0 if all(r.ok for r in reports) else 2


def cmd_curvature(args) -> int:
    import numpy as np

    from .descriptors import SurfaceFileError, load_surface
    from .kernel import hyperbolic_curvature

    try:
        patch = load_surface(args.surface)
    except SurfaceFileError as exc:
        raise ValueError(f"{args.surface}: {exc}") from exc
    us, vs = _grid_axes(patch.domain, args.grid)
    columns = [np.empty((us.size, vs.size)) for _ in CURVATURE_COLUMNS]
    step = max(1, KERNEL_BLOCK_POINTS // vs.size)
    jet_of = patch.rows_jet(vs)  # the v curve, evaluated once per table
    for start in range(0, us.size, step):
        rows = us[start : start + step]
        jet = jet_of(rows)
        rep = hyperbolic_curvature(jet)
        block = (rows, vs, jet.X[..., 0], jet.X[..., 1], jet.X[..., 2], rep.He, rep.N3, rep.H)
        for column, values in zip(columns, block):
            column[start : start + step] = values
    columns = [c.ravel() for c in columns]
    summary = f"max |H| = {np.max(np.abs(columns[-1])):.3e} over {len(columns[0])} points"
    if args.format == "csv":
        _write_csv(args.out / "curvature.csv", CURVATURE_COLUMNS, columns)
    else:
        _write_json(args.out / "curvature.json", {"columns": list(CURVATURE_COLUMNS)}, columns)
    print(summary)
    return 0


# cmd_scherk's two direct kernel calls, looked up in this module, where
# bench/tracing.py times them (inside the kernel they stay untimed)
def fundamental_forms(jet):
    from . import kernel

    return kernel.fundamental_forms(jet)


def euclidean_mean_curvature(forms):
    from . import kernel

    return kernel.euclidean_mean_curvature(forms)


def cmd_scherk(args) -> int:
    import numpy as np

    from . import surfaces
    from .kernel import hyperbolic_curvature, restrict_to_halfspace

    a, margin = args.a, args.margin
    if a == 0.0:
        raise ValueError("--a must be nonzero")
    s = surfaces.scherk(a)
    half = s.f.domain[1]
    if not math.isfinite(2.0 * half):
        raise ValueError(f"--a = {a!r} is too small: the patch width pi/|a| overflows")
    if not 0.0 < margin < half:
        raise ValueError(f"--margin must lie in (0, pi/(2|a|)) = (0, {half!r}), got {margin!r}")
    lo, hi = -half + margin, half - margin
    jet = s.jet(*_grid_axes(((lo, hi), (lo, hi)), args.grid))
    max_he = float(np.max(np.abs(euclidean_mean_curvature(fundamental_forms(jet)))))
    # H is defined only above the ideal boundary: take it at the points with z > 0
    max_h = float(np.max(np.abs(hyperbolic_curvature(restrict_to_halfspace(jet)).H), initial=0.0))
    _write_json(
        args.out / "scherk_report.json",
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


def cmd_search(args) -> int:
    import numpy as np

    from .search import CAMPAIGNS, STOP_REASONS, SearchConfig, run_seeds

    campaign = CAMPAIGNS[args.kind]
    cfg = SearchConfig(euclidean_control=campaign.euclidean_control)
    results = run_seeds(campaign.seeds(args.seeds, args.seed), cfg, workers=args.workers)
    columns = [
        np.arange(len(results)),
        np.array([r.sup_residual for r in results]),
        np.array([r.mean_square_residual for r in results]),
        np.array([np.nan if r.plane_distance is None else r.plane_distance for r in results]),
        np.array([r.iterations for r in results], dtype=np.int64),
        np.array([r.converged for r in results], dtype=np.int64),
    ]
    _write_csv(args.out / f"search_{args.kind}.csv", SEARCH_COLUMNS, columns)
    sups = [r.sup_residual for r in results]
    _write_json(
        args.out / f"search_{args.kind}_summary.json",
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
    import numpy as np

    from . import surfaces
    from .kernel import hyperbolic_curvature

    reports = algebra.run_all_verifications()
    oracles = {}
    for name, patch, target in (
        ("hemisphere_r2", surfaces.hemisphere(2.0), 0.0),
        ("horosphere_c1", surfaces.horosphere(1.0), 1.0),
        ("vplane", surfaces.vertical_plane(5.0), 0.0),
    ):
        H = hyperbolic_curvature(patch.jet(*_grid_axes(patch.domain, 25))).H
        oracles[name] = float(np.max(np.abs(H - target)))
    _write_json(
        args.out / "report.json",
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


def _campaign_names() -> tuple:
    """`--kind`'s choices, the names of search.CAMPAIGNS: read only when a
    parser with the `search` subcommand is built."""
    from .search import CAMPAIGNS

    return tuple(CAMPAIGNS)


# every subcommand's output directory, made by `_atomic_open`
_OUT = {"type": Path, "default": "out"}

# name -> (help, {flag: add_argument keywords}, command): every subcommand,
# from which both the full parser and a lone subcommand's parser are built;
# a function given as `choices` is called when the parser is built
SUBCOMMANDS = {
    "verify": ("verify the exact elimination identities", {"--out": _OUT}, cmd_verify),
    "curvature": (
        "curvature grid over a surface file",
        {
            "--surface": {"required": True},
            "--grid": {"type": positive_int, "default": 100},
            "--out": _OUT,
            "--format": {"choices": ("csv", "json"), "default": "csv"},
        },
        cmd_curvature,
    ),
    "scherk": (
        "Scherk-surface sanity report",
        {
            "--a": {"type": finite_float, "required": True},
            "--grid": {"type": positive_int, "default": 50},
            "--margin": {"type": finite_float, "default": 0.1},
            "--out": _OUT,
        },
        cmd_scherk,
    ),
    "search": (
        "least-squares falsification run",
        {
            "--kind": {"choices": _campaign_names, "required": True},
            "--seeds": {"type": positive_int, "default": 20},
            "--seed": {"type": _int_at_least(0, "int"), "default": 0, "help": "generator seed"},
            "--workers": {"type": positive_int, "default": 1},
            "--out": _OUT,
        },
        cmd_search,
    ),
    "report": ("combined verification + oracle summary", {"--out": _OUT}, cmd_report),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _, arguments, command = SUBCOMMANDS[name]
    for flag, options in arguments.items():
        if callable(options.get("choices")):
            options = {**options, "choices": options["choices"]()}
        parser.add_argument(flag, **options)
    parser.set_defaults(fn=command)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand: it prints the help and the usage errors."""
    parser = _Parser(prog="hypmin", description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (summary, _, _) in SUBCOMMANDS.items():
        _add_arguments(sub.add_parser(name, help=summary), name)
    return parser


class _Defer(Exception):
    """A lone subcommand's parser would print help or a usage error."""


class _SubcommandParser(_Parser):
    # prints nothing: the full parser prints its help and usage errors
    def error(self, message):
        raise _Defer

    def print_help(self, file=None):
        raise _Defer


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace of build_parser().parse_args(argv), from the parser of
    the subcommand that argv[0] names alone.  Where argv[0] names none, or
    that parser would print help or a usage error, the full parser parses
    argv, so that what is printed and the exit code are the full parser's."""
    if argv and argv[0] in SUBCOMMANDS:
        parser = _add_arguments(_SubcommandParser(prog=f"hypmin {argv[0]}"), argv[0])
        try:
            return parser.parse_args(argv[1:], argparse.Namespace(subcommand=argv[0]))
        except _Defer:
            pass
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
