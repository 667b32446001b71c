#!/usr/bin/env python3
"""Cost of writing one block of a curvature table, layer by layer.

For each of the benchmark's seven descriptor files (`bench/workloads.py`,
generated from the seed) at its benchmark grid, this computes the table's
columns as `hypmin curvature` does, cuts them into blocks of
`cli.CSV_BLOCK_ROWS` rows and formats each block as the command does, as
CSV or, for the horosphere, as JSON.  It prints the median distinct values
and ms per block of each layer:

- unique: the distinct values of each column (`cli._format_column`);
- digits: their shortest digits (`floatrepr.digits`);
- layout: their text, laid out in slots (the rest of `floatrepr.slots`);
- rows: the row bytes and the text without their padding (the rest of the block);
- total: the whole block;
- repr_join: the reference, `map(repr)` over each column's distinct
  values and a join of the cells, on the same block.

The layers are timed by wrapping the module functions while a block is
formatted, over PASSES passes of each table's blocks.  Every block's text is
checked against the reference's.  Compare medians only with medians taken
on the same machine.

    PYTHONPATH=src python scripts/table_layers.py [--seed N] [--grid N]
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from hypmin import cli, floatrepr
from hypmin.descriptors import parse_surface_text
from hypmin.kernel import hyperbolic_curvature

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

# the layers' functions, in the module each is looked up in
WRAPPED = ((cli, "_format_column"), (floatrepr, "slots"), (floatrepr, "digits"))
# passes over each table's blocks; every block of every pass is one sample
PASSES = 5


def bench_grids(sizes) -> dict:
    """Descriptor name -> grid, as the curvature workload assigns them."""
    special = {"spline2": sizes.grid_spline2, "spline1": sizes.grid_spline1, "scherk_patch": sizes.grid_scherk_patch}
    return {name: special.get(name, sizes.grid_oracle) for name in workloads.descriptor_texts(0)}


def table_columns(text: str, grid: int) -> list:
    """The eight columns of `hypmin curvature`'s table of a descriptor."""
    patch = parse_surface_text(text)
    us, vs = cli._grid_axes(patch.domain, grid)
    jet = patch.jet(us, vs)
    rep = hyperbolic_curvature(jet)
    grid_values = np.broadcast_arrays(us, vs, jet.X[..., 0], jet.X[..., 1], jet.X[..., 2], rep.He, rep.N3, rep.H)
    return [np.ascontiguousarray(c).ravel() for c in grid_values]


def repr_join(start: int, block, fmt: str) -> str:
    """A block as the formatter before floatrepr spelled it: one repr per distinct value, then joins."""
    cells = []
    for column in block:
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        text = [repr(v) for v in bits.view(column.dtype).tolist()]
        if fmt == "json":
            text = [cli.JSON_SPECIALS.get(t, t) for t in text]
        cells.append(np.array(text, dtype=object)[inverse].tolist())
    if fmt == "csv":
        return "\n".join(map(",".join, zip(*cells))) + "\n"
    rows = "\n    ],\n    [\n      ".join(map(",\n      ".join, zip(*cells)))
    return ("\n" if start == 0 else ",\n") + "    [\n      " + rows + "\n    ]"


def _timed(seconds: dict, name: str, fn):
    def wrapper(*args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            seconds[name] += time.perf_counter() - start

    return wrapper


def measure(columns, fmt: str) -> dict:
    """Median distinct values and ms of each layer per block of `columns`."""
    render = cli._render_csv if fmt == "csv" else cli._render_json
    samples = {name: [] for name in ("distinct", "unique", "digits", "layout", "rows", "total", "repr_join")}
    seconds = dict.fromkeys((name for _, name in WRAPPED), 0.0)
    originals = [(module, name, getattr(module, name)) for module, name in WRAPPED]
    for _ in range(PASSES):
        for start in range(0, len(columns[0]), cli.CSV_BLOCK_ROWS):
            block = [c[start : start + cli.CSV_BLOCK_ROWS] for c in columns]
            t0 = time.perf_counter()
            want = repr_join(start, block, fmt)
            t1 = time.perf_counter()
            for module, name, fn in originals:
                setattr(module, name, _timed(seconds, name, fn))
            try:
                seconds.update(dict.fromkeys(seconds, 0.0))
                t2 = time.perf_counter()
                got = render(start, block)
                t3 = time.perf_counter()
            finally:
                for module, name, fn in originals:
                    setattr(module, name, fn)
            if got != want:
                raise SystemExit(f"error: block at row {start} differs from the reference")
            samples["distinct"].append(sum(len(np.unique(c.view(np.int64))) for c in block))
            samples["unique"].append(seconds["_format_column"])
            samples["digits"].append(seconds["digits"])
            samples["layout"].append(seconds["slots"] - seconds["digits"])
            samples["rows"].append(t3 - t2 - seconds["_format_column"] - seconds["slots"])
            samples["total"].append(t3 - t2)
            samples["repr_join"].append(t1 - t0)
    return {name: statistics.median(s) * (1 if name == "distinct" else 1e3) for name, s in samples.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=6421, help="benchmark seed of the descriptor files")
    ap.add_argument("--grid", type=int, help="one grid side for every file (default: the benchmark's)")
    args = ap.parse_args(argv)
    if args.grid is not None and args.grid < 1:
        ap.error(f"--grid must be at least 1, got {args.grid}")
    print(f"benchmark seed {args.seed}; median per block of at most {cli.CSV_BLOCK_ROWS} rows, ms")
    layers = ("unique", "digits", "layout", "rows", "total", "repr_join")
    print(f"{'kind':15s} {'grid':>4s} {'fmt':>4s} {'blocks':>6s} {'distinct':>8s} " + " ".join(f"{n:>9s}" for n in layers))
    grids = bench_grids(workloads.FULL)
    for name, (text, fields) in workloads.descriptor_texts(args.seed).items():
        grid = args.grid or grids[name]
        fmt = fields.get("fmt", "csv")
        columns = table_columns(text, grid)
        ms = measure(columns, fmt)
        blocks = -(-len(columns[0]) // cli.CSV_BLOCK_ROWS)
        print(f"{name:15s} {grid:4d} {fmt:>4s} {blocks:6d} {ms['distinct']:8.0f} " + " ".join(f"{ms[n]:9.3f}" for n in layers))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
