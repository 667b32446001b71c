#!/usr/bin/env python3
"""Cost of one Levenberg-Marquardt step, layer by layer, per seed.

For each campaign of `search.CAMPAIGNS` (type1, type2, control) this runs
one block of generated seeds through `search._minimize_block`: a block of
one seed, and a block as large as the largest block of a 20-seed campaign
(`search._blocks`).  For each it prints the block size, nfev and the number
of assembled points summed over the block's seeds, the median time per seed
of the three stacked layers of an LM step, in microseconds:

- `_evaluate`: spline rows, residual grid, slab block and cost at the trials;
- `_assemble`: J.T @ J and J.T @ r at the accepted points;
- `_damped_step`: the damped solves and the predicted decreases,

and the block's traced heap peak in KB (tracemalloc), which its buffers
(`search._workspace`) and temporaries set.

A call's time per seed is its time over the rows it handles, so the two
block sizes show how much of a layer's cost a block shares.  The layers are
timed by wrapping the module's functions during a second run of the same
block; the first, untimed, fills the basis cache.  The heap is traced over a
third run, as tracing slows a run several times over.  Compare medians only
with medians taken on the same machine.

    PYTHONPATH=src python scripts/lm_layers.py [--seed N] [--grid N]
"""

import argparse
import statistics
import time
import tracemalloc

from hypmin import search
from hypmin.search import CAMPAIGNS, SearchConfig

# the layers, each with the number of rows (seeds) one call handles, from its arguments
LAYERS = {
    "_evaluate": lambda problem, barrier, smoothing, x, *_: len(x),
    "_assemble": lambda ev, rows=None, *_: len(ev.f if rows is None else rows),
    "_damped_step": lambda A, *_: len(A),
}


def _timed(samples: list, rows, fn):
    def wrapper(*args):
        start = time.perf_counter()
        result = fn(*args)
        samples.append((time.perf_counter() - start, rows(*args)))
        return result

    return wrapper


def measure(name: str, grid: int, seed: int, block: int):
    """(nfev, assembled points, {layer: median us per seed}, traced heap peak
    in KB) of one block of the first `block` seeds of the campaign `name`."""
    campaign = CAMPAIGNS[name]
    cfg = SearchConfig(grid=(grid, grid), euclidean_control=campaign.euclidean_control)
    seeds = campaign.seeds(block, seed)
    search._minimize_block(seeds, cfg)
    samples = {layer: [] for layer in LAYERS}
    originals = {layer: getattr(search, layer) for layer in LAYERS}
    for layer, fn in originals.items():
        setattr(search, layer, _timed(samples[layer], LAYERS[layer], fn))
    try:
        results = search._minimize_block(seeds, cfg)
    finally:
        for layer, fn in originals.items():
            setattr(search, layer, fn)
    tracemalloc.start()
    try:
        search._minimize_block(seeds, cfg)
        peak_kb = tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()
    medians = {layer: 1e6 * statistics.median(t / rows for t, rows in s) for layer, s in samples.items()}
    assembled = sum(rows for _, rows in samples["_assemble"])
    return sum(r.iterations for r in results), assembled, medians, peak_kb


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=6421, help="generator seed of the campaigns' seeds")
    ap.add_argument("--grid", type=int, default=SearchConfig().grid[0], help="grid side (default: SearchConfig's)")
    args = ap.parse_args(argv)
    if args.grid < 2:
        ap.error(f"--grid must be at least 2, got {args.grid}")
    print(f"grid {args.grid}x{args.grid}, generator seed {args.seed}; median us per seed and call, traced heap peak")
    header = ("block", "nfev", "assembles", "evaluate", "assemble", "damped_step", "peak_kb")
    print(f"{'kind':8s} {header[0]:>5s} {header[1]:>6s} {header[2]:>9s} {header[3]:>10s} {header[4]:>10s} {header[5]:>12s} {header[6]:>8s}")
    for name, campaign in CAMPAIGNS.items():
        cfg = SearchConfig(grid=(args.grid, args.grid), euclidean_control=campaign.euclidean_control)
        largest = max(len(block) for block in search._blocks(campaign.seeds(20, args.seed), cfg, 1))
        for block in sorted({1, largest}):
            nfev, assembles, us, peak_kb = measure(name, args.grid, args.seed, block)
            times = f"{us['_evaluate']:10.1f} {us['_assemble']:10.1f} {us['_damped_step']:12.1f}"
            print(f"{name:8s} {block:5d} {nfev:6d} {assembles:9d} {times} {peak_kb:8.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
