#!/usr/bin/env python3
"""Cost of one Levenberg-Marquardt step, layer by layer.

For each campaign of `search.CAMPAIGNS` (type1, type2, control) this runs
`minimize_residual` on one generated seed and prints nfev, the number of
`_assemble` calls (accepted points), and the median time per call, in
microseconds, of the three layers of an LM step:

- `_evaluate`: spline rows, residual grid, slab block and cost at a trial;
- `_assemble`: J.T @ J and J.T @ r at an accepted point;
- `_damped_step`: the damped solve and the predicted decrease.

The layers are timed by wrapping the module's functions during a second
run of the same seed; the first, untimed, fills the basis cache.  Compare
medians only with medians taken on the same machine.

    PYTHONPATH=src python scripts/lm_layers.py [--seed N] [--grid N]
"""

import argparse
import statistics
import time

from hypmin import search
from hypmin.search import CAMPAIGNS, SearchConfig, minimize_residual

LAYERS = ("_evaluate", "_assemble", "_damped_step")


def _timed(samples: list, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - start)

    return wrapper


def measure(name: str, grid: int, seed: int):
    """(nfev, _assemble calls, {layer: median us per call}) of one seed of the campaign `name`."""
    campaign = CAMPAIGNS[name]
    cfg = SearchConfig(grid=(grid, grid), euclidean_control=campaign.euclidean_control)
    (ansatz,) = campaign.seeds(1, seed)
    minimize_residual(ansatz, cfg)
    samples = {layer: [] for layer in LAYERS}
    originals = {layer: getattr(search, layer) for layer in LAYERS}
    for layer, fn in originals.items():
        setattr(search, layer, _timed(samples[layer], fn))
    try:
        result = minimize_residual(ansatz, cfg)
    finally:
        for layer, fn in originals.items():
            setattr(search, layer, fn)
    medians = {layer: 1e6 * statistics.median(s) for layer, s in samples.items()}
    return result.iterations, len(samples["_assemble"]), medians


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=6421, help="generator seed of the one seed per campaign")
    ap.add_argument("--grid", type=int, default=SearchConfig().grid[0], help="grid side (default: SearchConfig's)")
    args = ap.parse_args(argv)
    if args.grid < 2:
        ap.error(f"--grid must be at least 2, got {args.grid}")
    print(f"grid {args.grid}x{args.grid}, generator seed {args.seed}; median us per call")
    print(f"{'kind':8s} {'nfev':>6s} {'assembles':>9s} {'evaluate':>10s} {'assemble':>10s} {'damped_step':>12s}")
    for name in CAMPAIGNS:
        nfev, assembles, us = measure(name, args.grid, args.seed)
        times = f"{us['_evaluate']:10.1f} {us['_assemble']:10.1f} {us['_damped_step']:12.1f}"
        print(f"{name:8s} {nfev:6d} {assembles:9d} {times}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
