#!/usr/bin/env python3
"""Wall time of a fresh `python -m hypmin verify`, start-up included.

For each source tree given (a directory holding the `hypmin` package; by
default this repository's `src`), this starts N fresh interpreters that run
`python -m hypmin verify --out <temporary directory>` with PYTHONPATH set
to that tree, and prints the median and the minimum wall time in seconds.
The trees take turns: round i runs every tree once, in an order that
alternates from round to round, so that a drift in the machine's speed
falls on every tree alike.  To compare two commits, check both out and
give both `src` directories.  Compare figures only with figures taken on
the same machine.

    python scripts/cold_start.py [--runs N] [SRC ...]
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_once(src: Path) -> float:
    """Seconds of wall time of one fresh `python -m hypmin verify` on `src`."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "hypmin", "verify", "--out", out], env=env, capture_output=True, text=True
        )
        seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"hypmin verify on {src} exited {proc.returncode}: {proc.stderr.strip()}")
    return seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=9, help="fresh processes per tree (default: 9)")
    ap.add_argument("src", nargs="*", type=Path, default=[SRC], help="source trees (default: this repository's src)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error(f"--runs must be at least 1, got {args.runs}")
    trees = list(dict.fromkeys(src.resolve() for src in args.src))  # each tree once
    for src in trees:
        if not (src / "hypmin" / "__main__.py").is_file():
            ap.error(f"no hypmin package under {src}")
    times = {src: [] for src in trees}
    for i in range(args.runs):
        for src in trees if i % 2 == 0 else trees[::-1]:
            times[src].append(run_once(src))
    print(f"fresh `python -m hypmin verify`, {args.runs} runs per tree, wall seconds")
    print(f"{'median':>8s} {'min':>8s}  src")
    for src, samples in times.items():
        print(f"{statistics.median(samples):8.3f} {min(samples):8.3f}  {src}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
