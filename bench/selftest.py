"""Self-test of the benchmark at tiny sizes (about a minute).

Run from the repository root:

    python3 bench/selftest.py

It checks that
- every metric named in BENCHMARK.json is printed with its unit, traced
  and untraced, on every workload, in a last line with exactly the keys
  correct / attempted / failed / metrics;
- another seed changes the generated inputs but not the set of metrics;
- corrupted outputs count as failures: a type2 row with supResidual = 1e-3,
  a hemisphere row with H = 1e-3, a repeat whose bytes differ, and a
  campaign that raises;
- the tier-1 pytest command collects nothing from this directory.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench  # sets the thread variables before numpy is imported
import workloads

ROOT = bench.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def run_tiny(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(bench.BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0.1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def check_metrics_printed() -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        for w in SPEC["workloads"]:
            result, _ = run_tiny(w["name"], 1, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            finite = all(isinstance(v["value"], float) and math.isfinite(v["value"]) for v in result["metrics"].values())
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{w['name']} trace {trace}: result keys")
            expect(got == want and finite, f"{w['name']} trace {trace}: every {section} metric with its unit")
            expect(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0, f"{w['name']} trace {trace}: correct")


def check_seed_changes_inputs() -> None:
    for workload in ("falsify", "curvature"):
        a, info_a = run_tiny(workload, 1, 0)
        b, info_b = run_tiny(workload, 2, 0)
        expect(info_a["inputs_digest"] != info_b["inputs_digest"], f"{workload}: another seed, other inputs")
        expect(set(a["metrics"]) == set(b["metrics"]), f"{workload}: another seed, same metrics")


class Corrupting:
    """Calls the real CLI, then applies `damage` to what it wrote."""

    def __init__(self, cli, damage) -> None:
        self.cli, self.damage = cli, damage

    def main(self, argv):
        rc = self.cli.main(argv)
        self.damage(Path(argv[argv.index("--out") + 1]))
        return rc


def replace_cell(path: Path, row: int, column: str, value: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_corruption_counts(work: Path) -> None:
    cli = bench.import_program()
    falsify = workloads.falsify(1, work / "falsify", workloads.TINY)
    type2 = falsify.commands[0]

    clean = bench.Runner(cli)
    phase = bench.Phase()
    clean.run(type2, phase)
    expect(phase.failed == 0 and clean.correct, "type2 campaign: clean output passes")

    corrupt = bench.Runner(Corrupting(cli, lambda out: replace_cell(out / "search_type2.csv", 0, "supResidual", "0.001")))
    phase = bench.Phase()
    corrupt.run(type2, phase)
    expect(phase.failed == 1 and not corrupt.correct, "type2 row with supResidual = 1e-3 counts as failed")

    phase = bench.Phase()
    clean.cli = Corrupting(cli, lambda out: replace_cell(out / "search_type2.csv", 1, "iterations", "1"))
    clean.run(type2, phase)
    expect(phase.failed == type2.ops and not clean.correct, "repeat with different bytes counts as failed")

    def raise_non_finite(argv):
        from hypmin.search import NonFiniteResidualError

        raise NonFiniteResidualError("non-finite residual during optimization")

    raising = bench.Runner(type("Raising", (), {"main": staticmethod(raise_non_finite)})())
    phase = bench.Phase()
    for cmd in falsify.commands:
        raising.run(cmd, phase)
    expect(phase.failed == phase.attempted == 3 * type2.ops, "raising campaigns: every seed failed, run continues")
    expect(any("NonFiniteResidualError" in e for e in raising.errors), "raising campaigns: exception type recorded")

    curvature = workloads.curvature(1, work / "curvature", workloads.TINY)
    hemisphere = next(c for c in curvature.commands if c.tag == "hemisphere")
    damaged = bench.Runner(Corrupting(cli, lambda out: replace_cell(out / "curvature.csv", 0, "H", "0.001")))
    phase = bench.Phase()
    damaged.run(hemisphere, phase)
    expect(phase.failed == 1 and not damaged.correct, "hemisphere row with H = 1e-3 counts as failed")


def check_not_collected() -> None:
    names = [p.name for p in bench.BENCH_DIR.iterdir()]
    expect(not any(n.startswith("test_") or n.endswith("_test.py") for n in names), "no pytest-style file names here")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "--continue-on-collection-errors"],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=170,
    )
    bench_dir = bench.BENCH_DIR.name + "/"
    expect(proc.returncode == 0 and bench_dir not in proc.stdout, "tier-1 pytest collects nothing from the benchmark")


def main() -> int:
    work = bench.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    check_metrics_printed()
    check_seed_changes_inputs()
    check_corruption_counts(work)
    check_not_collected()
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
