"""hypmin benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 bench/run.py --workload falsify|curvature|exact --seed N --seconds S --trace 0|1

The program is imported from ./src and driven in-process through
`hypmin.cli.main`, one fresh process per run.  Set-up (imports, input
generation, one untimed warm-up) is repeated in SETUP_CHILDREN child
processes and `setup_s` is the median.  Then whole passes of the
workload's commands run until --seconds have elapsed, and at least
MIN_PASSES of them.

Throughput and set-up time are reported in reference seconds: wall time
divided by the run's slowdown, which is the median time of
reference_seconds(), sampled before every command, over
REFERENCE_SECONDS.  A change in the machine's speed between runs made
minutes apart then cancels, as far as the reference work feels it (see
NOTES.md).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with passes under the span tracer (tracing.py) and prints the
per-layer metrics of the traced passes, with the tracing overhead taken
between the two kinds of pass.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it is {"info": {...}}: environment, sample counts,
errors and notes.  Both are also written under .bench_work/.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
SETUP_CHILDREN = 2
MIN_PASSES = 2  # the curvature pass is nearly --seconds long; one pass would be a single sample
MAX_NOTES = 20
REFERENCE_SECONDS = 0.001  # nominal time of reference_seconds(): one reference second
REFERENCE_SAMPLES = 3  # taken before every command

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "ops_per_ref_s": "1/ref_s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.MAKERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for selftest.py")
    p.add_argument("--setup-only", action="store_true", help="set up, print setup_s and exit")
    return p.parse_args(argv)


def import_program():
    src = ROOT / "src"
    if not (src / "hypmin" / "__init__.py").is_file():
        raise SystemExit(f"error: no hypmin sources under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    from hypmin import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported hypmin from {cli.__file__}, not from {src}")
    return cli


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def digest_files(paths) -> str | None:
    h = hashlib.sha256()
    for path in paths:
        try:
            with open(path, "rb") as fh:
                while chunk := fh.read(1 << 20):
                    h.update(chunk)
        except FileNotFoundError:
            return None
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class Phase:
    """Accounting for one stretch of timed passes."""

    passes: int = 0
    seconds: float = 0.0  # inside cli.main only
    work: int = 0
    attempted: int = 0
    failed: int = 0
    seeds: int = 0
    seeds_failed: int = 0
    durations: list = field(default_factory=list)  # per command
    references: list = field(default_factory=list)  # reference_seconds() samples
    pass_rates: list = field(default_factory=list)  # work per second of each pass
    by_tag: dict = field(default_factory=dict)  # tag -> [seconds, nfev]

    @property
    def rate(self) -> float:
        """Median over passes of work per second, so that a burst of load
        from outside the run moves it less than a mean would."""
        return statistics.median(self.pass_rates)

    @property
    def slowdown(self) -> float:
        """How much slower than nominal the machine ran the reference work."""
        return statistics.median(self.references) / REFERENCE_SECONDS


def reference_seconds() -> float:
    """Time a fixed piece of work of the kind hypmin does: Fraction and
    float arithmetic, small tuples, dicts and strings.  The program never
    runs it, so its time follows only the speed of the machine."""
    t0 = time.perf_counter()
    acc, rows = Fraction(0), []
    for i in range(1, 200):
        acc += Fraction(i, i + 7)
        rows.append((i * 1.5, {"i": i}, str(i)))
    return time.perf_counter() - t0


class Runner:
    """Runs commands through hypmin.cli.main, isolating failures, and
    checks their outputs.  A command's first run is checked; a repeat must
    reproduce its bytes and then shares the first run's verdict."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.tracer = None
        self.first: dict = {}  # argv -> (output digest, Verdict)
        self.correct = True
        self.notes: list[str] = []
        self.errors: dict[str, int] = {}

    def call(self, argv) -> tuple[object, float, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(list(argv))
            except Exception as exc:  # one bad campaign must not end the run
                rc = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        return rc, dt, err.getvalue()

    def run(self, cmd, phase: Phase) -> None:
        for path in cmd.outputs:
            path.unlink(missing_ok=True)
        phase.references.extend(reference_seconds() for _ in range(REFERENCE_SAMPLES))
        if self.tracer is not None:
            self.tracer.tag = cmd.tag
            self.tracer.command_id += 1
        rc, dt, stderr = self.call(cmd.argv)
        if rc != 0:
            what = rc if isinstance(rc, str) else f"exit {rc}: {stderr.strip()}"
            self.errors[what] = self.errors.get(what, 0) + 1
        verdict = self.verdict(cmd, rc)
        if not verdict.criterion_ok:
            self.correct = False
        for note in verdict.notes:
            if note not in self.notes and len(self.notes) < MAX_NOTES:
                self.notes.append(note)
        phase.seconds += dt
        phase.durations.append(dt)
        phase.work += cmd.work
        phase.attempted += cmd.ops
        phase.failed += verdict.failed
        if cmd.argv[0] == "search":
            phase.seeds += cmd.ops
            phase.seeds_failed += verdict.failed
        tag = phase.by_tag.setdefault(cmd.tag, [0.0, 0])
        tag[0] += dt
        tag[1] += verdict.nfev

    def verdict(self, cmd, rc):
        digest = digest_files(cmd.outputs) if rc == 0 else None
        known = self.first.get(cmd.argv) if rc == 0 else None
        if known is not None:
            first_digest, first_verdict = known
            if digest == first_digest:
                return first_verdict
            note = f"{' '.join(cmd.argv[:3])}: output differs from its first run"
            return checks.Verdict(failed=cmd.ops, criterion_ok=False, notes=[note])
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            verdict = cmd.check(rc)
        except Exception as exc:  # malformed output is a failed command
            verdict = checks.Verdict(cmd.ops, False, [f"{' '.join(cmd.argv[:3])}: {type(exc).__name__}: {exc}"])
        finally:
            if self.tracer is not None:
                self.tracer.paused = False
        if rc == 0:
            self.first[cmd.argv] = (digest, verdict)
        return verdict


def run_pass(runner: Runner, commands, phase: Phase) -> None:
    seconds, work = phase.seconds, phase.work
    for cmd in commands:
        runner.run(cmd, phase)
    phase.passes += 1
    phase.pass_rates.append((phase.work - work) / (phase.seconds - seconds))


def latency(samples) -> dict:
    """Median command time, and the highest of p80/90/95/99/99.9 that has
    at least 10 samples beyond it (None when even p80 has fewer)."""
    tail = None
    for p in (80.0, 90.0, 95.0, 99.0, 99.9):
        if len(samples) * (100.0 - p) / 100.0 >= 10:
            tail = {"percentile": p, "ms": 1e3 * tracing.percentile(samples, p)}
    return {"samples": len(samples), "p50_ms": 1e3 * tracing.percentile(samples, 50), "tail": tail}


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", "1", "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    sizes = workloads.TINY if args.tiny else workloads.FULL
    work = WORK / (f"{args.workload}-setup" if args.setup_only else args.workload)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load = workloads.MAKERS[args.workload](args.seed, work, sizes)
    runner = Runner(cli)
    for cmd in load.warmup:
        runner.call(cmd.argv)
    own_setup = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    setups = [own_setup] + [child_setup_seconds(args) for _ in range(SETUP_CHILDREN)]

    start = time.perf_counter()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "inputs_digest": load.inputs_digest,
        "setup_samples_s": setups,
    }
    deadline = start + args.seconds
    if args.trace:
        # untraced and traced passes alternate, so that a change in the
        # machine's speed during the run does not show as tracing overhead
        untraced, traced, tracer = Phase(), Phase(), tracing.Tracer()
        while True:
            run_pass(runner, load.commands, untraced)
            restore = tracing.install(tracer)
            runner.tracer = tracer
            run_pass(runner, load.commands, traced)
            restore()
            runner.tracer = None
            if time.perf_counter() >= deadline:
                break
        phases = (untraced, traced)
        overhead = (untraced.rate * untraced.slowdown) / (traced.rate * traced.slowdown) - 1.0
        metrics = tracing.layer_metrics(tracer, traced.passes, traced.seeds, traced.seeds_failed, overhead)
        units = tracing.PER_LAYER_UNITS
        _, total, _ = tracer.calls("cli.main")
        info["layer_self_share"] = {k: v / total for k, v in tracer.layer_self_seconds().items()}
        info["passes"] = {"untraced": untraced.passes, "traced": traced.passes}
        info["ops_per_s"] = {"untraced": untraced.rate, "traced": traced.rate}
        info["reference_ms"] = {"untraced": 1e3 * statistics.median(untraced.references), "traced": 1e3 * statistics.median(traced.references)}
        info["exceptions_in_spans"] = tracer.errors
        span_log = work / f"spans-seed{args.seed}.json"
        tracer.write_log(span_log)
        info["span_log"] = {"path": str(span_log.relative_to(ROOT)), "spans": len(tracer.log), "dropped": tracer.dropped}
        by_tag = untraced.by_tag
    else:
        phase = Phase()
        while True:
            run_pass(runner, load.commands, phase)
            if phase.passes >= MIN_PASSES and time.perf_counter() >= deadline:
                break
        phases = (phase,)
        units = END_TO_END_UNITS
        attempted = phase.attempted
        metrics = {
            "setup_s": statistics.median(setups) / phase.slowdown,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - phase.failed) / attempted,
            "ops_per_ref_s": phase.rate * phase.slowdown,
        }
        info["passes"] = phase.passes
        info["wall"] = {"setup_s": statistics.median(setups), "ops_per_s": phase.rate}
        info["reference_ms"] = 1e3 * statistics.median(phase.references)
        info["command_latency"] = latency(phase.durations)
        by_tag = phase.by_tag
    info["command_seconds_by_tag"] = {k: s for k, (s, _) in by_tag.items()}
    if args.workload == "falsify":
        info["campaign_ms_per_eval"] = {k: 1e3 * s / n for k, (s, n) in by_tag.items() if n}
    info["errors"] = runner.errors
    info["notes"] = runner.notes
    info["environment"] = environment()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {
        "correct": runner.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    record = work / f"result-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
