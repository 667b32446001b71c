"""Span tracer installed on hypmin from outside the program.

`install` replaces public functions of each module with wrappers that
record a span (name, start, end, parent id, command id) in memory.  A
wrapper is installed under every name callers look up: `cli` imports
`hyperbolic_curvature`, `run_seeds` and `load_surface` by name, so those
bindings are replaced as well as the defining module's.

Self time is computed online: each open span accumulates the wall time of
its children, wrapper bookkeeping included, and its self time is its
duration minus that.  Per-point leaf calls would make millions of spans
on the curvature workload, so the aggregates cover every span while the
span log written at exit keeps the first LOG_CAP.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path

LOG_CAP = 100_000

LAYERS = ("cli", "descriptors", "search", "surfaces", "jets", "kernel", "algebra")

# name -> unit; the per-layer metrics of BENCHMARK.json
PER_LAYER_UNITS = {
    "search.nfev": "count",
    "search.step_accept_ratio": "fraction",
    "search.eval_ms": "ms",
    "search.type1.eval_ms": "ms",
    "search.type2.eval_ms": "ms",
    "search.control.eval_ms": "ms",
    "search.grid_ms": "ms",
    "search.lm_self_share": "fraction",
    "search.seed_p50_ms": "ms",
    "search.seed_p80_ms": "ms",
    "search.seed_ok_frac": "fraction",
    "surfaces.plane_distance_ms": "ms",
    "surfaces.patch_jet_us": "us",
    "jets.curve_evals": "count",
    "jets.spline_eval_us": "us",
    "jets.closed_eval_us": "us",
    "kernel.points_per_s": "1/s",
    "kernel.normal_calls_per_point": "count",
    "kernel.errors": "count",
    "descriptors.load_ms": "ms",
    "cli.self_share": "fraction",
    "algebra.verify_ms": "ms",
    "algebra.eliminate_ms": "ms",
    "algebra.identities": "count",
    "algebra.mismatches": "count",
    "trace.overhead_frac": "fraction",
}


def percentile(samples, p: float) -> float:
    """The p-th percentile (inclusive method); 0.0 without samples."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return float(samples[0])
    return statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [span id, name, child seconds]
        self.agg: dict[tuple[str, str], list] = {}  # (name, tag) -> [calls, seconds, self seconds]
        self.samples: dict[str, list[float]] = {}  # name -> durations, where asked for
        self.counts: dict[tuple[str, str], int] = {}  # (name, enclosing span) -> calls
        self.totals: dict[str, int] = {}  # counts taken from return values
        self.errors: dict[str, int] = {}  # exception type -> times raised
        self.log: list[tuple] = []
        self.dropped = 0
        self.tag = ""  # set per command by the runner
        self.command_id = 0
        self.paused = False  # set while the benchmark checks outputs
        self._next_id = 0
        self._last_error = None

    def bump(self, name: str, n: int) -> None:
        self.totals[name] = self.totals.get(name, 0) + n

    def span(self, name: str, fn, on_result=None, keep_samples: bool = False):
        tracer, stack, clock = self, self.stack, time.perf_counter
        samples = self.samples.setdefault(name, []) if keep_samples else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            t_in = clock()
            tracer._next_id += 1
            frame = [tracer._next_id, name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(frame, parent, t0, clock(), samples)
                tracer._note_error(exc)
                if parent is not None:
                    parent[2] += clock() - t_in
                raise
            tracer._close(frame, parent, t0, clock(), samples)
            if on_result is not None:
                on_result(result)
            if parent is not None:
                parent[2] += clock() - t_in
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Count calls, keyed by the innermost open span, without timing."""
        tracer, stack, counts = self, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.paused:
                key = (name, stack[-1][1] if stack else "")
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _close(self, frame, parent, t0: float, t1: float, samples) -> None:
        self.stack.pop()
        dur = t1 - t0
        key = (frame[1], self.tag)
        acc = self.agg.get(key)
        if acc is None:
            acc = self.agg[key] = [0, 0.0, 0.0]
        acc[0] += 1
        acc[1] += dur
        acc[2] += dur - frame[2]
        if samples is not None:
            samples.append(dur)
        if len(self.log) < LOG_CAP:
            self.log.append((frame[0], parent[0] if parent else 0, frame[1], self.command_id, t0, t1))
        else:
            self.dropped += 1

    def _note_error(self, exc: Exception) -> None:
        # the same exception passes through every enclosing span; count it once
        if exc is not self._last_error:
            self._last_error = exc
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1

    # -- reading the aggregates ----------------------------------------

    def calls(self, name: str, tag: str | None = None) -> tuple[int, float, float]:
        """(calls, seconds, self seconds) of a span name, over one tag or all."""
        n, total, own = 0, 0.0, 0.0
        for (span_name, span_tag), (c, t, s) in self.agg.items():
            if span_name == name and (tag is None or span_tag == tag):
                n, total, own = n + c, total + t, own + s
        return n, total, own

    def layer_self_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, _), (_, _, own) in self.agg.items():
            out[name.split(".", 1)[0]] += own
        return out

    def write_log(self, path: Path) -> None:
        payload = {
            "fields": ["id", "parent", "name", "command", "start_s", "end_s"],
            "dropped": self.dropped,
            "spans": self.log,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


def install(tracer: Tracer):
    """Wrap the public functions of every hypmin module (see module doc);
    returns a function that puts the originals back."""
    from hypmin import algebra, cli, descriptors, kernel, search, surfaces

    modules = (algebra, cli, descriptors, kernel, search, surfaces)
    span = tracer.span
    originals = []

    def put(owner, attr: str, value) -> None:
        originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(owner, attr: str, wrap) -> None:
        original = getattr(owner, attr)
        wrapped = wrap(original)
        for module in modules:
            if getattr(module, attr, None) is original:
                put(module, attr, wrapped)

    def on_search_result(res) -> None:
        tracer.bump("search.nfev", res.iterations)
        tracer.bump("search.accepted", sum(len(trace) - 1 for trace in res.stage_costs))

    def on_reports(reports) -> None:
        tracer.bump("algebra.identities", len(reports))
        tracer.bump("algebra.mismatches", sum(1 for r in reports if not r.ok))

    everywhere(cli, "main", lambda f: span("cli.main", f))
    everywhere(descriptors, "load_surface", lambda f: span("descriptors.load_surface", f))

    everywhere(search, "generate_seeds", lambda f: span("search.generate_seeds", f))
    everywhere(search, "run_seeds", lambda f: span("search.run_seeds", f))
    everywhere(
        search,
        "minimize_residual",
        lambda f: span("search.minimize_residual", f, on_result=on_search_result, keep_samples=True),
    )
    everywhere(search, "residual_and_jacobian", lambda f: span("search.residual_and_jacobian", f))
    everywhere(search, "residual_grid", lambda f: span("search.residual_grid", f))

    everywhere(surfaces, "plane_family_distance", lambda f: span("surfaces.plane_family_distance", f))
    everywhere(surfaces, "patch_jet", lambda f: span("surfaces.jet", f))
    put(surfaces.ParametricPatch, "jet", span("surfaces.jet", surfaces.ParametricPatch.jet))

    curve_call = surfaces.FunctionCurve.__call__
    spline_call = span("jets.curve.spline", curve_call)
    closed_call = span("jets.curve.closed", curve_call)

    def call_curve(curve, t):
        if curve.eval.__qualname__.startswith("from_bspline."):
            return spline_call(curve, t)
        return closed_call(curve, t)

    put(surfaces.FunctionCurve, "__call__", call_curve)

    everywhere(kernel, "hyperbolic_curvature", lambda f: span("kernel.hyperbolic_curvature", f))
    put(kernel, "unit_normal", tracer.counter("kernel.unit_normal", kernel.unit_normal))
    # cmd_scherk calls these two directly; inside the kernel they stay unwrapped
    put(cli, "fundamental_forms", span("kernel.fundamental_forms", cli.fundamental_forms))
    put(cli, "euclidean_mean_curvature", span("kernel.euclidean_mean_curvature", cli.euclidean_mean_curvature))

    everywhere(algebra, "run_all_verifications", lambda f: span("algebra.run_all_verifications", f, on_result=on_reports))
    everywhere(algebra, "solve_X_and_eliminate", lambda f: span("algebra.solve_X_and_eliminate", f))

    def restore() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return restore


def layer_metrics(tracer: Tracer, passes: int, seeds: int, seeds_failed: int, overhead: float) -> dict[str, float]:
    """The per-layer metrics; counts are per pass.  A metric whose layer did
    not run on the workload reads 0."""

    def per_call(name: str, scale: float, tag: str | None = None, own: bool = False) -> float:
        n, total, self_s = tracer.calls(name, tag)
        return scale * (self_s if own else total) / n if n else 0.0

    def share_outside_children(name: str) -> float:
        _, total, self_s = tracer.calls(name)
        return self_s / total if total else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    rj = "search.residual_and_jacobian"
    seed_samples = tracer.samples.get("search.minimize_residual", [])
    n_curv, t_curv, _ = tracer.calls("kernel.hyperbolic_curvature")
    n_spline = tracer.calls("jets.curve.spline")[0]
    n_closed = tracer.calls("jets.curve.closed")[0]
    nfev = tracer.totals.get("search.nfev", 0)
    n_verify = tracer.calls("algebra.run_all_verifications")[0]
    errors = tracer.errors.get("DegenerateImmersionError", 0) + tracer.errors.get("HalfSpaceError", 0)
    return {
        "search.nfev": ratio(nfev, passes),
        "search.step_accept_ratio": ratio(tracer.totals.get("search.accepted", 0), nfev),
        "search.eval_ms": per_call(rj, 1e3),
        "search.type1.eval_ms": per_call(rj, 1e3, "type1"),
        "search.type2.eval_ms": per_call(rj, 1e3, "type2"),
        "search.control.eval_ms": per_call(rj, 1e3, "control"),
        "search.grid_ms": per_call("search.residual_grid", 1e3),
        "search.lm_self_share": share_outside_children("search.minimize_residual"),
        "search.seed_p50_ms": 1e3 * percentile(seed_samples, 50),
        "search.seed_p80_ms": 1e3 * percentile(seed_samples, 80),
        "search.seed_ok_frac": ratio(seeds - seeds_failed, seeds),
        "surfaces.plane_distance_ms": per_call("surfaces.plane_family_distance", 1e3),
        "surfaces.patch_jet_us": per_call("surfaces.jet", 1e6, own=True),
        "jets.curve_evals": ratio(n_spline + n_closed, passes),
        "jets.spline_eval_us": per_call("jets.curve.spline", 1e6),
        "jets.closed_eval_us": per_call("jets.curve.closed", 1e6),
        "kernel.points_per_s": ratio(n_curv, t_curv),
        "kernel.normal_calls_per_point": ratio(
            tracer.counts.get(("kernel.unit_normal", "kernel.hyperbolic_curvature"), 0), n_curv
        ),
        "kernel.errors": ratio(errors, passes),
        "descriptors.load_ms": per_call("descriptors.load_surface", 1e3),
        "cli.self_share": share_outside_children("cli.main"),
        "algebra.verify_ms": per_call("algebra.run_all_verifications", 1e3),
        "algebra.eliminate_ms": per_call("algebra.solve_X_and_eliminate", 1e3),
        "algebra.identities": ratio(tracer.totals.get("algebra.identities", 0), n_verify),
        "algebra.mismatches": ratio(tracer.totals.get("algebra.mismatches", 0), passes),
        "trace.overhead_frac": overhead,
    }
