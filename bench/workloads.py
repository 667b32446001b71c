"""The three workloads: inputs generated from the seed, and the `hypmin`
commands of one pass.

Every pass of a workload runs the same commands on the same inputs, so a
rate measured over whole passes does not depend on how many passes fit in
the run, and every repeat must reproduce the first run's bytes.

- falsify:   the three 20-seed acceptance campaigns (type2, type1, control);
             `search` does nearly all the work.
- curvature: `hypmin curvature` over generated descriptor files plus one
             `hypmin scherk`; jets, surfaces, kernel and CLI output only.
- exact:     `hypmin verify`; exact Fraction arithmetic only.  The seed is
             unused because verify takes no input.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

SEARCH_KINDS = ("type2", "type1", "control")


@dataclass(frozen=True)
class Command:
    """One `hypmin.cli.main` call and how to account for it."""

    argv: tuple[str, ...]
    outputs: tuple[Path, ...]  # files the command writes; compared across repeats
    ops: int  # operations it counts as (seeds for a campaign, else 1)
    work: int  # units of ops_per_s: seeds, grid points, or commands
    tag: str  # trace tag of the command
    check: Callable[[object], checks.Verdict]  # called with the exit code


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]  # one pass
    warmup: tuple[Command, ...]  # untimed, before the first pass
    inputs_digest: str


@dataclass(frozen=True)
class Sizes:
    seeds: int = 20
    grid_spline2: int = 300
    grid_spline1: int = 100
    grid_scherk_patch: int = 100
    grid_oracle: int = 60
    grid_scherk: int = 100


FULL = Sizes()
TINY = Sizes(seeds=2, grid_spline2=6, grid_spline1=6, grid_scherk_patch=6, grid_oracle=6, grid_scherk=6)
WARMUP_GRID = 3


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


# -- falsify -----------------------------------------------------------


def _campaign(kind: str, n: int, seed: int, out: Path) -> Command:
    csv_path = out / f"search_{kind}.csv"
    argv = ("search", "--kind", kind, "--seeds", str(n), "--seed", str(seed), "--workers", "1", "--out", str(out))
    return Command(
        argv=argv,
        outputs=(csv_path, out / f"search_{kind}_summary.json"),
        ops=n,
        work=n,
        tag=kind,
        check=lambda rc: checks.check_campaign(kind, n, rc, csv_path),
    )


def falsify(seed: int, work: Path, sizes: Sizes) -> Workload:
    commands = tuple(_campaign(k, sizes.seeds, seed, work / "search" / k) for k in SEARCH_KINDS)
    warmup = tuple(_campaign(k, 1, seed, work / "warmup" / k) for k in SEARCH_KINDS)
    return Workload("falsify", commands, warmup, _digest(" ".join(c.argv[:-2]) for c in commands))


# -- curvature ---------------------------------------------------------


def _floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _spline(rng: np.random.Generator, lo: float, hi: float, lift: float = 0.0) -> str:
    """Clamped uniform cubic spline with 12 interior knots, coefficients
    U(-0.5, 0.5) + lift (the search ansatz's distribution)."""
    return f"spline {_floats([lo, hi])} {_floats(rng.uniform(-0.5, 0.5, 16) + lift)}"


def descriptor_texts(seed: int) -> dict[str, tuple[str, dict]]:
    """name -> (descriptor text, CurvatureSpec fields other than grid)."""
    rng = np.random.default_rng(seed)
    # type I: f coefficients in [1, 2] and g in [-0.5, 0.5], so by the
    # convex-hull property f+g >= 0.5 > 0.2 on the whole patch
    spline1 = f"kind = type1\ndomain = -1 1 -1 1\nf = {_spline(rng, -1, 1, 1.5)}\ng = {_spline(rng, -1, 1)}\n"
    spline2 = f"kind = type2\ndomain = -1 1 1 2\nf = {_spline(rng, -1, 1)}\ng = {_spline(rng, 1, 2)}\n"
    # Scherk's surface z = (1/a) log(cos(ax)/cos(ay)) on a patch where z > 0
    a = rng.uniform(0.8, 1.6)
    scherk = (
        f"kind = type1\ndomain = {_floats([-0.5 / a, 0.5 / a, 1.0 / a, 1.4 / a])}\n"
        f"f = scherk-log-cos {_floats([a, 1.0 / a])}\ng = scherk-log-cos {_floats([a, -1.0 / a])}\n"
    )
    r, cx, cy = rng.uniform(1.0, 3.0), *rng.uniform(-1.0, 1.0, 2)
    hemisphere = f"kind = hemisphere\nradius = {_floats([r, cx, cy])}\n"
    horosphere = f"kind = horosphere\nlevel = {_floats([rng.uniform(0.5, 3.0)])}\n"
    vplane = f"kind = vplane\ny0 = {_floats([rng.uniform(-2.0, 2.0)])}\n"
    m, n, p = rng.uniform(-1.0, 1.0, 3)
    geodesic = f"kind = type2\ndomain = -1 1 0.5 3\nf = linear {_floats([m, n])}\ng = constant {_floats([p])}\n"
    return {
        "spline2": (spline2, {"relation": True}),
        "spline1": (spline1, {"relation": True}),
        "scherk_patch": (scherk, {"relation": True, "euclidean_minimal": True}),
        "hemisphere": (hemisphere, {"oracle": "hemisphere"}),
        "horosphere": (horosphere, {"oracle": "horosphere", "fmt": "json"}),
        "vplane": (vplane, {"oracle": "plane"}),
        "geodesic_plane": (geodesic, {"oracle": "plane", "relation": True}),
    }


def _curvature_command(name: str, path: Path, spec: checks.CurvatureSpec, out: Path) -> Command:
    out_path = out / f"curvature.{spec.fmt}"
    argv = ("curvature", "--surface", str(path), "--grid", str(spec.grid), "--format", spec.fmt, "--out", str(out))
    return Command(
        argv=argv,
        outputs=(out_path,),
        ops=1,
        work=spec.grid * spec.grid,
        tag=name,
        check=lambda rc: checks.check_curvature(spec, rc, out_path),
    )


def _scherk_command(a: float, grid: int, out: Path) -> Command:
    report = out / "scherk_report.json"
    argv = ("scherk", "--a", repr(a), "--grid", str(grid), "--margin", "0.1", "--out", str(out))
    return Command(argv, (report,), 1, grid * grid, "scherk", lambda rc: checks.check_scherk(rc, report))


def curvature(seed: int, work: Path, sizes: Sizes) -> Workload:
    from hypmin.descriptors import load_surface

    grids = {
        "spline2": sizes.grid_spline2,
        "spline1": sizes.grid_spline1,
        "scherk_patch": sizes.grid_scherk_patch,
    }
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    commands, warmup, texts = [], [], []
    for name, (text, fields) in descriptor_texts(seed).items():
        path = inputs / f"{name}.surf"
        path.write_text(text, encoding="utf-8")
        texts.append(text)
        surface = load_surface(str(path)) if fields.pop("relation", False) else None
        spec = checks.CurvatureSpec(grid=grids.get(name, sizes.grid_oracle), surface=surface, **fields)
        commands.append(_curvature_command(name, path, spec, work / "out" / name))
        warm = checks.CurvatureSpec(grid=WARMUP_GRID, fmt=spec.fmt)
        warmup.append(_curvature_command(name, path, warm, work / "warmup" / name))
    a = float(np.random.default_rng([seed, 1]).uniform(1.0, 2.0))
    commands.append(_scherk_command(a, sizes.grid_scherk, work / "out" / "scherk"))
    warmup.append(_scherk_command(a, WARMUP_GRID, work / "warmup" / "scherk"))
    digest = _digest(texts + [repr(a)])
    return Workload("curvature", tuple(commands), tuple(warmup), digest)


# -- exact -------------------------------------------------------------


def _verify_command(out: Path) -> Command:
    report = out / "verify_report.json"
    return Command(("verify", "--out", str(out)), (report,), 1, 1, "verify", lambda rc: checks.check_verify(rc, report))


def exact(seed: int, work: Path, sizes: Sizes) -> Workload:
    del seed, sizes  # verify takes no input and has no size
    command = _verify_command(work / "verify")
    return Workload("exact", (command,), (_verify_command(work / "warmup"),), _digest(["verify"]))


MAKERS = {"falsify": falsify, "curvature": curvature, "exact": exact}
