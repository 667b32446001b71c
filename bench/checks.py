"""Output checks behind `failed` / `ok_frac`.

Every tolerance is the acceptance suite's (tests/test_acceptance.py),
unchanged.  A check reads only the files a command wrote, plus, for the
criterion-3 relation, the surface the command was given.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

TYPE2_TOL = 1e-6  # criteria 6 and 7: supResidual of a converged seed
PLANE_TOL = 1e-4  # criterion 6: planeDistance of a collapsed type-II seed
TYPE1_FLOOR = 100.0 * TYPE2_TOL  # criterion 7
HEMISPHERE_TOL = 1e-10  # criterion 1
HOROSPHERE_TOL = 1e-12  # criterion 1
VPLANE_TOL = 1e-12  # criterion 1
SCHERK_HE_TOL = 1e-10  # criterion 2
SCHERK_H_MIN = 0.1  # criterion 2
RELATION_TOL = 1e-10  # criterion 3
RELATION_SAMPLES = 64
VERIFY_OK = ("exact-match", "match-up-to-factor")


@dataclass
class Verdict:
    """Outcome of one command: how many of its operations failed."""

    failed: int
    criterion_ok: bool
    notes: list[str] = field(default_factory=list)
    nfev: int = 0


def _fail_all(ops: int, note: str) -> Verdict:
    return Verdict(failed=ops, criterion_ok=False, notes=[note])


# -- falsify -----------------------------------------------------------


def seed_ok(kind: str, row: dict) -> bool:
    sup = float(row["supResidual"])
    if kind == "type2":
        return sup < TYPE2_TOL and float(row["planeDistance"]) < PLANE_TOL
    if kind == "control":
        return sup < TYPE2_TOL
    return sup > TYPE1_FLOOR


def check_campaign(kind: str, n_seeds: int, rc, csv_path: Path) -> Verdict:
    """Per-seed checks of one `hypmin search` campaign, plus criterion 6
    (type2: at least 90 % collapse) or 7 (type1 floor, control converges)."""
    if rc != 0:
        return _fail_all(n_seeds, f"search {kind}: exit {rc}")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != n_seeds:
        return _fail_all(n_seeds, f"search {kind}: {len(rows)} rows, want {n_seeds}")
    good = sum(1 for row in rows if seed_ok(kind, row))
    sups = [float(row["supResidual"]) for row in rows]
    if kind == "type2":
        criterion = 10 * good >= 9 * n_seeds
    elif kind == "type1":
        criterion = min(sups) > TYPE1_FLOOR
    else:
        criterion = min(sups) < TYPE2_TOL
    notes = [] if criterion else [f"search {kind}: acceptance criterion not met ({good}/{n_seeds} seeds ok)"]
    nfev = sum(int(row["iterations"]) for row in rows)
    return Verdict(failed=n_seeds - good, criterion_ok=criterion, notes=notes, nfev=nfev)


# -- curvature ---------------------------------------------------------


@dataclass(frozen=True)
class CurvatureSpec:
    """What a curvature output must satisfy.

    `oracle` is one of hemisphere / horosphere / plane (criterion-1 bounds)
    or None; `surface` is the parsed TranslationSurface for the criterion-3
    relation, or None; `euclidean_minimal` asks for |He| < 1e-10 everywhere
    (Scherk's surface, criterion 2)."""

    grid: int
    fmt: str = "csv"
    oracle: str | None = None
    surface: object = None
    euclidean_minimal: bool = False


def read_curvature_rows(path: Path, fmt: str) -> list[tuple[float, ...]]:
    if fmt == "json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        return [tuple(float(v) for v in row) for row in payload["rows"]]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [tuple(float(v) for v in row) for row in reader]


def relation_error(surface, u: float, v: float, H: float) -> float:
    """Criterion 3: the closed-form residual equals +-2W^3H/((1+f'^2)(1+g'^2));
    returns |got - want| / max(1, |want|)."""
    from hypmin import surfaces

    fj, gj = surface.f(u), surface.g(v)
    P, Q = 1.0 + fj.v1 ** 2, 1.0 + gj.v1 ** 2
    want = 2.0 * (P + gj.v1 ** 2) ** 1.5 * H / (P * Q)
    if surface.kind is surfaces.Kind.TYPE_I:
        got = surfaces.type1_residual(surface, u, v)
    else:
        want = -want
        got = surfaces.type2_residual(surface, u, v)
    return abs(got - want) / max(1.0, abs(want))


def check_curvature_rows(spec: CurvatureSpec, rows) -> list[str]:
    """Problems found in the rows (u, v, x, y, z, He, N3, H) of one output."""
    problems = []
    if len(rows) != spec.grid * spec.grid:
        return [f"{len(rows)} rows, want {spec.grid * spec.grid}"]
    if not all(math.isfinite(v) for row in rows for v in row):
        return ["non-finite value in output"]
    H = [row[7] for row in rows]
    if spec.oracle == "hemisphere" and max(abs(h) for h in H) >= HEMISPHERE_TOL:
        problems.append(f"hemisphere: max|H| = {max(abs(h) for h in H):.3e}")
    if spec.oracle == "horosphere" and max(abs(h - 1.0) for h in H) >= HOROSPHERE_TOL:
        problems.append(f"horosphere: max|H-1| = {max(abs(h - 1.0) for h in H):.3e}")
    if spec.oracle == "plane" and max(abs(h) for h in H) >= VPLANE_TOL:
        problems.append(f"plane: max|H| = {max(abs(h) for h in H):.3e}")
    if spec.euclidean_minimal and max(abs(row[5]) for row in rows) >= SCHERK_HE_TOL:
        problems.append(f"Scherk patch: max|He| = {max(abs(row[5]) for row in rows):.3e}")
    if spec.surface is not None:
        step = max(1, len(rows) // RELATION_SAMPLES)
        worst = max(relation_error(spec.surface, row[0], row[1], row[7]) for row in rows[::step])
        if not worst < RELATION_TOL:
            problems.append(f"criterion-3 relation off by {worst:.3e}")
    return problems


def check_curvature(spec: CurvatureSpec, rc, out_path: Path) -> Verdict:
    if rc != 0:
        return _fail_all(1, f"curvature: exit {rc}")
    problems = check_curvature_rows(spec, read_curvature_rows(out_path, spec.fmt))
    return Verdict(failed=1 if problems else 0, criterion_ok=not problems, notes=problems)


def check_scherk(rc, report_path: Path) -> Verdict:
    if rc != 0:
        return _fail_all(1, f"scherk: exit {rc}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    problems = []
    if not report["max_abs_He"] < SCHERK_HE_TOL:
        problems.append(f"scherk: max|He| = {report['max_abs_He']:.3e}")
    if not report["max_abs_H"] > SCHERK_H_MIN:
        problems.append(f"scherk: max|H| = {report['max_abs_H']:.3e}")
    return Verdict(failed=1 if problems else 0, criterion_ok=not problems, notes=problems)


# -- exact -------------------------------------------------------------


def check_verify(rc, report_path: Path) -> Verdict:
    if rc != 0:
        return _fail_all(1, f"verify: exit {rc}")
    identities = json.loads(report_path.read_text(encoding="utf-8"))["identities"]
    bad = [i["id"] for i in identities if i["status"] not in VERIFY_OK]
    if not identities or bad:
        return _fail_all(1, f"verify: identities not ok: {bad or 'none reported'}")
    return Verdict(failed=0, criterion_ok=True)
