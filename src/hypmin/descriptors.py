"""Key/value surface description files.

Grammar (one `key = value` pair per line, `#` comments, blank lines ok):

    kind   = type1 | type2 | hemisphere | horosphere | vplane
    domain = u0 u1 v0 v1                 (translation surfaces)
    f      = <curve>                     (translation surfaces)
    g      = <curve>
    radius = r  [cx cy]                  (hemisphere)
    level  = c  [extent]                 (horosphere)
    y0     = c  [extent z0 z1]           (vplane)

with <curve> one of:

    constant c
    linear m n
    quadratic a2 a1 a0
    scherk-log-cos a scale
    spline t0 t1 c0 c1 ... cN            (clamped uniform cubic B-spline)

Unknown keys are rejected (strict parsing); errors carry line and column.
Every number must be finite, and a domain needs u0 < u1 and v0 < v1.
"""

from __future__ import annotations

import math

from scipy.interpolate import BSpline

from . import surfaces
from .surfaces import FunctionCurve, Kind, TranslationSurface

import numpy as np


class SurfaceFileError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_TRANSLATION_KEYS = {"kind", "domain", "f", "g"}
_REFERENCE_KEYS = {
    "hemisphere": {"kind", "radius"},
    "horosphere": {"kind", "level"},
    "vplane": {"kind", "y0"},
}


def _floats(tokens: list[str], line: int, col: int) -> list[float]:
    out = []
    for tok in tokens:
        try:
            out.append(float(tok))
        except ValueError:
            raise SurfaceFileError(f"expected a number, got {tok!r}", line, col)
        if not math.isfinite(out[-1]):
            raise SurfaceFileError(f"expected a finite number, got {tok!r}", line, col)
    return out


def _parse_curve(value: str, line: int, col: int) -> FunctionCurve:
    tokens = value.split()
    if not tokens:
        raise SurfaceFileError("empty curve specification", line, col)
    form, args = tokens[0], tokens[1:]
    nums = _floats(args, line, col)
    if form == "constant" and len(nums) == 1:
        return surfaces.constant(nums[0])
    if form == "linear" and len(nums) == 2:
        return surfaces.linear(nums[0], nums[1])
    if form == "quadratic" and len(nums) == 3:
        return surfaces.quadratic(*nums)
    if form == "scherk-log-cos" and len(nums) == 2:
        return surfaces.log_cos(nums[0], nums[1])
    if form == "spline":
        if len(nums) < 7:
            raise SurfaceFileError(
                "spline needs t0 t1 and at least 5 coefficients", line, col
            )
        t0, t1, *coeffs = nums
        n_interior = len(coeffs) - 4
        knots = surfaces.clamped_knots((t0, t1), n_interior)
        return surfaces.from_bspline(BSpline(knots, np.asarray(coeffs), 3), (t0, t1))
    raise SurfaceFileError(f"bad curve {value!r}", line, col)


def parse_surface_text(text: str):
    """Parse a descriptor; returns a TranslationSurface or ParametricPatch."""
    entries: dict[str, tuple[str, int, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "=" not in line:
            raise SurfaceFileError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        col = len(key) + 2
        key = key.strip()
        value = value.strip()
        if key in entries:
            raise SurfaceFileError(f"duplicate key {key!r}", lineno)
        entries[key] = (value, lineno, col)

    if "kind" not in entries:
        raise SurfaceFileError("missing required key 'kind'", 1)
    kind_value, kind_line, kind_col = entries["kind"]

    if kind_value in ("type1", "type2"):
        for key, (_, ln, _c) in entries.items():
            if key not in _TRANSLATION_KEYS:
                raise SurfaceFileError(f"unknown key {key!r}", ln)
        for required in ("domain", "f", "g"):
            if required not in entries:
                raise SurfaceFileError(f"missing required key {required!r}", kind_line)
        dval, dline, dcol = entries["domain"]
        nums = _floats(dval.split(), dline, dcol)
        if len(nums) != 4:
            raise SurfaceFileError("domain needs u0 u1 v0 v1", dline, dcol)
        if not (nums[0] < nums[1] and nums[2] < nums[3]):
            raise SurfaceFileError("domain needs u0 < u1 and v0 < v1", dline, dcol)
        f = _parse_curve(*entries["f"])
        g = _parse_curve(*entries["g"])
        kind = Kind.TYPE_I if kind_value == "type1" else Kind.TYPE_II
        return TranslationSurface(kind, f, g, ((nums[0], nums[1]), (nums[2], nums[3])))

    if kind_value in _REFERENCE_KEYS:
        allowed = _REFERENCE_KEYS[kind_value]
        for key, (_, ln, _c) in entries.items():
            if key not in allowed:
                raise SurfaceFileError(f"unknown key {key!r}", ln)
        if kind_value == "hemisphere":
            val, ln, col = entries.get("radius", (None, kind_line, kind_col))
            if val is None:
                raise SurfaceFileError("hemisphere needs 'radius'", kind_line)
            nums = _floats(val.split(), ln, col)
            if len(nums) == 1:
                return surfaces.hemisphere(nums[0])
            if len(nums) == 3:
                return surfaces.hemisphere(nums[0], (nums[1], nums[2]))
            raise SurfaceFileError("radius takes r [cx cy]", ln, col)
        if kind_value == "horosphere":
            val, ln, col = entries.get("level", (None, kind_line, kind_col))
            if val is None:
                raise SurfaceFileError("horosphere needs 'level'", kind_line)
            nums = _floats(val.split(), ln, col)
            if len(nums) == 1:
                return surfaces.horosphere(nums[0])
            if len(nums) == 2:
                return surfaces.horosphere(nums[0], nums[1])
            raise SurfaceFileError("level takes c [extent]", ln, col)
        val, ln, col = entries.get("y0", (None, kind_line, kind_col))
        if val is None:
            raise SurfaceFileError("vplane needs 'y0'", kind_line)
        nums = _floats(val.split(), ln, col)
        if len(nums) == 1:
            return surfaces.vertical_plane(nums[0])
        if len(nums) == 4:
            return surfaces.vertical_plane(nums[0], nums[1], (nums[2], nums[3]))
        raise SurfaceFileError("y0 takes c [extent z0 z1]", ln, col)

    raise SurfaceFileError(f"unknown kind {kind_value!r}", kind_line, kind_col)


def load_surface(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_surface_text(fh.read())
