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
Every number must be finite, a domain needs u0 < u1 and v0 < v1, a spline
needs t0 < t1, and values a constructor rejects (a radius or level <= 0,
scherk-log-cos with a = 0) are reported at their line and column too.
"""

from __future__ import annotations

import math

from . import surfaces
from .surfaces import FunctionCurve, Kind, TranslationSurface


class SurfaceFileError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_TRANSLATION_KEYS = {"kind", "domain", "f", "g"}
# curve form -> (argument count, constructor); `spline` is parsed on its own
_CURVES = {
    "constant": (1, surfaces.constant),
    "linear": (2, surfaces.linear),
    "quadratic": (3, surfaces.quadratic),
    "scherk-log-cos": (2, surfaces.log_cos),
}
# kind -> (its one key, argument usage, {argument count: constructor})
_REFERENCE_PATCHES = {
    "hemisphere": ("radius", "r [cx cy]", {1: surfaces.hemisphere, 3: lambda r, *c: surfaces.hemisphere(r, c)}),
    "horosphere": ("level", "c [extent]", {1: surfaces.horosphere, 2: surfaces.horosphere}),
    "vplane": (
        "y0",
        "c [extent z0 z1]",
        {1: surfaces.vertical_plane, 4: lambda c, e, *z: surfaces.vertical_plane(c, e, z)},
    ),
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


def _construct(make, args, line: int, col: int):
    """make(*args), with a ValueError it raises reported at (line, col)."""
    try:
        return make(*args)
    except ValueError as exc:
        raise SurfaceFileError(str(exc), line, col) from exc


def _parse_curve(value: str, line: int, col: int) -> FunctionCurve:
    tokens = value.split()
    if not tokens:
        raise SurfaceFileError("empty curve specification", line, col)
    form, args = tokens[0], tokens[1:]
    nums = _floats(args, line, col)
    if form in _CURVES and len(nums) == _CURVES[form][0]:
        return _construct(_CURVES[form][1], nums, line, col)
    if form == "spline":
        if len(nums) < 7:
            raise SurfaceFileError("spline needs t0 t1 and at least 5 coefficients", line, col)
        t0, t1, *coeffs = nums
        if not t0 < t1:
            raise SurfaceFileError("spline needs t0 < t1", line, col)
        return _construct(surfaces.from_bspline, ((t0, t1), coeffs), line, col)
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

    if kind_value in _REFERENCE_PATCHES:
        key, usage, makers = _REFERENCE_PATCHES[kind_value]
        for k, (_, ln, _c) in entries.items():
            if k not in ("kind", key):
                raise SurfaceFileError(f"unknown key {k!r}", ln)
        if key not in entries:
            raise SurfaceFileError(f"{kind_value} needs {key!r}", kind_line)
        val, ln, col = entries[key]
        nums = _floats(val.split(), ln, col)
        if len(nums) not in makers:
            raise SurfaceFileError(f"{key} takes {usage}", ln, col)
        return _construct(makers[len(nums)], nums, ln, col)

    raise SurfaceFileError(f"unknown kind {kind_value!r}", kind_line, kind_col)


def load_surface(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_surface_text(fh.read())
