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
    spline t0 t1 c0 c1 ... cN            (clamped uniform cubic B-spline, N >= 3)

The file is UTF-8, a leading BOM allowed.  A line ends only at LF, CR LF
or CR, so a form feed or U+2028 in a comment stays in the comment, and in
a file with LF or CR LF line ends a line number is the one `grep -n` gives.
Unknown keys are rejected (strict parsing).  Errors carry line and column,
a byte that is not UTF-8 included: a bad number is reported at its own
column, any other bad value at the column of its first character.
Every number must be finite, a domain needs u0 < u1 and v0 < v1 (and
v0 > 0 for type2, whose v is the height z, reported at v0), and values a
constructor rejects (a radius, level or extent <= 0, a vplane z range
without 0 < z0 < z1, scherk-log-cos with a = 0, a spline with fewer than 4
coefficients or without t0 < t1) are reported at their line and column
too.  f must be defined on all of the u range and g on all of the v range,
or the curve is reported at its line and value column.
"""

from __future__ import annotations

import codecs
import math
import re
from pathlib import Path

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


def _tokens(value: str, col: int) -> list[tuple[str, int]]:
    """The whitespace-separated tokens of a value that starts at column
    `col`, each with its own column."""
    return [(m.group(), col + m.start()) for m in re.finditer(r"\S+", value)]


def _floats(tokens: list[tuple[str, int]], line: int) -> list[float]:
    """The numbers of `_tokens`; a bad one is reported at its own column."""
    out = []
    for tok, col in tokens:
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
    tokens = _tokens(value, col)
    if not tokens:
        raise SurfaceFileError("empty curve specification", line, col)
    form = tokens[0][0]
    nums = _floats(tokens[1:], line)
    if form in _CURVES and len(nums) == _CURVES[form][0]:
        return _construct(_CURVES[form][1], nums, line, col)
    if form == "spline" and len(nums) >= 2:
        return _construct(surfaces.from_bspline, ((nums[0], nums[1]), nums[2:]), line, col)
    raise SurfaceFileError(f"bad curve {value!r}", line, col)


# a line ends only at \n, \r\n or \r, as text editors count lines;
# str.splitlines also breaks at a form feed, U+2028 and the like
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


def parse_surface_text(text: str):
    """Parse a descriptor; returns a TranslationSurface or ParametricPatch."""
    entries: dict[str, tuple[str, int, int]] = {}
    for lineno, raw in enumerate(_LINE_BREAK.split(text), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "=" not in line:
            raise SurfaceFileError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        col = len(key) + 2 + len(value) - len(value.lstrip())  # the value's first character
        key = key.strip()
        value = value.strip()
        if key in entries:
            raise SurfaceFileError(f"duplicate key {key!r}", lineno)
        entries[key] = (value, lineno, col)

    if "kind" not in entries:
        raise SurfaceFileError("missing required key 'kind'", 1)
    kind_value, kind_line, kind_col = entries["kind"]
    reference = _REFERENCE_PATCHES.get(kind_value)
    if reference is None and kind_value not in ("type1", "type2"):
        raise SurfaceFileError(f"unknown kind {kind_value!r}", kind_line, kind_col)
    allowed = _TRANSLATION_KEYS if reference is None else {"kind", reference[0]}
    for key, (_, ln, _c) in entries.items():
        if key not in allowed:
            raise SurfaceFileError(f"unknown key {key!r}", ln)

    if reference is not None:
        key, usage, makers = reference
        if key not in entries:
            raise SurfaceFileError(f"{kind_value} needs {key!r}", kind_line)
        val, ln, col = entries[key]
        nums = _floats(_tokens(val, col), ln)
        if len(nums) not in makers:
            raise SurfaceFileError(f"{key} takes {usage}", ln, col)
        return _construct(makers[len(nums)], nums, ln, col)

    for required in ("domain", "f", "g"):
        if required not in entries:
            raise SurfaceFileError(f"missing required key {required!r}", kind_line)
    dval, dline, dcol = entries["domain"]
    tokens = _tokens(dval, dcol)
    nums = _floats(tokens, dline)
    if len(nums) != 4:
        raise SurfaceFileError("domain needs u0 u1 v0 v1", dline, dcol)
    if not (nums[0] < nums[1] and nums[2] < nums[3]):
        raise SurfaceFileError("domain needs u0 < u1 and v0 < v1", dline, dcol)
    if kind_value == "type2" and nums[2] <= 0:
        raise SurfaceFileError(f"type II needs v0 > 0, as v is the height z; got v0 = {nums[2]}", dline, tokens[2][1])
    domain = ((nums[0], nums[1]), (nums[2], nums[3]))
    curves = {name: _parse_curve(*entries[name]) for name in ("f", "g")}
    for (name, curve), axis, (lo, hi) in zip(curves.items(), "uv", domain):
        c0, c1 = curve.domain
        if lo < c0 or c1 < hi:
            _, ln, col = entries[name]
            raise SurfaceFileError(f"{name} is defined on [{c0}, {c1}], which does not cover the {axis} range [{lo}, {hi}]", ln, col)
    kind = Kind.TYPE_I if kind_value == "type1" else Kind.TYPE_II
    return TranslationSurface(kind, curves["f"], curves["g"], domain)


def load_surface(path: str):
    """The surface of the descriptor file at `path`, read as UTF-8 after an
    optional BOM; a byte that is not UTF-8 is reported at its line and column."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the bad byte decodes; count its lines as parse_surface_text does
        lines = _LINE_BREAK.split(data[: exc.start].decode("utf-8"))
        raise SurfaceFileError(f"not UTF-8: {exc.reason} 0x{data[exc.start]:02x}", len(lines), len(lines[-1]) + 1) from None
    return parse_surface_text(text)
