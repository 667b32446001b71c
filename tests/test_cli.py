import ast
import functools
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import hypmin
from hypmin import algebra, cli, cpus, descriptors, kernel, search, surfaces
from hypmin.cli import main
from hypmin.descriptors import SurfaceFileError, load_surface, parse_surface_text
from hypmin.kernel import hyperbolic_curvature
from hypmin.search import SMOOTHING_WEIGHTS, STOP_REASONS
from hypmin.surfaces import Kind, TranslationSurface


# -- descriptor parsing -----------------------------------------------


def test_parse_type2_surface():
    s = parse_surface_text(
        """
        # geodesic plane
        kind = type2
        domain = -1 1 0.5 3
        f = linear 2 0.25
        g = constant 1.5
        """
    )
    assert isinstance(s, TranslationSurface)
    assert s.kind is Kind.TYPE_II
    assert s.f(0.5).v0 == pytest.approx(1.25)
    assert s.g(1.0).v0 == 1.5
    assert s.domain == ((-1.0, 1.0), (0.5, 3.0))


def test_parse_spline_curve():
    s = parse_surface_text(
        "kind = type1\ndomain = 0 1 0 1\n"
        "f = spline 0 1 1 1 1 1 1 1 1\n"
        "g = constant 1\n"
    )
    # all-ones coefficients reproduce the constant 1 (partition of unity)
    assert s.f(0.37).v0 == pytest.approx(1.0, rel=1e-14)


def test_four_coefficient_spline_parses_and_runs(tmp_path):
    # four coefficients are one cubic segment, the smallest spline from_bspline accepts
    text = "kind = type2\ndomain = -1 1 1 2\nf = spline -1 1 0.1 0.3 -0.2 0.4\ng = constant 1\n"
    s = parse_surface_text(text)
    assert s.f(-1.0).v0 == pytest.approx(0.1, rel=1e-14) and s.f(1.0).v0 == pytest.approx(0.4, rel=1e-14)
    surf = tmp_path / "s.txt"
    surf.write_text(text)
    assert main(["curvature", "--surface", str(surf), "--grid", "5", "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "curvature.csv").exists()


def test_three_coefficient_spline_rejected_at_its_position(tmp_path, capsys):
    surf = tmp_path / "s.txt"
    surf.write_text("kind = type2\ndomain = -1 1 1 2\nf = spline -1 1 0.1 0.3 -0.2\ng = constant 1\n")
    out = tmp_path / "out"
    assert main(["curvature", "--surface", str(surf), "--grid", "5", "--out", str(out)]) == 1
    assert "line 3, column 5: a cubic spline needs at least 4 coefficients" in capsys.readouterr().err
    assert not out.exists()


def test_parse_reference_patches():
    hemi = parse_surface_text("kind = hemisphere\nradius = 2 0.5 -0.5\n")
    assert hemi.position(0.0, 1e-3)[2] == pytest.approx(2.0, abs=1e-5)
    horo = parse_surface_text("kind = horosphere\nlevel = 0.5\n")
    assert horo.position(0.0, 0.0)[2] == 0.5
    vp = parse_surface_text("kind = vplane\ny0 = 3\n")
    assert vp.position(0.1, 1.0)[1] == 3.0


BAD_NUMBERS = [
    ("kind = hemisphere\nradius = inf\n", "expected a finite number"),
    ("kind = horosphere\nlevel = nan\n", "expected a finite number"),
    ("kind = type1\ndomain = 1 -1 0.5 nan\nf = constant 1\ng = constant 1\n", "expected a finite number"),
    ("kind = type2\ndomain = -1 1 1 2\nf = linear -inf 0\ng = constant 1\n", "expected a finite number"),
    ("kind = type1\ndomain = 1 -1 0 1\nf = constant 1\ng = constant 1\n", "domain needs u0 < u1 and v0 < v1"),
    ("kind = type2\ndomain = -1 1 2 2\nf = constant 1\ng = constant 1\n", "domain needs u0 < u1 and v0 < v1"),
]

# values a curve or patch constructor rejects; the error names their position
BAD_CONSTRUCTOR_ARGS = [
    (
        "kind = type1\ndomain = -1 1 -1 1\nf = spline 1 -1 1 1 1 1 1\ng = constant 1\n",
        "line 3, column 5: a cubic spline needs at least 4 coefficients and t0 < t1, got 5 on (1.0, -1.0)",
    ),
    (
        "kind = type1\ndomain = -1 1 -1 1\nf = spline 1 1 1 1 1 1 1\ng = constant 1\n",
        "line 3, column 5: a cubic spline needs at least 4 coefficients and t0 < t1, got 5 on (1.0, 1.0)",
    ),
    ("kind = type1\ndomain = -1 1 -1 1\nf = constant 1\ng = scherk-log-cos 0 1\n", "line 4, column 5: log_cos requires a != 0"),
    ("kind = hemisphere\nradius = 0\n", "line 2, column 10: hemisphere radius r = 0.0 <= 0"),
    ("kind = horosphere\nlevel = -1\n", "line 2, column 9: horosphere level c = -1.0 <= 0"),
    ("kind = horosphere\nlevel = 1 0\n", "line 2, column 9: horosphere extent = 0.0 <= 0"),
    ("kind = vplane\ny0 = 1 -2 1 2\n", "line 2, column 6: vertical plane extent = -2.0 <= 0"),
    ("kind = vplane\ny0 = 1 2 3 1\n", "line 2, column 6: vertical plane needs 0 < z0 < z1, got z0 = 3.0, z1 = 1.0"),
    ("kind = vplane\ny0 = 1 2 -1 1\n", "line 2, column 6: vertical plane needs 0 < z0 < z1, got z0 = -1.0, z1 = 1.0"),
]

# curves defined on less than their axis range; the error names the curve's position
SHORT_CURVES = [
    (
        "kind = type1\ndomain = -2 2 -1 1\nf = spline -1 1 0.1 0.3 -0.2 0.4\ng = constant 1\n",
        "line 3, column 5: f is defined on [-1.0, 1.0], which does not cover the u range [-2.0, 2.0]",
    ),
    (
        "kind = type1\ndomain = -0.5 0.5 -1 1\nf = constant 1\ng = scherk-log-cos 2 1\n",
        "line 4, column 5: g is defined on [-0.7853981633974483, 0.7853981633974483], "
        "which does not cover the v range [-1.0, 1.0]",
    ),
]

# valid files whose geometry overflows: |Xu x Xv| or the height z is inf; the kernel names the first point
NON_FINITE_GEOMETRY = [
    (
        "kind = type2\ndomain = -1 1 1 2\nf = linear 1e200 0\ng = constant 0\n",
        "error: |Xu x Xv| = inf is not finite at (-1.0, -1e+200, 1.0)",
    ),
    ("kind = hemisphere\nradius = 1e308\n", "error: |Xu x Xv| = inf is not finite at ("),
    (
        "kind = type1\ndomain = -1 1 -1 1\nf = constant 1e308\ng = constant 1e308\n",
        "error: z = inf is not finite at (-1.0, -1.0)",
    ),
]

# type-II domains whose v range, the height z, reaches z <= 0; the error names v0's position
TYPE2_BELOW_HALFSPACE = [
    (
        "kind = type2\ndomain = -1 1 -1 1\nf = linear 1 0\ng = constant 1\n",
        "line 2, column 15: type II needs v0 > 0, as v is the height z; got v0 = -1.0",
    ),
    (
        "kind = type2\ndomain = -1 1 0 1\nf = linear 1 0\ng = constant 1\n",
        "line 2, column 15: type II needs v0 > 0, as v is the height z; got v0 = 0.0",
    ),
]

# a line ends only at \n, \r\n or \r: a form feed or U+2028 in a comment
# stays there, and an error names the line that `grep -n` names
LINE_BREAKS = [
    ("# note\x0cpage two\nkind = moebius\n", "line 2, column 8: unknown kind 'moebius'"),
    (
        "# page one\u2028page two\x85\x1c\x0b\nkind = type1\ndomain = 0 1\nf = constant 1\ng = constant 1\n",
        "line 3, column 10: domain needs u0 u1 v0 v1",
    ),
    ("kind = type1\r\ndomain = 0 1 0 1\rf = bad\ng = constant 1\n", "line 3, column 5: bad curve 'bad'"),
]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("domain = 0 1 0 1\n", "missing required key 'kind'"),
        ("kind = moebius\n", "unknown kind"),
        ("kind = type1\ndomain = 0 1 0 1\nf = constant 1\ng = constant 1\nq = 2\n", "unknown key 'q'"),
        ("kind = type1\ndomain = 0 1\nf = constant 1\ng = constant 1\n", "domain needs"),
        ("kind = type1\ndomain = 0 1 0 x\nf = constant 1\ng = constant 1\n", "expected a number"),
        ("kind = type1\ndomain = 0 1 0 1\nf = wavelet 1\ng = constant 1\n", "bad curve"),
        ("kind = type1\nkind = type2\n", "duplicate key"),
        ("kind type1\n", "expected 'key = value'"),
        ("kind = hemisphere\nradius = 1 2\n", "radius takes"),
        *BAD_NUMBERS,
        *BAD_CONSTRUCTOR_ARGS,
        *SHORT_CURVES,
        *TYPE2_BELOW_HALFSPACE,
        *LINE_BREAKS,
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(SurfaceFileError, match=re.escape(fragment)):
        parse_surface_text(text)


def test_form_feed_in_a_comment_parses():
    s = parse_surface_text("# note\x0cpage two\nkind = type1\ndomain = -1 1 1 2\nf = constant 1\ng = constant 1\n")
    assert s.kind is Kind.TYPE_I and s.domain == ((-1.0, 1.0), (1.0, 2.0))


def test_error_carries_line_number():
    with pytest.raises(SurfaceFileError) as exc:
        parse_surface_text("kind = type1\ndomain = 0 1 0 1\nf = bad\ng = constant 1\n")
    assert exc.value.line == 3


def test_non_finite_number_error_carries_line_and_column():
    with pytest.raises(SurfaceFileError) as exc:
        parse_surface_text("kind = horosphere\nlevel = nan\n")
    assert (exc.value.line, exc.value.column) == (2, 9)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # only the error line is printed
@pytest.mark.parametrize(
    "text,fragment", BAD_NUMBERS + BAD_CONSTRUCTOR_ARGS + SHORT_CURVES + TYPE2_BELOW_HALFSPACE + NON_FINITE_GEOMETRY
)
def test_curvature_rejects_bad_numbers_and_writes_nothing(tmp_path, capsys, text, fragment):
    surf = tmp_path / "s.txt"
    surf.write_text(text)
    out = tmp_path / "out"
    assert main(["curvature", "--surface", str(surf), "--grid", "5", "--out", str(out)]) == 1
    assert fragment in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # np.linspace would overflow in its step
@pytest.mark.parametrize(
    "text,domain",
    [
        ("kind = horosphere\nlevel = 1 1e308\n", "((-1e+308, 1e+308), (-1e+308, 1e+308))"),
        ("kind = vplane\ny0 = 1 1e308 0.1 4\n", "((-1e+308, 1e+308), (0.1, 4.0))"),
        ("kind = type1\ndomain = -1e308 1e308 -1 1\nf = constant 1\ng = constant 1\n", "((-1e+308, 1e+308), (-1.0, 1.0))"),
    ],
)
def test_curvature_rejects_a_domain_whose_width_overflows(tmp_path, capsys, text, domain):
    surf, out = tmp_path / "s.txt", tmp_path / "out"
    surf.write_text(text)
    assert main(["curvature", "--surface", str(surf), "--grid", "3", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: domain {domain} is too wide: its width is not finite\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "module,unloaded",
    [
        ("hypmin.descriptors", "hypmin.search"),  # the parser does not import the optimizer
        ("hypmin.cli", "scipy"),  # numpy is the only runtime dependency
    ],
)
def test_import_does_not_load(module, unloaded):
    assert _run_python(f"import sys, {module}; print({unloaded!r} in sys.modules)") == "False"


# the modules of the package, each importing only modules before it
LAYERS = ("cpus", "floatrepr", "jets", "kernel", "algebra", "surfaces", "descriptors", "search", "experiments", "cli", "__main__")


def test_modules_import_only_earlier_layers():
    src = Path(hypmin.__file__).resolve().parent
    assert sorted(p.stem for p in src.glob("*.py")) == sorted(LAYERS + ("__init__",))
    for path in src.glob("*.py"):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):  # function-local imports too
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                names = [node.module] if node.module else [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hypmin":
                names = node.module.split(".")[1:2] or [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name.split(".")[1] for a in node.names if a.name.startswith("hypmin.")]
            else:
                continue
            imported.update(name.split(".")[0] for name in names)
        allowed = set(LAYERS[: LAYERS.index(path.stem)]) if path.stem in LAYERS else set()
        assert imported <= allowed, f"{path.name} imports {sorted(imported - allowed)}"


def _run_python(code: str) -> str:
    """Run `code` in a fresh interpreter on this source tree; return its stdout."""
    src = Path(hypmin.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_verify_loads_no_numpy_and_no_numeric_module(tmp_path):
    # verify runs the exact strand alone: nothing of numpy or of the numeric layers
    code = (
        "import sys\n"
        "from hypmin.cli import main\n"
        f"assert main(['verify', '--out', {str(tmp_path)!r}]) == 0\n"
        "numeric = ('numpy', 'hypmin.search', 'hypmin.surfaces', 'hypmin.kernel', 'hypmin.jets', 'hypmin.descriptors')\n"
        "print(sorted(m for m in sys.modules if m in numeric or m.split('.')[0] == 'numpy'))\n"
    )
    assert _run_python(code).splitlines()[-1] == "[]"
    assert (tmp_path / "verify_report.json").is_file()


def test_spline_commands_and_experiments_load_no_scipy(tmp_path):
    surf = tmp_path / "s.txt"
    surf.write_text("kind = type2\ndomain = -1 1 1 2\nf = spline -1 1 0.1 0.3 -0.2 0.4 0.0\ng = spline 1 2 0 0.2 0.1 -0.1 0.3 0.2\n")
    code = (
        "import sys\n"
        "from hypmin.cli import main\n"
        "import hypmin.experiments\n"
        f"assert main(['curvature', '--surface', {str(surf)!r}, '--grid', '9', '--out', {str(tmp_path / 'c')!r}]) == 0\n"
        f"assert main(['search', '--kind', 'type1', '--seeds', '1', '--out', {str(tmp_path / 's')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _run_python(code).splitlines()[-1] == "[]"


# -- subcommands ------------------------------------------------------


def test_verify_success_and_report(tmp_path, capsys):
    code = main(["verify", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("exact-match") == 8
    payload = json.loads((tmp_path / "verify_report.json").read_text())
    assert payload["schema_version"] == 1
    assert len(payload["identities"]) == 8
    assert all(item["status"] == "exact-match" for item in payload["identities"])


def test_verify_mismatch_exits_2(tmp_path, monkeypatch):
    from hypmin.algebra import ProofReport, MISMATCH

    def fake():
        return [ProofReport("planted", MISMATCH, "deliberate")]

    monkeypatch.setattr(cli.algebra, "run_all_verifications", fake)
    assert main(["verify", "--out", str(tmp_path)]) == 2


def test_curvature_horosphere_csv(tmp_path):
    surf = tmp_path / "s.txt"
    surf.write_text("kind = horosphere\nlevel = 1\n")
    code = main(
        ["curvature", "--surface", str(surf), "--grid", "5", "--out", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "curvature.csv").read_text().strip().splitlines()
    assert lines[0] == "u,v,x,y,z,He,N3,H"
    assert len(lines) == 1 + 25
    row = lines[1].split(",")
    assert float(row[7]) == 1.0  # H = 1 on a horosphere


# -- CSV writer ---------------------------------------------------------

SPECIAL_VALUES = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5, 0.1 + 0.2]


def reference_csv(header, rows) -> str:
    return ",".join(header) + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


def test_csv_special_values_match_repr(tmp_path):
    values = np.array(SPECIAL_VALUES)
    columns = [values, values[::-1].copy(), -values, np.arange(len(values))]
    cli._write_csv(tmp_path / "t.csv", "abcd", columns)
    rows = zip(*(c.tolist() for c in columns))
    assert (tmp_path / "t.csv").read_text() == reference_csv("abcd", rows)


def _distinct_column(rng, n):
    # SPECIAL_VALUES and -nan once each, then fresh normals: no value repeats
    values = np.concatenate([SPECIAL_VALUES, [-math.nan], rng.normal(size=n)])[:n]
    assert len(np.unique(values.view(np.int64))) == n
    return values


def test_csv_spanning_several_blocks_matches_repr(tmp_path):
    # two full blocks and a partial one; columns with many repeats, with
    # none (with and without the special values), and ints, as in the
    # curvature and search tables
    rng = np.random.default_rng(3)
    n = 2 * cli.CSV_BLOCK_ROWS + 17
    pool = np.array(SPECIAL_VALUES + list(rng.normal(size=20)))
    columns = [
        np.repeat(np.linspace(-1.0, 1.0, 50), n // 50 + 1)[:n],
        rng.choice(pool, n),
        rng.normal(size=n),
        rng.integers(-5, 5, n),
        _distinct_column(rng, n),
    ]
    cli._write_csv(tmp_path / "t.csv", "abcde", columns)
    rows = zip(*(c.tolist() for c in columns))
    assert (tmp_path / "t.csv").read_text() == reference_csv("abcde", rows)


@pytest.mark.parametrize("n", [0, 1, 2 * cli.CSV_BLOCK_ROWS + 17])
def test_json_rows_match_json_dumps(tmp_path, n):
    # NaN and the infinities take JSON's spellings, also in the column
    # where no value repeats; a NaN with its sign bit set is still NaN
    rng = np.random.default_rng(5)
    pool = np.array(SPECIAL_VALUES + [-math.nan] + list(rng.normal(size=20)))
    columns = [
        rng.choice(pool, n),
        np.repeat(pool, n // len(pool) + 1)[:n],
        rng.normal(size=n),
        _distinct_column(rng, n),
    ]
    payload = {"columns": ["a", "b", "c", "d"], "grid": 4}
    cli._write_json(tmp_path / "t.json", payload, columns)
    rows = np.stack(columns, axis=1).tolist()
    want = json.dumps(
        {"schema_version": cli.SCHEMA_VERSION, **payload, "rows": rows}, indent=2, sort_keys=True
    )
    assert (tmp_path / "t.json").read_text() == want + "\n"


def test_curvature_json_matches_json_dumps_of_the_grid(tmp_path):
    # 70 x 70 = 4900 rows: more than one block
    surf = tmp_path / "s.txt"
    surf.write_text("kind = hemisphere\nradius = 2 0.5 -0.25\n")
    argv = ["curvature", "--surface", str(surf), "--grid", "70", "--format", "json", "--out", str(tmp_path)]
    assert main(argv) == 0
    patch = load_surface(str(surf))
    us, vs = cli._grid_axes(patch.domain, 70)
    jet = patch.jet(us, vs)
    rep = hyperbolic_curvature(jet)
    grid = np.broadcast_arrays(us, vs, jet.X[..., 0], jet.X[..., 1], jet.X[..., 2], rep.He, rep.N3, rep.H)
    payload = {
        "schema_version": cli.SCHEMA_VERSION,
        "columns": list(cli.CURVATURE_COLUMNS),
        "rows": np.stack([c.ravel() for c in grid], axis=1).tolist(),
    }
    want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "curvature.json").read_text() == want


def test_curvature_csv_matches_repr_of_the_grid(tmp_path):
    # 70 x 70 = 4900 rows: more than one block
    surf = tmp_path / "s.txt"
    surf.write_text("kind = hemisphere\nradius = 2 0.5 -0.25\n")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["curvature", "--surface", str(surf), "--grid", "70", "--out", str(out)]) == 0
    patch = load_surface(str(surf))
    us, vs = cli._grid_axes(patch.domain, 70)
    jet = patch.jet(us, vs)
    rep = hyperbolic_curvature(jet)
    grid = np.broadcast_arrays(us, vs, jet.X[..., 0], jet.X[..., 1], jet.X[..., 2], rep.He, rep.N3, rep.H)
    rows = np.stack([c.ravel() for c in grid], axis=1).tolist()
    text = (outs[0] / "curvature.csv").read_text()
    assert len(rows) > cli.CSV_BLOCK_ROWS
    assert text == reference_csv(cli.CURVATURE_COLUMNS, rows)
    assert (outs[0] / "curvature.csv").read_bytes() == (outs[1] / "curvature.csv").read_bytes()


@pytest.mark.parametrize("block_points", [1, 210])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_curvature_kernel_blocks_give_the_one_block_bytes(tmp_path, monkeypatch, capsys, block_points, fmt):
    # grid 70 is one kernel block by default; 1 and 210 points give blocks
    # of 1 row and of 3 rows, the last of 1
    texts = {
        "spline": "kind = type1\ndomain = -1 1 -1 1\nf = spline -1 1 1.4 1.6 1.3 1.7 1.5\ng = spline -1 1 0.1 -0.2 0.3 0.0\n",
        "hemisphere": "kind = hemisphere\nradius = 2 0.5 -0.25\n",
    }
    for name, text in texts.items():
        surf = tmp_path / f"{name}.txt"
        surf.write_text(text)
        runs = []
        for out in (tmp_path / f"{name}-one", tmp_path / f"{name}-blocks"):
            if out.name.endswith("blocks"):
                monkeypatch.setattr(cli, "KERNEL_BLOCK_POINTS", block_points)
            assert main(["curvature", "--surface", str(surf), "--grid", "70", "--format", fmt, "--out", str(out)]) == 0
            runs.append(((out / f"curvature.{fmt}").read_bytes(), capsys.readouterr().out))
            monkeypatch.undo()
        assert runs[0] == runs[1]
        assert "over 4900 points" in runs[0][1]


def test_curvature_evaluates_the_v_curve_once_per_table(tmp_path, monkeypatch):
    # 210 points per block: 24 blocks of 3 rows at grid 70, and f once per block
    surf = tmp_path / "spline.txt"
    surf.write_text("kind = type2\ndomain = -1 1 1 2\nf = spline -1 1 0.2 -0.1 0.3 0.0\ng = spline 1 2 0.1 0.4 -0.2 0.3\n")
    calls = []
    curve_call = surfaces.FunctionCurve.__call__

    def counted(curve, t):
        calls.append(np.shape(t))
        return curve_call(curve, t)

    monkeypatch.setattr(surfaces.FunctionCurve, "__call__", counted)
    monkeypatch.setattr(cli, "KERNEL_BLOCK_POINTS", 210)
    assert main(["curvature", "--surface", str(surf), "--grid", "70", "--out", str(tmp_path)]) == 0
    assert calls.count((1, 70)) == 1  # g on the v axis
    assert calls.count((3, 1)) == 23 and calls.count((1, 1)) == 1  # f on each block's rows
    assert len(calls) == 25


def test_failed_write_leaves_no_output(tmp_path, monkeypatch, capsys):
    # grid 70: 4900 rows in two ranges; the error is raised in the worker
    # that formats the second, on the rows whose u is the largest theta
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    surf = tmp_path / "s.txt"
    surf.write_text("kind = hemisphere\nradius = 2\n")
    format_column = cli._format_column

    def fail_on_last_theta(values):
        if np.any(values == 2.0 * math.pi):
            raise OSError("disk full")
        return format_column(values)

    monkeypatch.setattr(cli, "_format_column", fail_on_last_theta)
    out = tmp_path / "out"
    assert main(["curvature", "--surface", str(surf), "--grid", "70", "--out", str(out)]) == 1
    assert "disk full" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert multiprocessing.active_children() == []


def _boundary_columns(n):
    # SPECIAL_VALUES in every row of the first column, so on both sides of
    # every block and range boundary, and around each multiple of the block
    # size in the others
    rng = np.random.default_rng(11)
    specials = np.array(SPECIAL_VALUES)
    k = len(specials)
    columns = [np.resize(specials, n), rng.normal(size=n), rng.normal(size=n)]
    for edge in (*range(cli.CSV_BLOCK_ROWS, n, cli.CSV_BLOCK_ROWS), n):
        for i, c in enumerate(columns[1:]):
            c[edge - k : edge] = np.roll(specials, i)
            c[edge : edge + k] = np.roll(specials, -i)[: n - edge]
    return columns


def _count_forks(monkeypatch):
    # the pids of the children forked from this process
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
def test_block_writer_bytes_do_not_depend_on_cpu_count(tmp_path, monkeypatch, n_cpus):
    # four blocks, the last partial, in 1, 2 and 3 contiguous ranges
    monkeypatch.setattr(cpus, "usable_cpus", lambda: n_cpus)
    forks = _count_forks(monkeypatch)
    n = 3 * cli.CSV_BLOCK_ROWS + 17
    columns = _boundary_columns(n)
    csv_columns = [*columns, np.arange(n) - n // 2]
    cli._write_csv(tmp_path / "t.csv", "abcd", csv_columns)
    cli._write_json(tmp_path / "t.json", {"columns": ["a", "b", "c"]}, columns)
    assert len(forks) == 2 * (n_cpus - 1)
    rows = zip(*(c.tolist() for c in csv_columns))
    assert (tmp_path / "t.csv").read_text() == reference_csv("abcd", rows)
    payload = {"schema_version": cli.SCHEMA_VERSION, "columns": ["a", "b", "c"]}
    payload["rows"] = np.stack(columns, axis=1).tolist()
    assert (tmp_path / "t.json").read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.json"]
    _assert_reaped(forks)


def test_fewer_than_two_blocks_never_fork(tmp_path, monkeypatch):
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 3)
    forks = _count_forks(monkeypatch)
    for n in (0, 1, cli.CSV_BLOCK_ROWS):
        columns = [np.linspace(0.0, 1.0, n), np.arange(n)]
        cli._write_csv(tmp_path / "t.csv", "ab", columns)
        cli._write_json(tmp_path / "t.json", {}, columns[:1])
    cli._write_json(tmp_path / "t.json", {"a": 1})
    assert forks == []
    n = cli.CSV_BLOCK_ROWS + 1  # two blocks: one worker
    cli._write_csv(tmp_path / "t.csv", "ab", [np.linspace(0.0, 1.0, n), np.arange(n)])
    assert len(forks) == 1


@pytest.mark.parametrize(
    "n_cpus,failing_row,error",
    [
        (2, 5000, ValueError),  # this process fails while its worker runs
        (3, 7000, ValueError),  # the first worker fails while the second runs
        (3, 3 * cli.CSV_BLOCK_ROWS + 16, OSError),  # the last worker fails
    ],
)
def test_failed_block_leaves_no_file_and_no_child(tmp_path, monkeypatch, n_cpus, failing_row, error):
    monkeypatch.setattr(cpus, "usable_cpus", lambda: n_cpus)
    format_column = cli._format_column

    def fail_on_row(values):
        if values[0] <= failing_row < values[0] + len(values):
            raise error(f"bad block at row {failing_row}")
        return format_column(values)

    monkeypatch.setattr(cli, "_format_column", fail_on_row)
    forks = _count_forks(monkeypatch)
    n = 3 * cli.CSV_BLOCK_ROWS + 17
    with pytest.raises(error, match=f"^bad block at row {failing_row}$"):
        cli._write_csv(tmp_path / "t.csv", "ab", [np.arange(n, dtype=float), np.arange(n)])
    assert len(forks) == n_cpus - 1
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []
    _assert_reaped(forks)


def test_curvature_json_format(tmp_path):
    surf = tmp_path / "s.txt"
    surf.write_text("kind = vplane\ny0 = 0\n")
    code = main(
        [
            "curvature",
            "--surface",
            str(surf),
            "--grid",
            "4",
            "--format",
            "json",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "curvature.json").read_text())
    assert payload["columns"] == list(cli.CURVATURE_COLUMNS)
    assert max(abs(r[7]) for r in payload["rows"]) < 1e-12


def test_curvature_malformed_file_exits_1(tmp_path, capsys):
    surf, out = tmp_path / "bad.txt", tmp_path / "out"
    for text, message in (
        ("kind = klein-bottle\n", "line 1, column 8: unknown kind 'klein-bottle'"),
        ("kind type1\n", "line 1, column 1: expected 'key = value'"),
        ("kind = type1\ndomain = -1 one -1 1\nf = linear 1 0\ng = linear 1 0\n", "line 2, column 13: expected a number, got 'one'"),
    ):
        surf.write_text(text)
        assert main(["curvature", "--surface", str(surf), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {surf}: {message}\n")
    assert not out.exists()


def test_curvature_undecodable_file_exits_1_at_the_bad_byte(tmp_path, capsys):
    surf, out = tmp_path / "bad.surf", tmp_path / "out"
    surf.write_bytes(b"kind = type1\ndomain = -1 1 -1 1\nf = constant 1\ng = constant \xff\n")
    assert main(["curvature", "--surface", str(surf), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {surf}: line 4, column 14: not UTF-8: invalid start byte 0xff\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "data,where",
    [
        (b"# a\x0cb\xe2\x80\xa8c\nkind = type1\ndomain = -1 1 -1 1\nf = constant 1\ng = constant \xff\n", "line 5, column 14"),
        (b"kind = type1\r\ndomain = -1 1 -1 1\rf = constant 1\n\xff", "line 4, column 1"),
        (b"kind = type1\r\xff", "line 2, column 1"),
    ],
    ids=["unicode-breaks-in-a-comment", "mixed-line-ends", "after-a-lone-cr"],
)
def test_undecodable_byte_line_counts_only_lf_crlf_and_cr(tmp_path, capsys, data, where):
    surf, out = tmp_path / "bad.surf", tmp_path / "out"
    surf.write_bytes(data)
    assert main(["curvature", "--surface", str(surf), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {surf}: {where}: not UTF-8: invalid start byte 0xff\n")
    assert not out.exists()


def test_curvature_reads_a_file_with_a_bom_as_without(tmp_path):
    text = "kind = horosphere\nlevel = 1\n"
    tables = []
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        surf = tmp_path / f"{name}.surf"
        surf.write_bytes(data)
        assert main(["curvature", "--surface", str(surf), "--grid", "7", "--out", str(tmp_path / name)]) == 0
        tables.append((tmp_path / name / "curvature.csv").read_bytes())
    assert tables[0] == tables[1]


def test_curvature_missing_file_exits_1(tmp_path):
    assert main(["curvature", "--surface", str(tmp_path / "nope.txt"), "--out", str(tmp_path)]) == 1


def test_curvature_halfspace_failure_writes_nothing(tmp_path, capsys):
    # f + g = x^2 + y^2 is zero at the centre node of the 5x5 grid
    surf = tmp_path / "s.txt"
    surf.write_text("kind = type1\ndomain = -1 1 -1 1\nf = quadratic 1 0 0\ng = quadratic 1 0 0\n")
    out = tmp_path / "out"
    assert main(["curvature", "--surface", str(surf), "--grid", "5", "--out", str(out)]) == 1
    assert "error: z = 0.0 <= 0 at (0.0, 0.0)" in capsys.readouterr().err
    assert not (out / "curvature.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "--surface", "unused.surf", "--grid", "0"],
        ["curvature", "--surface", "unused.surf", "--grid", "-3"],
        ["scherk", "--a", "2", "--grid", "0"],
    ],
)
def test_grid_below_one_rejected_at_parse_time(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert "must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_scherk_report(tmp_path):
    code = main(["scherk", "--a", "2", "--grid", "30", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "scherk_report.json").read_text())
    assert payload["max_abs_He"] < 1e-10
    assert payload["max_abs_H"] > 0.1


def test_scherk_zero_a_exits_1(tmp_path, capsys):
    for a in ("0", "-0.0", "0e300"):
        assert main(["scherk", f"--a={a}", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", "error: --a must be nonzero\n")
    assert not (tmp_path / "out").exists()


def test_scherk_grid_of_one_boundary_point_reports_zero_H(tmp_path):
    # the one node (lo, lo) lies on the diagonal x = y, where Scherk's z = log(cos x / cos y) is 0
    assert main(["scherk", "--a", "1", "--grid", "1", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "scherk_report.json").read_text())["max_abs_H"] == 0.0


@pytest.mark.parametrize("a", ["1e-8", "-1e-8", "1e-300"])
def test_scherk_tiny_a_runs_on_its_regular_patch(tmp_path, a):
    # |f'| and |g'| reach about 1/(a margin) at the corners: EG - F^2 must not cancel to 0 there
    assert main(["scherk", f"--a={a}", "--grid", "9", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "scherk_report.json").read_text())
    assert math.isfinite(payload["max_abs_He"]) and 0.0 < payload["max_abs_H"] < 1.0


MARGIN = "error: --margin must lie in (0, pi/(2|a|)) = (0, {!r}), got {}"
TOO_SMALL = "error: --a = {} is too small: the patch width pi/|a| overflows"
# (argv, the fragment of the message that names the case, the whole line of stderr that reports it)
SCHERK_REJECTS = [
    # a reversed interval, then an empty one
    (["--a", "1", "--margin", "2"], "--margin must lie in (0, pi/(2|a|))", MARGIN.format(math.pi / 2, "2.0")),
    (["--a", "1", "--margin", repr(math.pi / 2)], "--margin must lie in (0, pi/(2|a|))", MARGIN.format(math.pi / 2, math.pi / 2)),
    (["--a", "-2", "--margin", repr(math.pi / 4)], "--margin must lie in (0, pi/(2|a|))", MARGIN.format(math.pi / 4, math.pi / 4)),
    (["--a", "1", "--margin", "0"], "--margin must lie in (0, pi/(2|a|))", MARGIN.format(math.pi / 2, "0.0")),
    (["--a", "1", "--margin", "-0.1"], "--margin must lie in (0, pi/(2|a|))", MARGIN.format(math.pi / 2, "-0.1")),
    (["--a", "1", "--margin", "nan"], "argument --margin: must be finite", "error: argument --margin: must be finite, got nan"),
    (["--a", "1", "--margin", "inf"], "argument --margin: must be finite", "error: argument --margin: must be finite, got inf"),
    (["--a", "nan"], "argument --a: must be finite", "error: argument --a: must be finite, got nan"),
    (["--a=-inf"], "argument --a: must be finite", "error: argument --a: must be finite, got -inf"),
    # pi/(2|a|) overflows at 1e-320; at 1e-308 it is finite but the patch width pi/|a| is not
    (["--a", "1e-320"], "--a = 1e-320 is too small", TOO_SMALL.format("1e-320")),
    (["--a=-1e-320"], "--a = -1e-320 is too small", TOO_SMALL.format("-1e-320")),
    (["--a", "1e-308"], "--a = 1e-308 is too small", TOO_SMALL.format("1e-308")),
    (["--a", "4", "--margin", "0.5"], "--margin must lie in (0, pi/(2|a|))", MARGIN.format(math.pi / 8, "0.5")),
    (["--margin", "1", "--a", "1e-320"], "--a = 1e-320 is too small", TOO_SMALL.format("1e-320")),  # a before the margin
]


@pytest.mark.parametrize(
    "argv,fragment,line", SCHERK_REJECTS, ids=[f"argv{i}-{fragment}" for i, (_, fragment, _) in enumerate(SCHERK_REJECTS)]
)
@pytest.mark.filterwarnings("error")  # rejected before numpy builds a grid
def test_scherk_rejects_a_margin_that_empties_the_grid(tmp_path, capsys, argv, fragment, line):
    out = tmp_path / "out"
    assert main(["scherk", *argv, "--grid", "5", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert fragment in captured.err and captured.out == ""
    usage, _, last = captured.err[:-1].rpartition("\n")
    assert (last, captured.err[-1:]) == (line, "\n")
    assert bool(usage) == line.startswith("error: argument")  # argparse prints its usage first
    assert not out.exists()


def test_search_type2_csv_and_summary(tmp_path):
    code = main(
        ["search", "--kind", "type2", "--seeds", "3", "--seed", "11", "--out", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "search_type2.csv").read_text().strip().splitlines()
    assert lines[0] == "seed,supResidual,meanSquareResidual,planeDistance,iterations,converged"
    assert len(lines) == 4
    for line in lines[1:]:
        cols = line.split(",")
        assert float(cols[1]) < 1e-6
        assert float(cols[3]) < 1e-4
        assert cols[5] == "1"
    summary = json.loads((tmp_path / "search_type2_summary.json").read_text())
    assert summary["converged"] == 3
    assert list(summary["stop_reasons"]) == sorted(STOP_REASONS)
    assert sum(summary["stop_reasons"].values()) == 3 * len(SMOOTHING_WEIGHTS)
    assert summary["stop_reasons"]["budget"] == 0
    assert len(summary["nfev_per_stage"]) == len(SMOOTHING_WEIGHTS)
    assert sum(summary["nfev_per_stage"]) == sum(int(line.split(",")[4]) for line in lines[1:])
    assert summary["config"] == {
        "grid": [33, 33],
        "z_floor": 0.2,
        "z_ceil": 5.0,
        "max_iterations": 500,
        "euclidean_control": False,
    }
    assert summary["best_supResidual"] < 1e-6


def test_search_byte_identical_repeats(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["search", "--kind", "type2", "--seeds", "4", "--seed", "5", "--out", str(out)]) == 0
    assert (a / "search_type2.csv").read_bytes() == (b / "search_type2.csv").read_bytes()
    assert (a / "search_type2_summary.json").read_bytes() == (b / "search_type2_summary.json").read_bytes()


def test_search_workers_match_sequential(tmp_path):
    a = tmp_path / "seq"
    b = tmp_path / "par"
    assert main(["search", "--kind", "type2", "--seeds", "4", "--seed", "5", "--out", str(a)]) == 0
    assert main(["search", "--kind", "type2", "--seeds", "4", "--seed", "5", "--workers", "2", "--out", str(b)]) == 0
    assert (a / "search_type2.csv").read_bytes() == (b / "search_type2.csv").read_bytes()


def test_search_kinds_are_the_campaigns():
    (commands,) = (a for a in cli.build_parser()._actions if a.dest == "subcommand")
    assert commands.choices["search"]._option_string_actions["--kind"].choices == tuple(search.CAMPAIGNS)
    type2 = [c.g_domain for c in search.CAMPAIGNS.values() if c.kind is Kind.TYPE_II]
    assert type2 and all(min(z_range) > 0.0 for z_range in type2)  # z lies in the half-space


def test_usage_error_exits_1():
    assert main(["search", "--kind", "torus"]) == 1
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["bogus"],
        ["verify", "-h"],
        ["verify", "--bogus"],
        ["verify", "x"],
        ["curvature"],
        ["search", "--kind", "torus"],
        ["search", "--kind", "type1", "--seeds", "0"],
        ["search", "--kind", "type1", "--seed", "-1"],
        ["scherk", "--a", "nan"],
    ],
)
def test_help_and_usage_errors_are_the_full_parsers(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    want = (exc.value.code or 0, *capsys.readouterr())
    assert (main(argv), *capsys.readouterr()) == want


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["verify", "--ou=x"],
        ["curvature", "--surface=-h", "--grid", "7", "--format", "json"],
        ["scherk", "--a", "-2", "--margin", "0.2"],
        ["search", "--kind", "type1", "--seed", "5", "--work", "2", "--seeds", "3", "--seeds", "4"],
        ["report", "--out", "a", "--out", "b"],
    ],
)
def test_a_command_parses_as_the_full_parser_without_building_it(argv, monkeypatch):
    want = cli.build_parser().parse_args(argv)

    def full_parser():
        raise AssertionError("built the parser of every subcommand")

    monkeypatch.setattr(cli, "build_parser", full_parser)
    assert cli._parse(argv) == want


def test_module_entry_point_reads_sys_argv(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(hypmin.__file__).resolve().parents[1])}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "hypmin", *argv], env=env, capture_output=True, text=True, timeout=60
        )

    proc = run("verify", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads((tmp_path / "verify_report.json").read_text())["identities"]) == 8
    proc = run()
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: hypmin")


@pytest.mark.parametrize("flag,value", [("--seeds", "0"), ("--seeds", "-2"), ("--workers", "0")])
def test_search_rejects_counts_below_one(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert main(["search", "--kind", "type2", flag, value, "--out", str(out)]) == 1
    assert "must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/search_*.csv"))


def test_search_rejects_a_negative_seed(tmp_path, capsys):
    # in the parser, as for the counts, not later in the generator
    out = tmp_path / "out"
    assert main(["search", "--kind", "type2", "--seeds", "2", "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: hypmin search") and err.endswith("error: argument --seed: must be at least 0, got -1\n")
    assert not out.exists()


def test_report_subcommand(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert all(v < 1e-10 for v in payload["curvature_oracles_max_error"].values())
    assert "all verified" in capsys.readouterr().out


def test_report_mismatch_exits_2(tmp_path, monkeypatch, capsys):
    from hypmin.algebra import ProofReport, MISMATCH

    def fake():
        return [ProofReport("planted", MISMATCH, "deliberate")]

    monkeypatch.setattr(cli.algebra, "run_all_verifications", fake)
    assert main(["report", "--out", str(tmp_path)]) == 2
    assert "identities: MISMATCH FOUND" in capsys.readouterr().out.splitlines()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert [item["id"] for item in payload["identities"]] == ["planted"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["curvature", "--surface", "SURFACE", "--grid", "5"],
        ["scherk", "--a", "1", "--grid", "5"],
        ["search", "--kind", "type2", "--seeds", "1"],
        ["report"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_naming_a_regular_file_exits_1_and_leaves_it(tmp_path, capsys, argv):
    surf, out = tmp_path / "s.txt", tmp_path / "out"
    surf.write_text("kind = horosphere\nlevel = 1\n")
    out.write_bytes(b"not a directory\n")
    argv = [str(surf) if arg == "SURFACE" else arg for arg in argv]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: [Errno 17] File exists: '{out}'\n")
    assert out.read_bytes() == b"not a directory\n"
    assert sorted(tmp_path.iterdir()) == [out, surf]


# -- tooling: the bench tracer looks up package functions by name, so
# deleting or renaming one breaks `python3 bench/run.py --trace 1`

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracing() -> types.ModuleType:
    """bench/tracing.py as a module, compiled from source so that no
    bytecode cache is written under bench/."""
    path = BENCH / "tracing.py"
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _bench_files() -> dict:
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in BENCH.rglob("*") if p.is_file()}


# package names that bench/ reads outside the tracer, per file, each as a
# dotted path from `hypmin` whose last part the file spells out
BENCH_NAMES = {
    "checks.py": ("surfaces.type1_residual", "surfaces.type2_residual", "surfaces.Kind.TYPE_I"),
    "selftest.py": ("search.NonFiniteResidualError",),
    "workloads.py": ("descriptors.load_surface",),
}


def test_bench_tracer_installs_and_restores():
    owners = (algebra, cli, descriptors, kernel, search, surfaces, surfaces.ParametricPatch, surfaces.FunctionCurve)
    before = [dict(vars(owner)) for owner in owners]
    files = _bench_files()
    for name, dotted_names in BENCH_NAMES.items():
        text = (BENCH / name).read_text(encoding="utf-8")
        for dotted in dotted_names:
            assert dotted.rsplit(".", 1)[-1] in text, (name, dotted)
            functools.reduce(getattr, dotted.split("."), hypmin)  # AttributeError if it is gone
    tracing = _load_tracing()
    restore = tracing.install(tracing.Tracer())  # looks up every name it wraps
    try:
        assert search.residual_grid is not before[4]["residual_grid"]
        assert search.residual_and_jacobian is not before[4]["residual_and_jacobian"]
    finally:
        restore()
    assert [dict(vars(owner)) for owner in owners] == before
    assert _bench_files() == files
