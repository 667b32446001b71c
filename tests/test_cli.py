import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypmin
from hypmin import cli
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
    ("kind = type1\ndomain = -1 1 -1 1\nf = spline 1 -1 1 1 1 1 1\ng = constant 1\n", "line 3, column 4: spline needs t0 < t1"),
    ("kind = type1\ndomain = -1 1 -1 1\nf = spline 1 1 1 1 1 1 1\ng = constant 1\n", "line 3, column 4: spline needs t0 < t1"),
    ("kind = type1\ndomain = -1 1 -1 1\nf = constant 1\ng = scherk-log-cos 0 1\n", "line 4, column 4: log_cos requires a != 0"),
    ("kind = hemisphere\nradius = 0\n", "line 2, column 9: hemisphere radius r = 0.0 <= 0"),
    ("kind = horosphere\nlevel = -1\n", "line 2, column 8: horosphere level c = -1.0 <= 0"),
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
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(SurfaceFileError, match=fragment):
        parse_surface_text(text)


def test_error_carries_line_number():
    with pytest.raises(SurfaceFileError) as exc:
        parse_surface_text("kind = type1\ndomain = 0 1 0 1\nf = bad\ng = constant 1\n")
    assert exc.value.line == 3


def test_non_finite_number_error_carries_line_and_column():
    with pytest.raises(SurfaceFileError) as exc:
        parse_surface_text("kind = horosphere\nlevel = nan\n")
    assert (exc.value.line, exc.value.column) == (2, 8)


@pytest.mark.parametrize("text,fragment", BAD_NUMBERS + BAD_CONSTRUCTOR_ARGS)
def test_curvature_rejects_bad_numbers_and_writes_nothing(tmp_path, capsys, text, fragment):
    surf = tmp_path / "s.txt"
    surf.write_text(text)
    out = tmp_path / "out"
    assert main(["curvature", "--surface", str(surf), "--grid", "5", "--out", str(out)]) == 1
    assert fragment in capsys.readouterr().err
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


def _run_python(code: str) -> str:
    """Run `code` in a fresh interpreter on this source tree; return its stdout."""
    src = Path(hypmin.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


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


def test_csv_spanning_several_blocks_matches_repr(tmp_path):
    # two full blocks and a partial one; columns with many repeats, with
    # none, and ints, as in the curvature and search tables
    rng = np.random.default_rng(3)
    n = 2 * cli.CSV_BLOCK_ROWS + 17
    pool = np.array(SPECIAL_VALUES + list(rng.normal(size=20)))
    columns = [
        np.repeat(np.linspace(-1.0, 1.0, 50), n // 50 + 1)[:n],
        rng.choice(pool, n),
        rng.normal(size=n),
        rng.integers(-5, 5, n),
    ]
    cli._write_csv(tmp_path / "t.csv", "abcd", columns)
    rows = zip(*(c.tolist() for c in columns))
    assert (tmp_path / "t.csv").read_text() == reference_csv("abcd", rows)


@pytest.mark.parametrize("n", [0, 1, 2 * cli.CSV_BLOCK_ROWS + 17])
def test_json_rows_match_json_dumps(tmp_path, n):
    # NaN and the infinities take JSON's spellings; a NaN with its sign bit
    # set is still NaN
    rng = np.random.default_rng(5)
    pool = np.array(SPECIAL_VALUES + [-math.nan] + list(rng.normal(size=20)))
    columns = [rng.choice(pool, n), np.repeat(pool, n // len(pool) + 1)[:n], rng.normal(size=n)]
    payload = {"columns": ["a", "b", "c"], "grid": 3}
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


def test_failed_write_leaves_no_output(tmp_path, monkeypatch, capsys):
    surf = tmp_path / "s.txt"
    surf.write_text("kind = hemisphere\nradius = 2\n")
    format_column = cli._format_column
    calls = []

    def fail_in_second_block(values):
        calls.append(len(values))
        if len(calls) > len(cli.CURVATURE_COLUMNS):
            raise OSError("disk full")
        return format_column(values)

    monkeypatch.setattr(cli, "_format_column", fail_in_second_block)
    out = tmp_path / "out"
    assert main(["curvature", "--surface", str(surf), "--grid", "70", "--out", str(out)]) == 1
    assert "disk full" in capsys.readouterr().err
    assert calls[0] == cli.CSV_BLOCK_ROWS
    assert list(out.iterdir()) == []


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
    surf = tmp_path / "bad.txt"
    surf.write_text("kind = klein-bottle\n")
    assert main(["curvature", "--surface", str(surf), "--out", str(tmp_path)]) == 1
    assert "unknown kind" in capsys.readouterr().err


def test_curvature_missing_file_exits_1(tmp_path):
    assert main(["curvature", "--surface", str(tmp_path / "nope.txt"), "--out", str(tmp_path)]) == 1


def test_curvature_halfspace_failure_writes_nothing(tmp_path, capsys):
    # f + g = x^2 + y^2 is zero at the centre node of the 5x5 grid
    surf = tmp_path / "s.txt"
    surf.write_text("kind = type1\ndomain = -1 1 -1 1\nf = quadratic 1 0 0\ng = quadratic 1 0 0\n")
    out = tmp_path / "out"
    assert main(["curvature", "--surface", str(surf), "--grid", "5", "--out", str(out)]) == 1
    assert "f+g = 0.0 <= 0" in capsys.readouterr().err
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


def test_scherk_zero_a_exits_1(tmp_path):
    assert main(["scherk", "--a", "0", "--out", str(tmp_path)]) == 1


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


def test_usage_error_exits_1():
    assert main(["search", "--kind", "torus"]) == 1
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


@pytest.mark.parametrize("flag,value", [("--seeds", "0"), ("--seeds", "-2"), ("--workers", "0")])
def test_search_rejects_counts_below_one(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert main(["search", "--kind", "type2", flag, value, "--out", str(out)]) == 1
    assert "must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/search_*.csv"))


def test_report_subcommand(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert all(v < 1e-10 for v in payload["curvature_oracles_max_error"].values())
    assert "all verified" in capsys.readouterr().out
