import importlib.util
from pathlib import Path

import pytest

from hypmin import cli, floatrepr, search

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ode_branch_experiments_runs_with_defaults(capsys):
    assert _load("ode_branch_experiments").main([]) == 0
    out = capsys.readouterr().out
    assert "closed-form singularity at pi/(4a) = 0.785398163" in out
    assert "no (a,b) closes the system" in out


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["--a", "0"], "--a must be nonzero"),
        (["--a", "nan"], "every number must be finite"),
        (["--x-max", "inf"], "every number must be finite"),
        (["--z-lo", "2", "--z-hi", "1"], "need 0 < --z-lo < --z-hi"),
        (["--z-lo", "0"], "need 0 < --z-lo < --z-hi"),
    ],
)
def test_ode_branch_experiments_usage_errors(capsys, argv, fragment):
    # rejected by the parser, before any experiment runs or prints
    with pytest.raises(SystemExit) as exc:
        _load("ode_branch_experiments").main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert fragment in captured.err
    assert captured.out == ""


def test_lm_layers_prints_every_kind_and_layer(capsys):
    assert _load("lm_layers").main(["--grid", "17", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "grid 17x17, generator seed 3; median us per seed and call, traced heap peak"
    assert lines[1].split() == ["kind", "block", "nfev", "assembles", "evaluate", "assemble", "damped_step", "peak_kb"]
    rows = [line.split() for line in lines[2:]]
    # a block of one and the largest block of a 20-seed campaign: all 20 at 17 x 17
    assert [(row[0], int(row[1])) for row in rows] == [(name, n) for name in search.CAMPAIGNS for n in (1, 20)]
    peaks = {}
    for name, block, nfev, assembles, *us, peak_kb in rows:
        assert int(nfev) >= int(block) * len(search.SMOOTHING_WEIGHTS)  # one evaluation per stage at least
        assert int(block) <= int(assembles) <= int(nfev)
        assert all(float(u) > 0.0 for u in us)
        peaks[name, int(block)] = int(peak_kb)
    assert all(peaks[name, 1] < peaks[name, 20] for name in search.CAMPAIGNS)  # the buffers grow with the block
    layers = ("_evaluate", "_assemble", "_damped_step")
    assert [getattr(search, layer).__name__ for layer in layers] == list(layers)  # wrappers removed


def test_lm_layers_rejects_a_grid_below_two(capsys):
    with pytest.raises(SystemExit) as exc:
        _load("lm_layers").main(["--grid", "1"])
    assert exc.value.code == 2
    assert "--grid must be at least 2" in capsys.readouterr().err


def test_cold_start_times_fresh_verify_processes(capsys):
    src = Path(search.__file__).resolve().parents[1]
    assert _load("cold_start").main(["--runs", "2", str(src), str(src)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "fresh `python -m hypmin verify`, 2 runs per tree, wall seconds"
    assert lines[1].split() == ["median", "min", "src"]
    assert len(lines) == 3  # a tree given twice is timed once per round
    median, least, tree = lines[2].split()
    assert 0.0 < float(least) <= float(median) and Path(tree) == src


def test_cold_start_rejects_a_tree_without_hypmin(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _load("cold_start").main(["--runs", "2", str(tmp_path)])
    assert exc.value.code == 2
    assert "no hypmin package under" in capsys.readouterr().err


def test_src_size_prints_one_row_per_module_and_their_total(capsys):
    src = Path(search.__file__).resolve().parents[1]
    script = _load("src_size")
    assert script.main([str(src)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert Path(lines[0]) == src
    assert lines[1].split() == ["lines", "defaults", "fields", "module"]
    *rows, total = [line.split() for line in lines[2:]]
    assert [name for *_, name in rows] == sorted(path.name for path in (src / "hypmin").glob("*.py"))
    for n, _, _, name in rows:
        assert int(n) == len((src / "hypmin" / name).read_text(encoding="utf-8").splitlines())
    assert total == [*[str(sum(int(row[i]) for row in rows)) for i in range(3)], "total"]
    # positional, keyword-only and lambda defaults count; a bare keyword-only parameter does not
    assert script.defaults("def f(a, b=1, *, c, d=2):\n    return lambda x=0: x\n") == 3


def test_src_size_counts_the_fields_with_a_value():
    # annotated attributes with a value of every class, nested ones too; not a bare
    # annotation, an unannotated attribute, a method's local or a module-level name
    source = (
        "x: int = 0\n"
        "class A:\n    a: int = 1\n    b: int\n    c = 2\n"
        "    def f(self):\n        d: int = 3\n"
        "    class B:\n        e: int = 4\n"
    )
    assert _load("src_size").fields(source) == 2


def test_src_size_rejects_a_tree_without_hypmin(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _load("src_size").main([str(tmp_path)])
    assert exc.value.code == 2
    assert "no hypmin package under" in capsys.readouterr().err


def test_table_layers_prints_every_descriptor_and_layer(capsys):
    assert _load("table_layers").main(["--grid", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "benchmark seed 6421; median per block of at most 4096 rows, ms"
    layers = ["unique", "digits", "layout", "rows", "total", "repr_join"]
    assert lines[1].split() == ["kind", "grid", "fmt", "blocks", "distinct", *layers]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["spline2", "spline1", "scherk_patch", "hemisphere", "horosphere", "vplane", "geodesic_plane"]
    for name, grid, fmt, blocks, distinct, *ms in rows:
        assert (grid, blocks) == ("5", "1") and fmt == ("json" if name == "horosphere" else "csv")
        assert 8 <= int(distinct) <= 8 * 25  # one to 25 distinct values per column
        assert all(float(t) > 0.0 for t in ms)
    wrapped = (cli._format_column, floatrepr.slots, floatrepr.digits)
    assert [f.__name__ for f in wrapped] == ["_format_column", "slots", "digits"]  # wrappers removed


def test_table_layers_rejects_a_grid_below_one(capsys):
    with pytest.raises(SystemExit) as exc:
        _load("table_layers").main(["--grid", "0"])
    assert exc.value.code == 2
    assert "--grid must be at least 1" in capsys.readouterr().err
