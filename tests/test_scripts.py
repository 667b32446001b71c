import importlib.util
from pathlib import Path

import pytest

from hypmin import search

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
