import importlib.util
from pathlib import Path

import pytest

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
