"""The experiment scripts under scripts/ run to completion at small sizes."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,kwargs", [
    ("census_sweep", {"max_n": 4}),
    ("chain_gallery", {"max_k": 2, "count_n": 4}),
    ("ortho_audit", {"max_n": 6}),
])
def test_script_runs(capsys, name, kwargs):
    assert _load(name).run(**kwargs) == 0
    assert "MISMATCH" not in capsys.readouterr().out


@pytest.mark.parametrize("env,kwargs,message", [
    ("3", {"max_n": 4}, "census cap 3: n=4 outside 0..3"),
    (None, {"max_n": 10}, "census cap 9: n=10 outside 0..9"),
])
def test_census_sweep_refuses_before_the_first_row(capsys, monkeypatch, env, kwargs, message):
    if env is None:
        monkeypatch.delenv("PILAT_MAX_N", raising=False)
    else:
        monkeypatch.setenv("PILAT_MAX_N", env)
    assert _load("census_sweep").run(**kwargs) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_census_sweep_has_no_jobs_option(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["census_sweep.py", "--jobs", "2"])
    with pytest.raises(SystemExit) as exc:
        _load("census_sweep").main()
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--jobs" in err
