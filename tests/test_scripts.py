"""The experiment scripts under scripts/ run to completion at small sizes."""
import importlib.util
import os
import subprocess
import sys
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


def test_census_sweep_counts(capsys):
    # n, partitions, complements, max-total, formula-ok; the seconds column varies
    assert _load("census_sweep").run(max_n=4) == 0
    out, err = capsys.readouterr()
    assert err == ""
    header, *rows = out.splitlines()
    assert header.split() == ["n", "partitions", "complements", "max-total",
                              "formula-ok", "seconds"]
    assert [row.split()[:-1] for row in rows] == [
        ["1", "1", "1", "1", "1/1"],
        ["2", "2", "2", "1", "2/2"],
        ["3", "5", "8", "2", "5/5"],
        ["4", "15", "56", "6", "15/15"],
    ]


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


@pytest.mark.parametrize("env,kwargs,message", [
    (None, {"max_k": 8}, "k=8 needs 2^k elements within the ground cap 128"),
    (None, {"count_n": 7}, "maximal-chain cap 6: n=7 outside 0..6"),
    (None, {"max_k": 0}, "--max-k must be at least 1, got 0"),
    (None, {"max_k": -1}, "--max-k must be at least 1, got -1"),
    ("3", {}, "k=3 needs 2^k elements within the ground cap 3"),
    ("3", {"max_k": 1}, "maximal-chain cap 3: n=5 outside 0..3"),
])
def test_chain_gallery_refuses_before_the_first_line(capsys, monkeypatch, env, kwargs, message):
    if env is None:
        monkeypatch.delenv("PILAT_MAX_N", raising=False)
    else:
        monkeypatch.setenv("PILAT_MAX_N", env)
    assert _load("chain_gallery").run(**kwargs) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("env,kwargs,message", [
    (None, {"max_n": 130}, "ground-set cap 128: n=130 outside 0..128"),
    ("3", {"max_n": 4}, "ground-set cap 3: n=4 outside 0..3"),
])
def test_ortho_audit_refuses_before_the_first_row(capsys, monkeypatch, env, kwargs, message):
    if env is None:
        monkeypatch.delenv("PILAT_MAX_N", raising=False)
    else:
        monkeypatch.setenv("PILAT_MAX_N", env)
    assert _load("ortho_audit").run(**kwargs) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("name,args", [
    ("census_sweep", ["--max-n", "7"]),  # each row waits for its census
    ("chain_gallery", ["--max-k", "7"]),  # more lines than a pipe holds
    ("ortho_audit", ["--max-n", "12"]),  # the first row comes before the searches of n >= 2
])
def test_script_stops_quietly_when_its_reader_leaves(name, args):
    # the child writes each line as it prints it (-u); its reader takes the
    # first line and closes the pipe, so the lines after it meet a closed pipe
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
    proc = subprocess.Popen([sys.executable, "-u", str(SCRIPTS / f"{name}.py"), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert first and err == b""
