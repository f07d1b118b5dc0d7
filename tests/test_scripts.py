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
