"""The benchmark's tracer still finds every name it wraps, and puts each back.

``bench/tracing.py`` looks its spans up by name; a renamed or deleted
library name would make ``bench/run.py --trace`` fail at install.
"""
import importlib.util
import sys
from pathlib import Path

# install() wraps names in every pilat module, cli too; the lazy package
# loads none of them until asked
from pilat import antichains, cardinal, chains, cli, complements, enumeration, ortho  # noqa: F401
from pilat.cardinal import ContinuumModel
from pilat.partitions import Partition

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("pilat_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every namespace the tracer may patch: the pilat modules and the traced classes."""
    spaces = {name: mod for name, mod in sys.modules.items()
              if name == "pilat" or name.startswith("pilat.")}
    spaces["Partition"] = Partition
    spaces["ContinuumModel"] = ContinuumModel
    return spaces


def _snapshot():
    return {name: dict(vars(space)) for name, space in _namespaces().items()}


def _changed(before):
    now = _snapshot()
    return sorted(f"{name}.{attr}" for name, attrs in before.items()
                  for attr, value in attrs.items() if now[name].get(attr) is not value)


def test_tracer_installs_and_restores_every_original():
    tracing = _load_tracing()
    before = _snapshot()
    tracer = tracing.install()
    try:
        wrapped = _changed(before)
        assert "pilat.enumeration.iter_partitions" in wrapped
        assert "Partition.__init__" in wrapped
        assert "pilat.cli.main" in wrapped
    finally:
        tracer.uninstall()
    assert _changed(before) == []
