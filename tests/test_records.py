"""Value semantics of the package's record and value classes.

The eight records of the table are __slots__ classes on
``_frozen.FrozenRecord``: the six reports and, validating their fields,
KeyframePlan and PartitionShape.  All eight compare and hash by their
fields, refuse attribute assignment and deletion, print as
``Name(field=value, ...)``, and survive pickle, copy and deepcopy.  No class
of the package is a tuple, so no record equals a plain tuple.

Every frozen class of the package but Ordinal, which is equal by identity,
is a ``_frozen.FrozenRecord`` and defines no equality or hashing of its own.
Six value classes are written to in turn: Ordinal, Cardinal,
PartitionShape, KeyframePlan, Partition and ContinuumModel.  Each refuses
assignment, a new attribute and deletion, and the process-wide values ONE,
ALEPH0 and GCH answer as before after every refused attempt.  ContinuumModel's
``continuum`` is a read-only mapping, and the model survives pickle at
every protocol, copy and deepcopy.  A partition pickles and copies as
``Partition(n, masks)``: the copy holds no cached field, and loading a
pickle validates it as the constructor does.
"""
import copy
import importlib
import inspect
import pickle
import pkgutil

import pytest

import pilat
from pilat import (ALEPH0, GCH, AntichainReport, CardinalInterval, ChainBounds, ChainReport,
                   ContinuumModel, KeyframePlan, NonOrthoWitness, OrthoReport, Partition,
                   PartitionShape, aleph, bottom, fin, parse_ordinal, power_of_two)
from pilat._frozen import Frozen, FrozenRecord
from pilat.cardinal import ONE, Cardinal, Ordinal
from pilat.cli import _Arg
from pilat.partitions import _trusted

# (class, a function building every field afresh in declaration order,
#  the defaulted trailing fields with their defaults)
RECORDS = [
    (AntichainReport,
     lambda: {"is_antichain": False, "is_maximal": None,
              "witness": (Partition.parse("0|1 2", 3), Partition.parse("0 1 2", 3))},
     {"witness": None}),
    (ChainReport,
     lambda: {"is_chain": True, "is_saturated": False, "is_maximal": False,
              "witness": Partition.parse("0 1|2", 3)},
     {"witness": None}),
    (OrthoReport,
     lambda: {"ok": False, "violated_axiom": "iii",
              "witness": (Partition.parse("0|1", 2), Partition.parse("0 1", 2))},
     {"violated_axiom": None, "witness": None}),
    (NonOrthoWitness,
     lambda: {"n": 5, "atom_count": 10, "coatom_count": 15, "reason": "counts differ"},
     {}),
    (CardinalInterval,
     lambda: {"lo": aleph(1), "hi": aleph(3)},
     {}),
    (ChainBounds,
     lambda: {"kappa": aleph(1), "well_ordered_low": aleph(1), "well_ordered_high": aleph(1),
              "long_chain_exceeds": aleph(1), "short_chain_in_pow": aleph(1)},
     {}),
    (KeyframePlan,
     lambda: {"k": 2},
     {}),
    (PartitionShape,
     lambda: {"kappa": aleph(0), "full_blocks": 0, "residue": None, "trivial": True},
     {"residue": None, "trivial": False}),
]


@pytest.mark.parametrize("cls, make, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_values(cls, make, defaults):
    fields = make()
    rec = cls(*fields.values())
    again = cls(**make())  # equal but distinct field values
    assert rec == again and hash(rec) == hash(again)
    assert repr(rec) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    assert [getattr(rec, name) for name in fields] == list(fields.values())

    name = next(iter(fields))
    for mutate in (lambda: setattr(rec, name, fields[name]),
                   lambda: setattr(rec, "extra", 1),
                   lambda: delattr(rec, name)):
        with pytest.raises(AttributeError):
            mutate()
    assert rec == again
    for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(twin) is cls and twin == rec and repr(twin) == repr(rec)

    required = list(fields.values())[:len(fields) - len(defaults)]
    short = cls(*required)
    assert short == cls(*required, *defaults.values())
    assert short == cls(**{k: v for k, v in fields.items() if k not in defaults})
    assert {k: getattr(short, k) for k in defaults} == defaults
    if defaults:
        assert short != rec  # each table entry sets some defaulted field


# (a value of each of the six frozen classes, shared ones where they exist,
#  and one of its fields; a partition also keeps its cached fields)
VALUES = {
    "Ordinal": (lambda: ONE, "terms"),
    "Cardinal": (lambda: ALEPH0, "index"),
    "PartitionShape": (lambda: PartitionShape(ALEPH0, 1, fin(3)), "residue"),
    "KeyframePlan": (lambda: KeyframePlan(2), "k"),
    "Partition": (lambda: bottom(3), "n"),
    "Partition-cached": (lambda: bottom(3), "labels"),
    "ContinuumModel": (lambda: GCH, "gch"),
}


def _shared_values_answer():
    assert parse_ordinal("1") is ONE
    assert power_of_two(ALEPH0) == aleph(1)


@pytest.mark.parametrize("case", VALUES)
def test_values_refuse_every_write(case):
    make, name = VALUES[case]
    value = make()
    field, text = getattr(value, name), repr(value)
    refused = f"^{type(value).__name__} is immutable$"
    for mutate in (lambda: setattr(value, name, field),
                   lambda: setattr(value, name, None),
                   lambda: setattr(value, "extra", 1),
                   lambda: delattr(value, name),
                   lambda: delattr(value, "extra")):
        with pytest.raises(AttributeError, match=refused):
            mutate()
        _shared_values_answer()
    assert getattr(value, name) is field and repr(value) == text


@pytest.mark.parametrize("model", [GCH, ContinuumModel(), ContinuumModel(continuum={2: 3, 1: 3})],
                         ids=["GCH", "empty", "pinned"])
def test_models_round_trip_with_a_read_only_continuum(model):
    twins = [pickle.loads(pickle.dumps(model, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (model, *twins, copy.copy(model), copy.deepcopy(model)):
        assert type(twin) is ContinuumModel and twin.gch is model.gch
        assert list(twin.continuum.items()) == list(model.continuum.items())
        assert repr(twin) == repr(model)
        assert twin == model and hash(twin) == hash(model)
        with pytest.raises(TypeError):
            twin.continuum[ONE] = ONE
        with pytest.raises(TypeError):
            del twin.continuum[ONE]
    _shared_values_answer()


def test_models_are_equal_by_their_pins():
    assert ContinuumModel() == ContinuumModel() and ContinuumModel() != GCH
    assert ContinuumModel(gch=True) == GCH and hash(ContinuumModel(gch=True)) == hash(GCH)
    pinned = ContinuumModel(continuum={1: 3, 2: 3})
    assert ContinuumModel(continuum={2: 3, 1: 3}) == pinned  # pins are sorted
    assert ContinuumModel(continuum={1: 3}) != pinned != ContinuumModel(continuum={1: 3, 2: 4})
    assert len({GCH, ContinuumModel(gch=True), ContinuumModel(), ContinuumModel()}) == 2
    assert pinned != (False, tuple(pinned.continuum.items()))  # same class only


def test_every_frozen_value_but_ordinal_is_a_record():
    frozen = {cls for module in vars(pilat).values() if inspect.ismodule(module)
              for cls in vars(module).values()
              if inspect.isclass(cls) and issubclass(cls, Frozen)
              and cls.__module__ == module.__name__}
    records = {Cardinal, PartitionShape, KeyframePlan, Partition, ContinuumModel,
               AntichainReport, ChainReport, OrthoReport, NonOrthoWitness, CardinalInterval,
               ChainBounds, _Arg}
    assert frozen - {Frozen, FrozenRecord} == records | {Ordinal}
    assert not issubclass(Ordinal, FrozenRecord)
    for cls in records:
        assert issubclass(cls, FrozenRecord)
        for name in ("__eq__", "__hash__", "_key"):
            assert name not in vars(cls), (cls.__name__, name)


def test_no_class_of_the_package_is_a_tuple():
    modules = [importlib.import_module(f"pilat.{info.name}")
               for info in pkgutil.iter_modules(pilat.__path__)]
    classes = [cls for module in modules for cls in vars(module).values()
               if inspect.isclass(cls) and cls.__module__ == module.__name__]
    assert _Arg in classes and ChainReport in classes
    assert [cls for cls in classes if issubclass(cls, tuple)] == []


@pytest.mark.parametrize("p", [Partition(0, ()), bottom(3), Partition.parse("0 2|1|3 4", 5)],
                         ids=["empty", "bottom", "mixed"])
def test_partitions_copy_as_their_fields(p):
    p.labels, p.blocks, p <= p  # fill the cached fields
    twins = [pickle.loads(pickle.dumps(p, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (*twins, copy.copy(p), copy.deepcopy(p)):
        assert type(twin) is Partition and twin is not p
        assert twin == p and hash(twin) == hash(p) and repr(twin) == repr(p)
        assert vars(twin) == {"n": p.n, "masks": p.masks}


def test_partition_pickles_are_checked_on_load(monkeypatch):
    data = pickle.dumps(bottom(5))
    monkeypatch.setenv("PILAT_MAX_N", "4")
    with pytest.raises(ValueError, match=r"^ground-set cap 4: n=5 outside 0\.\.4$"):
        pickle.loads(data)
    monkeypatch.delenv("PILAT_MAX_N")
    assert pickle.loads(data) == bottom(5)
    forged = pickle.dumps(_trusted(2, (0b11, 0b11)))  # overlapping masks, made unchecked
    with pytest.raises(ValueError, match="^blocks must be disjoint and cover 0..n-1$"):
        pickle.loads(forged)
