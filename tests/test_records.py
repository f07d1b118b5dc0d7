"""Value semantics of the package's record classes.

The six plain records are NamedTuples; KeyframePlan and PartitionShape,
which validate their fields, are __slots__ classes.  All eight compare and
hash by their fields, refuse attribute assignment and deletion, print as
``Name(field=value, ...)``, and survive pickle, copy and deepcopy.
"""
import copy
import pickle

import pytest

from pilat import (AntichainReport, CardinalInterval, ChainBounds, ChainReport, KeyframePlan,
                   NonOrthoWitness, OrthoReport, Partition, PartitionShape, aleph)

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
