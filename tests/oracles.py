"""Oracles shared by the test modules: slow, obviously right, not in the package."""
from pilat import Cardinal, Ordinal, Partition, is_complement, iter_partitions
from pilat.complements import ORACLE_CAP
from pilat.partitions import _check_cap


def naive_complements(p: Partition) -> list[Partition]:
    """Oracle: filter the whole lattice.  Only sensible for small n."""
    _check_cap(p.n, ORACLE_CAP, "complement oracle")
    return [q for q in iter_partitions(p.n) if is_complement(p, q)]


def ordinal_key(o: Ordinal) -> tuple:
    """Oracle: a tuple in the order of ``o``.  Cantor normal forms compare
    term by term, exponent before coefficient, and a form that another
    extends is the smaller; tuples compare the same way."""
    return tuple((ordinal_key(e), c) for e, c in o.terms)


def cardinal_key(c: Cardinal) -> tuple:
    """Oracle: the tuple order of the cardinals, finite ones by value and
    below every aleph, alephs by index."""
    return (0, c.finite) if c.is_finite else (1, ordinal_key(c.index))
