"""Oracles shared by the test modules: slow, obviously right, not in the package."""
from pilat import Partition, is_complement, iter_partitions
from pilat.complements import ORACLE_CAP
from pilat.partitions import _check_cap


def naive_complements(p: Partition) -> list[Partition]:
    """Oracle: filter the whole lattice.  Only sensible for small n."""
    _check_cap(p.n, ORACLE_CAP, "complement oracle")
    return [q for q in iter_partitions(p.n) if is_complement(p, q)]
