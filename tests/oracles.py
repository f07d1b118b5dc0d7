"""Oracles shared by the test modules: slow, obviously right, not in the package."""
from pilat import (Cardinal, Ordinal, Partition, complement_census, grieser_count, is_complement,
                   iter_partitions)
from pilat.partitions import _check_cap

ORACLE_CAP = 7


def naive_complements(p: Partition) -> list[Partition]:
    """Oracle: filter the whole lattice.  Only sensible for small n."""
    _check_cap(p.n, "complement oracle", ORACLE_CAP)
    return [q for q in iter_partitions(p.n) if is_complement(p, q)]


def census_rows(n: int) -> list[str]:
    """Oracle: the CSV rows of ``complements census --n n`` without its two
    header lines, formatted from ``complement_census(n)`` and
    ``grieser_count`` one partition at a time."""
    rows = []
    for p, total, count_nm1 in complement_census(n):
        sizes = "+".join(map(str, p.block_sizes))
        rows.append(f"{p},{p.block_count},{sizes},{total},{count_nm1},{grieser_count(p)}")
    return rows


def relative_complement_in(b: Partition, a: Partition, c: Partition) -> Partition | None:
    """Oracle: some z with a <= z <= c, b & z == a and b | z == c, if one
    exists.  Brute force over Pi_n; partition lattices are relatively
    complemented, so for a <= b <= c this always finds one."""
    if not (a <= b and b <= c):
        raise ValueError("need a <= b <= c")
    _check_cap(b.n, "complement oracle", ORACLE_CAP)
    for z in iter_partitions(b.n):
        if a <= z and z <= c and (b & z) == a and (b | z) == c:
            return z
    return None


def ordinal_key(o: Ordinal) -> tuple:
    """Oracle: a tuple in the order of ``o``.  Cantor normal forms compare
    term by term, exponent before coefficient, and a form that another
    extends is the smaller; tuples compare the same way."""
    return tuple((ordinal_key(e), c) for e, c in o.terms)


def cardinal_key(c: Cardinal) -> tuple:
    """Oracle: the tuple order of the cardinals, finite ones by value and
    below every aleph, alephs by index."""
    return (0, c.finite) if c.is_finite else (1, ordinal_key(c.index))
