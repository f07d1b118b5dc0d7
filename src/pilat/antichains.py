"""Antichains in partition lattices.

An antichain is a set of pairwise incomparable partitions; it is maximal
when every partition outside it is comparable to some member.  Maximality
is decided by streaming the whole lattice, so it is gated on small n.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .enumeration import atoms, coatoms, iter_partitions
from .partitions import Partition, _check_cap, comparable

ANTICHAIN_CAP = 10


@dataclass(frozen=True)
class AntichainReport:
    is_antichain: bool
    is_maximal: bool | None
    witness: object = None
    """A comparable member pair, or a partition no member is comparable to.
    ``is_maximal`` is None when the maximality sweep was skipped."""


def _comparable_pair(members: list[Partition]) -> tuple[Partition, Partition] | None:
    for i, p in enumerate(members):
        for q in members[i + 1:]:
            if comparable(p, q):
                return (p, q)
    return None


def _incomparable(chosen: list[Partition], n: int) -> Iterator[Partition]:
    """Yield, in RGS order, each partition of Pi_n that is not in ``chosen``
    and is incomparable to every member of it.  ``chosen`` is read afresh
    for each candidate, so a caller may append the yielded partitions."""
    _check_cap(n, ANTICHAIN_CAP, "antichain maximality")
    have = set(chosen)  # a partition appended later is never met again
    for q in iter_partitions(n):
        if q not in have and not any(comparable(q, p) for p in chosen):
            yield q


def verify_antichain(members: Iterable[Partition], n: int, *,
                     check_maximal: bool = True) -> AntichainReport:
    """Check pairwise incomparability and (optionally) maximality in Pi_n."""
    mem = list(members)
    for p in mem:
        if p.n != n:
            raise ValueError(f"ground-set mismatch: {p.n} vs {n}")
    if len(set(mem)) != len(mem):
        raise ValueError("duplicate members")
    pair = _comparable_pair(mem)
    if pair is not None:
        return AntichainReport(False, None, witness=pair)
    if not check_maximal:
        return AntichainReport(True, None)
    witness = next(_incomparable(mem, n), None)
    return AntichainReport(True, witness is None, witness=witness)


def doubleton_antichain(n: int) -> list[Partition]:
    """All singular partitions whose one non-trivial block is a doubleton.

    These are the atoms of Pi_n: C(n, 2) partitions, pairwise incomparable,
    and jointly maximal (every non-trivial partition coarsens one of them
    and bottom refines all of them); for n = 2 the single member is top.
    """
    members = atoms(n)  # the ground-cap check comes before the n < 2 test
    if n < 2:
        raise ValueError("need n >= 2")
    return members


def bipartition_antichain(n: int) -> list[Partition]:
    """All two-block partitions: the coatoms, 2^(n-1) - 1 of them.

    Pairwise incomparable, and maximal: every partition with two or more
    blocks refines some two-block partition, and top coarsens them all.
    """
    members = coatoms(n)
    if n < 2:
        raise ValueError("need n >= 2")
    return members


def extend_to_maximal_antichain(members: Iterable[Partition], n: int) -> list[Partition]:
    """Greedy completion to a maximal antichain, scanning in RGS order.

    Deterministic: candidates are tried in enumeration order and added
    whenever they stay incomparable to everything chosen so far.  The
    result contains the input; feeding a maximal antichain returns it
    unchanged (up to order).
    """
    chosen = list(dict.fromkeys(members))
    if not verify_antichain(chosen, n, check_maximal=False).is_antichain:
        raise ValueError("input is not an antichain")
    for q in _incomparable(chosen, n):
        chosen.append(q)
    return chosen
