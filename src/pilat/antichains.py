"""Antichains in partition lattices.

An antichain is a set of pairwise incomparable partitions; it is maximal
when every partition outside it is comparable to some member.  Maximality
is decided by streaming the whole lattice, so it is gated on small n.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
    _check_cap(n, ANTICHAIN_CAP, "antichain maximality")
    mem_set = set(mem)
    for q in iter_partitions(n):
        if q in mem_set:
            continue
        if not any(comparable(q, p) for p in mem):
            return AntichainReport(True, False, witness=q)
    return AntichainReport(True, True)


def doubleton_antichain(n: int) -> list[Partition]:
    """All singular partitions whose one non-trivial block is a doubleton.

    These are the atoms of Pi_n: C(n, 2) partitions, pairwise incomparable,
    and jointly maximal (every non-trivial partition coarsens one of them
    and bottom refines all of them); for n = 2 the single member is top.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return atoms(n)


def bipartition_antichain(n: int) -> list[Partition]:
    """All two-block partitions: the coatoms, 2^(n-1) - 1 of them.

    Pairwise incomparable, and maximal: every partition with two or more
    blocks refines some two-block partition, and top coarsens them all.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return coatoms(n)


def extend_to_maximal_antichain(members: Iterable[Partition], n: int) -> list[Partition]:
    """Greedy completion to a maximal antichain, scanning in RGS order.

    Deterministic: candidates are tried in enumeration order and added
    whenever they stay incomparable to everything chosen so far.  The
    result contains the input; feeding a maximal antichain returns it
    unchanged (up to order).
    """
    mem = list(members)
    for p in mem:
        if p.n != n:
            raise ValueError(f"ground-set mismatch: {p.n} vs {n}")
    if _comparable_pair(mem) is not None:
        raise ValueError("input is not an antichain")
    _check_cap(n, ANTICHAIN_CAP, "antichain maximality")
    chosen = list(dict.fromkeys(mem))
    have = set(chosen)
    for q in iter_partitions(n):
        if q in have:
            continue
        if not any(comparable(q, p) for p in chosen):
            chosen.append(q)
            have.add(q)
    return chosen
