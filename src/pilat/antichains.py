"""Antichains in partition lattices.

An antichain is a set of pairwise incomparable partitions; it is maximal
when every partition outside it is comparable to some member.  Maximality
is decided by one depth-first walk over the restricted-growth-string tree
of Pi_n, with the members as the bits of two integers (see
``_incomparable``); the walk is exhaustive, so it is gated on small n.
"""
from __future__ import annotations

from typing import Iterable, Iterator

from ._frozen import FrozenRecord
from .enumeration import atoms, coatoms
from .partitions import (Partition, _block_text, _check_cap, _check_size, _checked_members,
                         _mask_elements, _trusted)


class AntichainReport(FrozenRecord):
    """The verdict on an antichain.  ``witness`` is a comparable member
    pair, or a partition no member is comparable to.  ``is_maximal`` is
    None when the maximality sweep was skipped."""

    __slots__ = ("is_antichain", "is_maximal", "witness")

    def __init__(self, is_antichain: bool, is_maximal: bool | None, witness: object = None):
        self._set(is_antichain, is_maximal, witness)


def _comparable_pair(members: list[Partition]) -> tuple[Partition, Partition] | None:
    """The first pair (members[i], members[k]), i < k, of which one refines
    the other, or None.

    The members are distinct, so two with the same block count are
    incomparable, and of two with different counts only the one with more
    blocks can be the finer; each pair takes at most one ``<=`` test.
    """
    counts = [p.block_count for p in members]
    if len(set(counts)) <= 1:
        return None
    for i, p in enumerate(members):
        for k in range(i + 1, len(members)):
            q = members[k]
            if counts[i] > counts[k] and p <= q or counts[i] < counts[k] and q <= p:
                return (p, q)
    return None


def _incomparable(chosen: list[Partition], n: int) -> Iterator[Partition]:
    """Yield, in RGS order, each partition q of Pi_n that is incomparable to
    every member of ``chosen`` and to every partition yielded before it: the
    greedy completion of ``chosen`` to a maximal antichain.  Its first item
    is the first partition incomparable to all of ``chosen``.

    It is the walk of ``iter_partitions`` (see ``enumeration``) and cuts no
    subtree: one iterative depth-first walk visits every prefix of q in
    lexicographic RGS order (Knuth, TAOCP 4A, 7.2.1.5), placing element e
    into an open block or a new one.  Member i is bit i of two integers:

    * ``leq``: the members a for which q <= a is still possible, i.e. each
      placed element lies in the a-block of the least element of its q-block;
    * ``geq``: the members a for which a <= q is still possible, i.e. each
      placed element lies in one q-block with the least element of its
      a-block.

    Two tables over the members, built once, update them per step:
    ``same[e][f]`` holds the members with e and f in one block, and
    ``first[e][f]`` the members whose block holding e has least element f
    (f <= e).  Putting e into the block B with least element ``anchor`` does
    ``leq &= same[e][anchor]`` and ``geq &= first[e][e] | OR of first[e][f]
    over f in B``; opening a new block does ``geq &= first[e][e]``.  The
    bitsets only lose bits, so a leaf with both 0 is a witness, and once both
    are 0 at an inner node the first witness below puts every remaining
    element in block 0, which the walk reaches without reading the tables.
    A member is comparable to itself, so no member is ever yielded.

    A yielded q gets a new bit and new table entries, and its bit is set in
    the saved bitsets of every depth: each of them belongs to a prefix of q,
    so both relations to q are still possible there.
    """
    _check_cap(n, "antichain maximality")
    same = [[0] * (e + 1) for e in range(n)]
    first = [[0] * (e + 1) for e in range(n)]
    leq = [0] * (n + 1)  # leq[d], geq[d]: the bitsets of the prefix of length d
    geq = [0] * (n + 1)

    def add(p: Partition, bit: int) -> None:
        for m in p.masks:
            block = _mask_elements(m)
            for i, e in enumerate(block):
                first[e][block[0]] |= bit
                row = same[e]
                for f in block[:i]:
                    row[f] |= bit
        for d in range(n + 1):
            leq[d] |= bit
            geq[d] |= bit

    for i, p in enumerate(chosen):
        add(p, 1 << i)
    bit = 1 << len(chosen)
    label = [0] * n         # label[e]: the q-block of e on the current path
    blocks: list[list[int]] = []  # the q-blocks of the current prefix
    e, j = 0, 0             # place element e into block j next
    while True:
        if e == n:
            if not leq[n] | geq[n]:
                q = _trusted(n, [sum(1 << f for f in b) for b in blocks])
                yield q
                add(q, bit)
                bit <<= 1
        elif j <= len(blocks):
            lq, gq = leq[e], geq[e]
            if j == len(blocks):
                blocks.append([e])
                gq &= first[e][e]
            else:
                block = blocks[j]
                if lq | gq:  # else both stay 0 and no table is read
                    lq &= same[e][block[0]]
                    row = first[e]
                    g = row[e]
                    for f in block:
                        g |= row[f]
                    gq &= g
                block.append(e)
            label[e] = j
            e += 1
            leq[e], geq[e] = lq, gq
            j = 0
            continue
        # every label of element e is done: back up to element e - 1
        e -= 1
        if e < 0:
            return
        j = label[e]
        block = blocks[j]
        block.pop()
        if not block:
            blocks.pop()
        j += 1


def verify_antichain(members: Iterable[Partition], n: int, *,
                     check_maximal: bool = True) -> AntichainReport:
    """Check pairwise incomparability and (optionally) maximality in Pi_n."""
    mem = _checked_members(members, n)
    if not check_maximal:  # else the maximality walk checks n against its own cap
        _check_size(n)
    if len(set(mem)) != len(mem):
        raise ValueError("duplicate members")
    pair = _comparable_pair(mem)
    if pair is not None:
        return AntichainReport(False, None, witness=pair)
    if not check_maximal:
        return AntichainReport(True, None)
    witness = next(_incomparable(mem, n), None)
    return AntichainReport(True, witness is None, witness=witness)


def _check_pairs(n: int) -> None:
    """The refusals of the constructions below: the ground cap, then n < 2."""
    _check_size(n)
    if n < 2:
        raise ValueError("need n >= 2")


def doubleton_antichain(n: int) -> list[Partition]:
    """All singular partitions whose one non-trivial block is a doubleton.

    These are the atoms of Pi_n: C(n, 2) partitions, pairwise incomparable,
    and jointly maximal (every non-trivial partition coarsens one of them
    and bottom refines all of them); for n = 2 the single member is top.
    """
    _check_pairs(n)
    return atoms(n)


def bipartition_antichain(n: int) -> list[Partition]:
    """All two-block partitions: the coatoms, 2^(n-1) - 1 of them.

    Pairwise incomparable, and maximal: every partition with two or more
    blocks refines some two-block partition, and top coarsens them all.
    """
    _check_pairs(n)
    return coatoms(n)


def _bipartition_lines(n: int) -> Iterator[str]:
    """The text of each member of ``bipartition_antichain(n)``, in the same
    order, with the same refusals, made at call time.  Each block occurs in
    one member only, so each text is built from its mask and not kept."""
    _check_pairs(n)
    full = (1 << n) - 1
    return (f"{_block_text(a)}|{_block_text(full ^ a)}"
            for a in range(1, full, 2))  # a holds 0, so it is the first block


def extend_to_maximal_antichain(members: Iterable[Partition], n: int) -> list[Partition]:
    """Greedy completion to a maximal antichain, scanning in RGS order.

    Deterministic: candidates are tried in enumeration order and added
    whenever they stay incomparable to everything chosen so far.  The
    result contains the input; feeding a maximal antichain returns it
    unchanged (up to order).
    """
    chosen = list(dict.fromkeys(_checked_members(members, n)))
    if _comparable_pair(chosen) is not None:
        raise ValueError("input is not an antichain")
    return chosen + list(_incomparable(chosen, n))
