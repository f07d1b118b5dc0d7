"""Complements in partition lattices.

Q is a complement of P when P meet Q is bottom and P join Q is top.
Equivalently: every block of Q shares at most one element with every block
of P (meet condition), and the union of both block structures connects the
whole ground set (join condition).

The module provides a naive filtering oracle, a pruned backtracking
enumerator that must agree with it, the classic product formula for the
number of complements with exactly n - m + 1 blocks, a census that checks
that formula over all of Pi_n, and two explicit constructions that each
produce families of pairwise distinct complements.

The enumerator and the census share one iterative depth-first walk over the
restricted growth strings of Q, ``_frontier``.  It stops at the last
element and yields the open blocks of Q with the index list of the blocks
that element may join (the open-block count meaning a new block), one index
per complement.  ``enumerate_complements`` builds one partition per index;
the census only adds up the lists and builds none.  The yielded block list
is live, so a consumer copies it before the walk's next step.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Iterator, Mapping

from .enumeration import LatticeUniverse, enumerate_partitions, iter_partitions
from .partitions import (Partition, _check_cap, _checked_members, _join_masks, _trusted,
                         _with_singletons)

COMPLEMENT_CAP = 11
CENSUS_CAP = 9
ORACLE_CAP = 7


def is_complement(p: Partition, q: Partition) -> bool:
    """True iff p & q is bottom and p | q is top."""
    p._check_ground(q)
    for b in p.masks:
        for c in q.masks:
            x = b & c
            if x & (x - 1):  # two or more shared elements
                return False
    # meet is bottom; join is top iff the two block structures connect
    return len(_join_masks(p.n, p.masks + q.masks)) <= 1


def naive_complements(p: Partition, universe: LatticeUniverse | None = None) -> list[Partition]:
    """Oracle: filter the whole lattice.  Only sensible for small n."""
    if universe is None:
        _check_cap(p.n, ORACLE_CAP, "complement oracle")
        universe = enumerate_partitions(p.n)
    else:
        universe = _checked_members(universe, p.n)
    return [q for q in universe if is_complement(p, q)]


def _frontier(p: Partition) -> Iterator[tuple[list[int], list[int]]]:
    """The live nodes of the complement walk at the last element, in RGS order.

    One iterative depth-first walk visits the restricted growth strings of
    the candidate Q in lexicographic order (Knuth, TAOCP 4A, 7.2.1.5),
    placing element e into an open block of Q or a new one.  A block may
    take at most one element per block of p (else the meet is not bottom).
    Connectivity is tracked by a union-find over p's blocks: a placement
    fuses at most two pieces, the root it absorbs is kept per depth and
    undone on the way back, and a branch dies as soon as the remaining
    placements cannot reach one piece.

    The walk stops one level short of the leaves.  When elements 0..n-2 are
    placed and a complement can still be reached, it yields ``(qmask,
    idx)``: ``qmask`` holds the elements of each open block of Q, and
    ``idx`` lists, in ascending order, the blocks the last element n - 1
    may join to finish a complement, where ``len(qmask)`` means a new
    block.  Each index is one complement, so ``idx`` is never empty.  The
    ``qmask`` list is live: the walk changes it in place when the consumer
    asks for the next node, so a consumer that keeps it copies it first.
    Needs n >= 1.
    """
    n = p.n
    last = n - 1
    pblock = p.labels
    lastblock = pblock[last]
    lastbit = 1 << lastblock
    parent = list(range(p.block_count))  # union-find over p's blocks
    pieces = p.block_count    # its roots: the pieces Q's prefix has not yet joined
    absorbed = [-1] * n       # absorbed[e]: the root that placing e joined to another, or -1
    label = [0] * n           # label[e]: the Q-block of e on the current path
    qmask: list[int] = []     # elements of each open block of Q
    qused: list[int] = []     # bitmask of p-block indices present in it
    qanchor: list[int] = []   # p-block of the block's first element
    k = 0                     # len(qmask): the open blocks
    e, j = 0, 0               # place element e into block j next
    while True:
        if e == last:
            # the last element must leave one piece: with one piece left any
            # block without its p-block will do, and so will a new block;
            # with two, only a block of the other piece
            if pieces == 1:
                idx = [i for i in range(k) if not qused[i] & lastbit]
                idx.append(k)
                yield qmask, idx
            elif pieces == 2:
                r = lastblock
                while parent[r] != r:
                    r = parent[r]
                idx = []
                for i in range(k):
                    a = qanchor[i]
                    while parent[a] != a:
                        a = parent[a]
                    if a != r:
                        idx.append(i)
                yield qmask, idx
        elif pieces - 1 <= n - e:  # else the remaining placements cannot connect the pieces
            pb = pblock[e]
            bit = 1 << pb
            while j < k and qused[j] & bit:
                j += 1
            if j <= k:
                absorbed[e] = -1
                if j == k:
                    qmask.append(1 << e)
                    qused.append(bit)
                    qanchor.append(pb)
                    k += 1
                else:
                    qmask[j] |= 1 << e
                    qused[j] |= bit
                    a = qanchor[j]
                    while parent[a] != a:
                        a = parent[a]
                    while parent[pb] != pb:
                        pb = parent[pb]
                    if pb != a:
                        parent[pb] = a
                        absorbed[e] = pb
                        pieces -= 1
                label[e] = j
                e += 1
                j = 0
                continue
        # every block for element e is done: back up to element e - 1
        e -= 1
        if e < 0:
            return
        j = label[e]
        if qmask[j] == 1 << e:  # e opened block j, the last one
            qmask.pop()
            qused.pop()
            qanchor.pop()
            k -= 1
        else:
            qmask[j] ^= 1 << e
            qused[j] ^= 1 << pblock[e]
            root = absorbed[e]
            if root >= 0:
                parent[root] = root
                pieces += 1
        j += 1


def enumerate_complements(p: Partition) -> list[Partition]:
    """All complements of p, by pruned backtracking, in RGS order.

    Each node that ``_frontier`` yields becomes one complement per index:
    the last element joins that open block, or opens a new one.
    """
    n = p.n
    _check_cap(n, COMPLEMENT_CAP, "complement enumeration")
    if n == 0:
        return [_trusted(0, ())]
    bit = 1 << (n - 1)
    out: list[Partition] = []
    for qmask, idx in _frontier(p):
        k = len(qmask)
        for j in idx:
            if j == k:
                out.append(_trusted(n, [*qmask, bit]))
            else:
                masks = qmask.copy()
                masks[j] |= bit
                out.append(_trusted(n, masks))
    return out


def grieser_count(p: Partition) -> int:
    """Predicted number of complements of p with exactly n - m + 1 blocks,
    where m is p's block count: the product of the block sizes times
    (n - m + 1)^(m - 2).  The one-block partition counts 1 (its only
    complement is bottom), as does the n = 0 empty partition.
    """
    m = p.block_count
    if m <= 1:
        return 1
    n = p.n
    return prod(p.block_sizes) * (n - m + 1) ** (m - 2)


def _pick_pivot(p: Partition) -> int:
    for idx, mask in enumerate(p.masks):
        if mask.bit_count() >= 2:
            return idx
    raise ValueError("no block with two or more elements")


def split_transversal_complement(p: Partition, *,
                                 pivot: int | None = None,
                                 iota: int | None = None,
                                 upsilon: int | None = None,
                                 gamma: Mapping[int, int] | None = None,
                                 part_one: tuple[int, ...] = ()) -> Partition:
    """Complement built from two marked transversal blocks.

    One block of Q holds ``iota`` (a pivot-block element) plus one chosen
    element per block in ``part_one``; a second holds ``upsilon`` (another
    pivot-block element) plus one chosen element per remaining block; all
    other elements become singletons.  ``gamma`` picks the representative
    of each non-pivot block (default: its least element).  Distinct
    ``part_one`` subsets give distinct complements, so a partition with m
    blocks yields 2^(m-1) complements this way.
    """
    if pivot is None:
        pivot = _pick_pivot(p)
    if not 0 <= pivot < p.block_count:
        raise ValueError("pivot block index out of range")
    pivot_mask = p.masks[pivot]
    if pivot_mask.bit_count() < 2:
        raise ValueError("pivot block needs at least two elements")
    pivot_elems = p.blocks[pivot]
    if iota is None:
        iota = pivot_elems[0]
    if upsilon is None:
        upsilon = pivot_elems[1] if iota == pivot_elems[0] else pivot_elems[0]
    if iota == upsilon:
        raise ValueError("the two marked elements must differ")
    if not (pivot_mask >> iota) & 1 or not (pivot_mask >> upsilon) & 1:
        raise ValueError("marked elements must lie in the pivot block")
    others = [b for b in range(p.block_count) if b != pivot]
    reps = {b: p.blocks[b][0] for b in others}  # keyed by the valid non-pivot indices
    if gamma:
        for b, e in gamma.items():
            if b not in reps:
                raise ValueError(f"bad block index {b} in gamma")
            if not (p.masks[b] >> e) & 1:
                raise ValueError(f"element {e} not in block {b}")
            reps[b] = e
    ones = list(dict.fromkeys(part_one))
    if len(ones) != len(part_one):
        raise ValueError("duplicate block index in part_one")
    for b in ones:
        if b not in reps:
            raise ValueError(f"bad block index {b} in part_one")
    twos = [b for b in others if b not in set(ones)]
    q_one = (1 << iota) | sum(1 << reps[b] for b in ones)
    q_two = (1 << upsilon) | sum(1 << reps[b] for b in twos)
    return _with_singletons(p.n, [q_one, q_two])


def split_transversal_family(p: Partition) -> Iterator[Partition]:
    """The 2^(m-1) complements from all part_one subsets, default choices."""
    pivot = _pick_pivot(p)
    others = tuple(b for b in range(p.block_count) if b != pivot)
    for r in range(len(others) + 1):
        for subset in itertools.combinations(others, r):
            yield split_transversal_complement(p, pivot=pivot, part_one=subset)


def injection_complement(p: Partition, big_block: int,
                         sigma: Mapping[int, int]) -> Partition:
    """Complement pairing every element outside one block into that block.

    ``sigma`` must injectively map each element outside block ``big_block``
    to an element of it; blocks of Q are the pairs {a, sigma(a)} plus
    singletons for the unused elements of the big block.  Needs the block
    to hold at least half the ground set.  Distinct injections give
    distinct complements.
    """
    if not 0 <= big_block < p.block_count:
        raise ValueError("block index out of range")
    block_mask = p.masks[big_block]
    outside = [e for e in range(p.n) if not (block_mask >> e) & 1]
    if set(sigma.keys()) != set(outside):
        raise ValueError("injection must be defined exactly on the elements outside the block")
    used = 0
    masks = []
    for a in outside:
        b = sigma[a]
        if not (block_mask >> b) & 1:
            raise ValueError(f"image {b} is outside the block")
        bit = 1 << b
        if used & bit:
            raise ValueError("map is not injective")
        used |= bit
        masks.append((1 << a) | bit)
    return _with_singletons(p.n, masks)


def injection_complement_family(p: Partition, big_block: int) -> Iterator[Partition]:
    """All injection complements for one block, in lexicographic map order.

    Empty when the block holds fewer than half the elements (no injection
    exists).
    """
    if not 0 <= big_block < p.block_count:
        raise ValueError("block index out of range")
    inside = p.blocks[big_block]
    inside_set = set(inside)
    outside = [e for e in range(p.n) if e not in inside_set]
    if len(outside) > len(inside):
        return
    for perm in itertools.permutations(inside, len(outside)):
        yield injection_complement(p, big_block, dict(zip(outside, perm)))


@dataclass(frozen=True)
class CensusRow:
    partition: str
    m: int
    block_sizes: tuple[int, ...]
    total: int
    count_nm1: int
    grieser: int


def _census_row(p: Partition) -> CensusRow:
    """The census row of p, counted from the walk's nodes: no complement is built.

    A node with k open blocks finishes a complement with k blocks per index
    below k, and one with k + 1 blocks if k is listed.  No complement has
    more than n - m + 1 blocks (joining p's m blocks takes at least m - 1
    merges), so when k is the target every index counts.
    """
    target = p.n - p.block_count + 1
    total = count_nm1 = 0
    for qmask, idx in _frontier(p):
        total += len(idx)
        k = len(qmask)
        if k == target:
            count_nm1 += len(idx)
        elif k + 1 == target and idx[-1] == k:
            count_nm1 += 1
    return CensusRow(
        partition=p.format(),
        m=p.block_count,
        block_sizes=p.block_sizes,
        total=total,
        count_nm1=count_nm1,
        grieser=grieser_count(p),
    )


def complement_census(n: int) -> list[CensusRow]:
    """One row per partition of Pi_n, in RGS order.

    Bottom and top rows are kept (each has the single complement top resp.
    bottom).  n = 0 is rejected: the empty partition is its own complement
    but has no block to count, so the n - m + 1 column is meaningless.
    """
    _check_cap(n, CENSUS_CAP, "census")
    if n == 0:
        raise ValueError("census needs n >= 1")
    return [_census_row(p) for p in iter_partitions(n)]


def relative_complement_in(b: Partition, a: Partition, c: Partition,
                           universe: LatticeUniverse | None = None) -> Partition | None:
    """Some z with a <= z <= c, b & z == a and b | z == c, if one exists.

    Brute force over the interval [a, c]; partition lattices are
    relatively complemented, so for a <= b <= c this always finds one.
    """
    if not (a <= b and b <= c):
        raise ValueError("need a <= b <= c")
    if universe is None:
        _check_cap(b.n, ORACLE_CAP, "complement oracle")
        universe = enumerate_partitions(b.n)
    for z in universe:
        if a <= z and z <= c and (b & z) == a and (b | z) == c:
            return z
    return None
