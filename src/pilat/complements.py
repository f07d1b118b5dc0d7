"""Complements in partition lattices.

Q is a complement of P when P meet Q is bottom and P join Q is top.
Equivalently: every block of Q shares at most one element with every block
of P (meet condition), and the union of both block structures connects the
whole ground set (join condition).

The module provides a pruned backtracking enumerator, the classic product
formula for the number of complements with exactly n - m + 1 blocks, a
census that counts the complements of every partition of Pi_n (the CLI
prints the formula beside the counts), and two explicit constructions that
each produce families of pairwise distinct complements.

The enumerator is one iterative depth-first walk over the restricted
growth strings of Q, pruned by the meet and join conditions as it goes.
It stops at the last element and appends one complement per block that
element may join.

The census visits no candidate Q.  Relabelling the ground set maps
complements to complements, so a partition's two counts depend only on its
block sizes, and ``_complement_counts`` reads them from those sizes alone,
by a transfer over p's blocks.  ``complement_census`` yields the counts
beside each partition; the CLI's rows come from ``_census_lines``, which
builds them as text from the RGS walk (see ``enumeration``) and builds no
partition.
"""
from __future__ import annotations

import itertools
from math import comb, perm, prod
from typing import Iterator, Mapping

from .enumeration import _rgs_nodes, iter_partitions
from .partitions import (Partition, _BlockTexts, _check_cap, _join_masks, _mask_elements,
                         _trusted, _with_singletons)


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


def enumerate_complements(p: Partition) -> list[Partition]:
    """All complements of p, by pruned backtracking, in RGS order.

    It prunes the walk of ``iter_partitions`` (see ``enumeration``): one
    iterative depth-first walk visits the restricted growth strings of the
    candidate Q in lexicographic order (Knuth, TAOCP 4A, 7.2.1.5), placing
    element e into an open block of Q or a new one.  A block may
    take at most one element per block of p (else the meet is not bottom).
    Connectivity is tracked by a union-find over p's blocks: a placement
    fuses at most two pieces, the root it absorbs is kept per depth and
    undone on the way back, and a branch dies as soon as the remaining
    placements cannot reach one piece.

    The walk stops one level short of the leaves: with elements 0..n-2
    placed, it builds one complement per block the last element may join,
    each eligible open block in order and then a new block.
    """
    n = p.n
    _check_cap(n, "complement enumeration")
    if n == 0:
        return [_trusted(0, ())]
    last = n - 1
    pblock = p.labels
    lastblock = pblock[last]
    lastbit = 1 << lastblock
    lastelem = 1 << last      # the last element in a block mask of Q
    parent = list(range(p.block_count))  # union-find over p's blocks
    pieces = p.block_count    # its roots: the pieces Q's prefix has not yet joined
    absorbed = [-1] * n       # absorbed[e]: the root that placing e joined to another, or -1
    label = [0] * n           # label[e]: the Q-block of e on the current path
    qmask: list[int] = []     # elements of each open block of Q
    qused: list[int] = []     # bitmask of p-block indices present in it
    qanchor: list[int] = []   # p-block of the block's first element
    k = 0                     # len(qmask): the open blocks
    out: list[Partition] = []
    e, j = 0, 0               # place element e into block j next
    while True:
        if e == last:
            # the last element must leave one piece: with one piece left any
            # block without its p-block will do, and so will a new block;
            # with two, only a block of the other piece
            if pieces == 1:
                for i in range(k):
                    if not qused[i] & lastbit:
                        masks = qmask.copy()
                        masks[i] |= lastelem
                        out.append(_trusted(n, masks))
                out.append(_trusted(n, [*qmask, lastelem]))
            elif pieces == 2:
                r = lastblock
                while parent[r] != r:
                    r = parent[r]
                for i in range(k):
                    a = qanchor[i]
                    while parent[a] != a:
                        a = parent[a]
                    if a != r:
                        masks = qmask.copy()
                        masks[i] |= lastelem
                        out.append(_trusted(n, masks))
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
            return out
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


def grieser_count(p: Partition) -> int:
    """Predicted number of complements of p with exactly n - m + 1 blocks,
    where m is p's block count: the product of the block sizes times
    (n - m + 1)^(m - 2).  The one-block partition counts 1 (its only
    complement is bottom), as does the n = 0 empty partition.
    """
    return _grieser_product(p.block_sizes, p.n)


def _grieser_product(sizes: tuple[int, ...], n: int) -> int:
    """``grieser_count`` of a partition of {0..n-1} with these block sizes, in any order."""
    m = len(sizes)
    if m <= 1:
        return 1
    return prod(sizes) * (n - m + 1) ** (m - 2)


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
    ones = dict.fromkeys(part_one)  # the indices in their given order, each once
    if len(ones) != len(part_one):
        raise ValueError("duplicate block index in part_one")
    for b in ones:
        if b not in reps:
            raise ValueError(f"bad block index {b} in part_one")
    twos = [b for b in others if b not in ones]
    q_one = (1 << iota) | sum(1 << reps[b] for b in ones)
    q_two = (1 << upsilon) | sum(1 << reps[b] for b in twos)
    return _with_singletons(p.n, [q_one, q_two])


def split_transversal_family(p: Partition) -> Iterator[Partition]:
    """The 2^(m-1) complements from all part_one subsets, default choices."""
    pivot = _pick_pivot(p)  # refused at call time: this function is no generator
    others = tuple(b for b in range(p.block_count) if b != pivot)
    return (split_transversal_complement(p, pivot=pivot, part_one=subset)
            for r in range(len(others) + 1) for subset in itertools.combinations(others, r))


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
    outside = _mask_elements(((1 << p.n) - 1) & ~p.masks[big_block])
    return (injection_complement(p, big_block, dict(zip(outside, images)))
            for images in itertools.permutations(inside, len(outside)))  # none if too few inside


def complement_census(n: int) -> Iterator[tuple[Partition, int, int]]:
    """One ``(p, total, count_nm1)`` triple per partition p of Pi_n, in RGS order.

    ``total`` counts all complements of p, ``count_nm1`` those with exactly
    n - m + 1 blocks, where m is p's block count: the most blocks a
    complement can have (joining p's m blocks takes at least m - 1 merges).
    Both are counted from p's block sizes, and no candidate is visited.
    Bottom and top are kept (each has the single complement top resp.
    bottom).  n = 0 is rejected: the empty partition is its own complement
    but has no block to count, so the n - m + 1 count is meaningless.  The
    CLI's rows come from ``_census_lines``, which builds no partition.
    """
    _check_census(n)
    return ((p, *_complement_counts(p.block_sizes, n - p.block_count + 1))
            for p in iter_partitions(n))


def _check_census(n: int) -> None:
    _check_cap(n, "census")
    if n == 0:
        raise ValueError("census needs n >= 1")


def _census_lines(n: int) -> Iterator[str]:
    """The CSV row ``partition,m,block_sizes,total,count_nm1,grieser`` of each
    triple that ``complement_census(n)`` yields, in the same order.

    The rows are built as text by the third consumer of
    ``enumeration._rgs_nodes``: the leaves' literals as ``_rgs_lines``
    builds them, through one ``_BlockTexts`` for the whole run, and each
    leaf's block sizes read off the node's live masks.  Refused at call
    time, as ``complement_census`` refuses.
    """
    _check_census(n)
    return _census_rows(n)  # not a generator itself: the checks run at call time


def _census_rows(n: int) -> Iterator[str]:
    text = _BlockTexts().__getitem__  # blocks of 0..n-2: at most 2^(n-1) texts
    last = str(n - 1)
    tail = " " + last
    for masks in _rgs_nodes(n):
        texts = list(map(text, masks))
        full = "|".join(texts)
        sizes = [mask.bit_count() for mask in masks]
        end = 0
        for j, t in enumerate(texts):
            end += len(t)  # block j's text ends at full[end]
            sizes[j] += 1  # n - 1 joins block j
            yield _census_row(full[:end] + tail + full[end:], sizes, n)
            sizes[j] -= 1
            end += 1
        sizes.append(1)  # n - 1 alone
        yield _census_row(f"{full}|{last}" if masks else last, sizes, n)


def _census_row(literal: str, sizes: list[int], n: int) -> str:
    # no field holds a comma, quote or newline, so no CSV quoting is needed
    shape = tuple(sorted(sizes, reverse=True))
    m = len(shape)
    total, count_nm1 = _complement_counts(shape, n - m + 1)
    return (f"{literal},{m},{'+'.join(map(str, shape))},{total},{count_nm1},"
            f"{_grieser_product(shape, n)}")


def _complement_counts(sizes: tuple[int, ...], target: int) -> tuple[int, int]:
    """``(total, count)``: the complements of a partition with these block sizes,
    all of them and those with exactly ``target`` blocks.

    A transfer over p's blocks in the order given (the census gives them
    largest first, the cheaper order).  A piece is a set of p-blocks
    and Q-blocks linked by shared elements; a state is the sorted tuple of
    its pieces' Q-block counts, mapped to the number of ways to reach it.  A
    block of s elements picks t_j of the c_j Q-blocks of each piece j, in
    C(c_j, t_j) ways, and puts one of its elements into each, in perm(s, T)
    ways for T = sum t_j <= s: one element per block is the meet condition.
    Each other element opens a Q-block, and the new blocks fuse with every
    piece they touch.  The states left with one piece are the complements
    (the join condition), with that piece's count as Q's block count.
    """
    states = {(): 1}
    for s in sizes:
        reached: dict[tuple[int, ...], int] = {}
        for pieces, ways in states.items():
            # (elements placed into old blocks, Q-blocks fused, pieces kept) -> ways
            picks = {(0, 0, ()): ways}
            for c in pieces:
                step: dict[tuple[int, int, tuple[int, ...]], int] = {}
                for (placed, fused, kept), w in picks.items():
                    key = (placed, fused, (*kept, c))
                    step[key] = step.get(key, 0) + w
                    for t in range(1, min(c, s - placed) + 1):
                        key = (placed + t, fused + c, kept)
                        step[key] = step.get(key, 0) + w * comb(c, t)
                picks = step
            for (placed, fused, kept), w in picks.items():
                state = tuple(sorted((*kept, fused + s - placed)))
                reached[state] = reached.get(state, 0) + w * perm(s, placed)
        states = reached
    total = count = 0
    for pieces, ways in states.items():
        if len(pieces) == 1:
            total += ways
            if pieces[0] == target:
                count += ways
    return total, count
