"""Exhaustive enumeration of partition lattices and the classic counts.

Partitions are enumerated through restricted growth strings (RGS): the
label vector l with l[0] = 0 and l[i] <= 1 + max(l[:i]).  RGS vectors in
lexicographic order (Knuth, TAOCP 4A, 7.2.1.5) start at 00...0 (the
one-block partition, top) and end at 012...(n-1) (all singletons, bottom).

One iterative depth-first walk, ``_rgs_nodes``, visits them in that order.
It places element e into an open block j, or opens a new block, and backs
up by undoing that placement; its state is the label of each placed element
and the list of open block masks, changed in place.  It stops one level
short of the leaves: once elements 0..n-2 are placed it yields the live
mask list, and each placement of element n - 1 into an open block or a new
one is a leaf.  The walk has three consumers:

* ``_rgs_partitions`` (behind ``iter_partitions``) puts n - 1 into each
  open block in turn and then into a new block, copying out a partition
  after each;
* ``_rgs_lines`` (behind ``_partition_lines``, the ``enumerate`` listing)
  builds the same leaves as text and no partition: the open blocks' texts
  joined by "|" are the line of the new-block leaf without its "|n-1",
  and the leaf that puts n - 1 into block j inserts " n-1" at the end of
  block j's text, n - 1 being the largest element;
* ``complements._census_lines`` (the ``complements census`` rows) builds
  each leaf's literal as ``_rgs_lines`` does and reads its block sizes off
  the live masks: their bit counts, with 1 added to the block that takes
  n - 1, or a new block of size 1.

``complements.enumerate_complements`` is a pruned copy of this walk;
``antichains._incomparable`` is a copy that visits every node, and skips
its table reads where both of its bitsets are 0.  Each keeps its own state.
``atoms`` walks ``Partition._upper_covers``, the one generator of upper
covers, and ``_cover_counts`` is the one closed form of the cover counts.
"""
from __future__ import annotations

from math import comb
from typing import Iterator

from .partitions import Partition, _BlockTexts, _check_cap, _check_size, _trusted, bottom


def iter_partitions(n: int) -> Iterator[Partition]:
    """Stream all partitions of {0..n-1} in lexicographic RGS order, by the
    walk of the module docstring; n = 0 yields the empty partition."""
    _check_cap(n, "enumeration")
    return _rgs_partitions(n)  # not a generator itself: the cap is checked at call time


def _partition_lines(n: int) -> Iterator[str]:
    """The text of each partition that ``iter_partitions(n)`` yields, in the
    same order, built by the walk's second consumer; n = 0 yields one empty
    line."""
    _check_cap(n, "enumeration")
    return _rgs_lines(n)  # not a generator itself: the cap is checked at call time


def _rgs_nodes(n: int) -> Iterator[list[int]]:
    """The walk of the module docstring, stopped when elements 0..n-2 are
    placed: it yields the live list of open block masks, which it changes
    in place on the next step.  j == len(masks) opens a new block.  Needs
    n >= 1."""
    label = [0] * n         # label[e]: the block of e on the current path
    masks: list[int] = []   # the open blocks, changed in place
    e, j = 0, 0             # place element e into block j next
    while True:
        if e == n - 1:
            yield masks
        elif j <= len(masks):
            if j == len(masks):
                masks.append(0)
            masks[j] |= 1 << e
            label[e] = j
            e, j = e + 1, 0
            continue
        # every block for element e is done: back up to element e - 1
        e -= 1
        if e < 0:
            return
        j = label[e]
        masks[j] ^= 1 << e
        if not masks[j]:  # e opened block j, the last one
            masks.pop()
        j += 1


def _rgs_partitions(n: int) -> Iterator[Partition]:
    if n == 0:
        yield _trusted(0, ())
        return
    last = 1 << (n - 1)
    for masks in _rgs_nodes(n):
        for j in range(len(masks)):
            masks[j] |= last
            yield _trusted(n, masks)  # copies masks into a tuple
            masks[j] ^= last
        masks.append(last)
        yield _trusted(n, masks)
        masks.pop()


def _rgs_lines(n: int) -> Iterator[str]:
    if n == 0:
        yield ""
        return
    text = _BlockTexts().__getitem__  # blocks of 0..n-2: at most 2^(n-1) texts
    last = str(n - 1)
    tail = " " + last
    for masks in _rgs_nodes(n):
        texts = list(map(text, masks))
        full = "|".join(texts)
        end = 0
        for t in texts:
            end += len(t)  # block j's text ends at full[end]
            yield full[:end] + tail + full[end:]
            end += 1
        yield f"{full}|{last}" if masks else last


def _stirling_row(n: int) -> list[int]:
    """[S(n, 0), ..., S(n, n)], built row by row by S(i, k) = k S(i-1, k) + S(i-1, k-1)."""
    _check_cap(n, "counting")
    row = [1]
    for _ in range(n):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, len(row))] + [1]
    return row


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k blocks."""
    row = _stirling_row(n)
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return row[k]


def bell(n: int) -> int:
    """Number of partitions of an n-set."""
    return sum(_stirling_row(n))


def _cover_counts(p: Partition) -> tuple[int, int]:
    """How many elements p covers, and how many cover it.

    Splitting a block of size s in two gives 2^(s-1) - 1 lower covers;
    merging two of k blocks gives C(k, 2) upper covers.
    """
    return (sum((1 << (m.bit_count() - 1)) - 1 for m in p.masks),
            comb(p.block_count, 2))


def atoms(n: int) -> list[Partition]:
    """Upper covers of bottom: one doubleton block, singletons elsewhere."""
    return [_trusted(n, masks) for masks in bottom(n)._upper_covers()]


def coatoms(n: int) -> list[Partition]:
    """Lower covers of top: the two-block partitions."""
    _check_size(n)
    full = (1 << n) - 1
    return [_trusted(n, (a, full & ~a)) for a in range(1, full, 2)]
