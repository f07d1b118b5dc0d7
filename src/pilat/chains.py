"""Chains in partition lattices: checking, saturation, and constructions.

A chain is a strictly increasing sequence of partitions of one ground set.
A chain is saturated when every consecutive pair is a covering pair, and
maximal when in addition it runs from bottom to top; in a finite lattice
those two conditions together are equivalent to "no partition can be
inserted anywhere".  Every maximal chain of Pi_n has exactly n elements.

A chain file (``chains verify FILE``) is read by ``_verify_lines`` as the
differences between consecutive lines.  Each line is split once into block
texts and kept as a set of strings.  Two set differences with the previous
line's set find the texts it drops and the texts it adds, and only those
are mapped to masks, through one ``_BlockMasks`` memo; the new masks must
tile exactly the elements of the dropped ones.  Whether a pair is strictly
increasing is read off its unshared masks alone.  A step that adds one
block has just been shown to make it the union of the dropped ones, so it
increases exactly when it drops more than one; any other step takes
``_refines``.  The verdict is read off those answers and each line's block
count: ``verify_chain`` and the reader share ``_verdict``, the one order
of the checks.  A line the reader cannot accept (a padded token such as
``07``, a repeated block, any error) sends the whole file to the full parse
and ``verify_chain``, which reports exactly as a file of partitions is
reported everywhere else.  That fallback is internal: ``_verify_lines``
returns the report, or raises the full parse's ``_LineError``, and never
asks its caller to parse.  ``enumerate_maximal_chains`` walks
``Partition._upper_covers``, the one generator of upper covers.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from ._frozen import FrozenRecord
from .partitions import (Partition, _BlockMasks, _check_cap, _check_size, _checked_members,
                         _members_mask, _parse_many, _refines, _tiles, _trusted,
                         _with_singletons, bottom, ground_cap, top)


class ChainReport(FrozenRecord):
    """The verdict on a chain.  ``witness`` is the failure evidence: an
    index pair for a non-chain, an insertable partition for a
    non-saturated gap, or the missing endpoint."""

    __slots__ = ("is_chain", "is_saturated", "is_maximal", "witness")

    def __init__(self, is_chain: bool, is_saturated: bool, is_maximal: bool,
                 witness: object = None):
        self._set(is_chain, is_saturated, is_maximal, witness)


def _step_between(lo: Partition, hi: Partition) -> Partition:
    """lo with two blocks merged, one step toward hi.

    Among block pairs of lo lying inside one block of hi, merges the pair
    with the smallest block minima (ties cannot occur).  Requires lo < hi.
    """
    hi_labels = hi.labels
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for idx, mask in enumerate(lo.masks):
        group = hi_labels[(mask & -mask).bit_length() - 1]
        if group not in first:
            first[group] = idx
        elif group not in second:
            second[group] = idx
    assert second, "no mergeable pair: lo is not strictly below hi"
    # blocks are in least-element order, so index order is minima order
    return lo.merge_blocks(*min((first[g], second[g]) for g in second))


def _verdict(n: int, increasing: Iterable[bool], counts: Sequence[int],
             step: Callable[[int], Partition]) -> ChainReport:
    """The report on a sequence of partitions of {0..n-1}.

    ``increasing`` says, pair by pair, whether member i is strictly below
    member i + 1, ``counts`` holds each member's block count, and
    ``step(i)`` is the witness of a gap at pair i.  The checks run in one
    order: the first pair not strictly increasing, then the first gap, then
    bottom, then top.
    """
    for i, ok in enumerate(increasing):
        if not ok:
            return ChainReport(False, False, False, witness=(i, i + 1))
    # each pair is now known to be strictly increasing, so it is a covering
    # pair exactly when it loses one block (see ``covers``)
    for i in range(len(counts) - 1):
        if counts[i] != counts[i + 1] + 1:
            return ChainReport(True, False, False, witness=step(i))
    if counts[0] != n:  # only bottom has n blocks
        return ChainReport(True, True, False, witness=bottom(n))
    if counts[-1] > 1:  # only top has at most one
        return ChainReport(True, True, False, witness=top(n))
    return ChainReport(True, True, True)


def verify_chain(chain: Sequence[Partition]) -> ChainReport:
    """Classify a sequence as chain / saturated / maximal, with a witness."""
    if not chain:
        raise ValueError("empty sequence")
    n = getattr(chain[0], "n", None)  # a first member that is no Partition fails the check
    chain = _checked_members(chain, n)
    return _verdict(n, (lo < hi for lo, hi in zip(chain, chain[1:])),
                    [p.block_count for p in chain],
                    lambda i: _step_between(chain[i], chain[i + 1]))


def _verify_lines(lines: Sequence[str], n: int) -> ChainReport:
    """The report on the literals ``lines`` over {0..n-1}: what
    ``verify_chain(_parse_many(lines, n))`` returns or raises, read as the
    differences between consecutive lines where it can be (see the module
    docstring), otherwise by that full parse.

    A line is accepted when its block texts are distinct and the masks of
    the texts it adds tile the elements of the texts it drops; the first
    line is tested against one block holding every element, which is
    ``_parse_many``'s test.  A mask both dropped and added under different
    texts is a shared block.  Only the first gap's two lines are parsed.
    """
    memo = _BlockMasks(n)
    mask_of = memo.__getitem__
    before: set[str] = set()
    increasing: list[bool] = []
    counts: list[int] = []
    for line in lines:
        texts = line.strip().split("|")
        now = set(texts)
        if len(now) != len(texts):  # a repeated block
            break
        try:
            gone = list(map(mask_of, before - now)) if counts else [memo.full]
            new = list(map(mask_of, now - before))
        except KeyError:
            break
        if not _tiles(new, sum(gone)):
            break
        if counts:
            if len(new) == 1:  # by ``_tiles``, the union of the dropped blocks
                increasing.append(len(gone) > 1)
            else:
                lo, hi = set(gone), set(new)
                increasing.append(lo != hi and _refines(lo, hi))
        counts.append(len(texts))
        before = now
    else:
        return _verdict(n, increasing, counts,
                        lambda i: _step_between(*_parse_many(lines[i:i + 2], n)))
    return verify_chain(_parse_many(lines, n))  # a line the reading cannot accept


def extend_to_maximal(chain: Sequence[Partition]) -> list[Partition]:
    """Deterministically complete a chain to a maximal one.

    Endpoints are extended to bottom/top, then every gap is saturated by
    repeatedly merging the two blocks with the smallest minima that lie in
    one block of the gap's upper end.  Each merge stays below that end and
    loses one block, so the block count alone says when the gap is
    saturated.  The result has exactly n elements.
    """
    report = verify_chain(chain)
    if not report.is_chain:
        raise ValueError(f"input is not a chain (witness {report.witness})")
    out = [bottom(chain[0].n)]
    for hi in [*chain, top(chain[0].n)]:  # an endpoint the chain has is not repeated
        for _ in range(out[-1].block_count - hi.block_count - 1):
            out.append(_step_between(out[-1], hi))
        if hi != out[-1]:
            out.append(hi)
    return out


def enumerate_maximal_chains(n: int) -> Iterator[tuple[Partition, ...]]:
    """Stream every maximal chain of Pi_n exactly once (small n only)."""
    _check_cap(n, "maximal-chain")
    return _maximal_chains(n)  # not a generator itself: the cap is checked at call time


def _maximal_chains(n: int) -> Iterator[tuple[Partition, ...]]:
    """Depth-first walk up from bottom: each step takes the next upper cover
    of ``Partition._upper_covers``, and a chain ends at one block."""
    path = [bottom(n)]
    ups = [path[0]._upper_covers()]  # ups[d]: the upper covers of path[d] left
    while path:
        masks = next(ups[-1], None)
        if masks is not None:
            path.append(_trusted(n, masks))
            ups.append(path[-1]._upper_covers())
            continue
        if path[-1].block_count <= 1:
            yield tuple(path)
        path.pop()
        ups.pop()


def lift_subset_chain(sets: Sequence[Iterable[int]], n: int) -> list[Partition]:
    """Lift a strictly increasing chain of subsets (each of size >= 2)
    into the partition lattice via diag."""
    _check_size(n)
    masks = []
    for s in sets:
        mask = _members_mask(s, n)
        if mask.bit_count() < 2:
            raise ValueError("subsets must have at least two elements")
        masks.append(mask)
    for a, b in zip(masks, masks[1:]):
        if a == b or a & ~b:
            raise ValueError("subsets must be strictly increasing")
    return [_with_singletons(n, [m]) for m in masks]


class KeyframePlan(FrozenRecord):
    """Dyadic splitting plan on n = 2^k elements (immutable).

    Element e corresponds to the big-endian k-bit string of e.  The level-d
    keyframe groups elements by their first d bits, giving 2^d blocks of
    size 2^(k-d); blocks are ordered by ascending numeric prefix.  The
    in-between step (d, a) additionally splits the first a of those blocks
    into their two level-(d+1) halves.  The k allowed are those with
    2^k within the ground cap.
    """

    __slots__ = ("k",)

    def __init__(self, k: int):
        if not isinstance(k, int) or isinstance(k, bool):
            raise TypeError(f"keyframe k must be an int: k={k!r}")
        cap = ground_cap()
        if not 0 <= k < cap.bit_length():  # 0 <= k and 2^k <= cap
            raise ValueError(f"k={k} needs 2^k elements within the ground cap {cap}")
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        return 1 << self.k

    def _range_block(self, level: int, prefix: int) -> int:
        size = 1 << (self.k - level)
        return ((1 << size) - 1) << (prefix * size)

    def keyframe(self, level: int) -> Partition:
        """2^level blocks of consecutive elements; level k is bottom."""
        if not 0 <= level <= self.k:
            raise ValueError(f"level {level} outside 0..{self.k}")
        return _trusted(self.n, (self._range_block(level, p) for p in range(1 << level)))

    def inbetween(self, level: int, split_count: int) -> Partition:
        """Keyframe at ``level`` with its first ``split_count`` blocks split."""
        if not 0 <= level < self.k:
            raise ValueError(f"level {level} outside 0..{self.k - 1}")
        if not 0 <= split_count < (1 << level):
            raise ValueError(f"split count {split_count} outside 0..{(1 << level) - 1}")
        masks = []
        for p in range(1 << level):
            if p < split_count:
                masks.append(self._range_block(level + 1, 2 * p))
                masks.append(self._range_block(level + 1, 2 * p + 1))
            else:
                masks.append(self._range_block(level, p))
        return _trusted(self.n, masks)

    def keyframes(self) -> list[Partition]:
        """All k+1 keyframes, bottom (level k) to top (level 0)."""
        return [self.keyframe(level) for level in range(self.k, -1, -1)]


def keyframe_chain(k: int) -> list[Partition]:
    """The maximal chain of Pi_{2^k} walking the dyadic keyframes.

    Starts at bottom and, level by level from the finest keyframe up,
    merges split blocks right to left: the rightmost split block first, so
    ``keyframe_chain(3)`` begins ``0|1|2|3|4|5|6|7``, ``0|1|2|3|4|5|6 7``,
    ``0|1|2|3|4 5|6 7``.  The chain has exactly 2^k elements and passes
    through every keyframe.
    """
    plan = KeyframePlan(k)
    out = [bottom(plan.n)]
    for level in range(k - 1, -1, -1):
        for split_count in range((1 << level) - 1, -1, -1):
            out.append(plan.inbetween(level, split_count))
    return out
