"""Set partitions of {0..n-1} ordered by refinement.

Conventions used throughout the package:

* the ground set of size n is always {0, 1, ..., n-1};
* a partition is stored as a tuple of integer bitmasks, one per block,
  sorted by least element; elements inside a block are implicitly sorted;
* ``P <= Q`` means P refines Q (every block of P sits inside a block of Q),
  so the all-singletons partition is bottom and the one-block partition is
  top;
* n = 0 is allowed: its lattice has the single empty partition, which is
  both bottom and top.

The text form of a partition lists blocks separated by ``|`` with the ids
inside a block separated by single spaces, e.g. ``"0 2|1 3"``.  There is one
formatter, ``_format_many``, and one parser, ``_parse_many``, its mirror:
each takes a whole list in one call and handles each distinct block once per
call, and ``Partition.format`` and ``Partition.parse`` are those calls on
one partition or one literal.  The two streamed listings build no partition:
``enumeration._rgs_lines`` and ``antichains._bipartition_lines`` join block
texts from ``_block_text`` directly, in the same format.

Input is validated once, where it enters the package.  ``Partition(n,
masks)`` (int masks only, bools refused), ``Partition.parse``,
``from_blocks``, ``from_labels`` and ``from_json`` check their input in
full.  Partitions the package derives itself are built by ``_trusted(n,
masks)``, which sorts, checks and reads nothing: its masks must be
non-empty, disjoint, cover 0..n-1 and be sorted by least element, and n
must already have been checked.  ``cardinal._interned(terms)`` is the
ordinal counterpart: sums, ``from_int`` and ``omega_power`` intern the
terms they derive without the constructor's checks.  A partition is a
``_frozen.FrozenRecord`` on ``(n, masks)``: it compares and hashes by them
and pickles as ``Partition(n, masks)``, so a loaded pickle is checked as
any other input is.  ``_trusted`` and ``__init__`` write ``n`` and
``masks`` into the instance ``__dict__``, as ``cached_property`` does,
which is cheaper than ``object.__setattr__``.

Sizes follow one rule.  Every function that takes a size n from a caller
makes one call to ``_check_cap(n, default, what)``, which refuses an n that
is not an int (a bool included) with a TypeError, and then any n outside
0..cap.  The cap is the function's default (the ground cap of 128
for the constructors, ``bottom``, ``top``, ``diag``, ``atoms``, ``coatoms``,
``lift_subset_chain``, ``doubleton_antichain``, ``bipartition_antichain``
and ``non_ortho_witness``, a smaller one for each exhaustive operation),
and PILAT_MAX_N, when set, replaces every default at once.  No operation's default exceeds the
default of an operation it calls, so an inner check never fails.
"""
from __future__ import annotations

import os
from functools import cached_property, lru_cache
from typing import AbstractSet, Iterable, Sequence

from ._frozen import FrozenRecord

DEFAULT_GROUND_CAP = 128
_CAP_ENV = "PILAT_MAX_N"


def effective_cap(default: int) -> int:
    """Cap for a size-limited operation; PILAT_MAX_N replaces the default."""
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise ValueError(f"{_CAP_ENV} must be non-negative, got {cap}")
    return cap


def ground_cap() -> int:
    """Largest allowed ground-set size (PILAT_MAX_N overrides the default)."""
    return effective_cap(DEFAULT_GROUND_CAP)


def _check_cap(n: int, default: int, what: str) -> None:
    """Refuse an n that is no int or a bool, then n outside 0..cap, where
    PILAT_MAX_N replaces the default cap."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"{what} size must be an int: n={n!r}")
    cap = effective_cap(default)
    if not 0 <= n <= cap:
        raise ValueError(f"{what} cap {cap}: n={n} outside 0..{cap}")


def _check_size(n: int) -> None:
    _check_cap(n, DEFAULT_GROUND_CAP, "ground-set")


def _members_mask(members: Iterable[int], n: int) -> int:
    """Mask of ``members``, after checking n and then each element's type and range."""
    _check_size(n)
    mask = 0
    for e in members:
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"element {e!r} is not an integer")
        if not 0 <= e < n:
            raise ValueError(f"element {e} outside ground set 0..{n - 1}")
        mask |= 1 << e
    return mask


@lru_cache(maxsize=32)
def _bit_table(n: int) -> tuple[dict[str, int], dict[int, int]]:
    """The decimal text of each element of {0..n-1} mapped to its bit, and
    each of those bits mapped to itself, its lowest bit."""
    bits = [1 << e for e in range(n)]
    return dict(zip(map(str, range(n)), bits)), dict(zip(bits, bits))


def _low(mask: int) -> int:
    """Lowest set bit: the sort key of canonical block order."""
    return mask & -mask


def _mask_elements(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _group(keys: Iterable) -> list[int]:
    """Masks grouping the positions of equal keys, in first-occurrence order."""
    index: dict = {}
    masks: list[int] = []
    for e, key in enumerate(keys):
        j = index.get(key)
        if j is None:
            index[key] = j = len(masks)
            masks.append(0)
        masks[j] |= 1 << e
    return masks


def _join_masks(n: int, masks: Iterable[int]) -> list[int]:
    """Blocks of the finest partition in which each given block lies inside
    one block, in least-element order (union-find over the elements)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in masks:
        first, *rest = _mask_elements(m)
        root = find(first)
        for e in rest:
            r = find(e)
            if r != root:
                parent[r] = root
    return _group(find(e) for e in range(n))


class Partition(FrozenRecord):
    """An immutable set partition of {0..n-1} in canonical block order."""

    def __init__(self, n: int, masks: Iterable[int]):
        _check_size(n)
        masks = list(masks)
        for m in masks:
            if type(m) is not int:
                raise TypeError(f"block masks must be ints, got {m!r}")
        blocks = tuple(sorted(masks, key=_low))
        if any(m <= 0 for m in blocks):
            raise ValueError("empty block")
        if not _tiles(blocks, (1 << n) - 1):
            raise ValueError("blocks must be disjoint and cover 0..n-1")
        self.__dict__.update(n=n, masks=blocks)

    @classmethod
    def from_blocks(cls, n: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        _check_size(n)
        masks = []
        seen = 0
        for block in blocks:
            mask = 0
            for e in block:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise ValueError(f"element {e!r} is not an integer")
                if not 0 <= e < n:
                    raise ValueError(f"element {e} outside ground set 0..{n - 1}")
                bit = 1 << e
                if seen & bit:
                    raise ValueError(f"duplicate element {e}")
                seen |= bit
                mask |= bit
            if mask == 0:
                raise ValueError("empty block")
            masks.append(mask)
        if seen != (1 << n) - 1:
            missing = _mask_elements(((1 << n) - 1) & ~seen)
            raise ValueError(f"missing elements {list(missing)}")
        return _trusted(n, sorted(masks, key=_low))

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Partition":
        """Partition grouping equal labels; labels need not be in RGS form."""
        _check_size(len(labels))
        return _trusted(len(labels), _group(labels))

    @classmethod
    def parse(cls, text: str, n: int) -> "Partition":
        """Parse the ``block|block|...`` literal form over {0..n-1}.

        This is ``_parse_many`` on one line: its accepted inputs and error
        messages are those of ``_parse_literal``, the ``int()`` and
        ``from_blocks`` reading.
        """
        return _parse_many((text,), n)[0]

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_mask_elements(m) for m in self.masks)

    @cached_property
    def labels(self) -> tuple[int, ...]:
        """Restricted growth string: labels[e] = index of the block holding e."""
        out = [0] * self.n
        for j, m in enumerate(self.masks):
            for e in _mask_elements(m):
                out[e] = j
        return tuple(out)

    @property
    def block_count(self) -> int:
        return len(self.masks)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        """Block sizes in descending order."""
        return tuple(sorted((m.bit_count() for m in self.masks), reverse=True))

    def format(self) -> str:
        return _format_many((self,))[0]

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Partition({self.n}, {self.format()!r})"

    def _values(self) -> tuple:
        return self.n, self.masks

    def _check_ground(self, other: "Partition") -> None:
        if not isinstance(other, Partition):
            raise TypeError(f"expected a Partition, got {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"ground-set mismatch: {self.n} vs {other.n}")

    @cached_property
    def _mask_set(self) -> frozenset[int]:
        return frozenset(self.masks)

    def __le__(self, other: "Partition") -> bool:
        """True iff self refines other (see ``_refines``)."""
        self._check_ground(other)
        return _refines(self._mask_set, other._mask_set)

    def __lt__(self, other: "Partition") -> bool:
        return self != other and self <= other

    def __ge__(self, other: "Partition") -> bool:
        self._check_ground(other)
        return other <= self

    def __gt__(self, other: "Partition") -> bool:
        self._check_ground(other)
        return self != other and other <= self

    def __and__(self, other: "Partition") -> "Partition":
        """Meet: blocks are the pairwise block intersections."""
        self._check_ground(other)
        return _trusted(self.n, _group(zip(self.labels, other.labels)))

    def __or__(self, other: "Partition") -> "Partition":
        """Join: finest common coarsening, via union-find over elements."""
        self._check_ground(other)
        return _trusted(self.n, _join_masks(self.n, self.masks + other.masks))

    def merge_blocks(self, i: int, j: int) -> "Partition":
        """Replace blocks i and j with their union (an upper cover)."""
        if i == j:
            raise ValueError("need two distinct blocks")
        masks = list(self.masks)
        if not (0 <= i < len(masks) and 0 <= j < len(masks)):
            raise ValueError("block index out of range")
        i, j = min(i, j), max(i, j)
        masks[i] |= masks.pop(j)  # the union keeps the lesser least element
        return _trusted(self.n, masks)

    def to_json(self) -> dict:
        return {"n": self.n, "blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_json(cls, data: dict) -> "Partition":
        if not isinstance(data, dict) or "n" not in data or "blocks" not in data:
            raise ValueError("expected an object with 'n' and 'blocks'")
        n, blocks = data["n"], data["blocks"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"'n' must be an integer, got {n!r}")
        if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
            raise ValueError("'blocks' must be a list of lists")
        return cls.from_blocks(n, blocks)


def _refines(mine: AbstractSet[int], theirs: AbstractSet[int]) -> bool:
    """True iff each block of ``mine`` lies inside a block of ``theirs``,
    where the two sets hold the block masks of two partitions of one set.

    A block the two share lies inside itself, so only the unshared blocks
    are tested: each of mine must lie inside the block of theirs holding its
    least element, and each unshared block of either side is visited once.
    """
    lows = {m & -m: m for m in mine - theirs}
    spread = sum(lows)  # the least elements of mine's unshared blocks
    for big in theirs - mine:
        hit = big & spread
        while hit:
            low = hit & -hit
            if lows[low] & ~big:
                return False
            hit ^= low
    return True


def _checked_members(members: Iterable[object], n: int) -> list[Partition]:
    """The members as a list, after refusing any that is not a Partition of
    {0..n-1} with the errors of ``_check_ground``; a one-shot iterable is
    read once."""
    mem = list(members)
    for p in mem:
        if not isinstance(p, Partition):
            raise TypeError(f"expected a Partition, got {type(p).__name__}")
        if p.n != n:
            raise ValueError(f"ground-set mismatch: {p.n} vs {n}")
    return mem


def _trusted(n: int, masks: Iterable[int]) -> Partition:
    """Partition from canonical masks, unchecked (see the module docstring)."""
    p = object.__new__(Partition)
    fields = p.__dict__
    fields["n"] = n
    fields["masks"] = tuple(masks)
    return p


def _block_text(mask: int) -> str:
    """The text of one block: its elements in ascending order, space-separated."""
    return " ".join(map(str, _mask_elements(mask)))


class _BlockTexts(dict):
    """Block mask -> its text, built by ``__missing__`` on the first lookup."""

    def __missing__(self, mask: int) -> str:
        self[mask] = text = _block_text(mask)
        return text


def _format_many(parts: Iterable[Partition]) -> list[str]:
    """The text form of each partition, in order.

    Each line is one ``"|".join`` over the partition's block texts.  Bulk
    output formats each distinct block once per call: the text of a block is
    kept by mask in a ``_BlockTexts`` that lives only for this call (a memo
    across calls would grow without bound under a ground cap of 128), so
    listing the 115 975 partitions of Pi_10 builds 1023 block texts.
    """
    text = _BlockTexts().__getitem__
    return ["|".join(map(text, p.masks)) for p in parts]


class _BlockMasks(dict):
    """Block text -> its mask, built by ``__missing__`` on the first lookup.

    The memo starts with the one-element texts, a copy of the first table of
    ``_bit_table(n)``, so the n singleton blocks of a bottom line are hits.
    Any other text is stored only when each of its tokens is a key of that
    table and no token repeats (a repeat would carry into another bit);
    otherwise it raises KeyError and stores nothing.  The empty text maps
    to 0.  ``low`` maps each stored mask to its lowest bit, the sort key of
    canonical block order; it starts as a copy of the second table.
    ``full`` is the mask of {0..n-1}.  Unless n is an int in 1..cap (and
    PILAT_MAX_N is well formed), the tables and ``full`` are empty, so every
    text but the empty one misses: such input is for ``_parse_literal`` to
    report.
    """

    def __init__(self, n: int):
        try:
            fast = type(n) is int and 0 < n <= ground_cap()
        except ValueError:  # a malformed PILAT_MAX_N
            fast = False
        if not fast:
            n = 0
        texts, lows = _bit_table(n)
        super().__init__(texts)
        self.bits = texts.__getitem__
        self.full = (1 << n) - 1
        self.low = lows.copy()

    def __missing__(self, text: str) -> int:
        ids = text.split()
        mask = sum(map(self.bits, ids))
        if mask.bit_count() != len(ids):
            raise KeyError(text)
        self[text] = mask
        self.low[mask] = mask & -mask
        return mask


class _LineError(ValueError):
    """A literal of a ``_parse_many`` call is malformed; ``index`` is its
    position in the call's lines, and the message is ``_parse_literal``'s."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _parse_literal(text: str, n: int) -> Partition:
    """One literal read with ``int()`` and ``from_blocks``: the accepted
    inputs and error messages of every partition literal."""
    stripped = text.strip()
    if stripped == "":
        if n == 0:
            return Partition(0, ())
        raise ValueError("empty literal for non-empty ground set")
    blocks = []
    for part in stripped.split("|"):
        ids = part.split()
        if not ids:
            raise ValueError("empty block")
        try:
            blocks.append([int(tok) for tok in ids])
        except ValueError as exc:
            raise ValueError(f"bad element token in {part!r}") from exc
    return Partition.from_blocks(n, blocks)


def _tiles(masks: Sequence[int], union: int) -> bool:
    """True iff the non-zero ``masks`` are disjoint with union ``union``:
    they sum to it and their popcounts sum to its popcount (a shared bit
    would carry, leaving fewer bits set)."""
    return (all(masks) and sum(masks) == union
            and sum(map(int.bit_count, masks)) == union.bit_count())


def _parse_many(lines: Iterable[str], n: int) -> list[Partition]:
    """The partition of each ``block|block|...`` literal over {0..n-1}, in order.

    The mirror of ``_format_many``: a ``_BlockMasks`` that lives only for
    this call reads each distinct block text once, so consecutive lines of
    a chain file, which share all blocks but one, cost one split and a
    lookup per block.  A line is accepted there when its block masks tile
    the full mask (``_tiles``).  Any other line (``07``, a duplicate, a
    size over the cap, a malformed PILAT_MAX_N) takes ``_parse_literal``,
    so results and error messages are exactly its; the first error is
    raised as a ``_LineError``.
    """
    memo = _BlockMasks(n)
    mask_of, low = memo.__getitem__, memo.low.__getitem__
    parts = []
    for index, text in enumerate(lines):
        try:
            masks = list(map(mask_of, text.strip().split("|")))
        except KeyError:
            masks = [0]
        if _tiles(masks, memo.full):
            parts.append(_trusted(n, sorted(masks, key=low)))
            continue
        try:
            parts.append(_parse_literal(text, n))
        except ValueError as exc:
            raise _LineError(index, str(exc)) from exc
    return parts


def _with_singletons(n: int, masks: list[int]) -> Partition:
    """The disjoint blocks ``masks`` plus a singleton for each element they miss."""
    rest = (1 << n) - 1
    for m in masks:
        rest &= ~m
    singletons = [1 << e for e in _mask_elements(rest)]
    return _trusted(n, sorted(masks + singletons, key=_low))


def bottom(n: int) -> Partition:
    """The all-singletons partition (the empty partition when n = 0)."""
    _check_size(n)
    return _trusted(n, (1 << e for e in range(n)))


def top(n: int) -> Partition:
    """The one-block partition (the empty partition when n = 0)."""
    _check_size(n)
    return _trusted(n, ((1 << n) - 1,) if n else ())


def diag(members: Iterable[int], n: int) -> Partition:
    """Singular partition: one block for ``members``, singletons elsewhere.

    The map S -> diag(S) embeds the subsets of the ground set (of size >= 2)
    into the partition lattice and preserves order, so subset chains lift to
    partition chains.
    """
    mask = _members_mask(members, n)
    if mask == 0:
        raise ValueError("diag needs a non-empty member set")
    return _with_singletons(n, [mask])


def leq(p: Partition, q: Partition) -> bool:
    return p <= q


def meet(p: Partition, q: Partition) -> Partition:
    return p & q


def join(p: Partition, q: Partition) -> Partition:
    return p | q


def comparable(p: Partition, q: Partition) -> bool:
    return p <= q or q <= p


def covers(p: Partition, q: Partition) -> bool:
    """True iff q is obtained from p by merging exactly two of p's blocks.

    Equivalent to "p < q with nothing strictly between": merging two blocks
    raises the rank (n - block count) by exactly one.
    """
    return p.block_count == q.block_count + 1 and p <= q
