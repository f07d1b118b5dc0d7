"""Exhaustive enumeration of partition lattices and the classic counts.

Partitions are enumerated through restricted growth strings (RGS): the
label vector l with l[0] = 0 and l[i] <= 1 + max(l[:i]).  RGS vectors in
lexicographic order start at 00...0 (the one-block partition, top) and end
at 012...(n-1) (all singletons, bottom).
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .partitions import Partition, _check_size, _trusted, bottom, effective_cap

ENUM_CAP = 12
COUNT_CAP = 26  # bell(26) still fits in 64 bits


def iter_partitions(n: int, cap: int | None = None) -> Iterator[Partition]:
    """Yield all partitions of {0..n-1} in lexicographic RGS order."""
    limit = effective_cap(ENUM_CAP) if cap is None else cap
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > limit:
        raise ValueError(f"n={n} exceeds enumeration cap {limit}")
    _check_size(n)
    if n == 0:
        yield _trusted(0, ())
        return
    # Knuth, TAOCP 4A, 7.2.1.5, Algorithm H: element i may take the labels
    # 0..bound[i], where bound[i] = 1 + max(labels[:i]) and bound[0] = 0.
    labels = [0] * n
    bound = [0] + [1] * (n - 1)
    while True:
        masks = [0] * max(bound[-1], labels[-1] + 1)
        for e, lab in enumerate(labels):
            masks[lab] |= 1 << e
        yield _trusted(n, masks)
        j = n - 1
        while j and labels[j] == bound[j]:
            j -= 1
        if not j:
            return
        labels[j] += 1
        nxt = max(bound[j], labels[j] + 1)
        for i in range(j + 1, n):
            labels[i] = 0
            bound[i] = nxt


class LatticeUniverse:
    """All of Pi_n materialized, with O(1) membership and index lookup."""

    def __init__(self, n: int, partitions: tuple[Partition, ...]):
        self.n = n
        self.partitions = partitions
        self._index = {p: i for i, p in enumerate(partitions)}

    def __len__(self) -> int:
        return len(self.partitions)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.partitions)

    def __getitem__(self, i: int) -> Partition:
        return self.partitions[i]

    def __contains__(self, p: object) -> bool:
        return p in self._index

    def index_of(self, p: Partition) -> int:
        return self._index[p]


def enumerate_partitions(n: int, cap: int | None = None) -> LatticeUniverse:
    return LatticeUniverse(n, tuple(iter_partitions(n, cap)))


@lru_cache(maxsize=None)
def _s2(n: int, k: int) -> int:
    if k == 0:
        return 1 if n == 0 else 0
    if k > n:
        return 0
    return k * _s2(n - 1, k) + _s2(n - 1, k - 1)


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k blocks."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if n > COUNT_CAP:
        raise ValueError(f"n={n} exceeds counting cap {COUNT_CAP}")
    return _s2(n, k)


def bell(n: int) -> int:
    """Number of partitions of an n-set."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > COUNT_CAP:
        raise ValueError(f"n={n} exceeds counting cap {COUNT_CAP}")
    return sum(stirling2(n, k) for k in range(n + 1))


def atoms(n: int) -> list[Partition]:
    """Upper covers of bottom: one doubleton block, singletons elsewhere.

    There are C(n, 2) of them; empty for n < 2.
    """
    if n < 2:
        return []
    bot = bottom(n)
    return [bot.merge_blocks(i, j) for i in range(n) for j in range(i + 1, n)]


def coatoms(n: int) -> list[Partition]:
    """Lower covers of top: the two-block partitions, 2^(n-1) - 1 of them."""
    if n < 2:
        return []
    _check_size(n)
    full = (1 << n) - 1
    return [_trusted(n, (a, full & ~a)) for a in range(1, full, 2)]
