"""Exhaustive enumeration of partition lattices and the classic counts.

Partitions are enumerated through restricted growth strings (RGS): the
label vector l with l[0] = 0 and l[i] <= 1 + max(l[:i]).  RGS vectors in
lexicographic order start at 00...0 (the one-block partition, top) and end
at 012...(n-1) (all singletons, bottom).
"""
from __future__ import annotations

from math import comb
from typing import Iterator

from .partitions import Partition, _check_cap, _check_size, _trusted, bottom

ENUM_CAP = 12
COUNT_CAP = 26  # bell(26) still fits in 64 bits


def iter_partitions(n: int) -> Iterator[Partition]:
    """Stream all partitions of {0..n-1} in lexicographic RGS order."""
    _check_cap(n, ENUM_CAP, "enumeration")
    return _rgs_partitions(n)  # not a generator itself: the cap is checked at call time


def _rgs_partitions(n: int) -> Iterator[Partition]:
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


def _stirling_row(n: int) -> list[int]:
    """[S(n, 0), ..., S(n, n)], built row by row by S(i, k) = k S(i-1, k) + S(i-1, k-1)."""
    _check_cap(n, COUNT_CAP, "counting")
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


def _atom_coatom_counts(n: int) -> tuple[int, int]:
    """C(n, 2) and 2^(n-1) - 1 (0 for n < 2), the lengths of atoms(n) and
    coatoms(n), without building either list.  n must be >= 0."""
    return comb(n, 2), (1 << (n - 1)) - 1 if n >= 2 else 0


def atoms(n: int) -> list[Partition]:
    """Upper covers of bottom: one doubleton block, singletons elsewhere."""
    bot = bottom(n)
    return [bot.merge_blocks(i, j) for i in range(n) for j in range(i + 1, n)]


def coatoms(n: int) -> list[Partition]:
    """Lower covers of top: the two-block partitions."""
    _check_size(n)
    full = (1 << n) - 1
    return [_trusted(n, (a, full & ~a)) for a in range(1, full, 2)]
