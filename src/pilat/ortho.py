"""Orthocomplementations on partition lattices.

An orthocomplementation is a map a -> a' with
  (i)   a & a' = bottom
  (ii)  a | a' = top
  (iii) (a & b)' = a' | b'
  (iv)  a'' = a.
Such a map is an order-reversing involution pairing each element with a
complement, and it turns covering pairs around: b covered by a iff a'
covered by b'.

Pi_1 and Pi_2 carry one (swap bottom and top); no Pi_n with n >= 3 does.
For n = 3 an exhaustive search settles it.  From n = 4 on a counting
argument suffices: bottom has C(n, 2) covers while top has 2^(n-1) - 1
cocovers, the map would have to exchange those two sets bijectively, and
C(n, 2) < 2^(n-1) - 1 (6 < 7 at n = 4).  This is the test at which the
search refuses its first pair, top with bottom.  The counting witness is
offered from n = 5 by choice.  Both count with ``enumeration._cover_counts``.
"""
from __future__ import annotations

from typing import Mapping

from ._frozen import FrozenRecord
from .complements import enumerate_complements
from .enumeration import _cover_counts, iter_partitions
from .partitions import Partition, _check_cap, _check_size, bottom, top


class OrthoReport(FrozenRecord):
    """The verdict on a map: ``violated_axiom`` is "i", "ii", "iii", "iv"
    or None, and ``witness`` the offending element or pair."""

    __slots__ = ("ok", "violated_axiom", "witness")

    def __init__(self, ok: bool, violated_axiom: str | None = None, witness: object = None):
        self._set(ok, violated_axiom, witness)


def check_ortho_map(mapping: Mapping[Partition, Partition], n: int) -> OrthoReport:
    """Check the four axioms over all of Pi_n, in axiom order.

    The witness is the first offending element (axioms i, ii, iv) or pair
    (axiom iii) in enumeration order.
    """
    _check_cap(n, "orthocomplement check")
    parts = tuple(iter_partitions(n))
    for a in parts:
        if a not in mapping:
            raise ValueError(f"map is not total: no image for {a}")
    top_, bot = parts[0], parts[-1]
    for a in parts:
        if (a & mapping[a]) != bot:
            return OrthoReport(False, "i", a)
    for a in parts:
        if (a | mapping[a]) != top_:
            return OrthoReport(False, "ii", a)
    for a in parts:
        fa = mapping[a]
        for b in parts:
            if mapping[a & b] != (fa | mapping[b]):
                return OrthoReport(False, "iii", (a, b))
    for a in parts:
        if mapping[mapping[a]] != a:
            return OrthoReport(False, "iv", a)
    return OrthoReport(True)


def search_orthocomplementation(n: int, exhaustive: bool = False) -> dict[Partition, Partition] | None:
    """Backtracking search for an orthocomplementation on Pi_n.

    Candidates are complement pairs a -> b whose cover counts are a's
    reversed, as in any valid map.  That one rule decides the search: from
    n = 4 on it refuses the first pair, top and its one complement bottom
    (see the module docstring); below, every complement pair passes it, and
    each completed assignment is verified against the axioms, so a None
    result means no map exists.  A found map has Pi_n as its keys, in RGS
    order (the order of ``iter_partitions``).  n runs up to the
    ``orthocomplement search`` row of ``partitions.CAPS``, 4;
    ``exhaustive=True`` passes its own default, 5.  That gate is a size cap
    and nothing more.
    """
    _check_cap(n, "orthocomplement search", 5 if exhaustive else None)
    parts = tuple(iter_partitions(n))
    size = len(parts)
    index = {p: i for i, p in enumerate(parts)}
    # assign high-rank elements first: their candidate lists are shortest
    order = sorted(range(size), key=lambda i: (parts[i].block_count, i))
    image = [-1] * size

    def assign(pos: int) -> dict[Partition, Partition] | None:
        while pos < size and image[order[pos]] >= 0:
            pos += 1
        if pos == size:
            mapping = {parts[i]: parts[image[i]] for i in range(size)}
            report = check_ortho_map(mapping, n)
            return mapping if report.ok else None
        i = order[pos]
        for q in enumerate_complements(parts[i]):
            j = index[q]
            if image[j] >= 0 or _cover_counts(parts[j]) != _cover_counts(parts[i])[::-1]:
                continue
            image[i] = j
            image[j] = i
            found = assign(pos + 1)
            if found is not None:
                return found
            image[i] = -1
            image[j] = -1
        return None

    return assign(0)


class NonOrthoWitness(FrozenRecord):
    __slots__ = ("n", "atom_count", "coatom_count", "reason")

    def __init__(self, n: int, atom_count: int, coatom_count: int, reason: str):
        self._set(n, atom_count, coatom_count, reason)


def non_ortho_witness(n: int) -> NonOrthoWitness:
    """Counting certificate that Pi_n has no orthocomplementation (n >= 5).

    An order-reversing involution matches the covers of bottom with the
    cocovers of top, but C(n, 2) < 2^(n-1) - 1 from n = 4 on (6 < 7).  The
    certificate is offered from n = 5 by choice; n = 4 is left to the search.
    """
    _check_size(n)
    if n < 5:
        raise ValueError("the counting witness needs n >= 5")
    atom_count = _cover_counts(bottom(n))[1]
    coatom_count = _cover_counts(top(n))[0]
    assert atom_count < coatom_count
    return NonOrthoWitness(
        n=n,
        atom_count=atom_count,
        coatom_count=coatom_count,
        reason=(f"an orthocomplementation would pair the {atom_count} covers of "
                f"bottom bijectively with the {coatom_count} cocovers of top"),
    )
