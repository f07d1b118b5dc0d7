"""Complement testing, enumeration against a brute-force oracle, the product
formula, and the two explicit complement constructions."""
import math
from itertools import permutations

import pytest
from hypothesis import given, settings

from pilat import (
    CensusRow,
    Partition,
    bottom,
    complement_census,
    enumerate_complements,
    enumerate_partitions,
    grieser_count,
    injection_complement,
    injection_complement_family,
    is_complement,
    iter_partitions,
    join,
    meet,
    naive_complements,
    relative_complement_in,
    split_transversal_complement,
    split_transversal_family,
    top,
)
from pilat.complements import _frontier
from strats import partitions


def P(text, n):
    return Partition.parse(text, n)


# -------------------------------------------------------------- is_complement

def test_extremes_complement_each_other():
    for n in range(6):
        assert is_complement(bottom(n), top(n))
        assert is_complement(top(n), bottom(n))


def test_self_complement_only_when_trivial():
    assert is_complement(bottom(1), bottom(1))
    assert is_complement(bottom(0), bottom(0))
    for n in range(2, 6):
        for p in iter_partitions(n):
            assert not is_complement(p, p)


def test_is_complement_examples():
    assert is_complement(P("0 1|2", 3), P("0 2|1", 3))
    assert is_complement(P("0 1|2", 3), P("0|1 2", 3))
    assert not is_complement(P("0 1|2", 3), P("0 1 2", 3))
    # meet fails: blocks {0,1} and {0,1,3} share two elements
    assert not is_complement(P("0 1|2 3", 4), P("0 1 3|2", 4))
    # join fails: 3 stays separated
    assert not is_complement(P("0 1|2|3", 4), P("0 2|1|3", 4))


def test_is_complement_matches_lattice_definition():
    for n in range(6):
        universe = enumerate_partitions(n).partitions
        for p in universe:
            for q in universe:
                expected = (meet(p, q) == bottom(n) and join(p, q) == top(n))
                assert is_complement(p, q) == expected


def test_is_complement_rejects_mixed_ground_sets():
    with pytest.raises(ValueError, match="ground"):
        is_complement(bottom(3), top(4))


# ---------------------------------------------------------------- enumeration

def test_complements_of_atom():
    got = enumerate_complements(P("0 1|2", 3))
    assert [q.format() for q in got] == ["0 2|1", "0|1 2"]


def test_complements_of_extremes():
    for n in range(6):
        assert enumerate_complements(bottom(n)) == [top(n)]
        assert enumerate_complements(top(n)) == [bottom(n)]


def test_complement_count_example():
    got = enumerate_complements(P("0 1|2 3", 4))
    assert len(got) == 6
    by_blocks = sorted(q.block_count for q in got)
    assert by_blocks == [2, 2, 3, 3, 3, 3]


def test_enumeration_matches_oracle():
    for n in range(7):
        universe = enumerate_partitions(n)
        for p in universe.partitions:
            fast = enumerate_complements(p)
            slow = naive_complements(p, universe)
            assert fast == slow


def test_enumeration_yields_in_universe_order():
    universe = enumerate_partitions(5)
    for p in universe.partitions:
        got = enumerate_complements(p)
        idx = [universe.index_of(q) for q in got]
        assert idx == sorted(idx)


def test_complement_walk_is_not_recursive(monkeypatch):
    monkeypatch.setenv("PILAT_MAX_N", "2000")
    n = 1100
    assert enumerate_complements(top(n)) == [bottom(n)]
    assert enumerate_complements(bottom(n)) == [top(n)]


def _frontier_nodes(p):
    # the walk's qmask list is live, so each node is copied as it arrives
    return [(list(qmask), list(idx)) for qmask, idx in _frontier(p)]


def test_frontier_nodes_of_two_pairs():
    # after 0 2|1, element 3 joins {1} or opens a block: six complements in RGS order
    assert _frontier_nodes(P("0 1|2 3", 4)) == [
        ([0b0101, 0b0010], [1, 2]),
        ([0b0001, 0b0110], [0, 2]),
        ([0b0001, 0b0010, 0b0100], [0, 1]),
    ]


@pytest.mark.parametrize("p,nodes,indices", [
    (P("0 1|2 3", 4), 3, 6),
    (P("0 1 2|3 4|5", 6), 12, 42),
    (bottom(6), 1, 1),
    (top(6), 1, 1),
])
def test_frontier_counts_are_pinned(p, nodes, indices):
    # a prefix that completes no complement yields no node, so an empty
    # index list, or more nodes, means the last-element test has weakened
    got = _frontier_nodes(p)
    assert len(got) == nodes
    assert sum(len(idx) for _, idx in got) == indices == len(enumerate_complements(p))
    assert all(idx and idx == sorted(set(idx)) for _, idx in got)


def test_enumeration_cap():
    with pytest.raises(ValueError, match="cap"):
        enumerate_complements(bottom(12))
    with pytest.raises(ValueError, match="cap"):
        naive_complements(bottom(8))


@settings(max_examples=60, deadline=None)
@given(partitions(6))
def test_enumerated_complements_verify(p):
    for q in enumerate_complements(p):
        assert is_complement(p, q)


# -------------------------------------------------------------- count formula

def test_grieser_count_examples():
    # Cross-checked against the brute-force census: 4, 6, 32.
    assert grieser_count(P("0 1|2 3", 4)) == 4
    assert grieser_count(P("0 1 2|3 4", 5)) == 6
    assert grieser_count(P("0 1|2 3|4 5", 6)) == 32


def test_grieser_count_degenerate():
    for n in range(6):
        assert grieser_count(top(n)) == 1
        assert grieser_count(bottom(n)) == 1


def test_grieser_counts_minimum_block_complements():
    # The formula counts the complements with the largest possible number
    # of blocks, n - m + 1 for an m-block partition.
    for n in range(2, 7):
        universe = enumerate_partitions(n)
        for p in universe.partitions:
            m = p.block_count
            slots = n - m + 1
            witnesses = [q for q in naive_complements(p, universe)
                         if q.block_count == slots]
            assert len(witnesses) == grieser_count(p)


# --------------------------------------------------------- split construction

def test_split_transversal_example():
    p = P("0 1|2 3|4 5", 6)
    q = split_transversal_complement(p, part_one=[1])
    assert q.format() == "0 2|1 4|3|5"
    assert is_complement(p, q)


def test_split_transversal_defaults():
    p = P("0 1|2 3", 4)
    q = split_transversal_complement(p)
    assert is_complement(p, q)
    # default pivot is the first block, iota/upsilon its least two elements
    q2 = split_transversal_complement(p, pivot=0, iota=0, upsilon=1, part_one=[])
    assert q == q2


def test_split_transversal_family_size_and_validity():
    for text, n in [("0 1|2 3", 4), ("0 1|2 3|4 5", 6), ("0 1 2|3 4|5", 6)]:
        p = P(text, n)
        family = list(split_transversal_family(p))
        assert len(family) == 2 ** (p.block_count - 1)
        assert len(set(family)) == len(family)
        for q in family:
            assert is_complement(p, q)


def test_split_transversal_top():
    assert list(split_transversal_family(top(3))) == [bottom(3)]


def test_split_transversal_rejects_bad_input():
    p = P("0 1|2 3", 4)
    with pytest.raises(ValueError):
        split_transversal_complement(bottom(3))  # no block of size 2
    with pytest.raises(ValueError, match="differ"):
        split_transversal_complement(p, iota=0, upsilon=0)
    with pytest.raises(ValueError):
        split_transversal_complement(p, pivot=5)
    with pytest.raises(ValueError):
        split_transversal_complement(p, part_one=[7])


# ----------------------------------------------------- injection construction

def test_injection_example():
    p = P("0 1 2 3|4", 5)
    q = injection_complement(p, 0, {4: 1})
    assert q.format() == "0|1 4|2|3"
    assert is_complement(p, q)


def test_injection_family_counts():
    p = P("0 1 2 3|4", 5)
    family = list(injection_complement_family(p, 0))
    assert len(family) == 4  # one outside element into a 4-element block
    assert len(set(family)) == 4
    for q in family:
        assert is_complement(p, q)


def test_injection_family_matches_falling_factorial():
    for text, n, big in [("0 1 2|3 4", 5, 0), ("0 1 2 3|4 5", 6, 0)]:
        p = P(text, n)
        inside = len(p.blocks[big])
        outside = n - inside
        family = list(injection_complement_family(p, big))
        assert len(family) == math.perm(inside, outside)
        for q in family:
            assert is_complement(p, q)


def test_injection_requires_big_enough_block():
    p = P("0 1|2 3 4", 5)  # block 0 has 2 elements, 3 outside
    assert list(injection_complement_family(p, 0)) == []


def test_injection_rejects_bad_maps():
    p = P("0 1 2 3|4", 5)
    with pytest.raises(ValueError, match="injective"):
        injection_complement(P("0 1 2|3 4", 5), 0, {3: 1, 4: 1})
    with pytest.raises(ValueError, match="exactly on"):
        injection_complement(p, 0, {})
    with pytest.raises(ValueError, match="exactly on"):
        injection_complement(p, 0, {4: 1, 3: 2})
    with pytest.raises(ValueError, match="outside the block"):
        injection_complement(p, 0, {4: 4})  # image outside the block


# -------------------------------------------------------------------- census

def test_census_n3():
    rows = complement_census(3)
    assert [(r.partition, r.m, r.total, r.count_nm1, r.grieser)
            for r in rows] == [
        ("0 1 2", 1, 1, 1, 1),
        ("0 1|2", 2, 2, 2, 2),
        ("0 2|1", 2, 2, 2, 2),
        ("0|1 2", 2, 2, 2, 2),
        ("0|1|2", 3, 1, 1, 1),
    ]


def test_census_row_fields():
    rows = complement_census(4)
    assert len(rows) == 15
    for row in rows:
        assert isinstance(row, CensusRow)
        assert row.count_nm1 == row.grieser
        assert row.total >= row.count_nm1
        p = Partition.parse(row.partition, 4)
        assert row.block_sizes == p.block_sizes
        assert row.m == p.block_count


def test_census_totals_match_oracle():
    for n in range(1, 7):
        universe = enumerate_partitions(n)
        rows = {r.partition: r for r in complement_census(n)}
        for p in universe.partitions:
            comps = naive_complements(p, universe)
            target = n - p.block_count + 1
            row = rows[p.format()]
            assert (row.total, row.count_nm1) == (
                len(comps), sum(q.block_count == target for q in comps))


def test_census_matches_product_formula():
    # the product formula is the oracle of count_nm1 on every row
    for n in range(1, 8):
        rows = complement_census(n)
        assert len(rows) == len(enumerate_partitions(n).partitions)
        assert all(row.count_nm1 == row.grieser for row in rows)


def test_census_rejects_bad_n():
    with pytest.raises(ValueError):
        complement_census(0)
    with pytest.raises(ValueError, match="cap"):
        complement_census(10)


# -------------------------------------------------- relative complementation

def test_relative_complement_examples():
    a, c = bottom(4), top(4)
    b = P("0 1|2 3", 4)
    z = relative_complement_in(b, a, c)
    assert meet(b, z) == a and join(b, z) == c
    assert z == relative_complement_in(b, a, c)  # deterministic


def test_relative_complement_trivial_interval():
    b = P("0 1|2 3", 4)
    assert relative_complement_in(b, b, b) == b


def test_relative_complements_exist_everywhere():
    # Partition lattices are relatively complemented: every three-element
    # chain a <= b <= c admits z with b ^ z = a and b v z = c.
    universe = enumerate_partitions(4)
    ps = universe.partitions
    for a in ps:
        for c in ps:
            if not a <= c:
                continue
            for b in ps:
                if a <= b <= c:
                    z = relative_complement_in(b, a, c, universe)
                    assert z is not None
                    assert meet(b, z) == a and join(b, z) == c


def test_relative_complement_rejects_non_chain():
    with pytest.raises(ValueError):
        relative_complement_in(bottom(3), top(3), top(3))
