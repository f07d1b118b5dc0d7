"""Complement testing, enumeration against a brute-force oracle, the product
formula, the census against the complement walk, and the two explicit
complement constructions."""
import math
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilat import (
    Partition,
    bottom,
    complement_census,
    enumerate_complements,
    grieser_count,
    injection_complement,
    injection_complement_family,
    is_complement,
    iter_partitions,
    join,
    meet,
    split_transversal_complement,
    split_transversal_family,
    top,
)
from pilat.complements import _complement_counts
from pilat.partitions import CAPS
from oracles import naive_complements, relative_complement_in
from strats import partitions
from test_census_closed_form import complement_total


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
        parts = tuple(iter_partitions(n))
        for p in parts:
            for q in parts:
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
        for p in iter_partitions(n):
            fast = enumerate_complements(p)
            slow = naive_complements(p)
            assert fast == slow


def test_enumeration_yields_in_universe_order():
    index = {p: i for i, p in enumerate(iter_partitions(5))}
    for p in index:
        got = enumerate_complements(p)
        idx = [index[q] for q in got]
        assert idx == sorted(idx)


def test_complement_walk_is_not_recursive(monkeypatch):
    monkeypatch.setenv("PILAT_MAX_N", "2000")
    n = 1100
    assert enumerate_complements(top(n)) == [bottom(n)]
    assert enumerate_complements(bottom(n)) == [top(n)]


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
        for p in iter_partitions(n):
            m = p.block_count
            slots = n - m + 1
            witnesses = [q for q in naive_complements(p)
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
    with pytest.raises(ValueError, match="^pivot block needs at least two elements$"):
        split_transversal_complement(P("0 1|2", 3), pivot=1)
    with pytest.raises(ValueError, match="^marked elements must lie in the pivot block$"):
        split_transversal_complement(p, pivot=0, iota=0, upsilon=2)
    with pytest.raises(ValueError, match="^duplicate block index in part_one$"):
        split_transversal_complement(p, part_one=[1, 1])


def test_split_transversal_gamma_picks_representatives():
    p = P("0 1 2|3 4|5 6 7", 8)  # pivot 0; non-pivot blocks 1 and 2
    found = set()
    for r1 in p.blocks[1]:
        for r2 in p.blocks[2]:
            q = split_transversal_complement(p, gamma={1: r1, 2: r2}, part_one=[1])
            assert is_complement(p, q)
            found.add(q)
    assert len(found) == len(p.blocks[1]) * len(p.blocks[2])
    for gamma, message in [({0: 0}, "bad block index 0 in gamma"),
                           ({5: 3}, "bad block index 5 in gamma"),
                           ({1: 5}, "element 5 not in block 1")]:
        with pytest.raises(ValueError, match=message):
            split_transversal_complement(p, gamma=gamma)


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


def test_families_refuse_at_call_time():
    # the refusal comes from the call itself, before any next()
    with pytest.raises(ValueError, match="block index out of range"):
        injection_complement_family(top(3), 5)
    with pytest.raises(ValueError, match="block index out of range"):
        injection_complement_family(top(3), -1)
    with pytest.raises(ValueError, match="no block with two or more elements"):
        split_transversal_family(bottom(3))


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
    for block in (-1, 2):
        with pytest.raises(ValueError, match="^block index out of range$"):
            injection_complement(p, block, {})


# -------------------------------------------------------------------- census

def test_census_n3():
    rows = complement_census(3)
    assert [(str(p), p.block_count, total, count_nm1, grieser_count(p))
            for p, total, count_nm1 in rows] == [
        ("0 1 2", 1, 1, 1, 1),
        ("0 1|2", 2, 2, 2, 2),
        ("0 2|1", 2, 2, 2, 2),
        ("0|1 2", 2, 2, 2, 2),
        ("0|1|2", 3, 1, 1, 1),
    ]


def test_census_row_fields():
    rows = complement_census(4)
    assert iter(rows) is rows  # a stream of triples, not a list of rows
    rows = list(rows)
    assert [p for p, _, _ in rows] == list(iter_partitions(4))
    for p, total, count_nm1 in rows:
        assert type(total) is int and type(count_nm1) is int
        assert count_nm1 == grieser_count(p)
        assert total >= count_nm1


def test_census_totals_match_oracle():
    for n in range(1, 7):
        for p, total, count_nm1 in complement_census(n):
            comps = naive_complements(p)
            target = n - p.block_count + 1
            assert (total, count_nm1) == (
                len(comps), sum(q.block_count == target for q in comps))


def test_census_matches_product_formula():
    # the product formula is the oracle of count_nm1 on every row
    for n in range(1, 8):
        rows = list(complement_census(n))
        assert [p for p, _, _ in rows] == list(iter_partitions(n))
        assert all(count_nm1 == grieser_count(p) for p, _, count_nm1 in rows)


@lru_cache(maxsize=None)
def _census_counts(n):
    return {p: (total, count_nm1) for p, total, count_nm1 in complement_census(n)}


def _relabel(p, sigma):
    return Partition.from_blocks(p.n, [[sigma[e] for e in b] for b in p.blocks])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(partitions(n), st.permutations(range(n)))))
def test_complements_are_invariant_under_relabelling(p_sigma):
    # renaming the ground set is a lattice automorphism, so the census of a
    # partition depends only on its block sizes
    p, sigma = p_sigma
    q = _relabel(p, sigma)
    counts = _census_counts(p.n)
    assert counts[q] == counts[p]
    assert set(enumerate_complements(q)) == {_relabel(c, sigma)
                                             for c in enumerate_complements(p)}


def _walk_census(n):
    """The census counted from the complements the walk lists.

    No complement has more than n - m + 1 blocks (joining p's m blocks
    takes at least m - 1 merges), so that is the target block count.
    """
    for p in iter_partitions(n):
        got = enumerate_complements(p)
        target = n - p.block_count + 1
        yield p, len(got), sum(q.block_count == target for q in got)


@pytest.mark.parametrize("n", range(1, 8))
def test_census_matches_the_walk(n):
    # the counts from block sizes against the complement walk, row for row
    assert list(complement_census(n)) == list(_walk_census(n))


def _one_partition_per_shape(n):
    # the first partition of each block shape in RGS order
    shapes = {}
    for p in iter_partitions(n):
        shapes.setdefault(p.block_sizes, p)
    return list(shapes.values())


@pytest.mark.parametrize("p", [*_one_partition_per_shape(8),
                               P("0 1|2 3|4 5|6 7|8 9|10", CAPS["complement enumeration"])],
                         ids=str)
def test_walk_lists_what_the_block_sizes_count(p):
    # past n = 7 the walk is checked against the transfer: as many
    # complements, as many with n - m + 1 blocks, and no complement twice
    target = p.n - p.block_count + 1
    got = enumerate_complements(p)
    total, count_nm1 = _complement_counts(p.block_sizes, target)
    assert len(got) == total
    assert sum(q.block_count == target for q in got) == count_nm1
    assert len(set(got)) == total


@st.composite
def _block_sizes(draw):
    # the block sizes of a partition of at most 9 elements, in any order
    left = draw(st.integers(1, 9))
    sizes = []
    while left:
        sizes.append(draw(st.integers(1, left)))
        left -= sizes[-1]
    return tuple(sizes)


@settings(max_examples=100, deadline=None)
@given(_block_sizes().flatmap(lambda sizes: st.tuples(st.just(sizes), st.permutations(sizes))))
def test_complement_counts_read_only_the_block_sizes(sizes_order):
    # the kernel's counts do not depend on the order of the blocks, the
    # Moebius closed form gives the total and the product formula the count
    # with n - m + 1 blocks
    sizes, order = sizes_order
    n, m = sum(sizes), len(sizes)
    total, count_nm1 = _complement_counts(sizes, n - m + 1)
    assert _complement_counts(tuple(order), n - m + 1) == (total, count_nm1)
    assert total == complement_total(tuple(sorted(sizes, reverse=True)))
    assert count_nm1 == (math.prod(sizes) * (n - m + 1) ** (m - 2) if m >= 2 else 1)


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
    ps = tuple(iter_partitions(4))
    for a in ps:
        for c in ps:
            if not a <= c:
                continue
            for b in ps:
                if a <= b <= c:
                    z = relative_complement_in(b, a, c)
                    assert z is not None
                    assert meet(b, z) == a and join(b, z) == c


def test_relative_complement_rejects_non_chain():
    with pytest.raises(ValueError):
        relative_complement_in(bottom(3), top(3), top(3))
