"""Antichain verification and the two canonical constructions."""
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilat import (
    Partition,
    bipartition_antichain,
    bottom,
    coatoms,
    comparable,
    diag,
    doubleton_antichain,
    extend_to_maximal_antichain,
    iter_partitions,
    top,
    verify_antichain,
)
from pilat.antichains import AntichainReport, _bipartition_lines
from pilat.partitions import _format_many

from strats import partitions


def P(text, n):
    return Partition.parse(text, n)


# ------------------------------------------------------------------ verifier

def test_verify_antichain_of_atoms():
    report = verify_antichain(doubleton_antichain(3), 3)
    assert report.is_antichain and report.is_maximal
    assert report.witness is None


def test_verify_comparable_pair():
    report = verify_antichain([bottom(3), top(3)], 3)
    assert not report.is_antichain
    assert report.witness == (bottom(3), top(3))
    assert report.is_maximal is None


def _first_comparable_pair(members):
    """Oracle: the first member pair, in list order, that ``comparable`` accepts."""
    for i, p in enumerate(members):
        for q in members[i + 1:]:
            if comparable(p, q):
                return (p, q)
    return None


mixed_rank_lists = st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(partitions(n), min_size=2, max_size=8, unique=True).filter(
        lambda mem: len({p.block_count for p in mem}) > 1)))


@settings(deadline=None, max_examples=200)
@given(mixed_rank_lists)
def test_pairwise_check_matches_all_pairs_oracle(case):
    n, members = case
    pair = _first_comparable_pair(members)
    report = verify_antichain(members, n, check_maximal=False)
    assert report == AntichainReport(pair is None, None, witness=pair)


def test_one_rank_members_take_no_refinement_test(monkeypatch):
    calls = []
    leq = Partition.__le__
    monkeypatch.setattr(Partition, "__le__", lambda p, q: calls.append((p, q)) or leq(p, q))
    report = verify_antichain(bipartition_antichain(12), 12, check_maximal=False)
    assert report == AntichainReport(True, None) and calls == []
    # across ranks only the finer member is tested against the coarser one
    report = verify_antichain([top(3), bottom(3)], 3, check_maximal=False)
    assert report.witness == (top(3), bottom(3)) and calls == [(bottom(3), top(3))]


def test_verify_non_maximal():
    members = [P("0 1|2|3", 4)]
    report = verify_antichain(members, 4)
    assert report.is_antichain and not report.is_maximal
    extra = report.witness
    assert not comparable(extra, members[0])


def test_verify_empty_antichain():
    report = verify_antichain([], 3)
    assert report.is_antichain and not report.is_maximal
    assert report.witness is not None


def test_verify_can_skip_maximality():
    report = verify_antichain([P("0 1|2|3", 4)], 4, check_maximal=False)
    assert report.is_antichain
    assert report.is_maximal is None


def test_verify_maximality_cap():
    with pytest.raises(ValueError, match="cap"):
        verify_antichain([bottom(11)], 11)
    report = verify_antichain([bottom(11)], 11, check_maximal=False)
    assert report.is_antichain


@pytest.mark.parametrize("n", [500, -1, "x"], ids=repr)
def test_verify_without_maximality_checks_n(monkeypatch, n):
    # with no member to compare it with, n meets the ground cap
    monkeypatch.delenv("PILAT_MAX_N", raising=False)
    with pytest.raises((TypeError, ValueError)) as want:
        bottom(n)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        verify_antichain([], n, check_maximal=False)


def test_verify_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate"):
        verify_antichain([top(3), top(3)], 3)
    with pytest.raises(ValueError, match="ground"):
        verify_antichain([top(3), top(4)], 3)


def test_singleton_extremes_are_maximal():
    assert verify_antichain([top(3)], 3).is_maximal
    assert verify_antichain([bottom(3)], 3).is_maximal


# -------------------------------------------------------------- constructions

def test_doubleton_antichain_sizes():
    for n in range(2, 8):
        got = doubleton_antichain(n)
        assert len(got) == math.comb(n, 2)
        assert len(set(got)) == len(got)
        for p in got:
            assert p.block_count == n - 1


def test_doubleton_antichain_small_n():
    assert doubleton_antichain(2) == [top(2)]
    with pytest.raises(ValueError):
        doubleton_antichain(1)


def test_bipartition_antichain_sizes():
    for n in range(2, 8):
        got = bipartition_antichain(n)
        assert len(got) == 2 ** (n - 1) - 1
        assert got == coatoms(n)


def test_bipartition_antichain_small_n():
    assert bipartition_antichain(2) == [bottom(2)]
    with pytest.raises(ValueError):
        bipartition_antichain(1)


def test_bipartition_lines_match_the_formatted_members():
    for n in range(2, 13):
        assert list(_bipartition_lines(n)) == _format_many(bipartition_antichain(n))


def test_bipartition_lines_refuse_as_the_members_do(monkeypatch):
    # the same refusals in the same order, made before the first line
    monkeypatch.delenv("PILAT_MAX_N", raising=False)
    for n in (1, 0, -1, 129):
        with pytest.raises(ValueError) as want:
            bipartition_antichain(n)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            _bipartition_lines(n)


def test_constructions_are_maximal_antichains():
    for n in range(2, 8):
        for members in (doubleton_antichain(n), bipartition_antichain(n)):
            report = verify_antichain(members, n)
            assert report.is_antichain and report.is_maximal


# ----------------------------------------------------------------- extension

def test_extend_empty_collects_top():
    got = extend_to_maximal_antichain([], 3)
    assert got == [top(3)]


def test_extend_is_deterministic_and_idempotent():
    seed = [P("0 1|2|3", 4)]
    once = extend_to_maximal_antichain(seed, 4)
    assert once == extend_to_maximal_antichain(seed, 4)
    assert extend_to_maximal_antichain(once, 4) == once
    assert verify_antichain(once, 4).is_maximal
    assert seed[0] in once


def test_extend_scans_in_enumeration_order():
    # From one atom of Pi_3 the scan adds the first incomparable partitions.
    got = extend_to_maximal_antichain([P("0 1|2", 3)], 3)
    assert [p.format() for p in got] == ["0 1|2", "0 2|1", "0|1 2"]


def test_extend_results_are_maximal():
    for n in range(1, 6):
        for p in iter_partitions(n):
            out = extend_to_maximal_antichain([p], n)
            assert p in out
            report = verify_antichain(out, n)
            assert report.is_antichain and report.is_maximal


def test_extend_rejects_non_antichain():
    with pytest.raises(ValueError, match="antichain"):
        extend_to_maximal_antichain([bottom(3), top(3)], 3)


def test_extend_refuses_members_then_non_antichain_then_cap():
    # each member is checked before any is hashed, so a list is a member
    # error, not an unhashable type
    with pytest.raises(TypeError, match="^expected a Partition, got list$"):
        extend_to_maximal_antichain([[0]], 1)
    with pytest.raises(ValueError, match="^ground-set mismatch: 3 vs 4$"):
        extend_to_maximal_antichain([bottom(3), top(3)], 4)
    with pytest.raises(ValueError, match="^input is not an antichain$"):
        extend_to_maximal_antichain([bottom(11), top(11)], 11)
    with pytest.raises(ValueError, match="^antichain maximality cap 10: n=11 outside 0..10$"):
        extend_to_maximal_antichain([top(11), top(11)], 11)


# ------------------------------------------------------- oracle for the sweep

def _reference_witness(members, n):
    """The first partition, in RGS order, outside members and incomparable to all."""
    have = set(members)
    for q in iter_partitions(n):
        if q in have:
            continue
        if not any(comparable(q, p) for p in members):
            return q
    return None


def _reference_extend(members, n):
    chosen = list(dict.fromkeys(members))
    have = set(chosen)
    for q in iter_partitions(n):
        if q in have:
            continue
        if not any(comparable(q, p) for p in chosen):
            chosen.append(q)
            have.add(q)
    return chosen


def _random_antichain(parts, rng):
    chosen = []
    for q in rng.sample(parts, rng.randint(0, len(parts))):
        if not any(comparable(q, p) for p in chosen):
            chosen.append(q)
    return chosen


def test_sweep_matches_reference_loops():
    rng = random.Random(5)
    for n in range(7):
        parts = list(iter_partitions(n))
        seeds = [[p] for p in parts] + [_random_antichain(parts, rng) for _ in range(8)]
        for seed in seeds:
            witness = _reference_witness(seed, n)
            report = verify_antichain(seed, n)
            assert report.witness == witness
            assert report.is_maximal == (witness is None)
            assert extend_to_maximal_antichain(seed, n) == _reference_extend(seed, n)


def test_extend_appends_after_a_deep_first_witness():
    # Each partition the walk appends gets a bit in the saved bitsets of every
    # depth.  Seeds whose first witness lies in the second half of the RGS
    # order make the walk append deep in the tree and then walk on.
    rng = random.Random(6)
    n = 6
    parts = list(iter_partitions(n))
    position = {p: i for i, p in enumerate(parts)}
    deep = 0
    for _ in range(300):
        seed = _random_antichain(parts, rng)
        witness = _reference_witness(seed, n)
        if witness is None or position[witness] < len(parts) // 2:
            continue
        expected = _reference_extend(seed, n)
        assert extend_to_maximal_antichain(seed, n) == expected
        deep += len(expected) - len(seed) >= 2
    assert deep >= 5


def test_walk_is_not_recursive(monkeypatch):
    monkeypatch.setenv("PILAT_MAX_N", "2000")
    n = 1100
    report = verify_antichain([diag([n - 2, n - 1], n)], n)
    assert report.is_antichain and report.is_maximal is False
    assert report.witness.format() == " ".join(map(str, range(n - 1))) + f"|{n - 1}"
