"""Chain verification, deterministic saturation, exhaustive and keyframe chains."""
import itertools
import math
import random
import re

import pytest

from pilat import (
    KeyframePlan,
    Partition,
    bottom,
    covers,
    enumerate_maximal_chains,
    extend_to_maximal,
    iter_partitions,
    keyframe_chain,
    lift_subset_chain,
    top,
    verify_chain,
)
from pilat.chains import ChainReport, _step_between, _verify_lines
from pilat.partitions import _BlockMasks, _LineError, _parse_many


def P(text, n):
    return Partition.parse(text, n)


# ------------------------------------------------------------------ verifier

def test_verify_maximal_chain():
    report = verify_chain([bottom(3), P("0 1|2", 3), top(3)])
    assert report.is_chain and report.is_saturated and report.is_maximal
    assert report.witness is None


def test_verify_unsaturated_chain():
    report = verify_chain([bottom(4), top(4)])
    assert report.is_chain
    assert not report.is_saturated and not report.is_maximal
    assert bottom(4) < report.witness < top(4)


def test_verify_non_chain():
    report = verify_chain([P("0 1|2", 3), P("0 2|1", 3)])
    assert not report.is_chain
    assert report.witness == (0, 1)
    assert not report.is_saturated and not report.is_maximal


def test_verify_wrong_direction_is_not_a_chain():
    report = verify_chain([top(3), bottom(3)])
    assert not report.is_chain
    assert report.witness == (0, 1)


def test_verify_missing_endpoint():
    report = verify_chain([bottom(3), P("0 1|2", 3)])
    assert report.is_chain and report.is_saturated and not report.is_maximal
    assert report.witness == top(3)
    report = verify_chain([P("0 1|2", 3), top(3)])
    assert report.witness == bottom(3)


def test_verify_singleton_and_duplicates():
    report = verify_chain([P("0 1|2", 3)])
    assert report.is_chain and report.is_saturated and not report.is_maximal
    report = verify_chain([bottom(3), bottom(3)])
    assert not report.is_chain


def test_verify_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_chain([])
    with pytest.raises(ValueError, match="ground"):
        verify_chain([bottom(3), top(4)])


def _verify_chain_by_covers(chain):
    """Oracle: the verdict from ``<`` and then ``covers`` on each consecutive pair."""
    n = chain[0].n
    pairs = list(zip(chain, chain[1:]))
    for i, (lo, hi) in enumerate(pairs):
        if not lo < hi:
            return ChainReport(False, False, False, witness=(i, i + 1))
    for lo, hi in pairs:
        if not covers(lo, hi):
            return ChainReport(True, False, False, witness=_step_between(lo, hi))
    if chain[0] != bottom(n):
        return ChainReport(True, True, False, witness=bottom(n))
    if chain[-1] != top(n):
        return ChainReport(True, True, False, witness=top(n))
    return ChainReport(True, True, True)


@pytest.mark.parametrize("n", [4, 8, 128])
def test_verify_chain_matches_covers_oracle(n):
    rng = random.Random(n)
    for _ in range(6):
        chain = [bottom(n)]
        while chain[-1].block_count > 1:
            chain.append(chain[-1].merge_blocks(*rng.sample(range(chain[-1].block_count), 2)))
        gap = rng.randrange(1, n - 1)
        swap = rng.randrange(n - 1)
        swapped = chain[:swap] + [chain[swap + 1], chain[swap]] + chain[swap + 2:]
        kinds = {"maximal": (chain, (True, True, True)),
                 "missing-bottom": (chain[1:], (True, True, False)),
                 "missing-top": (chain[:-1], (True, True, False)),
                 "unsaturated": (chain[:gap] + chain[gap + 1:], (True, False, False)),
                 "swapped": (swapped, (False, False, False))}
        for kind, (seq, verdict) in kinds.items():
            report = verify_chain(seq)
            assert report == _verify_chain_by_covers(seq), kind
            assert (report.is_chain, report.is_saturated, report.is_maximal) == verdict, kind
        assert chain[gap - 1] < verify_chain(kinds["unsaturated"][0]).witness < chain[gap + 1]


@pytest.mark.parametrize("lines", [
    ["0|1|2", "00 1|2", "+1 0 2"],  # padded tokens: a maximal chain
    ["0|1|2", "0 01|2", "0 1|2"],  # a padded token writes a line's partition again
    ["0|1|2|3", "+3|0 1|2", "0 1 2 3"],  # padded, with a gap
    ["0 1|2", "2|1 0"],  # one partition written two ways, read as differences
    ["0|1|2", "0 1|2", "0 1 2"],
    # steps that add one block, which is then the union of the dropped ones
    ["0|1|2|3", "0 3|1|2", "0 3|1 2", "0 1 2 3"],  # merges of non-adjacent blocks
    ["0|1|2|3|4", "0 2 4|1|3", "0 1 2 3 4"],  # three blocks merged in one step: a gap
    ["0|1|2", "0 1|2", "1 0|2", "0 1 2"],  # one block rewritten under another text
    # a step that adds two blocks, for which the refinement test runs
    ["0|1|2|3", "0 1|2 3", "0 2|1 3", "0 1 2 3"],  # two blocks for two: no chain
], ids=" / ".join)
def test_verify_lines_is_the_full_parse_then_verify_chain(lines):
    n = len(lines[0].replace("|", " ").split())
    assert _verify_lines(lines, n) == verify_chain(_parse_many(lines, n))


def test_verify_lines_maps_each_merged_text_once(monkeypatch):
    # the block memo starts with the one-element texts, so a 128-line chain
    # file misses it once per merged block and never for a singleton: a lost
    # seed (255 misses) fails here without a timing
    calls = [0]
    missing = _BlockMasks.__missing__

    def counted(memo, text):
        calls[0] += 1
        return missing(memo, text)

    monkeypatch.setattr(_BlockMasks, "__missing__", counted)
    lines = [p.format() for p in keyframe_chain(7)]
    assert _verify_lines(lines, 128) == ChainReport(True, True, True)
    assert calls[0] == 127


@pytest.mark.parametrize("lines, index, message", [
    (["0|1|2", "0 1|0 1|2"], 1, "duplicate element 0"),  # a repeated block text
    (["0 1|2", "0 1|2|2"], 1, "duplicate element 2"),  # the same texts as the line before
    (["0 1|1 0|2"], 0, "duplicate element 1"),  # one block written twice
    (["0|1|2", "0 1|2", "0 x 1 2"], 2, "bad element token in '0 x 1 2'"),
    (["0|1|2", "07 1|2"], 1, "element 7 outside ground set 0..2"),
], ids=lambda v: " / ".join(v) if isinstance(v, list) else str(v))
def test_verify_lines_raises_the_full_parse_line_error(lines, index, message):
    for read in (_parse_many, _verify_lines):
        with pytest.raises(_LineError, match=f"^{message}$") as info:
            read(lines, 3)
        assert info.value.index == index


# ----------------------------------------------------------------- extension

def test_extend_endpoints_only():
    got = extend_to_maximal([bottom(4), top(4)])
    assert [p.format() for p in got] == [
        "0|1|2|3", "0 1|2|3", "0 1 2|3", "0 1 2 3"]


def test_extend_empty_interior():
    got = extend_to_maximal([P("0 1|2 3", 4)])
    assert verify_chain(got).is_maximal
    assert P("0 1|2 3", 4) in got
    assert [p.format() for p in got] == [
        "0|1|2|3", "0 1|2|3", "0 1|2 3", "0 1 2 3"]


def test_extend_is_deterministic_and_idempotent():
    once = extend_to_maximal([P("0 2|1|3 4", 5)])
    twice = extend_to_maximal([P("0 2|1|3 4", 5)])
    assert once == twice
    assert extend_to_maximal(once) == once
    assert verify_chain(once).is_maximal


def test_extend_preserves_given_chain():
    given = [P("0|1|2|3|4", 5), P("0 1|2 3|4", 5), P("0 1 2 3 4", 5)]
    got = extend_to_maximal(given)
    assert verify_chain(got).is_maximal
    assert [p for p in got if p in set(given)] == given


def test_extend_rejects_non_chain():
    with pytest.raises(ValueError, match="chain"):
        extend_to_maximal([P("0 1|2", 3), P("0 2|1", 3)])


def test_maximal_chain_length_is_ground_size():
    for n in range(1, 6):
        chain = extend_to_maximal([bottom(n)])
        assert len(chain) == n
        assert verify_chain(chain).is_maximal


# --------------------------------------------------------------- enumeration

def test_maximal_chain_counts():
    # n! (n-1)! / 2^(n-1) maximal chains in the partition lattice.
    for n in range(1, 6):
        expected = (math.factorial(n) * math.factorial(n - 1)) // 2 ** (n - 1)
        chains = list(enumerate_maximal_chains(n))
        assert len(chains) == expected
        assert len(set(map(tuple, chains))) == expected
        for chain in chains:
            assert verify_chain(chain).is_maximal


def test_maximal_chains_match_subset_scan():
    # Oracle: test every subset of the lattice, ordered coarse-to-fine.
    for n in range(1, 5):
        parts = tuple(iter_partitions(n))
        found = set()
        for r in range(1, len(parts) + 1):
            for combo in itertools.combinations(parts, r):
                seq = sorted(combo, key=lambda p: -p.block_count)
                if verify_chain(seq).is_maximal:
                    found.add(tuple(seq))
        assert found == set(map(tuple, enumerate_maximal_chains(n)))


def test_maximal_chains_are_not_recursive(monkeypatch):
    monkeypatch.setenv("PILAT_MAX_N", "2000")
    n = 1100
    chain = next(enumerate_maximal_chains(n))
    assert len(chain) == n
    assert chain[0] == bottom(n) and chain[-1] == top(n)


def test_enumerate_cap():
    with pytest.raises(ValueError, match="cap"):
        enumerate_maximal_chains(7)


def test_verify_chain_refuses_a_first_member_that_is_no_partition():
    with pytest.raises(TypeError, match="expected a Partition, got str"):
        verify_chain(["0|1|2", bottom(3)])


# --------------------------------------------------------------- subset lift

def test_lift_subset_chain():
    got = lift_subset_chain([{0, 1}, {0, 1, 3}], 4)
    assert [p.format() for p in got] == ["0 1|2|3", "0 1 3|2"]
    report = verify_chain(got)
    assert report.is_chain


def test_lift_rejects_bad_input():
    with pytest.raises(ValueError):
        lift_subset_chain([{0}], 3)
    with pytest.raises(ValueError, match="increasing"):
        lift_subset_chain([{0, 1}, {2, 3}], 4)
    with pytest.raises(ValueError, match="increasing"):
        lift_subset_chain([{0, 1, 2}, {0, 1}], 4)


@pytest.mark.parametrize("n", [-5, "x", True, 500], ids=repr)
def test_lift_checks_n_at_entry(monkeypatch, n):
    # n is checked before the first subset, so an empty chain is refused
    # too, with the ground cap's own error
    monkeypatch.delenv("PILAT_MAX_N", raising=False)
    with pytest.raises((TypeError, ValueError)) as want:
        bottom(n)
    for sets in ([], [{0, 1}]):
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            lift_subset_chain(sets, n)


# ----------------------------------------------------------------- keyframes

def test_keyframe_chain_small():
    assert [p.format() for p in keyframe_chain(0)] == ["0"]
    assert [p.format() for p in keyframe_chain(1)] == ["0|1", "0 1"]
    assert [p.format() for p in keyframe_chain(2)] == [
        "0|1|2|3", "0|1|2 3", "0 1|2 3", "0 1 2 3"]


def test_keyframe_chain_is_maximal():
    for k in range(1, 5):
        chain = keyframe_chain(k)
        assert len(chain) == 2 ** k
        assert verify_chain(chain).is_maximal


def test_keyframes_appear_in_chain():
    for k in range(1, 5):
        plan = KeyframePlan(k)
        chain_set = set(keyframe_chain(k))
        frames = plan.keyframes()
        assert len(frames) == k + 1
        for i, frame in enumerate(frames):
            assert frame in chain_set
            assert frame.block_count == 2 ** (k - i)
        assert frames[0] == bottom(2 ** k)
        assert frames[-1] == top(2 ** k)


def test_keyframe_blocks_are_aligned_ranges():
    plan = KeyframePlan(3)
    frame = plan.keyframe(1)  # two blocks of four consecutive elements
    assert frame.format() == "0 1 2 3|4 5 6 7"
    frame = plan.keyframe(2)
    assert frame.format() == "0 1|2 3|4 5|6 7"


def test_inbetween_interpolates():
    plan = KeyframePlan(2)
    assert plan.inbetween(1, 0) == plan.keyframe(1)
    assert plan.inbetween(1, 1).format() == "0|1|2 3"
    with pytest.raises(ValueError):
        plan.inbetween(1, 2)
    with pytest.raises(ValueError):
        plan.inbetween(3, 0)


def test_keyframe_level_range():
    plan = KeyframePlan(2)
    for level in (-1, 3):
        with pytest.raises(ValueError, match=f"^level {level} outside 0..2$"):
            plan.keyframe(level)


def test_keyframe_k_follows_from_the_ground_cap(monkeypatch):
    with pytest.raises(ValueError, match="ground cap 128"):
        KeyframePlan(10**12)  # refused without building 2^k
    monkeypatch.setenv("PILAT_MAX_N", "4")
    assert len(keyframe_chain(2)) == 4
    with pytest.raises(ValueError, match="ground cap 4"):
        keyframe_chain(3)


def test_keyframe_cap():
    with pytest.raises(ValueError, match="cap"):
        keyframe_chain(8)
    with pytest.raises(ValueError):
        KeyframePlan(-1)


@pytest.mark.parametrize("k", [True, False, 2.5, 2.0, "2", None], ids=repr)
def test_keyframe_k_must_be_an_int(k):
    # bool too: True == 1 would build the chain of Pi_2, and a float would
    # fail only at first use; the type is checked before the range
    with pytest.raises(TypeError, match="must be an int"):
        KeyframePlan(k)
    with pytest.raises(TypeError, match="must be an int"):
        keyframe_chain(k)
