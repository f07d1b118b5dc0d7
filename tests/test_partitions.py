"""Core partition type: construction, canonical form, and lattice operations."""
import argparse
import json
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pilat import (
    Partition,
    atoms,
    bell,
    bipartition_antichain,
    bottom,
    check_ortho_map,
    coatoms,
    comparable,
    complement_census,
    covers,
    diag,
    doubleton_antichain,
    enumerate_complements,
    enumerate_maximal_chains,
    extend_to_maximal_antichain,
    iter_partitions,
    join,
    leq,
    lift_subset_chain,
    meet,
    non_ortho_witness,
    relative_complement_in,
    search_orthocomplementation,
    stirling2,
    top,
    verify_antichain,
    verify_chain,
)
from pilat.antichains import _bipartition_lines
from pilat.cli import _cmd_hasse
from pilat.enumeration import _partition_lines
from pilat.partitions import _BlockMasks, _format_many, _LineError, _parse_many
from strats import partition_pairs, partition_triples, partitions


# ---------------------------------------------------------------- construction

def test_parse_format_round_trip():
    for text, n in [("0 1|2 3", 4), ("0|1|2", 3), ("0 1 2", 3), ("0 2|1 3", 4)]:
        assert Partition.parse(text, n).format() == text


def test_parse_canonicalizes_block_and_element_order():
    assert Partition.parse("3 2|1 0", 4).format() == "0 1|2 3"
    assert Partition.parse("2|0 1", 3).format() == "0 1|2"


def test_parse_empty_ground_set():
    p = Partition.parse("", 0)
    assert p.n == 0 and p.blocks == () and p.format() == ""


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate element"):
        Partition.parse("0 0|1", 2)
    with pytest.raises(ValueError, match="outside ground set"):
        Partition.parse("0 3", 2)
    with pytest.raises(ValueError, match="missing elements"):
        Partition.parse("0|1", 3)
    with pytest.raises(ValueError, match="empty block"):
        Partition.parse("0||1", 2)
    with pytest.raises(ValueError):
        Partition.parse("0 x", 2)
    with pytest.raises(ValueError):
        Partition.parse("", 1)


@pytest.mark.parametrize("build, message", [
    (lambda: Partition(3, [0b011, 0b110]), "blocks must be disjoint and cover 0..n-1"),
    (lambda: Partition(2, [0b01]), "blocks must be disjoint and cover 0..n-1"),
    (lambda: Partition(2, [0, 0b11]), "empty block"),
    (lambda: Partition(2, [-1, 0b11]), "empty block"),
    (lambda: Partition.from_blocks(2, [[0, 1], []]), "empty block"),
    (lambda: Partition.from_blocks(2, [["0", 1]]), "element '0' is not an integer"),
])
def test_constructors_refuse_bad_blocks(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("masks", [[True], [True, 2], [1, False, 2], [1.0], [1, "2"], [1, 2, 4.0]])
def test_constructor_refuses_masks_that_are_no_int(masks):
    # bools too, as from_blocks refuses bool elements; before the sort reads a mask
    bad = next(m for m in masks if type(m) is not int)
    with pytest.raises(TypeError, match=f"^block masks must be ints, got {re.escape(repr(bad))}$"):
        Partition(len(masks), masks)
    assert Partition(1, [1]).masks == (1,) and type(Partition(1, [1]).masks[0]) is int


def test_from_labels_canonicalizes():
    assert Partition.from_labels([5, 5, 2]).format() == "0 1|2"
    assert Partition.from_labels([]).n == 0


def test_labels_are_restricted_growth():
    assert Partition.parse("0 2|1 3", 4).labels == (0, 1, 0, 1)
    assert Partition.parse("0|1|2", 3).labels == (0, 1, 2)
    assert Partition.parse("0 1 2", 3).labels == (0, 0, 0)


def _random_partitions(seed, n):
    """Seeded partitions of every coarseness, with partitions and blocks repeated."""
    rng = random.Random(seed)
    parts = [bottom(n), top(n)]
    for k in (2, 3, 5, 17, 64, n):
        parts += [Partition.from_labels([rng.randrange(k) for _ in range(n)]) for _ in range(4)]
    parts += [p.merge_blocks(0, p.block_count - 1) for p in parts if p.block_count > 1]
    parts += rng.sample(parts, 12)
    rng.shuffle(parts)
    return parts


def test_format_many_matches_joined_blocks():
    def oracle(parts):
        return ["|".join(" ".join(map(str, b)) for b in p.blocks) for p in parts]

    for n in range(8):
        parts = list(iter_partitions(n))
        assert _format_many(parts) == oracle(parts)
    parts = _random_partitions(8, 128)
    assert len(set(parts)) < len(parts)
    assert _format_many(parts) == oracle(parts)
    assert [p.format() for p in parts] == oracle(parts)
    assert _format_many([]) == []


def test_labels_match_blocks():
    for p in _random_partitions(9, 128) + list(iter_partitions(5)):
        assert p.labels == tuple(next(j for j, b in enumerate(p.blocks) if e in b)
                                 for e in range(p.n))


def test_blocks_and_sizes():
    p = Partition.parse("0 3|1|2 4 5", 6)
    assert p.blocks == ((0, 3), (1,), (2, 4, 5))
    assert p.block_count == 3
    assert p.block_sizes == (3, 2, 1)


def test_json_round_trip():
    p = Partition.parse("0 2|1 3", 4)
    q = Partition.from_json(json.loads(json.dumps(p.to_json())))
    assert q == p


@pytest.mark.parametrize("data", [
    {"n": "3", "blocks": [[0]]},
    {"n": True, "blocks": [[0]]},
    {"n": 3, "blocks": 5},
    {"n": 3, "blocks": [0, 1, 2]},
    {"n": 3},
    [3],
])
def test_from_json_rejects_malformed(data):
    with pytest.raises(ValueError):
        Partition.from_json(data)


# ------------------------------------------------------------------ extremes

def test_bottom_and_top():
    assert bottom(3).format() == "0|1|2"
    assert top(3).format() == "0 1 2"
    assert bottom(1) == top(1)
    assert bottom(0) == top(0)
    assert bottom(4).block_count == 4
    assert top(4).block_count == 1


def test_diag_singular_partitions():
    assert diag({1, 3}, 5).format() == "0|1 3|2|4"
    assert diag({0, 1, 2}, 3) == top(3)
    with pytest.raises(ValueError):
        diag(set(), 3)
    with pytest.raises(ValueError):
        diag({0, 5}, 3)
    # the size is checked before the elements
    with pytest.raises(ValueError, match="cap 128: n=200"):
        diag([300], 200)


def test_diag_preserves_subset_order():
    assert diag({1, 2}, 5) < diag({1, 2, 4}, 5)
    assert not diag({1, 2}, 5) <= diag({2, 3}, 5)


MEMBER_SETS = {
    "str": lambda: diag(["a"], 4),
    "float": lambda: diag([0.5, 1], 4),
    "bool": lambda: diag([True, 2], 4),  # _members_mask refuses True as element 1
    "lift": lambda: lift_subset_chain([[0, "x"]], 4),
}


@pytest.mark.parametrize("name", sorted(MEMBER_SETS))
def test_member_sets_take_integers_only(name):
    with pytest.raises(ValueError, match=r"element .* is not an integer"):
        MEMBER_SETS[name]()


# Each takes a list of members and the ground size they must share.
MEMBER_LISTS = {
    "verify_chain": lambda mem, n: verify_chain([bottom(n), *mem]),
    "verify_antichain": lambda mem, n: verify_antichain([bottom(n), *mem], n),
}


@pytest.mark.parametrize("name", sorted(MEMBER_LISTS))
def test_member_lists_take_partitions_of_one_ground(name):
    for bad in ("x", None, 3):
        with pytest.raises(TypeError, match=f"expected a Partition, got {type(bad).__name__}"):
            MEMBER_LISTS[name]([bad], 3)
    with pytest.raises(ValueError, match="ground-set mismatch: 4 vs 3"):
        MEMBER_LISTS[name]([bottom(4)], 3)


# ------------------------------------------------------------------- ordering

def test_leq_examples():
    fine = Partition.parse("0 1|2", 3)
    assert bottom(3) <= fine <= top(3)
    assert not top(3) <= fine
    assert fine <= fine
    assert leq(fine, top(3))
    assert not leq(fine, Partition.parse("0 2|1", 3))


def test_incomparable_pair():
    p = Partition.parse("0 1|2 3", 4)
    q = Partition.parse("0 2|1 3", 4)
    assert not p <= q and not q <= p
    assert not comparable(p, q)
    assert comparable(p, top(4))


def test_strict_order():
    fine = Partition.parse("0 1|2", 3)
    assert fine < top(3)
    assert not fine < fine
    assert top(3) > fine


def test_mixed_ground_sets_rejected():
    with pytest.raises(ValueError, match="ground"):
        leq(bottom(3), bottom(4))
    with pytest.raises(ValueError, match="ground"):
        meet(bottom(3), bottom(4))


@pytest.mark.parametrize("compare", [
    lambda p, q: p < q, lambda p, q: p <= q, lambda p, q: p > q, lambda p, q: p >= q,
])
def test_order_reports_the_left_ground_first(compare):
    with pytest.raises(ValueError, match="^ground-set mismatch: 2 vs 3$"):
        compare(bottom(2), bottom(3))
    with pytest.raises(TypeError, match="^expected a Partition, got int$"):
        compare(bottom(2), 3)


def _reference_leq(p, q):
    """The labels-based refinement test, kept as the oracle of ``<=``."""
    if p.n != q.n:
        raise ValueError(f"ground-set mismatch: {p.n} vs {q.n}")
    for m in p.masks:
        if m & ~q.masks[q.labels[(m & -m).bit_length() - 1]]:
            return False
    return True


@settings(max_examples=300)
@given(partition_pairs(8))
def test_leq_matches_the_labels_oracle(pq):
    # random pairs are mostly unrelated; the meet and join add related ones
    p, q = pq
    for a, b in ((p, q), (q, p), (p, p), (p & q, p), (p, p | q), (p | q, p)):
        assert (a <= b) == _reference_leq(a, b)


def test_leq_matches_the_labels_oracle_at_the_ground_cap():
    rng = random.Random(18)
    n = 128
    pairs = [(bottom(n), Partition.from_labels([e // 2 for e in range(n)]))]
    for _ in range(40):
        p = Partition.from_labels([rng.randrange(rng.randint(1, n)) for _ in range(n)])
        q = Partition.from_labels([rng.randrange(rng.randint(1, n)) for _ in range(n)])
        if p.block_count > 1:
            i, j = sorted(rng.sample(range(p.block_count), 2))
            pairs.append((p, p.merge_blocks(i, j)))  # a cover
        pairs += [(p, q), (p, Partition(n, p.masks)), (p & q, q), (p, p | q)]
    for p, q in pairs:
        for a, b in ((p, q), (q, p)):
            assert (a <= b) == _reference_leq(a, b)
    assert bottom(n) <= pairs[0][1] and not pairs[0][1] <= bottom(n)


# ------------------------------------------------------------------ meet/join

def test_meet_example():
    p = Partition.parse("0 1|2 3", 4)
    q = Partition.parse("0 2|1 3", 4)
    assert meet(p, q) == bottom(4)
    assert (p & q) == bottom(4)


def test_meet_refines_common_blocks():
    p = Partition.parse("0 1 2|3 4", 5)
    q = Partition.parse("0 1|2 3 4", 5)
    assert meet(p, q).format() == "0 1|2|3 4"


def test_join_example():
    p = Partition.parse("0 1|2 3", 4)
    q = Partition.parse("0 2|1 3", 4)
    assert join(p, q) == top(4)
    assert (p | q) == top(4)


def test_join_chains_overlapping_blocks():
    p = Partition.parse("0 1|2|3", 4)
    q = Partition.parse("0|1 2|3", 4)
    assert join(p, q).format() == "0 1 2|3"


def test_merge_blocks():
    p = Partition.parse("0 1|2|3", 4)
    assert p.merge_blocks(0, 2).format() == "0 1 3|2"
    with pytest.raises(ValueError):
        p.merge_blocks(0, 0)
    with pytest.raises(ValueError):
        p.merge_blocks(0, 3)


# -------------------------------------------------------------------- covers

def test_covers_examples():
    assert covers(bottom(4), Partition.parse("0 1|2|3", 4))
    assert not covers(bottom(4), Partition.parse("0 1|2 3", 4))
    assert not covers(bottom(4), bottom(4))
    assert covers(Partition.parse("0 1|2 3", 4), top(4))
    assert not covers(top(4), bottom(4))


def test_covers_matches_no_strictly_between():
    for n in range(5):
        parts = tuple(iter_partitions(n))
        for p in parts:
            for q in parts:
                brute = (p < q and not any(p < z < q for z in parts))
                assert covers(p, q) == brute


# ----------------------------------------------------------------- properties

@settings(max_examples=200)
@given(st.integers(0, 12).flatmap(partitions))
def test_parse_inverts_format(p):
    assert Partition.parse(p.format(), p.n) == p


@settings(max_examples=200)
@given(partition_pairs())
def test_meet_join_commute(pq):
    p, q = pq
    assert meet(p, q) == meet(q, p)
    assert join(p, q) == join(q, p)


@settings(max_examples=200)
@given(partition_pairs())
def test_meet_join_bound(pq):
    p, q = pq
    assert meet(p, q) <= p <= join(p, q)
    assert meet(p, q) <= q <= join(p, q)


@settings(max_examples=200)
@given(partition_pairs())
def test_order_agrees_with_operations(pq):
    p, q = pq
    assert (p <= q) == (meet(p, q) == p)
    assert (p <= q) == (join(p, q) == q)


@settings(max_examples=200)
@given(partition_triples())
def test_lattice_laws(pqr):
    p, q, r = pqr
    assert meet(p, join(p, q)) == p
    assert join(p, meet(p, q)) == p
    assert meet(meet(p, q), r) == meet(p, meet(q, r))
    assert join(join(p, q), r) == join(p, join(q, r))


@settings(max_examples=200)
@given(partitions(6))
def test_extremes_bound_everything(p):
    assert bottom(p.n) <= p <= top(p.n)
    assert meet(p, p) == p == join(p, p)


def _reference_parse(text, n):
    """The int()-and-from_blocks parse, kept as the oracle of the table path."""
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


_PIECES = [str(i) for i in range(14)] + [" ", " ", "|", "\t", "x", "+", "-", "07", "+3", "\u0663"]


@st.composite
def _literals(draw):
    """(text, n): noise over the literal alphabet, or a partition's blocks and
    elements in any order, some of them padded, signed or replaced."""
    n = draw(st.integers(-1, 12))
    if n < 1 or draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(_PIECES), max_size=30))), n
    p = draw(partitions(n))
    blocks = [draw(st.permutations([str(e) for e in b])) for b in p.blocks]
    blocks = draw(st.permutations(blocks))
    tokens = [t for b in blocks for t in b]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2))
        tokens[i] = draw(st.sampled_from([tokens[j], tokens[j], "0" + tokens[i],
                                          "+" + tokens[i], "-1", "x", str(n), ""]))
    it = iter(tokens)
    text = "|".join(" ".join(next(it) for _ in b) for b in blocks)
    pad = draw(st.sampled_from(["", " ", "\t", "\n"]))
    return pad + text + pad, draw(st.sampled_from([n, n, n - 1, n + 1]))


def _outcome(parse, text, n):
    try:
        p = parse(text, n)
    except ValueError as exc:
        return str(exc)
    return p.n, p.masks


@settings(max_examples=300)
@given(_literals(), st.sampled_from([None, None, "3", "12", "x"]))
@example(("07 1|2 3 4 5 6 0", 8), None)
@example(("+3 0|1 2", 4), None)
@example(("\u0663 0|1 2", 4), None)
@example(("", 0), None)
@example(("0", 0), None)
@example(("0 1|", 2), None)
@example(("", 200), None)
@example(("0", 200), None)
@example(("0 1 2 3", 4), "3")
@example(("0 1 2", 3), "x")
@example(("0 x", 2), "x")
def test_parse_matches_the_reference_parse(literal, cap):
    # the table path may only be faster: every result and every error
    # message is that of the int() path, whatever PILAT_MAX_N says
    text, n = literal
    with pytest.MonkeyPatch.context() as mp:
        if cap is None:
            mp.delenv("PILAT_MAX_N", raising=False)
        else:
            mp.setenv("PILAT_MAX_N", cap)
        assert _outcome(Partition.parse, text, n) == _outcome(_reference_parse, text, n)



_BAD_TOKENS = ["07", "+3", "\u0663", "-1", "x", ""]


@st.composite
def _literal_files(draw):
    """(lines, n): a walk through Pi_n whose lines share block texts, written
    with permuted blocks and elements and padded whitespace, some tokens
    replaced by a repeat, an out-of-range id or a bad token, and some lines
    drawn from the literal noise of ``_literals``."""
    n = draw(st.integers(1, 9))
    p = draw(partitions(n))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["merge", "merge", "same", "noise", "fresh"]))
        if kind == "noise":
            lines.append(draw(_literals())[0])
            continue
        if kind == "fresh":
            p = draw(partitions(n))
        elif kind == "merge" and p.block_count > 1:
            i, j = draw(st.lists(st.integers(0, p.block_count - 1), min_size=2,
                                 max_size=2, unique=True))
            p = p.merge_blocks(i, j)
        blocks = [list(map(str, b)) for b in p.blocks]
        if draw(st.integers(0, 3)) == 0:
            b = draw(st.integers(0, len(blocks) - 1))
            t = draw(st.integers(0, len(blocks[b]) - 1))
            blocks[b][t] = draw(st.sampled_from(_BAD_TOKENS + [str(n), blocks[0][0]]))
        if draw(st.booleans()):
            blocks = [draw(st.permutations(b)) for b in draw(st.permutations(blocks))]
        sep = draw(st.sampled_from([" ", " ", "  ", "\t"]))
        pad = draw(st.sampled_from(["", "", " ", "\t", "\n"]))
        lines.append(pad + "|".join(sep.join(b) for b in blocks) + pad)
    return lines, draw(st.sampled_from([n, n, n, n - 1, n + 1]))


def _file_outcome(lines, n):
    """The reference parse line by line: every partition, or the first bad
    line's index and message."""
    out = []
    for index, text in enumerate(lines):
        try:
            p = _reference_parse(text, n)
        except ValueError as exc:
            return index, str(exc)
        out.append((p.n, p.masks))
    return out


def _parse_many_outcome(lines, n):
    try:
        parts = _parse_many(lines, n)
    except _LineError as exc:
        return exc.index, str(exc)
    return [(p.n, p.masks) for p in parts]


@settings(max_examples=300)
@given(_literal_files(), st.sampled_from([None, None, "3", "x"]))
@example((["0 1|2", "0 1 2", "0 1|0"], 3), None)  # a bad line reusing a good block text
@example((["0 0|0"], 2), None)  # a repeat that carries: 1 + 1 + 1 is the full mask
@example((["0|1", "0|0|0"], 2), None)  # repeated blocks whose masks sum to the full mask
@example((["0 1|2", "0 0|0|2"], 3), None)
@example((["0|1|2", "07|1|2", "0 1|2"], 3), None)
@example((["0|1 2", "+3 0|1 2"], 4), None)
@example((["0 1|2 3", "\u0663 0|1 2"], 4), None)
@example(([" 0  1|2", "1 0 |2", "0 1|\t2"], 3), None)
@example((["0 1|2 3"], 4), "3")
@example((["0|1", "0 1"], 2), "x")
def test_parse_many_matches_the_reference_parse(literal_file, cap):
    # the block memo may only be faster: every result and every error message
    # is that of the int() path, line by line, whatever PILAT_MAX_N says
    lines, n = literal_file
    with pytest.MonkeyPatch.context() as mp:
        if cap is None:
            mp.delenv("PILAT_MAX_N", raising=False)
        else:
            mp.setenv("PILAT_MAX_N", cap)
        assert _parse_many_outcome(lines, n) == _file_outcome(lines, n)


def test_block_memo_stores_only_exact_masks():
    memo = _BlockMasks(4)
    singletons = {"0": 0b1, "1": 0b10, "2": 0b100, "3": 0b1000}
    assert dict(memo) == singletons  # seeded with the one-element texts
    assert memo[" 2  0"] == 0b101 and memo[""] == 0
    for text in ("0 0", "1 3 1", "07", "+3", "4", "x 1"):
        with pytest.raises(KeyError):
            memo[text]
    assert dict(memo) == {**singletons, " 2  0": 0b101, "": 0}
    assert memo.low == {0b1: 0b1, 0b10: 0b10, 0b100: 0b100, 0b1000: 0b1000, 0b101: 0b1, 0: 0}


# ---------------------------------------------------------------------- caps

def test_ground_cap_env_override(monkeypatch):
    monkeypatch.setenv("PILAT_MAX_N", "3")
    with pytest.raises(ValueError, match="outside 0..3"):
        bottom(4)
    assert bottom(3).n == 3


def test_ground_cap_env_must_be_non_negative(monkeypatch):
    monkeypatch.setenv("PILAT_MAX_N", "-1")
    with pytest.raises(ValueError, match="^PILAT_MAX_N must be non-negative, got -1$"):
        bottom(0)


def test_from_blocks_checks_the_size_first():
    with pytest.raises(ValueError, match="cap 128: n=200"):
        Partition.parse("0", 200)
    # a check after the block scan would list 999 999 missing elements first
    with pytest.raises(ValueError, match="cap 128: n=1000000"):
        Partition.parse("0", 10**6)


# Every entry point that takes a size n from its caller, called with that n.
SIZED = {
    "Partition": lambda n: Partition(n, ()),
    "from_blocks": lambda n: Partition.from_blocks(n, []),
    "bottom": bottom,
    "top": top,
    "coatoms": coatoms,
    "atoms": atoms,
    "diag": lambda n: diag([0], n),
    "lift_subset_chain": lambda n: lift_subset_chain([[0, 1]], n),
    "doubleton_antichain": doubleton_antichain,
    "bipartition_antichain": bipartition_antichain,
    "non_ortho_witness": non_ortho_witness,
    "iter_partitions": lambda n: list(iter_partitions(n)),
    # the streamed listings refuse at call time, before their first line
    "_partition_lines": _partition_lines,
    "_bipartition_lines": _bipartition_lines,
    "stirling2": lambda n: stirling2(n, 0),
    "bell": bell,
    "enumerate_maximal_chains": enumerate_maximal_chains,
    "verify_antichain": lambda n: verify_antichain([], n),
    "extend_to_maximal_antichain": lambda n: extend_to_maximal_antichain([], n),
    "complement_census": complement_census,
    "check_ortho_map": lambda n: check_ortho_map({}, n),
    "search_orthocomplementation": search_orthocomplementation,
    "search_orthocomplementation_exhaustive":
        lambda n: search_orthocomplementation(n, exhaustive=True),
    "hasse": lambda n: _cmd_hasse(argparse.Namespace(n=n, chain=None, antichain=None,
                                                     output=None)),
}

# Entry points that read n from a partition, which cannot have n < 0.
ON_PARTITION = {
    "enumerate_complements": enumerate_complements,
    "relative_complement_in": lambda p: relative_complement_in(p, p, p),
}


@pytest.mark.parametrize("name", sorted(SIZED))
def test_every_size_cap_follows_one_rule(monkeypatch, name):
    monkeypatch.setenv("PILAT_MAX_N", "3")
    for n in (4, -1):
        with pytest.raises(ValueError, match=rf"cap 3: n={n} outside 0\.\.3"):
            SIZED[name](n)


@pytest.mark.parametrize("name", sorted(SIZED))
def test_every_size_must_be_an_int(monkeypatch, name):
    # the type is refused before PILAT_MAX_N is read
    monkeypatch.setenv("PILAT_MAX_N", "x")
    for n in (True, False, 2.5, "3"):
        with pytest.raises(TypeError, match=rf"size must be an int: n={re.escape(repr(n))}$"):
            SIZED[name](n)


@pytest.mark.parametrize("name", sorted(ON_PARTITION))
def test_every_partition_cap_follows_one_rule(monkeypatch, name):
    p = bottom(4)
    monkeypatch.setenv("PILAT_MAX_N", "3")
    with pytest.raises(ValueError, match=r"cap 3: n=4 outside 0\.\.3"):
        ON_PARTITION[name](p)


# ------------------------------------------------- trusted internal producers

def _assert_canonical(p):
    # the validating constructor sorts and checks; canonical masks survive it unchanged
    assert Partition(p.n, p.masks).masks == p.masks


def test_internal_producers_match_validating_constructor():
    from itertools import combinations

    from pilat import (KeyframePlan, atoms, coatoms, enumerate_complements,
                       injection_complement_family, iter_partitions,
                       split_transversal_family)

    for n in range(7):
        parts = list(iter_partitions(n))
        for p in parts + [bottom(n), top(n)] + atoms(n) + coatoms(n):
            _assert_canonical(p)
        for p in parts:
            for q in parts:
                _assert_canonical(p & q)
                _assert_canonical(p | q)
            for i, j in combinations(range(p.block_count), 2):
                _assert_canonical(p.merge_blocks(i, j))
                _assert_canonical(p.merge_blocks(j, i))
            for q in enumerate_complements(p):
                _assert_canonical(q)
            if p.block_count < n:
                for q in split_transversal_family(p):
                    _assert_canonical(q)
            for b in range(p.block_count):
                for q in injection_complement_family(p, b):
                    _assert_canonical(q)
            _assert_canonical(Partition.from_labels(p.labels[::-1]))
            _assert_canonical(Partition.from_blocks(n, reversed(p.blocks)))
        for size in range(1, n + 1):
            for members in combinations(range(n), size):
                _assert_canonical(diag(members, n))
    for k in range(4):
        plan = KeyframePlan(k)
        for level in range(k + 1):
            _assert_canonical(plan.keyframe(level))
        for level in range(k):
            for split_count in range(1 << level):
                _assert_canonical(plan.inbetween(level, split_count))
