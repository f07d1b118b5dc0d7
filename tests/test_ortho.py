"""Orthocomplementation axioms, exhaustive search, and counting witness."""
import math

import pytest

from pilat import (
    NonOrthoWitness,
    OrthoReport,
    Partition,
    bottom,
    check_ortho_map,
    covers,
    iter_partitions,
    non_ortho_witness,
    search_orthocomplementation,
    top,
)


def P(text, n):
    return Partition.parse(text, n)


def swap_map(n):
    return {bottom(n): top(n), top(n): bottom(n)}


# ------------------------------------------------------------------- checker

def test_swap_map_is_orthocomplementation_n2():
    report = check_ortho_map(swap_map(2), 2)
    assert report.ok
    assert report.violated_axiom is None and report.witness is None


def test_identity_violates_meet_axiom():
    mapping = {bottom(2): bottom(2), top(2): top(2)}
    report = check_ortho_map(mapping, 2)
    assert not report.ok
    assert report.violated_axiom == "i"
    assert report.witness == top(2)  # first failure in enumeration order


def test_constant_bottom_violates_join_axiom():
    mapping = {bottom(2): bottom(2), top(2): bottom(2)}
    report = check_ortho_map(mapping, 2)
    assert not report.ok
    assert report.violated_axiom == "ii"
    assert report.witness == bottom(2)


def test_non_involution_violates_de_morgan_first():
    # Pairs each middle of Pi_3 with a complement, but not symmetrically:
    # de Morgan (checked before the involution axiom) breaks first.
    m1, m2, m3 = P("0 1|2", 3), P("0 2|1", 3), P("0|1 2", 3)
    mapping = {top(3): bottom(3), bottom(3): top(3), m1: m2, m2: m1, m3: m1}
    report = check_ortho_map(mapping, 3)
    assert not report.ok
    assert report.violated_axiom == "iii"
    assert report.witness == (m2, m3)


def test_de_morgan_map_that_is_no_involution():
    # The three middles of Pi_3 in a 3-cycle: every middle goes to a
    # complement and each meet of two middles is bottom, so axioms i-iii
    # hold and only the involution fails (paper VI).
    m1, m2, m3 = P("0 1|2", 3), P("0 2|1", 3), P("0|1 2", 3)
    mapping = {top(3): bottom(3), bottom(3): top(3), m1: m2, m2: m3, m3: m1}
    assert check_ortho_map(mapping, 3) == OrthoReport(False, "iv", m1)


def test_check_requires_total_map():
    with pytest.raises(ValueError, match="total"):
        check_ortho_map({bottom(2): top(2)}, 2)


def test_check_cap():
    with pytest.raises(ValueError, match="cap"):
        check_ortho_map({}, 7)


# -------------------------------------------------------------------- search

def test_search_finds_map_for_trivial_lattices():
    for n in (0, 1):
        mapping = search_orthocomplementation(n)
        assert mapping is not None
        assert check_ortho_map(mapping, n).ok


def test_search_finds_swap_for_n2():
    mapping = search_orthocomplementation(2)
    assert mapping == swap_map(2)
    assert check_ortho_map(mapping, 2).ok


def test_search_exhausts_n3_n4():
    assert search_orthocomplementation(3) is None
    assert search_orthocomplementation(4) is None


def test_search_exhausts_n5_in_exhaustive_mode():
    assert search_orthocomplementation(5, exhaustive=True) is None


def test_search_caps():
    with pytest.raises(ValueError, match="cap"):
        search_orthocomplementation(5)
    with pytest.raises(ValueError, match="cap"):
        search_orthocomplementation(6, exhaustive=True)


def _bell_triangle(count):
    """B(0), ..., B(count - 1) from the Bell triangle, without pilat.bell."""
    bells, row = [], [1]
    for _ in range(count):
        bells.append(row[0])
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return bells


def test_bell_parity_certifies_no_orthocomplementation():
    # for n >= 2, a = a' would give bottom = a & a' = a = a | a' = top, so an
    # orthocomplementation pairs off Pi_n and B(n) must be even
    bells = _bell_triangle(31)
    assert bells[:8] == [1, 1, 2, 5, 15, 52, 203, 877]
    for n, b in enumerate(bells):
        assert (b % 2 == 1) == (n % 3 in (0, 1)), n
    for n in (3, 4):
        assert search_orthocomplementation(n) is None


def test_pruned_search_agrees_with_unpruned():
    """The pruned search against certificates that need no search at all:
    the axioms accept each found map (n <= 2), Bell parity refutes n = 3, 4
    and the counting witness n = 5."""
    for n in range(3):
        found = search_orthocomplementation(n)
        assert found is not None and check_ortho_map(found, n).ok
    bells = _bell_triangle(5)
    for n in (3, 4):
        assert bells[n] % 2 == 1
        assert search_orthocomplementation(n) is None
    witness = non_ortho_witness(5)
    assert witness.atom_count < witness.coatom_count
    assert search_orthocomplementation(5, exhaustive=True) is None


def test_found_map_reverses_covering_pairs():
    for n in (1, 2):
        mapping = search_orthocomplementation(n)
        parts = tuple(iter_partitions(n))
        for a in parts:
            for b in parts:
                assert covers(a, b) == covers(mapping[b], mapping[a])


# ------------------------------------------------------------------- witness

def test_witness_values():
    w = non_ortho_witness(5)
    assert isinstance(w, NonOrthoWitness)
    assert (w.atom_count, w.coatom_count) == (10, 15)
    assert non_ortho_witness(6).atom_count == 15
    assert non_ortho_witness(6).coatom_count == 31
    assert non_ortho_witness(12).atom_count == 66
    assert non_ortho_witness(12).coatom_count == 2047
    assert non_ortho_witness(20).atom_count == 190
    assert non_ortho_witness(20).coatom_count == 524287


def test_witness_counts_strictly_separate():
    for n in range(5, 40):
        w = non_ortho_witness(n)
        assert w.atom_count == math.comb(n, 2)
        assert w.coatom_count == 2 ** (n - 1) - 1
        assert w.atom_count < w.coatom_count
        assert w.reason


def test_witness_rejects_small_n():
    with pytest.raises(ValueError):
        non_ortho_witness(4)


def test_cover_counts_match_pairwise_scan():
    from pilat.ortho import _cover_counts

    for n in range(6):
        parts = tuple(iter_partitions(n))
        for a in parts:
            below = sum(covers(b, a) for b in parts)
            above = sum(covers(a, b) for b in parts)
            assert _cover_counts(a) == (below, above)


def test_exhaustive_search_reads_only_the_first_pair(monkeypatch):
    # top's one complement is bottom, and the cover counts refuse that pair
    # from n = 4 on, so the search needs no <= and only top's complements
    from pilat import ortho

    calls = {"le": 0, "complements": 0}
    le, complements = Partition.__le__, ortho.enumerate_complements

    def counted_le(self, other):
        calls["le"] += 1
        return le(self, other)

    def counted_complements(p):
        calls["complements"] += 1
        return complements(p)

    monkeypatch.setattr(Partition, "__le__", counted_le)
    monkeypatch.setattr(ortho, "enumerate_complements", counted_complements)
    assert search_orthocomplementation(5, exhaustive=True) is None
    assert calls == {"le": 0, "complements": 1}


@pytest.mark.parametrize("n, exhaustive, pairs, nodes", [
    (0, False, 1, 1), (1, False, 1, 1), (2, False, 1, 1), (3, False, 3, 4), (4, False, 1, 1),
    (5, True, 1, 1),
])
def test_search_work_counts(monkeypatch, n, exhaustive, pairs, nodes):
    # the cover counts are the one prune: a lost or an added prune changes
    # the pairs it is offered (two count reads each) or the nodes that list
    # complements, and no <= is made
    from pilat import ortho

    calls = {"le": 0, "counts": 0, "nodes": 0}
    le, counts, complements = Partition.__le__, ortho._cover_counts, ortho.enumerate_complements

    def counted(key, f):
        def wrapper(*args):
            calls[key] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(Partition, "__le__", counted("le", le))
    monkeypatch.setattr(ortho, "_cover_counts", counted("counts", counts))
    monkeypatch.setattr(ortho, "enumerate_complements", counted("nodes", complements))
    search_orthocomplementation(n, exhaustive=exhaustive)
    assert calls == {"le": 0, "counts": 2 * pairs, "nodes": nodes}


def test_found_map_lists_pi_n_in_rgs_order():
    for n in range(3):
        assert list(search_orthocomplementation(n)) == list(iter_partitions(n))


def test_exhaustive_search_honours_env_cap(monkeypatch):
    monkeypatch.setenv("PILAT_MAX_N", "4")
    with pytest.raises(ValueError, match="cap 4"):
        search_orthocomplementation(5, exhaustive=True)
    monkeypatch.delenv("PILAT_MAX_N")
    assert search_orthocomplementation(5, exhaustive=True) is None
