"""Exhaustive generation order, counting formulas, atoms and coatoms."""
import math

import pytest

from pilat import (
    LatticeUniverse,
    Partition,
    atoms,
    bell,
    bottom,
    coatoms,
    covers,
    enumerate_partitions,
    iter_partitions,
    stirling2,
    top,
)

# Bell numbers B_0..B_12, frozen from the usual triangle recurrence.
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]

# Stirling second-kind rows S(n, k) for n = 0..6, frozen from the recurrence
# S(n, k) = k*S(n-1, k) + S(n-1, k-1).
STIRLING_ROWS = {
    0: [1],
    1: [0, 1],
    2: [0, 1, 1],
    3: [0, 1, 3, 1],
    4: [0, 1, 7, 6, 1],
    5: [0, 1, 15, 25, 10, 1],
    6: [0, 1, 31, 90, 65, 15, 1],
}


def test_enumeration_order_n3():
    got = [p.format() for p in iter_partitions(3)]
    assert got == ["0 1 2", "0 1|2", "0 2|1", "0|1 2", "0|1|2"]


def test_enumeration_endpoints():
    for n in range(7):
        universe = enumerate_partitions(n).partitions
        assert universe[0] == top(n)
        assert universe[-1] == bottom(n)


def test_enumeration_counts_and_uniqueness():
    for n in range(9):
        universe = enumerate_partitions(n).partitions
        assert len(universe) == bell(n)
        assert len(set(universe)) == len(universe)
        labels = [p.labels for p in universe]
        # strictly increasing RGS vectors, B(n) of them: exactly the RGS order
        assert all(a < b for a, b in zip(labels, labels[1:]))


def test_enumeration_is_not_recursive(monkeypatch):
    monkeypatch.setenv("PILAT_MAX_N", "2000")
    assert next(iter_partitions(1100)) == top(1100)


def test_enumeration_cap():
    with pytest.raises(ValueError, match="cap"):
        enumerate_partitions(13)
    with pytest.raises(ValueError, match="cap"):
        list(iter_partitions(13))


def test_iter_partitions_refuses_at_call_time(monkeypatch):
    # the refusal comes from the call itself, before any next()
    monkeypatch.delenv("PILAT_MAX_N", raising=False)
    for n in (13, -1):
        with pytest.raises(ValueError, match=rf"enumeration cap 12: n={n} outside 0\.\.12"):
            iter_partitions(n)


def test_iter_partitions_honours_env_cap(monkeypatch):
    monkeypatch.setenv("PILAT_MAX_N", "3")
    with pytest.raises(ValueError, match=r"enumeration cap 3: n=4 outside 0\.\.3"):
        iter_partitions(4)
    assert len(list(iter_partitions(3))) == 5
    monkeypatch.setenv("PILAT_MAX_N", "13")
    assert next(iter_partitions(13)) == top(13)


def test_universe_index():
    universe = enumerate_partitions(3)
    assert isinstance(universe, LatticeUniverse)
    for i, p in enumerate(universe.partitions):
        assert universe.index_of(p) == i
        assert p in universe
    assert bottom(4) not in universe
    with pytest.raises(KeyError):
        universe.index_of(bottom(4))


def test_bell_values():
    for n, value in enumerate(BELL):
        assert bell(n) == value
    assert bell(26) == 49631246523618756274
    with pytest.raises(ValueError):
        bell(27)
    with pytest.raises(ValueError):
        bell(-1)


def test_stirling_values():
    for n, row in STIRLING_ROWS.items():
        for k, value in enumerate(row):
            assert stirling2(n, k) == value
    assert stirling2(26, 13) == 1850568574253550060
    with pytest.raises(ValueError):
        stirling2(5, 6)
    with pytest.raises(ValueError):
        stirling2(27, 3)


def test_counting_is_not_recursive(monkeypatch):
    monkeypatch.setenv("PILAT_MAX_N", "1500")
    assert stirling2(1200, 2) == 2 ** 1199 - 1
    assert stirling2(1200, 1199) == math.comb(1200, 2)
    # Bell triangle: a row starts with the last entry of the one before, which
    # after m rows is B(m + 1)
    row = [1]
    for _ in range(1199):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    assert bell(1200) == row[-1]


def test_bell_is_row_sum_of_stirling():
    for n in range(13):
        assert bell(n) == sum(stirling2(n, k) for k in range(n + 1))


def test_two_block_count_formula():
    for n in range(2, 13):
        assert stirling2(n, 2) == 2 ** (n - 1) - 1


def test_block_count_census_matches_stirling():
    for n in range(7):
        tally = {}
        for p in iter_partitions(n):
            tally[p.block_count] = tally.get(p.block_count, 0) + 1
        for k in range(n + 1):
            assert tally.get(k, 0) == stirling2(n, k)


def test_atoms():
    assert [p.format() for p in atoms(3)] == ["0 1|2", "0 2|1", "0|1 2"]
    for n in range(11):
        got = atoms(n)
        assert len(got) == math.comb(n, 2)
        for a in got:
            assert covers(bottom(n), a)
            assert a.block_count == n - 1


def test_coatoms():
    assert [p.format() for p in coatoms(3)] == ["0|1 2", "0 1|2", "0 2|1"]
    assert [p.format() for p in coatoms(2)] == ["0|1"]
    for n in range(2, 11):
        got = coatoms(n)
        assert len(got) == 2 ** (n - 1) - 1
        for c in got:
            assert covers(c, top(n))
            assert c.block_count == 2
        assert len(set(got)) == len(got)


def test_atoms_coatoms_match_cover_scan():
    for n in range(2, 7):
        universe = enumerate_partitions(n).partitions
        assert set(atoms(n)) == {p for p in universe if covers(bottom(n), p)}
        assert set(coatoms(n)) == {p for p in universe if covers(p, top(n))}


def test_closed_form_counts_match_the_lists():
    from pilat.enumeration import _atom_coatom_counts
    for n in range(11):
        assert _atom_coatom_counts(n) == (len(atoms(n)), len(coatoms(n)))


def test_upper_cover_count_is_block_pairs():
    for n in range(6):
        universe = enumerate_partitions(n).partitions
        for p in universe:
            ups = sum(1 for q in universe if covers(p, q))
            assert ups == math.comb(p.block_count, 2)
