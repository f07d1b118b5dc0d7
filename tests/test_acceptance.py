"""Acceptance gate: one test per acceptance criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass; without ``-s`` pytest still shows one PASSED/FAILED row per criterion.
"""
import contextlib
import math
import random

import pytest

from pilat import (
    ContinuumModel,
    Partition,
    aleph,
    atoms,
    bipartition_antichain,
    bottom,
    card_cofinality,
    card_pow,
    coatoms,
    complement_count_symbolic,
    covers,
    doubleton_antichain,
    enumerate_complements,
    enumerate_maximal_chains,
    extend_to_maximal,
    fin,
    grieser_count,
    injection_complement_family,
    is_complement,
    iter_partitions,
    join,
    keyframe_chain,
    KeyframePlan,
    meet,
    non_ortho_witness,
    parse_ordinal,
    PartitionShape,
    power_of_two,
    search_orthocomplementation,
    split_transversal_family,
    top,
    verify_antichain,
    verify_chain,
)
from oracles import naive_complements, relative_complement_in


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


@pytest.fixture(scope="module")
def complement_scan():
    """For every partition with 2 <= n <= 7: pruned enumeration, brute-force
    scan, and the count of complements at the maximum block number."""
    table = {}
    for n in range(2, 8):
        rows = []
        for p in iter_partitions(n):
            fast = enumerate_complements(p)
            slow = naive_complements(p)
            target = p.n - p.block_count + 1
            at_target = sum(1 for q in fast if q.block_count == target)
            rows.append((p, len(fast), at_target, fast == slow))
        table[n] = rows
    return table


def test_c01_product_formula_matches_census(complement_scan):
    with criterion("C01 complement-count product formula matches the "
                   "brute-force census for every partition, 2 <= n <= 7"):
        checked = 0
        for n, rows in complement_scan.items():
            for p, _total, at_target, _agree in rows:
                assert at_target == grieser_count(p), p.format()
                checked += 1
        assert checked == sum(len(r) for r in complement_scan.values())


def test_c02_atom_and_coatom_counts():
    with criterion("C02 atom count C(n,2) and coatom count 2^(n-1)-1 "
                   "for 2 <= n <= 10, re-derived from covers for n <= 7"):
        for n in range(2, 11):
            assert len(atoms(n)) == math.comb(n, 2)
            assert len(coatoms(n)) == 2 ** (n - 1) - 1
        for n in range(2, 8):
            parts = tuple(iter_partitions(n))
            assert set(atoms(n)) == {p for p in parts
                                     if covers(bottom(n), p)}
            assert set(coatoms(n)) == {p for p in parts
                                       if covers(p, top(n))}


def test_c03_keyframe_chains():
    with criterion("C03 keyframe chains for k = 1..6 are maximal, have "
                   "2^k elements, and pass through all k+1 keyframes"):
        for k in range(1, 7):
            chain = keyframe_chain(k)
            assert len(chain) == 2 ** k
            report = verify_chain(chain)
            assert report.is_chain and report.is_saturated and report.is_maximal
            members = set(chain)
            frames = KeyframePlan(k).keyframes()
            assert len(frames) == k + 1
            for frame in frames:
                assert frame in members


def test_c04_maximal_chain_lengths():
    with criterion("C04 every maximal chain has exactly n elements: "
                   "exhaustively for n <= 5, on 1000 random extensions "
                   "each at n = 8 and n = 10"):
        for n in range(1, 6):
            for chain in enumerate_maximal_chains(n):
                assert len(chain) == n
                assert verify_chain(chain).is_maximal
        rng = random.Random(20260814)
        for n in (8, 10):
            for _ in range(1000):
                labels = [rng.randrange(n) for _ in range(n)]
                start = Partition.from_labels(labels)
                chain = extend_to_maximal([start])
                assert len(chain) == n
                assert verify_chain(chain).is_maximal
                assert start in chain


def test_c05_antichain_constructions():
    with criterion("C05 antichain constructions have sizes C(n,2) and "
                   "2^(n-1)-1 for n <= 10 and are maximal for n <= 7"):
        for n in range(2, 11):
            pairs = doubleton_antichain(n)
            splits = bipartition_antichain(n)
            assert len(pairs) == math.comb(n, 2)
            assert len(splits) == 2 ** (n - 1) - 1
            check = n <= 7
            for members in (pairs, splits):
                report = verify_antichain(members, n, check_maximal=check)
                assert report.is_antichain
                if check:
                    assert report.is_maximal


def test_c06_construction_families():
    with criterion("C06 split-transversal families (2^(m-1) members) and "
                   "injection families are distinct verified complements "
                   "for every eligible partition, n <= 6"):
        for n in range(1, 7):
            for p in iter_partitions(n):
                if any(len(b) >= 2 for b in p.blocks):
                    family = list(split_transversal_family(p))
                    assert len(family) == 2 ** (p.block_count - 1)
                    assert len(set(family)) == len(family)
                    for q in family:
                        assert is_complement(p, q)
                for b, block in enumerate(p.blocks):
                    family = list(injection_complement_family(p, b))
                    inside, outside = len(block), n - len(block)
                    expected = math.perm(inside, outside) if outside <= inside else 0
                    assert len(family) == expected
                    assert len(set(family)) == len(family)
                    for q in family:
                        assert is_complement(p, q)


def test_c07_orthocomplementations():
    with criterion("C07 orthocomplementations exist for n in {1, 2}, none "
                   "for n in {3, 4}, counting witness for 5 <= n <= 20"):
        from pilat import check_ortho_map
        for n in (1, 2):
            mapping = search_orthocomplementation(n)
            assert mapping is not None
            assert check_ortho_map(mapping, n).ok
        for n in (3, 4):
            assert search_orthocomplementation(n) is None
        for n in range(5, 21):
            w = non_ortho_witness(n)
            assert w.atom_count == math.comb(n, 2)
            assert w.coatom_count == 2 ** (n - 1) - 1
            assert w.atom_count < w.coatom_count


def test_c08_lattice_laws_and_relative_complements():
    with criterion("C08 absorption/associativity/semimodularity on 10^4 "
                   "seeded triples at n = 10, semimodularity exhaustively "
                   "on Pi_4, relative complements throughout Pi_5"):
        rng = random.Random(8)
        n = 10
        semimodular_hits = 0
        for trial in range(10_000):
            if trial % 10 == 0:
                # seed a pair that is guaranteed to hit the semimodular
                # premise: two single merges of one common refinement
                labels = [rng.randrange(6) for _ in range(n)]
                s = Partition.from_labels(labels)
                if s.block_count >= 3:
                    p = s.merge_blocks(0, 1)
                    q = s.merge_blocks(1, 2)
                else:
                    p = q = s
                r = Partition.from_labels([rng.randrange(n) for _ in range(n)])
            else:
                p = Partition.from_labels([rng.randrange(n) for _ in range(n)])
                q = Partition.from_labels([rng.randrange(n) for _ in range(n)])
                r = Partition.from_labels([rng.randrange(n) for _ in range(n)])
            assert meet(p, join(p, q)) == p
            assert join(p, meet(p, q)) == p
            assert meet(meet(p, q), r) == meet(p, meet(q, r))
            assert join(join(p, q), r) == join(p, join(q, r))
            if covers(meet(p, q), p):
                semimodular_hits += 1
                assert covers(q, join(p, q))
        assert semimodular_hits >= 1000
        parts4 = tuple(iter_partitions(4))
        for p in parts4:
            for q in parts4:
                if covers(meet(p, q), p):
                    assert covers(q, join(p, q))
        parts5 = tuple(iter_partitions(5))
        for b in parts5:
            downs = [a for a in parts5 if a <= b]
            ups = [c for c in parts5 if b <= c]
            for a in downs:
                for c in ups:
                    z = relative_complement_in(b, a, c)
                    assert z is not None
                    assert meet(b, z) == a and join(b, z) == c


def test_c09_symbolic_cardinal_grid():
    with criterion("C09 symbolic cofinality/power grid matches the "
                   "hand-computed table under GCH, the pinned-continuum "
                   "model shifts the two-block count, Koenig holds"):
        K = {t: aleph(parse_ordinal(t)) for t in
             ["0", "1", "2", "w", "w+1", "w*2"]}
        cf_expected = {"0": "0", "1": "1", "2": "2",
                       "w": "0", "w+1": "w+1", "w*2": "0"}
        for t, kappa in K.items():
            assert card_cofinality(kappa) == aleph(parse_ordinal(cf_expected[t]))
        two_expected = {"0": "1", "1": "2", "2": "3",
                        "w": "w+1", "w+1": "w+2", "w*2": "w*2+1"}
        for t, kappa in K.items():
            assert power_of_two(kappa) == aleph(parse_ordinal(two_expected[t]))
        pow_expected = {
            ("0", "fin"): "0", ("0", "0"): "1",
            ("1", "fin"): "1", ("1", "0"): "1", ("1", "1"): "2",
            ("2", "fin"): "2", ("2", "0"): "2", ("2", "1"): "2", ("2", "2"): "3",
            ("w", "fin"): "w", ("w", "0"): "w+1", ("w", "1"): "w+1",
            ("w", "2"): "w+1", ("w", "w"): "w+1",
            ("w+1", "fin"): "w+1", ("w+1", "0"): "w+1", ("w+1", "1"): "w+1",
            ("w+1", "2"): "w+1", ("w+1", "w"): "w+1", ("w+1", "w+1"): "w+2",
            ("w*2", "fin"): "w*2", ("w*2", "0"): "w*2+1", ("w*2", "1"): "w*2+1",
            ("w*2", "2"): "w*2+1", ("w*2", "w"): "w*2+1",
            ("w*2", "w+1"): "w*2+1", ("w*2", "w*2"): "w*2+1",
        }
        for (kt, lt), expect in pow_expected.items():
            kappa = K[kt]
            lam = fin(3) if lt == "fin" else K[lt]
            got = card_pow(kappa, lam)
            assert got == aleph(parse_ordinal(expect)), (kt, lt, str(got))
            # the power is realized as a complement count: one full block
            # with that residue
            shape = PartitionShape(kappa=kappa, full_blocks=1, residue=lam)
            assert complement_count_symbolic(shape) == got
        easton = ContinuumModel(continuum={1: 3, 2: 3})
        shape = PartitionShape(kappa=aleph(2), full_blocks=1, residue=aleph(1))
        assert complement_count_symbolic(shape, easton) == aleph(3)
        assert complement_count_symbolic(shape) == aleph(2)  # GCH baseline
        for t, kappa in K.items():
            two = power_of_two(kappa)
            assert card_cofinality(two) > kappa
        for kappa in (aleph(1), aleph(2)):
            assert card_cofinality(power_of_two(kappa, easton)) > kappa


def test_c10_pruned_enumeration_matches_oracle(complement_scan):
    with criterion("C10 pruned complement enumeration returns exactly the "
                   "brute-force scan for every partition, 2 <= n <= 7"):
        for n, rows in complement_scan.items():
            for p, _total, _at_target, agree in rows:
                assert agree, p.format()