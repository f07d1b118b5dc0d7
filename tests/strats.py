"""Hypothesis strategies shared by the test modules."""
from hypothesis import strategies as st

from pilat import Ordinal, Partition, aleph, fin
from pilat.cardinal import ZERO


def partitions(n: int):
    """Arbitrary partition of {0..n-1}: group positions by random labels."""
    if n == 0:
        return st.just(Partition(0, ()))
    return st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(Partition.from_labels)


def partition_pairs(max_n: int = 8):
    return st.integers(0, max_n).flatmap(
        lambda n: st.tuples(partitions(n), partitions(n)))


def partition_triples(max_n: int = 8):
    return st.integers(0, max_n).flatmap(
        lambda n: st.tuples(partitions(n), partitions(n), partitions(n)))


def ordinals(depth: int = 2):
    """CNF ordinals built by summing random omega-power terms."""
    if depth == 0:
        return st.integers(0, 9).map(Ordinal.from_int)

    def build(parts):
        total = Ordinal.from_int(parts[0])
        for exp, coeff in parts[1]:
            total = total + Ordinal.omega_power(exp, coeff)
        return total

    return st.tuples(
        st.integers(0, 9),
        st.lists(st.tuples(ordinals(depth - 1).filter(lambda o: o != ZERO),
                           st.integers(1, 4)), max_size=3),
    ).map(build)


def cardinals(depth: int = 2):
    """Finite cardinals and alephs indexed by ``ordinals(depth)``."""
    return st.one_of(st.integers(0, 9).map(fin), ordinals(depth).map(aleph))
