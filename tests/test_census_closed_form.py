"""The census ``total`` column against a closed form by Moebius inversion.

The oracle reads a partition p only through its block sizes a_1..a_m and
shares no code with the package; the tests compare it with every row of
``complement_census``.

A complement q of p meets p in bottom, so each block of q takes at most one
element of each block of p, and it joins p to top, so the blocks of q link
all of p's blocks into one.

* For a set S of p's blocks, h(S) counts the partitions of the union of S
  whose blocks take at most one element of each block in S.  Expand
  prod_{i in S} x^(a_i falling) in the falling-factorial basis as
  sum_k c_k x^(k falling): colouring the union with x colours, injectively
  on each block, groups the elements into such a partition with k blocks
  in x^(k falling) ways, so c_k counts those with k blocks and
  h(S) = sum_k c_k (Read, "An introduction to chromatic polynomials").
* Each partition counted by h(S) splits S into the classes of blocks it
  links, and [p, top] is isomorphic to Pi_m.  So with conn(S) the number
  that link all of S, h(S) = sum_T conn(T) h(S \\ T) over the T within S
  that hold S's least block, and conn of all m blocks is the number of
  complements (Rota 1964; Stanley, EC1 3.7).  This is 3^m work per shape.
"""
from functools import lru_cache
from math import comb, factorial

import pytest

from pilat import complement_census


def _falling_coefficients(sizes: tuple[int, ...]) -> dict[int, int]:
    """{k: c_k} with prod x^(a falling) = sum_k c_k x^(k falling)."""
    coeffs = {0: 1}
    for a in sizes:
        product: dict[int, int] = {}
        for k, c in coeffs.items():
            # x^(k falling) x^(a falling) = sum_j C(k, j) C(a, j) j! x^(k+a-j falling)
            for j in range(min(k, a) + 1):
                product[k + a - j] = (product.get(k + a - j, 0)
                                      + c * comb(k, j) * comb(a, j) * factorial(j))
        coeffs = product
    return coeffs


@lru_cache(maxsize=None)
def _h(sizes: tuple[int, ...]) -> int:
    return sum(_falling_coefficients(sizes).values())


@lru_cache(maxsize=None)
def complement_total(sizes: tuple[int, ...]) -> int:
    """Number of complements of a partition with these block sizes."""
    m = len(sizes)

    def h(subset: int) -> int:
        return _h(tuple(sorted(sizes[i] for i in range(m) if subset >> i & 1)))

    conn = {}
    for s in range(1, 1 << m):  # every proper subset of s comes before it
        least = s & -s
        rest = s ^ least
        count = h(s)
        u = rest
        while u:  # t = least | u over the proper subsets u of rest, then t = least
            u = (u - 1) & rest
            t = least | u
            count -= conn[t] * h(s ^ t)
        conn[s] = count
    return conn[(1 << m) - 1]


def test_closed_form_small_cases():
    assert complement_total((1,)) == 1        # top and bottom of Pi_1
    assert complement_total((1, 1)) == 1      # bottom of Pi_2: only top
    assert complement_total((2, 1)) == 2      # 0 1|2: 0 2|1 and 0|1 2
    assert complement_total((1, 1, 1)) == 1
    assert complement_total((5,)) == 1        # top: only bottom


@pytest.mark.parametrize("n", range(1, 8))
def test_census_total_matches_closed_form(n):
    for p, total, _count_nm1 in complement_census(n):
        assert total == complement_total(p.block_sizes), str(p)


def test_census_total_matches_closed_form_by_shape_at_n8():
    # one oracle evaluation per block shape, checked on all 4 140 rows
    shapes = set()
    for p, total, _count_nm1 in complement_census(8):
        shapes.add(p.block_sizes)
        assert total == complement_total(p.block_sizes), str(p)
    assert len(shapes) == 22  # the integer partitions of 8
