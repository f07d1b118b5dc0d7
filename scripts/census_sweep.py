#!/usr/bin/env python3
"""Sweep the complement census over a range of ground-set sizes.

For each n the script reports how many partitions hit the product-formula
count exactly at the maximal block number, the largest complement total,
and wall-clock timing, so growth stays visible as n increases.  A
``--max-n`` above the census cap (``PILAT_MAX_N`` replaces it) prints
``error: ...`` and exits 2 before the first row.

Usage: python scripts/census_sweep.py [--max-n 7]
"""
import argparse
import sys
import time

from pilat import complement_census, grieser_count
from pilat.cli import entry
from pilat.partitions import _check_cap


def run(max_n: int = 7) -> int:
    try:
        _check_cap(max_n, "census")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'n':>2} {'partitions':>10} {'complements':>11} {'max-total':>9} "
          f"{'formula-ok':>10} {'seconds':>8}")
    for n in range(1, max_n + 1):
        start = time.perf_counter()
        rows = total = biggest = agree = 0
        for p, p_total, count_nm1 in complement_census(n):
            rows += 1
            total += p_total
            biggest = max(biggest, p_total)
            agree += count_nm1 == grieser_count(p)
        elapsed = time.perf_counter() - start
        print(f"{n:>2} {rows:>10} {total:>11} {biggest:>9} "
              f"{agree:>6}/{rows:<3} {elapsed:>8.3f}")
        if agree != rows:
            print("  disagreement!", file=sys.stderr)
            return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=7)
    args = parser.parse_args()
    return run(args.max_n)


if __name__ == "__main__":
    entry(main)
