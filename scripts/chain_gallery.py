#!/usr/bin/env python3
"""Print a gallery of chains: keyframe chains for several k, the
deterministic saturation of a sparse chain, and maximal-chain counts.
A ``--max-k`` below 1 or with 2^k above the ground cap, or a ``--count-n``
above the maximal-chain cap (``PILAT_MAX_N`` replaces both caps), prints
``error: ...`` and exits 2 before the first line.

Usage: python scripts/chain_gallery.py [--max-k 3] [--count-n 5]
"""
import argparse
import math
import sys

from pilat import (
    KeyframePlan,
    bottom,
    enumerate_maximal_chains,
    extend_to_maximal,
    keyframe_chain,
    top,
    verify_chain,
)
from pilat.cli import entry


def show_chain(label: str, chain) -> None:
    report = verify_chain(chain)
    status = "maximal" if report.is_maximal else "not maximal"
    print(f"{label} ({len(chain)} steps, {status})")
    for p in chain:
        print(f"  {p.format()}")


def run(max_k: int = 3, count_n: int = 5) -> int:
    try:
        if max_k < 1:
            raise ValueError(f"--max-k must be at least 1, got {max_k}")
        KeyframePlan(max_k)  # 2^max_k elements within the ground cap
        enumerate_maximal_chains(count_n)  # refuses at call time above the maximal-chain cap
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for k in range(1, max_k + 1):
        show_chain(f"keyframe chain k={k}", keyframe_chain(k))
        print()
    n = 2 ** max_k
    sparse = [bottom(n), top(n)]
    show_chain(f"saturating bottom..top on {n} elements", extend_to_maximal(sparse))
    print()
    print("maximal chain counts (n! (n-1)! / 2^(n-1)):")
    for n in range(1, count_n + 1):
        got = sum(1 for _ in enumerate_maximal_chains(n))
        predicted = math.factorial(n) * math.factorial(n - 1) // 2 ** (n - 1)
        marker = "ok" if got == predicted else "MISMATCH"
        print(f"  n={n}: {got} ({marker})")
        if got != predicted:
            return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-k", type=int, default=3)
    parser.add_argument("--count-n", type=int, default=5)
    args = parser.parse_args()
    return run(args.max_k, args.count_n)


if __name__ == "__main__":
    entry(main)
