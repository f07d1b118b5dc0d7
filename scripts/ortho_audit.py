#!/usr/bin/env python3
"""Audit orthocomplementability across ground-set sizes.

Small lattices get the exhaustive search; larger ones the counting
certificate (covers of bottom vs cocovers of top).  The symbolic layer
then reports the complement counts an infinite ground set would have,
under GCH and under a pinned-continuum model.  A ``--max-n`` above the
ground cap (``PILAT_MAX_N`` replaces it) prints ``error: ...`` and exits 2
before the first row.

Usage: python scripts/ortho_audit.py [--max-n 12]
"""
import argparse
import sys

from pilat import (
    ContinuumModel,
    PartitionShape,
    aleph,
    check_ortho_map,
    complement_count_symbolic,
    fin,
    format_result,
    non_ortho_witness,
    parse_ordinal,
    search_orthocomplementation,
)
from pilat.cli import entry
from pilat.partitions import _check_size, cap


def run(max_n: int = 12) -> int:
    try:
        _check_size(max_n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    search_limit = cap("orthocomplement search")
    for n in range(1, max_n + 1):
        if n <= search_limit:
            mapping = search_orthocomplementation(n)
            if mapping is None:
                print(f"n={n:>2}: exhaustive search, none")
            else:
                ok = check_ortho_map(mapping, n).ok
                pairs = ", ".join(f"{a.format()}<->{b.format()}"
                                  for a, b in sorted(mapping.items(),
                                                     key=lambda kv: kv[0].labels)
                                  if a.labels <= b.labels)
                print(f"n={n:>2}: found ({pairs}), verified={ok}")
                if not ok:
                    return 1
        else:
            w = non_ortho_witness(n)
            print(f"n={n:>2}: none; {w.atom_count} atoms vs "
                  f"{w.coatom_count} coatoms")
    print()
    print("symbolic complement counts for one full block over aleph(w+1):")
    kappa = aleph(parse_ordinal("w+1"))
    pinned = ContinuumModel(continuum={0: 2})
    for residue in (fin(2), aleph(0)):
        shape = PartitionShape(kappa=kappa, full_blocks=1, residue=residue)
        gch = format_result(complement_count_symbolic(shape))
        alt = format_result(complement_count_symbolic(shape, pinned))
        print(f"  residue {residue}: GCH {gch}; pinned 2^aleph(0)=aleph(2): {alt}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=12)
    args = parser.parse_args()
    return run(args.max_n)


if __name__ == "__main__":
    entry(main)
