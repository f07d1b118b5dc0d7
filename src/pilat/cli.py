"""Command line interface.

Subcommands: enumerate, chains, antichains, complements, ortho, cardinal,
hasse.  Exit codes: 0 success, 1 a requested verification came back false,
2 usage errors (bad flags, malformed input, caps exceeded).  Output is
deterministic byte for byte; the PILAT_MAX_N environment variable replaces
the built-in size caps.

Each ``_cmd_*`` handler returns ``(exit_code, lines)`` and writes nothing.
``main`` is the one writer: after the handler has returned, it joins the
lines, each ending in a newline, and writes the text to ``--output`` when
that option is set, otherwise to stdout.  A handler that raises has written
nothing, so exit 2 leaves stdout empty and no ``--output`` file is opened.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import antichains as ac
from . import cardinal as card
from . import chains as ch
from . import complements as co
from . import ortho
from .enumeration import _atom_coatom_counts, bell, iter_partitions
from .partitions import Partition, _check_cap, _format_many, covers, effective_cap

HASSE_CAP = 7
CENSUS_VERSION = "# pilat census v1"
HASSE_VERSION = "// pilat hasse v1"


def _read_partition_file(path: str) -> list[Partition]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise ValueError(f"{path}: no partition literals")
    n = len(lines[0].replace("|", " ").split())
    return [Partition.parse(line, n) for line in lines]


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# -- subcommands ------------------------------------------------------------


def _cmd_enumerate(args) -> tuple[int, list[str]]:
    if args.counts:
        bell_n = bell(args.n)  # checks the counting cap before 2^(n-1) is built
        atom_count, coatom_count = _atom_coatom_counts(args.n)
        return 0, [f"n={args.n} bell={bell_n} atoms={atom_count} coatoms={coatom_count}"]
    return 0, _format_many(iter_partitions(args.n))


def _cmd_chains(args) -> tuple[int, list[str]]:
    if args.chains_cmd == "keyframe":
        return 0, _format_many(ch.keyframe_chain(args.k))
    # verify
    chain = _read_partition_file(args.file)
    report = ch.verify_chain(chain)
    out = [f"chain: {_yesno(report.is_chain)}",
           f"saturated: {_yesno(report.is_saturated)}",
           f"maximal: {_yesno(report.is_maximal)}"]
    if report.witness is not None:
        out.append(f"witness: {report.witness}")
    return 0 if report.is_chain else 1, out


def _cmd_antichains(args) -> tuple[int, list[str]]:
    members = (ac.doubleton_antichain(args.n) if args.antichain_kind == "doubleton"
               else ac.bipartition_antichain(args.n))
    if not args.verify:
        return 0, _format_many(members)
    check_max = args.n <= effective_cap(ac.ANTICHAIN_CAP)
    report = ac.verify_antichain(members, args.n, check_maximal=check_max)
    out = [f"size: {len(members)}",
           f"antichain: {_yesno(report.is_antichain)}",
           f"maximal: {'skipped' if report.is_maximal is None else _yesno(report.is_maximal)}"]
    if report.witness is not None:
        out.append(f"witness: {report.witness}")
    ok = report.is_antichain and report.is_maximal is not False
    return 0 if ok else 1, out


def _cmd_complements(args) -> tuple[int, list[str]]:
    rows = co.complement_census(args.n)
    # no field holds a comma, quote or newline, so no CSV quoting is needed
    lines = [CENSUS_VERSION, "partition,m,block_sizes,total,count_nm1,grieser"]
    for row in rows:
        lines.append(",".join(map(str, [row.partition, row.m, "+".join(map(str, row.block_sizes)),
                                        row.total, row.count_nm1, row.grieser])))
    return 0, lines


def _cmd_ortho(args) -> tuple[int, list[str]]:
    if args.ortho_cmd == "witness":
        w = ortho.non_ortho_witness(args.n)
        return 0, [f"n={w.n} atoms={w.atom_count} coatoms={w.coatom_count}",
                   f"no orthocomplementation: {w.reason}"]
    found = ortho.search_orthocomplementation(args.n, exhaustive=args.exhaustive)
    if found is None:
        return 0, ["none"]
    parts = list(iter_partitions(args.n))
    text = dict(zip(parts, _format_many(parts)))  # found maps Pi_n into itself
    return 0, ["found", *(f"{text[p]} -> {text[found[p]]}" for p in parts)]


def _load_model(source: str) -> card.ContinuumModel:
    if source == "gch":
        return card.GCH
    with open(source, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{source}: JSON nested too deeply") from None
    return card.ContinuumModel.from_json(data)


def _cmd_cardinal(args) -> tuple[int, list[str]]:
    result = card.evaluate(args.expr, _load_model(args.model))
    return 0, [card.format_result(result)]


def _hasse_dot(parts: list[Partition]) -> list[str]:
    labels = _format_many(parts)  # by index, so a repeated input line repeats its node
    lines = [HASSE_VERSION, "digraph partitions {", "  rankdir=BT;"]
    by_count: dict[int, list[int]] = {}
    for i, p in enumerate(parts):
        lines.append(f'  "{labels[i]}";')
        by_count.setdefault(p.block_count, []).append(i)
    for i, p in enumerate(parts):
        # an upper cover has exactly one block fewer
        for k in by_count.get(p.block_count - 1, ()):
            if covers(p, parts[k]):
                lines.append(f'  "{labels[i]}" -> "{labels[k]}";')
    lines.append("}")
    return lines


def _cmd_hasse(args) -> tuple[int, list[str]]:
    sources = [src for src in (args.n, args.chain, args.antichain) if src is not None]
    if len(sources) != 1:
        raise ValueError("give exactly one of --n, --chain, --antichain")
    if args.n is not None:
        _check_cap(args.n, HASSE_CAP, "hasse")
        parts = list(iter_partitions(args.n))
    else:
        parts = _read_partition_file(args.chain or args.antichain)
    return 0, _hasse_dot(parts)


# -- parser -----------------------------------------------------------------


@functools.cache  # built on the first main call, not at import; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="pilat",
                                  description="partition lattice toolkit")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("enumerate", help="list a lattice or its counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--counts", action="store_true", help="print counts only")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("chains", help="keyframe chains; verify chain files")
    chains_sub = p.add_subparsers(dest="chains_cmd", required=True)
    kf = chains_sub.add_parser("keyframe", help="maximal chain through the dyadic keyframes")
    kf.add_argument("--k", type=int, required=True, help="ground set has 2^k elements")
    kf.add_argument("--output", default=None)
    vf = chains_sub.add_parser("verify", help="check a file of one literal per line")
    vf.add_argument("file")
    p.set_defaults(func=_cmd_chains)

    p = sub.add_parser("antichains", help="antichain constructions")
    p.add_argument("antichain_kind", choices=["doubleton", "bipartition"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_antichains)

    p = sub.add_parser("complements", help="complement census")
    comp_sub = p.add_subparsers(dest="complements_cmd", required=True)
    cs = comp_sub.add_parser("census", help="CSV census over all of Pi_n")
    cs.add_argument("--n", type=int, required=True)
    cs.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_complements)

    p = sub.add_parser("ortho", help="orthocomplementation search and witnesses")
    ortho_sub = p.add_subparsers(dest="ortho_cmd", required=True)
    se = ortho_sub.add_parser("search", help="exhaustive search (small n)")
    se.add_argument("--n", type=int, required=True)
    se.add_argument("--exhaustive", action="store_true",
                    help="allow the n=5 search instead of the counting witness")
    wi = ortho_sub.add_parser("witness", help="counting witness for n >= 5")
    wi.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_ortho)

    p = sub.add_parser("cardinal", help="symbolic cardinal arithmetic")
    card_sub = p.add_subparsers(dest="cardinal_cmd", required=True)
    ev = card_sub.add_parser("eval", help="evaluate an expression under a model")
    ev.add_argument("expr")
    ev.add_argument("--model", default="gch", help="'gch' or a JSON model file")
    p.set_defaults(func=_cmd_cardinal)

    p = sub.add_parser("hasse", help="DOT diagram of a lattice or a file of partitions")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--chain", default=None)
    p.add_argument("--antichain", default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_hasse)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, lines = args.func(args)
        text = "\n".join([*lines, ""])
        out_path = getattr(args, "output", None)  # not every subcommand has --output
        if out_path:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
