"""Command line interface.

Subcommands: enumerate, chains, antichains, complements, ortho, cardinal,
hasse.  Exit codes: 0 success, 1 a requested verification came back false,
2 usage errors (bad flags, malformed input, caps exceeded) or a failed
write.  Output is deterministic byte for byte.  The size caps are the rows
of ``partitions.CAPS``; the PILAT_MAX_N environment variable replaces them.

The grammar is one table, ``_COMMANDS``: each command path with its help,
its own handler and its arguments (``_Arg``: positionals with their
choices, options with their type, default, help and whether they are
required).  The table has resolved the path, so no handler looks at a
subcommand again.  Two readers take it.  ``_read_plain`` reads the plain
form of argv (exact option names each given once, option values that do
not start with "-", every positional in its slot) into the namespace that
argparse would return.  Any other argv, help and every error among them,
goes to the argparse parser that ``_build_parser`` builds from the table
on first use, so argparse is imported only then and its messages are
unchanged.  Both readers convert an int option with the one ``_int``,
which takes an optional "-" and ASCII digits and nothing else.

Each ``_cmd_*`` handler returns ``(exit_code, lines)`` and writes nothing.
``lines`` is any iterable of lines: a list, or an iterator that builds the
lines as they are written (``enumerate``, the ``antichains bipartition``
listing and the ``complements census`` rows, so that their memory does not
grow with the output).  Every check that can refuse runs before the handler
returns; an iterator it returns only produces lines.  ``main`` is the one
writer: after the handler has returned, it opens ``--output`` when that
option is set, otherwise it uses stdout, and writes the lines, each ending
in a newline, in chunks of ``_CHUNK`` lines.  A handler that raises has
written nothing, so exit 2 leaves stdout empty and no ``--output`` file is
opened.  A write that fails also exits 2, and what was written before it
stays.  A closed pipe on stdout is the one exception: when its reader
leaves early (``| head -1``) the writing stops quietly, nothing goes to
stderr and the exit code is the handler's; ``entry`` points stdout at the
null device, so that the flush at interpreter exit reports nothing either.
The experiment scripts run their ``main`` through ``entry(main)``, and one
that a closed pipe cuts off exits 0.

Each request loads only what it runs, so ``import pilat.cli`` loads no
kernel and no command module.  Each handler imports the one command module
it runs (``enumeration``, ``chains``, ``antichains``, ``complements``,
``ortho`` or ``cardinal``) as ``import pilat.x as y``, the cheapest import
form to repeat on every request.  Each finite handler that uses a
``partitions`` name itself, and ``_hasse_dot`` and ``_read_file``, import
``pilat.partitions as pa`` the same way; ``complements census`` and ``ortho
witness`` load it through their command module, and ``cardinal eval``
never loads it.

A partition file (``chains verify FILE``, ``hasse --chain``/``--antichain``)
holds one literal per non-blank line over {0..n-1}, where n is the first
literal's token count.  The one reader, ``_read_file``, hands the lines and
n to a command's reading of them; an error names the file, and a bad
literal also its 1-based line, blank lines counted.  ``hasse`` parses
every line (``_parse_many``); ``chains verify`` passes
``chains._verify_lines``, whose errors are those of the full parse.
"""
from __future__ import annotations

import functools
import itertools
import os
import sys
from types import ModuleType, SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TextIO

from ._frozen import FrozenRecord

if TYPE_CHECKING:
    import argparse
    from typing import TypeVar

    from . import cardinal
    from .partitions import Partition

    _T = TypeVar("_T")

CENSUS_VERSION = "# pilat census v1"
HASSE_VERSION = "// pilat hasse v1"
_CHUNK = 4096  # lines per write


def _read_file(path: str, read: Callable[[Sequence[str], int], _T]) -> _T:
    """``read(lines, n)`` on the non-blank lines of a partition file, where
    n is the first line's token count.  An error names the file, and a
    ``_LineError`` also the bad line's 1-based number, blank lines counted."""
    import pilat.partitions as pa

    try:
        with open(path, encoding="utf-8") as fh:
            numbered = [(number, line) for number, line in enumerate(fh, 1) if line.strip()]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not numbered:
        raise ValueError(f"{path}: no partition literals")
    numbers, lines = zip(*numbered)
    try:
        return read(lines, len(lines[0].replace("|", " ").split()))
    except pa._LineError as exc:
        raise ValueError(f"{path}:{numbers[exc.index]}: {exc}") from exc


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# -- subcommands ------------------------------------------------------------


def _cmd_enumerate(args) -> tuple[int, Iterable[str]]:
    import pilat.enumeration as en
    import pilat.partitions as pa

    if args.counts:
        bell_n = en.bell(args.n)  # checks the counting cap before 2^(n-1) is built
        atom_count = en._cover_counts(pa.bottom(args.n))[1]
        coatom_count = en._cover_counts(pa.top(args.n))[0]
        return 0, [f"n={args.n} bell={bell_n} atoms={atom_count} coatoms={coatom_count}"]
    return 0, en._partition_lines(args.n)


def _cmd_keyframe(args) -> tuple[int, list[str]]:
    import pilat.chains as ch
    import pilat.partitions as pa

    return 0, pa._format_many(ch.keyframe_chain(args.k))


def _cmd_verify(args) -> tuple[int, list[str]]:
    import pilat.chains as ch

    report = _read_file(args.file, ch._verify_lines)
    out = [f"chain: {_yesno(report.is_chain)}",
           f"saturated: {_yesno(report.is_saturated)}",
           f"maximal: {_yesno(report.is_maximal)}"]
    if report.witness is not None:
        out.append(f"witness: {report.witness}")
    return 0 if report.is_chain else 1, out


def _cmd_antichains(args) -> tuple[int, Iterable[str]]:
    import pilat.antichains as ac
    import pilat.partitions as pa

    if args.antichain_kind == "bipartition" and not args.verify:
        return 0, ac._bipartition_lines(args.n)  # 2^(n-1) - 1 lines, streamed
    members = (ac.doubleton_antichain(args.n) if args.antichain_kind == "doubleton"
               else ac.bipartition_antichain(args.n))
    if not args.verify:
        return 0, pa._format_many(members)
    check_max = args.n <= pa.cap("antichain maximality")
    report = ac.verify_antichain(members, args.n, check_maximal=check_max)
    out = [f"size: {len(members)}",
           f"antichain: {_yesno(report.is_antichain)}",
           f"maximal: {'skipped' if report.is_maximal is None else _yesno(report.is_maximal)}"]
    if report.witness is not None:
        out.append(f"witness: {report.witness}")
    ok = report.is_antichain and report.is_maximal is not False
    return 0 if ok else 1, out


def _cmd_complements(args) -> tuple[int, Iterable[str]]:
    import pilat.complements as co

    header = [CENSUS_VERSION, "partition,m,block_sizes,total,count_nm1,grieser"]
    return 0, itertools.chain(header, co._census_lines(args.n))  # B(n) rows, streamed


def _cmd_witness(args) -> tuple[int, list[str]]:
    import pilat.ortho as ortho

    w = ortho.non_ortho_witness(args.n)
    return 0, [f"n={w.n} atoms={w.atom_count} coatoms={w.coatom_count}",
               f"no orthocomplementation: {w.reason}"]


def _cmd_search(args) -> tuple[int, list[str]]:
    import pilat.ortho as ortho
    import pilat.partitions as pa

    found = ortho.search_orthocomplementation(args.n, exhaustive=args.exhaustive)
    if found is None:
        return 0, ["none"]
    text = dict(zip(found, pa._format_many(found)))  # keys: Pi_n in RGS order, each image a key
    return 0, ["found", *(f"{text[a]} -> {text[b]}" for a, b in found.items())]


def _load_model(source: str, card: ModuleType) -> cardinal.ContinuumModel:
    """GCH, or the model in a JSON file; an error in the file names it.
    ``card`` is the ``cardinal`` module, which the caller has imported.

    A file nested past the cap is refused before it is decoded, so past
    the cap the answer does not depend on the decoder's own recursion
    limits.  Within it, a C decoder before 3.12 counts its nesting against
    the Python recursion limit and can still overflow on a deep stack; that
    RecursionError is the same refusal."""
    if source == "gch":
        return card.GCH
    import json

    with open(source, encoding="utf-8") as fh:
        try:
            text = fh.read()
            if card._nests_past_cap(text, "[{", "]}", quote='"'):
                raise ValueError("JSON nested too deeply")
            return card.ContinuumModel.from_json(json.loads(text))
        except RecursionError:
            raise ValueError(f"{source}: JSON nested too deeply") from None
        except ValueError as exc:  # bad UTF-8, bad JSON or an invalid model
            raise ValueError(f"{source}: {exc}") from exc


def _cmd_cardinal(args) -> tuple[int, list[str]]:
    import pilat.cardinal as card

    result = card.evaluate(args.expr, _load_model(args.model, card))
    return 0, [card.format_result(result)]


def _hasse_dot(parts: list[Partition]) -> list[str]:
    import pilat.partitions as pa

    labels = pa._format_many(parts)  # by index, so a repeated input line repeats its node
    lines = [HASSE_VERSION, "digraph partitions {", "  rankdir=BT;"]
    lines += [f'  "{label}";' for label in labels]
    by_count: dict[int, list[int]] = {}
    by_masks: dict[tuple[int, ...], list[int]] = {}
    for i, p in enumerate(parts):
        by_count.setdefault(p.block_count, []).append(i)
        by_masks.setdefault(p.masks, []).append(i)
    for i, p in enumerate(parts):
        k = p.block_count
        bucket = by_count.get(k - 1)
        if not bucket:
            continue
        # An upper cover of p has k - 1 blocks.  Look each of the C(k, 2) up
        # by its masks, unless the bucket holds fewer (a chain file: 8 128
        # covers at k = 128 against one candidate).
        if k * (k - 1) // 2 <= len(bucket):
            targets = [t for up in p._upper_covers() for t in by_masks.get(up, ())]
            targets.sort()  # ascending index, the scan's order
        else:
            targets = [t for t in bucket if p <= parts[t]]
        source = labels[i]
        lines += [f'  "{source}" -> "{labels[t]}";' for t in targets]
    lines.append("}")
    return lines


def _cmd_hasse(args) -> tuple[int, list[str]]:
    sources = [src for src in (args.n, args.chain, args.antichain) if src is not None]
    if len(sources) != 1:
        raise ValueError("give exactly one of --n, --chain, --antichain")
    import pilat.partitions as pa

    if args.n is not None:
        import pilat.enumeration as en

        pa._check_cap(args.n, "hasse")
        parts = list(en.iter_partitions(args.n))
    else:
        parts = _read_file(sources[0], pa._parse_many)
    return 0, _hasse_dot(parts)


# -- grammar ----------------------------------------------------------------


def _int(text: str) -> int:
    """The value of an int option on both readers: an optional "-" and
    ASCII digits.  Its name is the type in argparse's "invalid int value"."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


_int.__name__ = "int"


class _Arg(FrozenRecord):
    """One argument of a command: an option when ``name`` starts with "--",
    otherwise a positional named by its dest.  ``kind`` converts an
    option's value (``_int`` or str), or is bool for a flag, which is False
    unless given.  ``required`` is read for options only: every positional
    is required."""

    __slots__ = ("name", "kind", "required", "default", "help", "choices")

    def __init__(self, name: str, kind: Callable = str, required: bool = False,
                 default: object = None, help: str | None = None,
                 choices: tuple[str, ...] | None = None):
        self._set(name, kind, required, default, help, choices)

    @property
    def dest(self) -> str:
        return self.name.lstrip("-")


_N = _Arg("--n", _int, required=True)
_OUTPUT = _Arg("--output")

# The one grammar: each command path with its help, handler and arguments.
# The first word of a two-word path is a group, whose help and the dest of
# whose second word are in _GROUPS; the dest of the first word is "cmd".
_COMMANDS: dict[tuple[str, ...], tuple[str, Callable, tuple[_Arg, ...]]] = {
    ("enumerate",): ("list a lattice or its counts", _cmd_enumerate,
                     (_N, _Arg("--counts", bool, help="print counts only"), _OUTPUT)),
    ("chains", "keyframe"): ("maximal chain through the dyadic keyframes", _cmd_keyframe,
                             (_Arg("--k", _int, required=True, help="ground set has 2^k elements"),
                              _OUTPUT)),
    ("chains", "verify"): ("check a file of one literal per line", _cmd_verify, (_Arg("file"),)),
    ("antichains",): ("antichain constructions", _cmd_antichains,
                      (_Arg("antichain_kind", choices=("doubleton", "bipartition")), _N,
                       _Arg("--verify", bool), _OUTPUT)),
    ("complements", "census"): ("CSV census over all of Pi_n", _cmd_complements, (_N, _OUTPUT)),
    ("ortho", "search"): ("exhaustive search (small n)", _cmd_search,
                          (_N, _Arg("--exhaustive", bool,
                                    help="allow the n=5 search instead of the counting witness"))),
    ("ortho", "witness"): ("counting witness for n >= 5", _cmd_witness, (_N,)),
    ("cardinal", "eval"): ("evaluate an expression under a model", _cmd_cardinal,
                           (_Arg("expr"),
                            _Arg("--model", default="gch", help="'gch' or a JSON model file"))),
    ("hasse",): ("DOT diagram of a lattice or a file of partitions", _cmd_hasse,
                 (_Arg("--n", _int), _Arg("--chain"), _Arg("--antichain"), _OUTPUT)),
}
_GROUPS = {
    "chains": ("keyframe chains; verify chain files", "chains_cmd"),
    "complements": ("complement census", "complements_cmd"),
    "ortho": ("orthocomplementation search and witnesses", "ortho_cmd"),
    "cardinal": ("symbolic cardinal arithmetic", "cardinal_cmd"),
}


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse returns for ``argv`` if argv has the plain
    form, otherwise None.

    The plain form is a command path, then in any order: each positional
    in its slot (one of its choices, if it has them) and each option at
    most once under its exact name, a flag alone and any other option
    followed by a value that does not start with "-" (made of ASCII digits
    for an int option).  Every positional and every required option is
    given."""
    path = tuple(argv[:2 if argv and argv[0] in _GROUPS else 1])
    if path not in _COMMANDS:
        return None
    _, handler, spec = _COMMANDS[path]
    fields = {"cmd": path[0], "func": handler}
    if len(path) == 2:
        fields[_GROUPS[path[0]][1]] = path[1]
    options = {arg.name: arg for arg in spec if arg.name.startswith("--")}
    slots = [arg for arg in spec if not arg.name.startswith("--")]
    taken = 0  # positionals read
    tokens = iter(argv[len(path):])
    for token in tokens:
        if not token.startswith("-"):
            if taken == len(slots) or slots[taken].choices and token not in slots[taken].choices:
                return None
            fields[slots[taken].dest] = token
            taken += 1
            continue
        arg = options.get(token)
        if arg is None or arg.dest in fields:
            return None
        if arg.kind is bool:
            fields[arg.dest] = True
            continue
        value = next(tokens, "-")  # a missing value is not plain
        if value.startswith("-"):
            return None
        try:
            fields[arg.dest] = arg.kind(value)
        except ValueError:  # not an int, or more digits than int() reads
            return None
    if taken < len(slots):
        return None
    for arg in options.values():
        if arg.dest not in fields:
            if arg.required:
                return None
            fields[arg.dest] = False if arg.kind is bool else arg.default
    return SimpleNamespace(**fields)


@functools.cache  # built at the first argv that is not plain; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the grammar in ``_COMMANDS``."""
    import argparse

    root = argparse.ArgumentParser(prog="pilat", description="partition lattice toolkit")
    commands = root.add_subparsers(dest="cmd", required=True)
    groups = {}
    for path, (help_text, handler, spec) in _COMMANDS.items():
        if len(path) == 1:
            parser = commands.add_parser(path[0], help=help_text)
        else:
            if path[0] not in groups:
                group_help, dest = _GROUPS[path[0]]
                groups[path[0]] = commands.add_parser(path[0], help=group_help).add_subparsers(
                    dest=dest, required=True)
            parser = groups[path[0]].add_parser(path[1], help=help_text)
        for arg in spec:
            if arg.kind is bool:
                parser.add_argument(arg.name, action="store_true", help=arg.help)
            elif arg.name.startswith("--"):
                parser.add_argument(arg.name, type=arg.kind, required=arg.required,
                                    default=arg.default, help=arg.help)
            else:
                parser.add_argument(arg.name, choices=arg.choices, help=arg.help)
        parser.set_defaults(func=handler)
    return root


def _write_lines(fh: TextIO, lines: Iterable[str]) -> None:
    """Write each line with a newline after it, ``_CHUNK`` lines per write."""
    it = iter(lines)
    while chunk := list(itertools.islice(it, _CHUNK)):
        chunk.append("")
        fh.write("\n".join(chunk))


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv)
    if args is None:  # help, every error and every other form: argparse
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    try:
        code, lines = args.func(args)
        out_path = getattr(args, "output", None)  # not every subcommand has --output
        if out_path is not None:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                _write_lines(fh, lines)
        else:
            try:
                _write_lines(sys.stdout, lines)
            except BrokenPipeError:  # the reader closed stdout: stop writing, quietly
                pass
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def entry(run: Callable[[], int] = main) -> None:
    code = 0  # the exit code of a run that a closed pipe cut off
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # what is left goes nowhere, so the flush at exit prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
