"""Request lists for the three benchmark workloads, with their expected outcomes.

A request is one ``pilat.cli.main(argv)`` call.  Every request carries a key;
``references.json`` maps each key to the exit code and the SHA-256 of the
stdout bytes that the program gave when the references were recorded.  Most
requests also carry a check that does not depend on any recording: a value
known by construction (a Bell number, the verdict a chain file was built
with, the exit code of malformed input).

``census`` and ``lattice`` are fixed command lists.  ``queries`` draws a
fixed number of requests per stratum from a pool of distinct requests.  The
pool is built from ``POOL_SEED`` and never changes; the workload seed only
chooses which pool items run, and in which order.  So the references cover
every request any seed can draw, and every stratum keeps the same share of
the mix whatever the seed, which keeps the latency percentiles comparable
between seeds.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from math import comb
from typing import Callable

POOL_SEED = 20150121
WORKLOADS = ("census", "lattice", "queries")

# A check gets (exit code or None when an exception escaped, stdout text)
# and returns None when it holds, else a short reason.
Check = Callable[[int | None, str], str | None]


@dataclass
class Request:
    key: str
    argv: list[str]          # an argument "@name" stands for the file ``name``
    files: dict[str, str] = field(default_factory=dict)
    check: Check | None = None
    known_defect: bool = False   # fails today by a defect the ROADMAP names


# -- independent counts -------------------------------------------------------


def stirling2_row(n: int) -> list[int]:
    """S(n, k) for k = 0..n by the triangle recurrence."""
    row = [1]
    for i in range(1, n + 1):
        nxt = [0] * (i + 1)
        for k in range(1, i + 1):
            nxt[k] = k * (row[k] if k < len(row) else 0) + row[k - 1]
        row = nxt
    return row


def bell(n: int) -> int:
    return sum(stirling2_row(n))


def cover_pairs(n: int) -> int:
    """Covering pairs of Pi_n: each partition with k blocks has C(k, 2) upper covers."""
    return sum(s * comb(k, 2) for k, s in enumerate(stirling2_row(n)))


# -- checks -------------------------------------------------------------------


def exact(rc: int, text: str) -> Check:
    def check(got_rc, out):
        if got_rc != rc:
            return f"exit {got_rc}, expected {rc}"
        if out != text:
            return f"stdout {out[:60]!r}, expected {text[:60]!r}"
        return None
    return check


def prefix(rc: int, head: str) -> Check:
    def check(got_rc, out):
        if got_rc != rc:
            return f"exit {got_rc}, expected {rc}"
        if not out.startswith(head):
            return f"stdout {out[:60]!r} lacks prefix {head[:60]!r}"
        return None
    return check


_RESULT = re.compile(r"(fin\(\d+\)|aleph\(.+\)|interval\[.+\])\n")


def cardinal_result(allow_interval: bool) -> Check:
    """Exit 0 and one result line: fin(k), aleph(...), or an interval if allowed."""
    def check(got_rc, out):
        if got_rc != 0:
            return f"exit {got_rc}, expected 0"
        if not _RESULT.fullmatch(out) or (out.startswith("interval") and not allow_interval):
            return f"stdout {out[:60]!r} is not a cardinal result"
        return None
    return check


def lines_check(rc: int, count: int, first: str | None = None,
                last: str | None = None) -> Check:
    def check(got_rc, out):
        if got_rc != rc:
            return f"exit {got_rc}, expected {rc}"
        lines = out.splitlines()
        if len(lines) != count:
            return f"{len(lines)} lines, expected {count}"
        if first is not None and lines[0] != first:
            return f"first line {lines[0]!r}, expected {first!r}"
        if last is not None and lines[-1] != last:
            return f"last line {lines[-1]!r}, expected {last!r}"
        return None
    return check


def hasse_check(nodes: int, edges: int) -> Check:
    def check(got_rc, out):
        if got_rc != 0:
            return f"exit {got_rc}, expected 0"
        lines = out.splitlines()
        if lines[:3] != ["// pilat hasse v1", "digraph partitions {", "  rankdir=BT;"]:
            return "bad DOT header"
        got_edges = sum(1 for line in lines if " -> " in line)
        got_nodes = len(lines) - 4 - got_edges
        if (got_nodes, got_edges) != (nodes, edges):
            return f"{got_nodes} nodes / {got_edges} edges, expected {nodes} / {edges}"
        return None
    return check


def census_check(n: int) -> Check:
    def check(got_rc, out):
        if got_rc != 0:
            return f"exit {got_rc}, expected 0"
        lines = out.splitlines()
        if lines[:2] != ["# pilat census v1",
                         "partition,m,block_sizes,total,count_nm1,grieser"]:
            return "bad census header"
        rows = lines[2:]
        if len(rows) != bell(n):
            return f"{len(rows)} rows, expected {bell(n)}"
        for row in rows:
            literal, m, _, total, count_nm1, grieser = row.split(",")
            if literal.count("|") + 1 != int(m):
                return f"row {row!r}: m disagrees with the literal"
            if count_nm1 != grieser or int(total) < int(count_nm1):
                return f"row {row!r}: count_nm1 != grieser"
        return None
    return check


# -- partition literals built by the benchmark itself ---------------------------


def literal(blocks: list[list[int]]) -> str:
    ordered = sorted((sorted(b) for b in blocks), key=lambda b: b[0])
    return "|".join(" ".join(map(str, b)) for b in ordered)


def random_maximal_chain(rng: random.Random, n: int) -> list[str]:
    """Bottom to top, merging two random blocks per step: n literals."""
    blocks = [[e] for e in range(n)]
    out = [literal(blocks)]
    while len(blocks) > 1:
        i, j = sorted(rng.sample(range(len(blocks)), 2))
        merged = blocks[i] + blocks.pop(j)
        blocks[i] = merged
        out.append(literal(blocks))
    return out


def random_partition(rng: random.Random, n: int, k: int) -> str:
    """A random partition of {0..n-1} into exactly k blocks."""
    labels = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
    rng.shuffle(labels)
    blocks: dict[int, list[int]] = {}
    for e, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(e)
    return literal(list(blocks.values()))


def file_text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


# -- census and lattice -------------------------------------------------------


def census_requests() -> list[Request]:
    return [Request("census/n=8", ["complements", "census", "--n", "8"],
                    check=census_check(8))]


def lattice_requests() -> list[Request]:
    n_enum, n_hasse = 10, 7
    return [
        Request(f"lattice/enumerate/n={n_enum}", ["enumerate", "--n", str(n_enum)],
                check=lines_check(0, bell(n_enum), " ".join(map(str, range(n_enum))),
                                  "|".join(map(str, range(n_enum))))),
        Request(f"lattice/hasse/n={n_hasse}", ["hasse", "--n", str(n_hasse)],
                check=hasse_check(bell(n_hasse), cover_pairs(n_hasse))),
        Request("lattice/antichains/bipartition/n=9",
                ["antichains", "bipartition", "--n", "9", "--verify"],
                check=exact(0, f"size: {2 ** 8 - 1}\nantichain: yes\nmaximal: yes\n")),
        Request("lattice/antichains/doubleton/n=10",
                ["antichains", "doubleton", "--n", "10", "--verify"],
                check=exact(0, f"size: {comb(10, 2)}\nantichain: yes\nmaximal: yes\n")),
        Request("lattice/ortho/search/n=5", ["ortho", "search", "--n", "5", "--exhaustive"],
                check=exact(0, "none\n")),
    ]


# -- the query pool -------------------------------------------------------------


def _ordinal(rng: random.Random, depth: int = 0) -> str:
    """A random ordinal expression: a sum of 1-3 terms, CNF order not enforced."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(6 if depth < 2 else 3)
        if kind == 0:
            terms.append(str(rng.randint(0, 40)))
        elif kind == 1:
            terms.append("w")
        elif kind == 2:
            terms.append(f"w*{rng.randint(2, 9)}")
        elif kind == 3:
            terms.append(f"w^{rng.randint(2, 9)}")
        elif kind == 4:
            terms.append(f"w^({_ordinal(rng, depth + 1)})*{rng.randint(1, 5)}")
        else:
            terms.append(f"w^(w^{rng.randint(1, 3)})" if depth else "w^w")
    return "+".join(terms)


def _nested(depth: int, leaf: int) -> str:
    text = str(leaf)
    for _ in range(depth):
        text = f"w^({text})"
    return text


def _gch_expression(rng: random.Random) -> str:
    a, b = _ordinal(rng), _ordinal(rng)
    kind = rng.randrange(6)
    if kind == 0:
        return f"aleph({a})"
    if kind == 1:
        return f"pow(fin(2), aleph({a}))"
    if kind == 2:
        return f"pow(aleph({a}), aleph({b}))"
    if kind == 3:
        return f"cf(aleph({a}))"
    if kind == 4:
        return f"pow(aleph({a}), fin({rng.randint(0, 9)}))"
    full = rng.choice((0, 1, 2, 5))
    residue = rng.choice(("fin(0)", "fin(3)", "aleph(0)", "aleph(2)"))
    return f"complements(shape(full={full}, kappa=aleph(w*{rng.randint(1, 4)}+{a}), lambda={residue}))"


MODELS = (
    {"continuum": {"0": "1"}},
    {"continuum": {"0": "2"}},
    {"gch": False, "continuum": {"0": "2", "1": "3"}},
    {"continuum": {"0": "3", "2": "5"}},
    {"continuum": {"1": "w+1"}},
    {"continuum": {"0": "w+1", "w+1": "w+2"}},
    {"gch": True},
    {"continuum": {}},
)


def _model_expression(rng: random.Random) -> str:
    small = ("0", "1", "2", "3", "4", "5", "w", "w+1", "w+2", "w*2")
    kind = rng.randrange(4)
    if kind <= 1:
        return f"pow(fin(2), aleph({rng.choice(small)}))"
    if kind == 2:
        return f"pow(aleph({rng.choice(small)}), aleph({rng.choice(small)}))"
    base = rng.choice(("2", "3", "w+1"))
    return f"complements(shape(full={rng.choice((0, 1, 2))}, kappa=aleph({base}), lambda=aleph(0)))"


def _chain_verify(rng: random.Random, key: str, n: int, kind: str) -> Request:
    chain = random_maximal_chain(rng, n)
    if kind == "maximal":
        check = exact(0, "chain: yes\nsaturated: yes\nmaximal: yes\n")
    elif kind == "no-bottom":
        chain = chain[1:]
        check = exact(0, f"chain: yes\nsaturated: yes\nmaximal: no\nwitness: "
                         f"{'|'.join(map(str, range(n)))}\n")
    elif kind == "unsaturated":
        gone = set(rng.sample(range(1, n - 1), rng.randint(1, max(1, (n - 2) // 4))))
        chain = [p for i, p in enumerate(chain) if i not in gone]
        check = prefix(0, "chain: yes\nsaturated: no\nmaximal: no\nwitness: ")
    else:  # two neighbours swapped: the first failing pair is (j, j + 1)
        j = rng.randrange(n - 1)
        chain[j], chain[j + 1] = chain[j + 1], chain[j]
        check = exact(1, f"chain: no\nsaturated: no\nmaximal: no\nwitness: ({j}, {j + 1})\n")
    name = key.replace("/", "-") + ".txt"
    return Request(key, ["chains", "verify", "@" + name], {name: file_text(chain)}, check)


def _hasse_file(rng: random.Random, key: str, n: int, kind: str) -> Request:
    name = key.replace("/", "-") + ".txt"
    if kind == "chain":
        chain = random_maximal_chain(rng, n)
        return Request(key, ["hasse", "--chain", "@" + name], {name: file_text(chain)},
                       hasse_check(n, n - 1))
    # partitions of one rank are pairwise incomparable: no edges
    k = rng.randint(2, n - 1)
    members = sorted({random_partition(rng, n, k) for _ in range(rng.randint(4, 24))})
    return Request(key, ["hasse", "--antichain", "@" + name], {name: file_text(members)},
                   hasse_check(len(members), 0))


def _counts_line(n: int) -> str:
    coatoms = 2 ** (n - 1) - 1 if n >= 2 else 0
    return f"n={n} bell={bell(n)} atoms={comb(n, 2)} coatoms={coatoms}\n"


def _malformed() -> list[Request]:
    bad = [
        ("cardinal-syntax", ["cardinal", "eval", "aleph(w^)"], {}),
        ("cardinal-base", ["cardinal", "eval", "pow(fin(1), aleph(0))"], {}),
        ("cardinal-undetermined", ["cardinal", "eval", "pow(pow(fin(2), aleph(0)), aleph(0))",
                                   "--model", "@model-empty.json"],
         {"model-empty.json": json.dumps({"continuum": {}})}),
        ("model-missing", ["cardinal", "eval", "aleph(1)", "--model", "@absent.json"], {}),
        ("model-json", ["cardinal", "eval", "aleph(1)", "--model", "@model-broken.json"],
         {"model-broken.json": '{"continuum": {"0": '}),
        ("model-monotone", ["cardinal", "eval", "aleph(1)", "--model", "@model-down.json"],
         {"model-down.json": json.dumps({"continuum": {"0": "3", "1": "2"}})}),
        ("chain-overlap", ["chains", "verify", "@overlap.txt"], {"overlap.txt": "0 1|1 2\n"}),
        ("chain-token", ["chains", "verify", "@token.txt"], {"token.txt": "0|1|2\n0 x|1 2\n"}),
        ("chain-empty", ["chains", "verify", "@empty.txt"], {"empty.txt": "\n\n"}),
        ("chain-ground", ["hasse", "--chain", "@ground.txt"], {"ground.txt": "0|1|2\n0 1 2 3\n"}),
        ("enumerate-cap", ["enumerate", "--n", "13"], {}),
        ("enumerate-no-n", ["enumerate"], {}),
        ("hasse-two-sources", ["hasse", "--n", "3", "--chain", "@token.txt"],
         {"token.txt": "0|1|2\n0 x|1 2\n"}),
        ("ortho-witness-small", ["ortho", "witness", "--n", "3"], {}),
        ("ortho-search-cap", ["ortho", "search", "--n", "6"], {}),
        ("keyframe-cap", ["chains", "keyframe", "--k", "8"], {}),
        ("unknown-command", ["frobnicate", "--n", "3"], {}),
    ]
    return [Request(f"malformed/{name}", argv, files, exact(2, ""))
            for name, argv, files in bad]


def _query_pool() -> dict[str, list[Request]]:
    """Strata of distinct requests, built from POOL_SEED only."""
    rng = random.Random(POOL_SEED)
    pool: dict[str, list[Request]] = {}

    exprs = sorted({_gch_expression(rng) for _ in range(160)})
    pool["cardinal-gch"] = [Request(f"cardinal-gch/{i}", ["cardinal", "eval", e],
                                    check=cardinal_result(allow_interval=False))
                            for i, e in enumerate(exprs)]

    items = []
    for m, model in enumerate(MODELS):
        name = f"model-{m}.json"
        for i in range(16):
            e = _model_expression(rng)
            items.append(Request(f"cardinal-model/{m}/{i}",
                                 ["cardinal", "eval", e, "--model", "@" + name],
                                 {name: json.dumps(model)}, cardinal_result(allow_interval=True)))
    pool["cardinal-model"] = items

    deep_forms = ("aleph({})", "pow(fin(2), aleph({}))", "cf(aleph({}))")
    pool["cardinal-deep"] = [
        Request(f"cardinal-deep/{d}/{i}", ["cardinal", "eval", form.format(_nested(d, i + 1))],
                check=prefix(0, "aleph("))
        for d in range(50, 201, 25) for i, form in enumerate(deep_forms)]

    kinds = ("maximal", "no-bottom", "unsaturated", "swapped")
    pool["chains-verify"] = [
        _chain_verify(rng, f"chains-verify/{kind}/n={n}", n, kind)
        for n in (4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64) for kind in kinds]
    # Full-length chains at the ground-set cap cost alike, so the slowest
    # 1% of requests, which sets latency_p99_ms, falls inside this stratum.
    pool["chains-verify-big"] = [
        _chain_verify(rng, f"chains-verify-big/{kind}/{i}", 128, kind)
        for kind in ("maximal", "no-bottom") for i in range(2)]
    pool["hasse-file"] = [
        _hasse_file(rng, f"hasse-file/{kind}/n={n}", n, kind)
        for n in (4, 6, 8, 12, 16, 24) for kind in ("chain", "antichain")]
    pool["hasse-big"] = [
        _hasse_file(rng, f"hasse-big/chain/n={n}", n, "chain") for n in (120, 124, 128)]

    pool["keyframe"] = [
        Request(f"keyframe/k={k}", ["chains", "keyframe", "--k", str(k)],
                check=lines_check(0, 2 ** k, "|".join(map(str, range(2 ** k))),
                                  " ".join(map(str, range(2 ** k)))))
        for k in range(0, 6)]
    pool["counts"] = [
        Request(f"counts/n={n}", ["enumerate", "--n", str(n), "--counts"],
                check=exact(0, _counts_line(n)))
        for n in range(0, 13)]
    pool["ortho"] = [
        Request(f"ortho/witness/n={n}", ["ortho", "witness", "--n", str(n)],
                check=prefix(0, f"n={n} atoms={comb(n, 2)} coatoms={2 ** (n - 1) - 1}\n"))
        for n in range(5, 41)] + [
        Request(f"ortho/search/n={n}", ["ortho", "search", "--n", str(n)],
                check=exact(0, "none\n") if n >= 3 else lines_check(0, 1 + bell(n), "found"))
        for n in range(0, 5)]
    pool["malformed"] = _malformed()
    # ROADMAP item 4: this nesting raises RecursionError out of main() today;
    # the contract asks for exit 2 and no output.
    pool["defect"] = [
        Request(f"defect/nested-2000/{leaf}", ["cardinal", "eval", f"aleph({_nested(2000, leaf)})"],
                check=exact(2, ""), known_defect=True)
        for leaf in (1, 2, 3)]
    return pool


# Requests drawn per stratum for one pass of ``queries`` (1008 in all).
QUERY_MIX = {
    "cardinal-gch": 380,
    "cardinal-model": 200,
    "cardinal-deep": 42,
    "chains-verify": 120,
    "chains-verify-big": 24,
    "hasse-file": 48,
    "hasse-big": 3,
    "keyframe": 42,
    "counts": 52,
    "ortho": 41,
    "malformed": 51,
    "defect": 5,
}


def query_requests(seed: int) -> list[Request]:
    """Each pool item of a stratum equally often, the remainder drawn by the seed."""
    pool = _query_pool()
    rng = random.Random(seed)
    mix = []
    for stratum, count in QUERY_MIX.items():
        items = pool[stratum]
        mix += items * (count // len(items)) + rng.sample(items, count % len(items))
    rng.shuffle(mix)
    return mix


def requests_for(workload: str, seed: int) -> list[Request]:
    if workload == "census":
        return census_requests()
    if workload == "lattice":
        return lattice_requests()
    if workload == "queries":
        return query_requests(seed)
    raise ValueError(f"unknown workload {workload!r}")


def all_requests() -> list[Request]:
    """Every request any seed can run; the references cover exactly these."""
    pool = [r for items in _query_pool().values() for r in items]
    return census_requests() + lattice_requests() + pool
