"""Command-line interface: output formats, exit codes, determinism."""
import contextlib
import errno
import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pilat import (Partition, bottom, chains, covers, iter_partitions, keyframe_chain, partitions,
                   verify_chain)
from pilat.cardinal import NEST_CAP
from pilat.cli import (_CHUNK, _COMMANDS, _GROUPS, HASSE_VERSION, _hasse_dot, _read_file,
                       _write_lines, main)

CENSUS3 = """\
# pilat census v1
partition,m,block_sizes,total,count_nm1,grieser
0 1 2,1,3,1,1,1
0 1|2,2,2+1,2,2,2
0 2|1,2,2+1,2,2,2
0|1 2,2,2+1,2,2,2
0|1|2,3,1+1+1,1,1,1
"""


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ----------------------------------------------------------------- enumerate

def test_enumerate_lists_lattice(capsys):
    rc, out, err = run(capsys, "enumerate", "--n", "3")
    assert rc == 0 and err == ""
    assert out == "0 1 2\n0 1|2\n0 2|1\n0|1 2\n0|1|2\n"


def test_enumerate_counts(capsys):
    rc, out, _ = run(capsys, "enumerate", "--n", "3", "--counts")
    assert rc == 0
    assert out == "n=3 bell=5 atoms=3 coatoms=3\n"
    rc, out, _ = run(capsys, "enumerate", "--n", "10", "--counts")
    assert rc == 0
    assert out == "n=10 bell=115975 atoms=45 coatoms=511\n"


def test_enumerate_counts_at_the_counting_cap(capsys):
    rc, out, _ = run(capsys, "enumerate", "--n", "26", "--counts")
    assert rc == 0
    assert out == "n=26 bell=49631246523618756274 atoms=325 coatoms=33554431\n"


def test_enumerate_counts_over_the_cap_exit_2(capsys):
    # the cap is checked before 2^(n-1) - 1 is built, so a huge n cannot
    # overflow or exhaust memory
    for n in ("27", "-1", str(10**19)):
        rc, out, err = run(capsys, "enumerate", "--n", n, "--counts")
        assert rc == 2 and out == "" and "cap 26" in err


@pytest.mark.parametrize("prog, argv", [
    ("enumerate", ["enumerate", "--n"]), ("enumerate", ["enumerate", "--counts", "--n"]),
    ("hasse", ["hasse", "--n"]), ("antichains", ["antichains", "doubleton", "--n"]),
    ("chains keyframe", ["chains", "keyframe", "--k"]),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
@pytest.mark.parametrize("value", ["\u0663", "1_0", " 4", "+3", "3\n", "x", ""], ids=repr)
def test_int_options_take_only_ascii_digits(capsys, prog, argv, value):
    # one converter on both readers, where int() would also read these forms
    rc, out, err = run(capsys, *argv, value)
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"pilat {prog}: error: argument {argv[-1]}: invalid int value: {value!r}")


def test_enumerate_writes_output_file(capsys, tmp_path):
    target = tmp_path / "pi3.txt"
    rc, out, _ = run(capsys, "enumerate", "--n", "3", "--output", str(target))
    assert rc == 0 and out == ""
    assert target.read_text() == "0 1 2\n0 1|2\n0 2|1\n0|1 2\n0|1|2\n"


def test_enumerate_cap_exit_code(capsys):
    rc, out, err = run(capsys, "enumerate", "--n", "99")
    assert rc == 2 and out == ""
    assert "cap" in err


# -------------------------------------------------------------------- chains

def test_keyframe_output(capsys):
    rc, out, _ = run(capsys, "chains", "keyframe", "--k", "2")
    assert rc == 0
    assert out == "0|1|2|3\n0|1|2 3\n0 1|2 3\n0 1 2 3\n"


def test_keyframe_verify_round_trip(capsys, tmp_path):
    chain_file = tmp_path / "chain.txt"
    rc, out, _ = run(capsys, "chains", "keyframe", "--k", "2",
                     "--output", str(chain_file))
    assert rc == 0
    rc, out, _ = run(capsys, "chains", "verify", str(chain_file))
    assert rc == 0
    assert out == "chain: yes\nsaturated: yes\nmaximal: yes\n"


def test_verify_reports_non_chain(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1|2\n0 2|1\n")
    rc, out, _ = run(capsys, "chains", "verify", str(bad))
    assert rc == 1
    assert out.startswith("chain: no")
    assert "witness" in out


def test_verify_unsaturated_chain_exit_zero(capsys, tmp_path):
    gappy = tmp_path / "gappy.txt"
    gappy.write_text("0|1|2|3\n0 1 2 3\n")
    rc, out, _ = run(capsys, "chains", "verify", str(gappy))
    assert rc == 0  # a genuine chain, just not maximal
    assert "chain: yes" in out
    assert "saturated: no" in out
    assert "witness" in out


def test_chain_file_tokens_are_read_as_integers(capsys, tmp_path):
    # "07"-style, signed and shuffled tokens miss the parse table and take
    # the int() path; the report and the Hasse diagram are the canonical ones
    chain = [p.blocks for p in keyframe_chain(3)]
    canonical = tmp_path / "canonical.txt"
    canonical.write_text("".join("|".join(" ".join(map(str, b)) for b in bs) + "\n"
                                 for bs in chain))
    padded = tmp_path / "padded.txt"
    padded.write_text("".join(" | ".join(" ".join(f"+{e}" if e % 3 else f"0{e}"
                                                 for e in reversed(b))
                                        for b in reversed(bs)) + " \n"
                              for bs in chain))
    for argv in (("chains", "verify"), ("hasse", "--chain")):
        expected = run(capsys, *argv, str(canonical))
        assert expected[0] == 0 and expected[1]
        assert run(capsys, *argv, str(padded)) == expected


@pytest.mark.parametrize("argv", [("chains", "verify"), ("hasse", "--chain"),
                                  ("hasse", "--antichain")])
def test_file_errors_name_the_file_and_line(capsys, tmp_path, argv):
    # line numbers are 1-based in the file and count blank lines
    for text, line, message in (
            ("0|1|2\n\n0 0|1 2\n", 3, "duplicate element 0"),
            ("0|1|2\n  \n0 x|1 2\n0 1 2\n", 3, "bad element token in '0 x'"),
            ("\n\n0 1|2\n\n0 1 2\n0 1 2 3\n", 6, "element 3 outside ground set 0..2"),
            ("0 1|1\n", 1, "duplicate element 1")):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        rc, out, err = run(capsys, *argv, str(path))
        assert (rc, out, err) == (2, "", f"error: {path}:{line}: {message}\n")


@pytest.mark.parametrize("argv", [("chains", "verify"), ("hasse", "--chain"),
                                  ("hasse", "--antichain")])
def test_file_with_bad_utf8_names_the_file(capsys, tmp_path, argv):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"\xff0|1\n0 1\n")
    rc, out, err = run(capsys, *argv, str(path))
    assert (rc, out) == (2, "")
    assert err == (f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte\n")


def test_verify_missing_file(capsys):
    rc, out, err = run(capsys, "chains", "verify", "/nonexistent/chain.txt")
    assert rc == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------- antichains

def test_antichain_listing(capsys):
    rc, out, _ = run(capsys, "antichains", "doubleton", "--n", "3")
    assert rc == 0
    assert out == "0 1|2\n0 2|1\n0|1 2\n"


def test_antichain_verify(capsys):
    rc, out, _ = run(capsys, "antichains", "bipartition", "--n", "4", "--verify")
    assert rc == 0
    assert out == "size: 7\nantichain: yes\nmaximal: yes\n"


def test_antichain_verify_skips_maximality_over_cap(capsys):
    # n = 12 is under the ground cap but over the maximality-sweep cap
    rc, out, _ = run(capsys, "antichains", "doubleton", "--n", "12", "--verify")
    assert rc == 0
    assert "antichain: yes" in out
    assert "maximal: skipped" in out


# --------------------------------------------------------------------- census

def test_census_csv(capsys):
    rc, out, _ = run(capsys, "complements", "census", "--n", "3")
    assert rc == 0
    assert out == CENSUS3


def test_census_deterministic(capsys):
    rc, first, _ = run(capsys, "complements", "census", "--n", "4")
    assert rc == 0
    rc, second, _ = run(capsys, "complements", "census", "--n", "4")
    assert rc == 0
    assert first == second


def test_census_has_no_jobs_option(capsys):
    # the census is one serial walk: an old --jobs invocation is refused, not ignored
    rc, out, err = run(capsys, "complements", "census", "--n", "3", "--jobs", "2")
    assert rc == 2 and out == ""
    assert "--jobs" in err


def test_census_rejects_n0(capsys):
    rc, out, err = run(capsys, "complements", "census", "--n", "0")
    assert rc == 2
    assert "n >= 1" in err


# --------------------------------------------------------------------- ortho

def test_ortho_search_found(capsys):
    rc, out, _ = run(capsys, "ortho", "search", "--n", "2")
    assert rc == 0
    assert out == "found\n0 1 -> 0|1\n0|1 -> 0 1\n"


def test_ortho_search_none(capsys):
    rc, out, _ = run(capsys, "ortho", "search", "--n", "3")
    assert rc == 0
    assert out == "none\n"


def test_ortho_search_cap(capsys):
    rc, _, err = run(capsys, "ortho", "search", "--n", "5")
    assert rc == 2 and "cap" in err
    rc, out, _ = run(capsys, "ortho", "search", "--n", "5", "--exhaustive")
    assert rc == 0 and out == "none\n"


def test_ortho_witness(capsys):
    rc, out, _ = run(capsys, "ortho", "witness", "--n", "5")
    assert rc == 0
    assert out.startswith("n=5 atoms=10 coatoms=15\n")
    assert "no orthocomplementation" in out


def test_ortho_witness_small_n(capsys):
    rc, _, err = run(capsys, "ortho", "witness", "--n", "4")
    assert rc == 2 and "error:" in err


def test_ortho_witness_follows_the_ground_cap(capsys, monkeypatch):
    # 10**19 would otherwise build 2^(10**19 - 1) and run out of memory
    for n in (str(10**19), "129"):
        rc, out, err = run(capsys, "ortho", "witness", "--n", n)
        assert rc == 2 and out == "" and "ground-set cap 128" in err
    rc, out, _ = run(capsys, "ortho", "witness", "--n", "128")
    assert rc == 0 and out.startswith("n=128 atoms=8128 coatoms=")
    monkeypatch.setenv("PILAT_MAX_N", "200")
    rc, out, _ = run(capsys, "ortho", "witness", "--n", "200")
    assert rc == 0 and out.startswith("n=200 atoms=19900 coatoms=")


# ------------------------------------------------------------------- cardinal

def test_cardinal_eval_gch(capsys):
    rc, out, _ = run(capsys, "cardinal", "eval", "pow(aleph(0), aleph(0))")
    assert rc == 0 and out == "aleph(1)\n"


def test_cardinal_eval_complements(capsys):
    rc, out, _ = run(
        capsys, "cardinal", "eval",
        "complements(shape(full=1, kappa=aleph(0), lambda=fin(3)))")
    assert rc == 0 and out == "aleph(0)\n"


def test_cardinal_eval_model_file(capsys, tmp_path):
    model = tmp_path / "easton.json"
    model.write_text(json.dumps({"gch": False, "continuum": {"1": "3", "2": "3"}}))
    rc, out, _ = run(capsys, "cardinal", "eval", "pow(aleph(2), aleph(1))",
                     "--model", str(model))
    assert rc == 0 and out == "aleph(3)\n"
    rc, out, _ = run(capsys, "cardinal", "eval", "pow(fin(2), aleph(0))",
                     "--model", str(model))
    assert rc == 0 and out == "interval[aleph(1), aleph(3)]\n"


def test_cardinal_eval_bad_inputs(capsys, tmp_path):
    rc, _, err = run(capsys, "cardinal", "eval", "pow(")
    assert rc == 2 and err.startswith("error:")
    rc, _, err = run(capsys, "cardinal", "eval", "fin(1)", "--model", "/nope.json")
    assert rc == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    rc, out, err = run(capsys, "cardinal", "eval", "fin(1)", "--model", str(broken))
    assert rc == 2 and out == ""
    assert err == (f"error: {broken}: Expecting property name enclosed in double quotes: "
                   "line 1 column 2 (char 1)\n")
    # a well-formed file that is not a model names the file too
    for text, message in (('{"continum": {}}', "unknown model key 'continum'"),
                          ('{"continuum": {"0": "3", "1": "2"}}', "assignment is not monotone"),
                          ('{"continuum": {"w^": "1"}}', "expected an ordinal, got None")):
        broken.write_text(text)
        rc, out, err = run(capsys, "cardinal", "eval", "fin(1)", "--model", str(broken))
        assert (rc, out, err) == (2, "", f"error: {broken}: {message}\n")


def _nested_ordinal(depth):
    text = "1"
    for _ in range(depth):
        text = f"w^({text})"
    return text


def test_cardinal_eval_deep_nesting(capsys):
    rc, out, _ = run(capsys, "cardinal", "eval", f"aleph({_nested_ordinal(300)})")
    assert rc == 0 and out.startswith("aleph(w^(w^(")
    rc, out, err = run(capsys, "cardinal", "eval", f"aleph({_nested_ordinal(2000)})")
    assert rc == 2 and out == ""
    assert "nested too deeply" in err


def test_cardinal_eval_deep_model_file(capsys, tmp_path):
    # JSON nested past NEST_CAP is refused before it is decoded, and an
    # ordinal key nested one level past it in the scan of the key
    key = _nested_ordinal(NEST_CAP + 1)
    deep_key = json.dumps({"continuum": {f"{key}+1": f"{key}+3"}})
    for text in ("[" * 1000, "[" * 100_000, deep_key):
        model = tmp_path / "deep.json"
        model.write_text(text)
        rc, out, err = run(capsys, "cardinal", "eval", "fin(1)", "--model", str(model))
        assert rc == 2 and out == ""
        assert "nested too deeply" in err


# ---------------------------------------------------------------------- hasse

def test_hasse_full_lattice(capsys):
    rc, out, _ = run(capsys, "hasse", "--n", "2")
    assert rc == 0
    assert out == ('// pilat hasse v1\n'
                   'digraph partitions {\n'
                   '  rankdir=BT;\n'
                   '  "0 1";\n'
                   '  "0|1";\n'
                   '  "0|1" -> "0 1";\n'
                   '}\n')


def test_hasse_counts_for_n3(capsys):
    rc, out, _ = run(capsys, "hasse", "--n", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "// pilat hasse v1"
    nodes = [l for l in lines if l.endswith('";') and "->" not in l]
    edges = [l for l in lines if "->" in l]
    assert len(nodes) == 5 and len(edges) == 6


def test_hasse_from_chain_file(capsys, tmp_path):
    chain_file = tmp_path / "chain.txt"
    chain_file.write_text("0|1|2\n0 1|2\n0 1 2\n")
    rc, out, _ = run(capsys, "hasse", "--chain", str(chain_file))
    assert rc == 0
    assert out.count("->") == 2


def _hasse_all_pairs(parts):
    """Oracle: the DOT text from a scan of every ordered pair."""
    lines = [HASSE_VERSION, "digraph partitions {", "  rankdir=BT;"]
    lines += [f'  "{p.format()}";' for p in parts]
    lines += [f'  "{p.format()}" -> "{q.format()}";'
              for p in parts for q in parts if covers(p, q)]
    lines.append("}")
    return "".join(line + "\n" for line in lines)


def test_hasse_matches_all_pairs_scan(capsys, tmp_path):
    for n in range(7):
        parts = list(iter_partitions(n))
        assert "\n".join([*_hasse_dot(parts), ""]) == _hasse_all_pairs(parts)
    parts = keyframe_chain(3) + [Partition.parse("0 4|1 5|2 6|3 7", 8)]
    random.Random(0).shuffle(parts)
    chain_file = tmp_path / "chain.txt"
    chain_file.write_text("".join(p.format() + "\n" for p in parts))
    rc, out, _ = run(capsys, "hasse", "--chain", str(chain_file))
    assert rc == 0 and out == _hasse_all_pairs(parts)
    assert out.count("->") > 0
    # a repeated line repeats its node and its edges
    repeated = parts + parts[2:5]
    chain_file.write_text("".join(p.format() + "\n" for p in repeated))
    rc, out, _ = run(capsys, "hasse", "--chain", str(chain_file))
    assert rc == 0 and out == _hasse_all_pairs(repeated)
    assert out.count("->") > _hasse_all_pairs(parts).count("->")
    # one rank: every line has two blocks, so there is no edge
    rank = [p for p in iter_partitions(5) if p.block_count == 2]
    random.Random(1).shuffle(rank)
    chain_file.write_text("".join(p.format() + "\n" for p in rank))
    rc, out, _ = run(capsys, "hasse", "--antichain", str(chain_file))
    assert rc == 0 and out == _hasse_all_pairs(rank)
    assert "->" not in out


def _count_refinement_tests(monkeypatch) -> list[int]:
    """Count Partition.__le__ calls from here on; the count is the list's one item."""
    calls = [0]
    le = Partition.__le__

    def counted(p, q):
        calls[0] += 1
        return le(p, q)

    monkeypatch.setattr(Partition, "__le__", counted)
    return calls


def test_hasse_mixes_block_merges_and_bucket_scans(capsys, tmp_path, monkeypatch):
    # Pi_5 with a thin 3-block rank: the 4-block lines face C(4, 2) = 6 merges
    # against 3 candidates and scan them, while bottom (10 merges, 11 candidates),
    # the 3-block lines (3 merges, 16) and the 2-block lines (1 merge, 1) merge
    pi5 = list(iter_partitions(5))
    rank = {k: [p for p in pi5 if p.block_count == k] for k in range(1, 6)}
    thin = [Partition.parse("0 1 2|3|4", 5), Partition.parse("0|1|2 3 4", 5)]
    parts = [*rank[5], *rank[4], *thin, *rank[2], *rank[1],
             rank[4][3], thin[0], rank[2][7]]  # repeated lines
    random.Random(2).shuffle(parts)
    path = tmp_path / "mixed.txt"
    path.write_text("".join(p.format() + "\n" for p in parts))
    calls = _count_refinement_tests(monkeypatch)
    rc, out, _ = run(capsys, "hasse", "--antichain", str(path))
    assert rc == 0 and calls[0] == 11 * 3  # only the 4-block lines scan
    assert out == _hasse_all_pairs(parts)
    # the scan keeps covers, one edge per copy of a repeated line, and drops
    # the rest: "0 3|1|2|4" (listed twice) refines neither 3-block line
    assert out.count('"0 1|2|3|4" -> ') == 2 and out.count('"0|1|2|3 4" -> ') == 1
    assert out.count('  "0 3|1|2|4";') == 2 and '"0 3|1|2|4" -> ' not in out


def test_hasse_refinement_test_counts(monkeypatch):
    calls = _count_refinement_tests(monkeypatch)
    # in Pi_7 each bucket of k - 1 blocks holds at least C(k, 2) partitions
    _hasse_dot(list(iter_partitions(7)))
    assert calls[0] == 0
    # a maximal chain on 128 elements has one line per rank: the 2-block line
    # merges once, and the lines of 3..128 blocks each test one candidate
    chain = keyframe_chain(7)
    random.Random(3).shuffle(chain)
    dot = _hasse_dot(chain)
    assert calls[0] == 126
    assert sum("->" in line for line in dot) == 127


def test_chain_file_work_counts(capsys, tmp_path, monkeypatch):
    # a 128-line chain file is read through the block memo alone, and its
    # refinement tests read masks only: no labels tuple, no int() fallback
    counts = {"labels": 0, "fallback": 0}
    labels, fallback = Partition.labels.func, partitions._parse_literal

    def counted_labels(p):
        counts["labels"] += 1
        return labels(p)

    def counted_fallback(text, n):
        counts["fallback"] += 1
        return fallback(text, n)

    monkeypatch.setattr(Partition, "labels", property(counted_labels))
    monkeypatch.setattr(partitions, "_parse_literal", counted_fallback)
    path = tmp_path / "chain.txt"
    path.write_text("".join(f"{p}\n" for p in keyframe_chain(7)))
    for argv in (("chains", "verify"), ("hasse", "--chain")):
        rc, out, _ = run(capsys, *argv, str(path))
        assert rc == 0 and out
    assert counts == {"labels": 0, "fallback": 0}
    # chains verify reads the file as line differences: its lines never
    # become partitions, so losing that reading fails here without a timing
    built = [0]
    trusted = partitions._trusted

    def counted_trusted(n, masks):
        built[0] += 1
        return trusted(n, masks)

    for module in (partitions, chains):
        monkeypatch.setattr(module, "_trusted", counted_trusted)
    rc, out, _ = run(capsys, "chains", "verify", str(path))
    assert (rc, out) == (0, "chain: yes\nsaturated: yes\nmaximal: yes\n")
    assert built[0] <= 3
    run(capsys, "hasse", "--chain", str(path))  # the counter is live: hasse parses every line
    assert built[0] >= 128
    # both counters are live: a padded token falls back, a meet reads labels
    path.write_text("07 1|2\n")
    run(capsys, "chains", "verify", str(path))
    Partition.parse("0|1", 2) & Partition.parse("0 1", 2)
    assert counts == {"labels": 2, "fallback": 1}


def _reference_verify(path):
    """``chains verify`` as the composition of the full parse and
    ``verify_chain``: exit code, stdout and stderr."""
    try:
        report = verify_chain(_read_file(path, partitions._parse_many))
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    out = "".join(f"{key}: {'yes' if flag else 'no'}\n" for key, flag in (
        ("chain", report.is_chain), ("saturated", report.is_saturated),
        ("maximal", report.is_maximal)))
    if report.witness is not None:
        out += f"witness: {report.witness}\n"
    return (0 if report.is_chain else 1), out, ""


def _main_outcome(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


_BAD_BLOCKS = ["07", "+3", "x", "0 0", "", " ", "99", "1.0"]


@st.composite
def _chain_file_texts(draw):
    """A maximal chain of Pi_n, n <= 12, with some lines dropped, swapped,
    duplicated, replaced by a random partition, malformed or given a token
    such as ``07`` or ``+7``, the file sometimes reversed, blocks and their
    elements shuffled, texts padded."""
    n = draw(st.integers(1, 12))
    p = bottom(n)
    chain = [p]
    while p.block_count > 1:
        i, j = draw(st.lists(st.integers(0, p.block_count - 1), min_size=2, max_size=2,
                             unique=True))
        p = p.merge_blocks(i, j)
        chain.append(p)
    lines = [[list(map(str, b)) for b in q.blocks] for q in chain]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["drop", "swap", "repeat", "fresh", "malformed",
                                     "token"]))
        at = draw(st.integers(0, len(lines) - 1))
        if kind == "drop" and len(lines) > 1:
            del lines[at]
        elif kind == "swap" and at + 1 < len(lines):
            lines[at], lines[at + 1] = lines[at + 1], lines[at]
        elif kind == "repeat":
            lines.insert(at, [list(b) for b in lines[at]])
        elif kind == "fresh":
            labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
            lines[at] = [list(map(str, b)) for b in Partition.from_labels(labels).blocks]
        elif kind == "malformed":
            blocks = lines[at]
            b = draw(st.integers(0, len(blocks) - 1))
            bad = draw(st.sampled_from(_BAD_BLOCKS + [" ".join(blocks[0])]))
            if draw(st.booleans()):
                blocks[b] = [bad]
            else:
                blocks.insert(b, [bad])
        elif kind == "token":
            block = draw(st.sampled_from(lines[at]))
            t = draw(st.integers(0, len(block) - 1))
            block[t] = draw(st.sampled_from(["0", "+"])) + block[t]
    if draw(st.booleans()):
        lines.reverse()
    text = []
    for blocks in lines:
        if draw(st.integers(0, 3)) == 0:
            blocks = [draw(st.permutations(b)) for b in draw(st.permutations(blocks))]
        pad = draw(st.sampled_from(["", "", " ", "\t"]))
        sep = draw(st.sampled_from(["|", "|", " | "]))
        text.append(pad + sep.join(" ".join(b) for b in blocks) + pad + "\n")
        if draw(st.integers(0, 7)) == 0:
            text.append("\n")
    return "".join(text)


@settings(max_examples=250, deadline=None)
@given(_chain_file_texts())
@example("0|1|2\n0 1|2\n0 1 2\n")
@example("0 1|2\n2|1 0\n")  # one partition written two ways: not strictly increasing
@example("2|0|1\n1 0|2\n2 1 0\n")
@example("0|1|2|3\n0 1 2 3\n")  # a gap
@example("0|2|1 3\n0 2|3 1\n")  # a gap above a partition that is not bottom
@example("0|1|2|3\n0 1|2 3\n0 2|1 3\n")  # incomparable neighbours
def test_chain_verify_matches_parse_then_verify(tmp_path_factory, text):
    # reading the file as line differences may only be faster: exit code,
    # stdout and stderr are those of the full parse followed by verify_chain
    path = tmp_path_factory.mktemp("oracle") / "chain.txt"
    path.write_text(text)
    assert _main_outcome("chains", "verify", str(path)) == _reference_verify(str(path))


@pytest.mark.parametrize("text, expected", [
    ("0 1|2\n2|1 0\n", (1, "chain: no\nsaturated: no\nmaximal: no\nwitness: (0, 1)\n", "")),
    ("0 0|1 2\n0|1 2 3\n0 1 2 3\n", (2, "", "error: {path}:1: duplicate element 0\n")),
    ("0|1|2\n0 x|1 2\n0 1 2\n", (2, "", "error: {path}:2: bad element token in '0 x'\n")),
    ("0|1|2\n0 1|2\n0 1|3\n", (2, "", "error: {path}:3: element 3 outside ground set 0..2\n")),
    ("07 1|2\n", (2, "", "error: {path}:1: element 7 outside ground set 0..2\n")),
    ("0|1|2\n00 1|2\n+1 0 2\n", (0, "chain: yes\nsaturated: yes\nmaximal: yes\n", "")),
])
def test_chain_verify_explicit_files(tmp_path, text, expected):
    path = tmp_path / "chain.txt"
    path.write_text(text)
    rc, out, err = expected
    assert _main_outcome("chains", "verify", str(path)) == (rc, out, err.format(path=path))
    assert _reference_verify(str(path)) == (rc, out, err.format(path=path))


def test_chain_verify_reads_padded_tokens_as_the_full_parse(tmp_path):
    # "07"- and "+3"-style tokens miss the block memo: the whole file falls
    # back to the full parse and gives the canonical file's report
    chain = keyframe_chain(3)
    chain[2], chain[3] = chain[3], chain[2]
    padded = tmp_path / "padded.txt"
    padded.write_text("".join("|".join(" ".join(f"+{e}" if e % 3 else f"0{e}" for e in b)
                                       for b in p.blocks) + "\n" for p in chain))
    outcome = _main_outcome("chains", "verify", str(padded))
    assert outcome == _reference_verify(str(padded))
    assert outcome == (1, "chain: no\nsaturated: no\nmaximal: no\nwitness: (2, 3)\n", "")


HASH_SEED_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from pilat.cli import main
out = []
for path in sys.argv[2:]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(["chains", "verify", path])
    out.append([rc, stdout.getvalue(), stderr.getvalue()])
print(json.dumps(out))
"""


def test_chain_verify_output_is_independent_of_the_hash_seed(tmp_path):
    # block texts are kept in sets of strings, whose order follows the hash
    # seed; one file per verdict must print the same bytes under two seeds
    chain = [p.format() for p in keyframe_chain(4)]
    shuffled = ["|".join(reversed(line.split("|"))) for line in chain]
    files = {
        "maximal": shuffled,
        "no-bottom": shuffled[1:],
        "no-top": shuffled[:-1],
        "gap": shuffled[:3] + shuffled[6:],
        "not-a-chain": shuffled[:4] + [shuffled[5], shuffled[4]] + shuffled[6:],
        "bad-line": shuffled[:4] + ["0 1|1 2"] + shuffled[5:],
        "padded": ["07 " + shuffled[0]] + shuffled[1:],
    }
    paths = []
    for name, lines in files.items():
        paths.append(str(tmp_path / f"{name}.txt"))
        Path(paths[-1]).write_text("".join(line + "\n" for line in lines))
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", HASH_SEED_PROBE, src, *paths],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert [rc for rc, _, _ in json.loads(outputs[0])] == [0, 0, 0, 0, 1, 2, 2]


def test_hasse_requires_exactly_one_source(capsys):
    rc, _, err = run(capsys, "hasse")
    assert rc == 2
    rc, _, err = run(capsys, "hasse", "--n", "2", "--chain", "x")
    assert rc == 2


def test_hasse_cap(capsys):
    rc, _, err = run(capsys, "hasse", "--n", "8")
    assert rc == 2 and "cap" in err


# ------------------------------------------------------------------- general

def test_unknown_command_exit_code(capsys):
    rc, _, err = run(capsys, "nope")
    assert rc == 2


def test_no_arguments_exit_code(capsys):
    rc, _, err = run(capsys)
    assert rc == 2


def test_env_cap_lowers_limits(capsys, monkeypatch):
    monkeypatch.setenv("PILAT_MAX_N", "3")
    rc, _, err = run(capsys, "enumerate", "--n", "4")
    assert rc == 2
    rc, out, _ = run(capsys, "enumerate", "--n", "3")
    assert rc == 0


def test_env_cap_replaces_counting_and_search_caps(capsys, monkeypatch):
    monkeypatch.setenv("PILAT_MAX_N", "30")
    rc, out, _ = run(capsys, "enumerate", "--n", "27", "--counts")
    assert rc == 0
    assert out == "n=27 bell=545717047936059989389 atoms=351 coatoms=67108863\n"
    monkeypatch.delenv("PILAT_MAX_N")
    rc, _, err = run(capsys, "ortho", "search", "--n", "5")
    assert rc == 2 and "cap 4" in err
    monkeypatch.setenv("PILAT_MAX_N", "5")
    rc, out, _ = run(capsys, "ortho", "search", "--n", "5")
    assert rc == 0 and out == "none\n"


def test_env_cap_raises_limits(capsys, monkeypatch):
    monkeypatch.setenv("PILAT_MAX_N", "15")
    rc, out, _ = run(capsys, "enumerate", "--n", "13", "--counts")
    assert rc == 0
    assert out == "n=13 bell=27644437 atoms=78 coatoms=4095\n"

# ------------------------------------------------------------ golden output

# SHA-256 of stdout, recorded before the partition core was refactored.
GOLDEN = [
    (("enumerate", "--n", "6"),
     "a9af635989e04162e6ae11a64e43e6167d6442ee09b60d9e064c66793e31672d"),
    (("hasse", "--n", "4"),
     "a088cd77253f043978dc423be0239b670b7dff561e7085f210cdb7ffcf54de55"),
    (("complements", "census", "--n", "5"),
     "6cafe732426f7e53536e7e02945d20aaa7e3c9d258048ccc371e4eb822d27be8"),
    (("chains", "keyframe", "--k", "3"),
     "aea1092849a46b42bd008f8990fd3e90f79395cd1e4972ee86c330cc348e4d26"),
    (("antichains", "bipartition", "--n", "5", "--verify"),
     "ecf77c6bbb71a4daf89ea49fe31dcb0f0d61594811af83bf0c1e089f029e60e7"),
    (("ortho", "search", "--n", "4"),
     "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
    # recorded before bulk output shared one block text per mask
    (("ortho", "search", "--n", "2"),
     "a10ac0439b1316f085e281d28f5f312f670b0e73e568b5a492cc85b2c56e692c"),
    (("antichains", "doubleton", "--n", "5"),
     "133187db97a65dd97af36150cd072512bf3a5cdfca9d3429b778db6e8adfb425"),
    (("enumerate", "--n", "8"),
     "6992617bb6f30d6fdb3189bc9363c06c4ab9eb3bba04373356a47dd7ff021da3"),
    (("hasse", "--chain", "@repeated.txt"),
     "4df39228a29c455e9f874b513560a6711d35f9fd3f8aedc43bdaaf45815d3b16"),
    # recorded before main became the one writer of stdout and --output
    (("enumerate", "--n", "10", "--counts"),
     "6e7979d931c177e1c3f136df51674090be4d6748a5683fe1f0b78c21061c09b8"),
    (("ortho", "witness", "--n", "12"),
     "eb54b0af4c3190588834e9b2bc165e94982a0345d71ab28f8e585064e3da4112"),
    (("cardinal", "eval", "pow(aleph(0), aleph(0))"),
     "cf4451bb02bf5f4a37a27dc0a0989ac761dbd451a5152f308a0e35f5158f09a1"),
    (("cardinal", "eval", "pow(aleph(0), aleph(0))", "--model", "@pinned.json"),
     "12789b5c1640e426144b916b9230fc746c2aa7e2d4a37e101484459ea65bb7f6"),
    (("hasse", "--antichain", "@antichain.txt"),
     "f5d8795f04be72e6440b9eb2b2547f3ec254be3153ec7eb975116e934c0866dc"),
    (("chains", "verify", "@maximal.txt"),
     "b8142408624d0fcaba2b963abf70c9788ce004f8a0024fdb3bec173fa2eac784"),
    # recorded before the census counted complements without building them
    (("complements", "census", "--n", "7"),
     "53de7a42e7811d00a30d5bca55dd21de42a83063db1ca1e8ea79d1a70a7f8afb"),
    # recorded before hasse merged blocks and the walk batched its last element
    (("hasse", "--n", "6"),
     "e75722bf992781f64a6012cb1cfef354d08c812e74906c51b4973240f3aab407"),
    (("enumerate", "--n", "9"),
     "e50bbb99d7d77c81812c9e727ece5004ff024ece1cbee708d89f53ffd3bb1543"),
    # recorded before the census counted from block sizes
    (("complements", "census", "--n", "8"),
     "0f972110aa5f0d7522d8f820534f02c450ef03e4111fc3053428dbac625804b2"),
]

# files named by an "@name" argument above; a repeated line repeats its node
GOLDEN_FILES = {
    "repeated.txt": ("0|1|2|3|4|5|6|7\n0 1|2|3|4|5|6|7\n0 1|2 3|4|5|6|7\n"
                     "0 1|2 3|4|5|6|7\n0 1 2 3|4|5|6|7\n0 4|1 5|2 6|3 7\n"
                     "0 1 2 3|4 5 6 7\n0 1 2 3 4 5 6 7\n"),
    "pinned.json": '{"continuum": {"1": "3"}}\n',  # prints interval[aleph(1), aleph(3)]
    "antichain.txt": "0 1|2 3\n0 2|1 3\n0 3|1 2\n0|1 2 3\n0 2 3|1\n0 1 3|2\n0 1 2|3\n",
    "maximal.txt": "0|1|2|3\n0|1|2 3\n0 1|2 3\n0 1 2 3\n",
}


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_stdout(capsys, tmp_path, argv, digest):
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_report_on_a_swapped_chain_exit_1(capsys, tmp_path):
    swapped = tmp_path / "swapped.txt"
    swapped.write_text("0 1|2\n0|1|2\n")
    rc, out, err = run(capsys, "chains", "verify", str(swapped))
    assert rc == 1 and err == ""
    assert out == "chain: no\nsaturated: no\nmaximal: no\nwitness: (0, 1)\n"


# ------------------------------------------------------------ --output file

OUTPUT_ARGV = [
    ("enumerate", "--n", "4"),
    ("enumerate", "--n", "4", "--counts"),
    ("chains", "keyframe", "--k", "2"),
    ("antichains", "doubleton", "--n", "4"),
    ("antichains", "bipartition", "--n", "4"),
    ("antichains", "bipartition", "--n", "4", "--verify"),
    ("complements", "census", "--n", "3"),
    ("hasse", "--n", "3"),
]


@pytest.mark.parametrize("argv", OUTPUT_ARGV, ids=[" ".join(a) for a in OUTPUT_ARGV])
def test_output_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    rc, expected, _ = run(capsys, *argv)
    assert rc == 0 and expected
    target = tmp_path / "out.txt"
    rc, out, err = run(capsys, *argv, "--output", str(target))
    assert rc == 0 and out == "" and err == ""
    assert target.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("argv", [("enumerate", "--n", "13"), ("hasse", "--n", "8")],
                         ids=["enumerate", "hasse"])
def test_output_file_untouched_on_exit_2(capsys, tmp_path, argv):
    target = tmp_path / "out.txt"
    rc, out, err = run(capsys, *argv, "--output", str(target))
    assert rc == 2 and out == "" and "cap" in err
    assert not target.exists()
    target.write_bytes(b"kept\n")
    rc, out, _ = run(capsys, *argv, "--output", str(target))
    assert rc == 2 and out == ""
    assert target.read_bytes() == b"kept\n"


# Runs main in a child whose files may not grow past a size limit; SIGXFSZ is
# ignored, so a write past the limit fails with EFBIG instead of killing it.
FSIZE_PROBE = """
import resource, signal, sys
sys.path.insert(0, sys.argv[1])
limit = int(sys.argv[2])
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
from pilat.cli import main
sys.exit(main(sys.argv[3:]))
"""


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE and SIGXFSZ")
def test_failed_write_exits_2_with_part_of_the_output(capsys, tmp_path):
    # README: exit 2 also covers a write that fails, after which the --output
    # file may hold part of the output and no longer its old bytes
    rc, listing, _ = run(capsys, "enumerate", "--n", "10")
    assert rc == 0
    target = tmp_path / "out.txt"
    target.write_bytes(b"old bytes\n" * 100)
    limit = 100_000
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-I", "-c", FSIZE_PROBE, src, str(limit),
                           "enumerate", "--n", "10", "--output", str(target)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"
    written = target.read_bytes()
    assert 0 < len(written) <= limit < len(listing)
    assert listing.encode("utf-8").startswith(written)


def test_closed_pipe_stops_the_output_quietly():
    # README: a reader that closes stdout early (as `| head -1` does) is not a
    # refusal; the command stops writing and exits with its own code
    src = str(Path(__file__).resolve().parent.parent / "src")
    entry = f"import sys; sys.path.insert(0, {src!r}); from pilat.cli import entry; entry()"
    with subprocess.Popen([sys.executable, "-I", "-c", entry, "enumerate", "--n", "10"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()  # 2.3 MB of listing are still to come
        err = proc.stderr.read()
        rc = proc.wait(timeout=120)
    assert first == " ".join(map(str, range(10))).encode() + b"\n"
    assert (rc, err) == (0, b"")


# The listings main writes as they are built; each refuses before its first line.
STREAMED_REFUSALS = [
    ((), ("enumerate", "--n", "13")),
    (("PILAT_MAX_N", "3"), ("enumerate", "--n", "4")),
    ((), ("antichains", "bipartition", "--n", "1")),
    ((), ("antichains", "bipartition", "--n", "129")),
]


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "--output"])
@pytest.mark.parametrize("env,argv", STREAMED_REFUSALS,
                         ids=[" ".join(["=".join(e), *a]).strip() for e, a in STREAMED_REFUSALS])
def test_streamed_listing_refusal_writes_nothing(capsys, monkeypatch, tmp_path, env, argv,
                                                 to_file):
    monkeypatch.delenv("PILAT_MAX_N", raising=False)
    if env:
        monkeypatch.setenv(*env)
    target = tmp_path / "out.txt"
    rc, out, err = run(capsys, *argv, *(("--output", str(target)) if to_file else ()))
    assert rc == 2 and out == "" and err.startswith("error: ")
    assert not target.exists()


class _Writes(list):
    """A text sink that keeps each ``write`` call's text."""
    write = list.append


@pytest.mark.parametrize("count", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_writer_chunks(count):
    lines = [f"line {i}" for i in range(count)]
    writes = _Writes()
    _write_lines(writes, iter(lines))  # any iterable, read once
    assert "".join(writes) == "\n".join([*lines, ""])
    assert len(writes) == -(-count // _CHUNK)
    assert all(text.count("\n") <= _CHUNK for text in writes)


# Runs in a fresh isolated interpreter, started by a small launcher: on Linux
# a process keeps across exec the high-water RSS of the process it was forked
# from, so a child started from the test runner itself would report at least
# the runner's peak as its ru_maxrss.
LISTING_PROBE = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from pilat.cli import main
rc = main(sys.argv[2:])
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(rc, peak / (1 << 20 if sys.platform == "darwin" else 1 << 10))
"""
LAUNCHER = """
import subprocess, sys
sys.exit(subprocess.run([sys.executable, "-I", "-c", *sys.argv[1:]]).returncode)
"""


def test_enumerate_streams_in_bounded_memory(tmp_path):
    # Pi_11: 678 570 lines; streamed, about 17 MB; built whole before writing, 102.5 MB
    target = tmp_path / "pi11.txt"
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-I", "-c", LAUNCHER, LISTING_PROBE, src,
                           "enumerate", "--n", "11", "--output", str(target)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rc, peak_mb = proc.stdout.split()
    assert rc == "0" and float(peak_mb) < 48
    count = first = last = None
    with open(target, encoding="utf-8", newline="") as fh:
        for count, line in enumerate(fh, 1):
            if count == 1:
                first = line
            last = line
    assert count == 678570
    assert first == " ".join(map(str, range(11))) + "\n"
    assert last == "|".join(map(str, range(11))) + "\n"


@pytest.mark.parametrize("argv", [("hasse", "--chain", ""), ("hasse", "--antichain", ""),
                                  ("enumerate", "--n", "2", "--output", ""),
                                  ("chains", "verify", "")],
                         ids=["hasse --chain", "hasse --antichain", "--output", "chains verify"])
def test_empty_path_exits_2(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "" and err.startswith("error: ")



# ------------------------------------------------------------- parser reuse

# Counts ArgumentParser constructions (the top parser and each subparser) in
# a fresh interpreter: after importing pilat.cli, then after each main call.
PARSER_PROBE = """
import argparse, contextlib, io, json, sys
built = 0
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import pilat.cli
report = {"import": built, "calls": []}
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = pilat.cli.main(argv)
    report["calls"].append([rc, out.getvalue(), err.getvalue(), built])
print(json.dumps(report))
"""


def test_parser_is_built_once_on_the_first_call():
    good = ["cardinal", "eval", "pow(aleph(0), aleph(0))"]
    bad = ["cardinal", "eval", "fin(1)", "--bogus"]
    joined = [*good, "--model=gch"]  # only argparse reads the "=" form
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", PARSER_PROBE, json.dumps([good, bad, joined])],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == 0
    (rc1, out1, err1, built1), (rc2, out2, err2, built2), (rc3, out3, err3, built3) = \
        report["calls"]
    assert (rc1, out1, err1) == (0, "aleph(1)\n", "")
    assert rc2 == 2 and out2 == "" and "unrecognized arguments: --bogus" in err2
    assert (rc3, out3, err3) == (rc1, out1, err1)
    assert built1 == 0  # the plain reader answered
    assert built2 > 1 and built3 == built2  # the whole tree, once


# ------------------------------------------------------- stdlib-only runtime

# Runs in a fresh isolated interpreter.  Modules loaded before pilat (site
# .pth files may preload third-party ones) are left out: only the modules
# that importing pilat.cli and serving the requests load are reported, first
# after the requests given as arguments (one request per argument, its
# tokens separated by tabs), then after one more request that reads a model
# file.  json is imported only to write the report.
RUNTIME_PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import contextlib, io
import pilat.cli
def serve(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        return [pilat.cli.main(argv), bool(out.getvalue())]
codes = [serve(request.split("\\t")) for request in sys.argv[3:]]
loaded = sorted(set(sys.modules) - before)
model_code = serve(["cardinal", "eval", "pow(aleph(0), aleph(0))", "--model", sys.argv[2]])
model_loaded = sorted(set(sys.modules) - before)
import json
print(json.dumps({"codes": codes, "loaded": loaded, "model": [model_code, model_loaded]}))
"""


def test_runtime_loads_only_the_standard_library(tmp_path):
    chain = tmp_path / "chain.txt"
    chain.write_text("0|1|2\n0 1|2\n0 1 2\n", encoding="utf-8")
    model = tmp_path / "model.json"
    model.write_text('{"gch": true}', encoding="utf-8")
    requests = [
        ["enumerate", "--n", "3"],
        ["chains", "keyframe", "--k", "2"],
        ["chains", "verify", str(chain)],
        ["antichains", "doubleton", "--n", "4", "--verify"],
        ["complements", "census", "--n", "3"],
        ["ortho", "search", "--n", "4"],
        ["ortho", "witness", "--n", "5"],
        ["cardinal", "eval", "pow(aleph(0), aleph(0))"],
        ["hasse", "--chain", str(chain)],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-I", "-c", RUNTIME_PROBE, src, str(model),
                           *("\t".join(argv) for argv in requests)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [[0, True]] * len(requests)  # each answered on stdout
    loaded = report["loaded"]
    assert "pilat.cli" in loaded
    foreign = [m for m in loaded if m.partition(".")[0] not in sys.stdlib_module_names
               and m.partition(".")[0] != "pilat"]
    assert foreign == []
    assert not [m for m in loaded if m.partition(".")[0] == "multiprocessing"]
    # records are __slots__ classes on _frozen.FrozenRecord: dataclasses would
    # also load inspect (with ast, dis and tokenize), about half the import time
    assert "dataclasses" not in loaded and "inspect" not in loaded
    # plain argv is read without argparse, and json is loaded for a model file only
    assert "argparse" not in loaded and "json" not in loaded
    model_code, model_loaded = report["model"]
    assert model_code == [0, True] and "json" in model_loaded
    assert "argparse" not in model_loaded


LOADING_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import pilat.cli
def loaded():
    return sorted(m for m in sys.modules if m == "pilat" or m.startswith("pilat."))
at_import = loaded()
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = pilat.cli.main(sys.argv[2:])
print(json.dumps({"import": at_import, "answer": [code, bool(out.getvalue())],
                  "request": loaded()}))
"""
FINITE_COMMAND_MODULES = ["pilat.antichains", "pilat.chains", "pilat.complements",
                          "pilat.ortho"]


@pytest.mark.parametrize("argv, absent", [
    (["enumerate", "--n", "3"], ["pilat.cardinal", *FINITE_COMMAND_MODULES]),
    (["cardinal", "eval", "aleph(1)"], ["pilat.enumeration", *FINITE_COMMAND_MODULES]),
])
def test_each_command_loads_only_the_modules_it_runs(argv, absent):
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-I", "-c", LOADING_PROBE, src, *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == ["pilat", "pilat._frozen", "pilat.cli", "pilat.partitions"]
    assert report["answer"] == [0, True]
    assert not set(absent) & set(report["request"])


def test_package_exports_resolve_lazily_to_their_submodules():
    import importlib

    import pilat

    assert pilat.__all__ and set(pilat.__all__) <= set(dir(pilat))
    for name in pilat.__all__:
        value = getattr(pilat, name)
        assert value is getattr(importlib.import_module(f"pilat.{pilat._EXPORTS[name]}"), name)
        assert vars(pilat)[name] is value  # stored, so a later lookup is a plain global
    namespace = {}
    exec("from pilat import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(pilat.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pilat.no_such_name  # noqa: B018
    from pilat import ortho  # a submodule outside the table still imports
    assert ortho is sys.modules["pilat.ortho"]


# Runs in a fresh isolated interpreter in which building a namedtuple class
# (typing.NamedTuple builds one) raises: imports pilat.cli and serves one
# request per argument, its tokens separated by tabs, reporting each exit
# code and stdout.
NO_NAMEDTUPLE_PROBE = """
import collections, contextlib, io, json, sys
def refuse(typename, *args, **kwargs):
    raise AssertionError(f"namedtuple {typename} built")
collections.namedtuple = refuse
sys.path.insert(0, sys.argv[1])
import pilat.cli
def serve(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        return [pilat.cli.main(argv), out.getvalue()]
print(json.dumps([serve(request.split("\\t")) for request in sys.argv[2:]]))
"""


def test_every_command_runs_without_building_a_namedtuple(tmp_path, capsys):
    chain = tmp_path / "chain.txt"
    chain.write_text("0|1|2\n0 1|2\n0 1 2\n", encoding="utf-8")
    requests = [
        ["enumerate", "--n", "3"],
        ["chains", "keyframe", "--k", "2"],
        ["chains", "verify", str(chain)],
        ["antichains", "doubleton", "--n", "4", "--verify"],
        ["complements", "census", "--n", "3"],
        ["ortho", "search", "--n", "4"],
        ["ortho", "witness", "--n", "5"],
        ["cardinal", "eval", "complements(shape(full=1, kappa=aleph(1), lambda=aleph(0)))"],
        ["hasse", "--chain", str(chain)],
    ]
    paths = {tuple(argv[:2]) if argv[0] in _GROUPS else (argv[0],) for argv in requests}
    assert paths == set(_COMMANDS)
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-I", "-c", NO_NAMEDTUPLE_PROBE, src,
                           *("\t".join(argv) for argv in requests)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    answers = json.loads(proc.stdout)
    assert [code for code, _ in answers] == [0] * len(requests)
    assert answers == [list(run(capsys, *argv)[:2]) for argv in requests]
