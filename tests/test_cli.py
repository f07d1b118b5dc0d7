"""Command-line interface: output formats, exit codes, determinism."""
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pilat import Partition, covers, iter_partitions, keyframe_chain
from pilat.cli import HASSE_VERSION, _hasse_dot, main

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
    rc, _, err = run(capsys, "cardinal", "eval", "fin(1)", "--model", str(broken))
    assert rc == 2


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
    # json.load raises RecursionError on arrays nested about 1000 deep, and
    # building the model on ordinal keys nested a few hundred deep
    key = _nested_ordinal(300)
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
    for n in range(6):
        parts = list(iter_partitions(n))
        assert "\n".join([*_hasse_dot(parts), ""]) == _hasse_all_pairs(parts)
    parts = keyframe_chain(3) + [Partition.parse("0 4|1 5|2 6|3 7", 8)]
    random.Random(0).shuffle(parts)
    chain_file = tmp_path / "chain.txt"
    chain_file.write_text("".join(p.format() + "\n" for p in parts))
    rc, out, _ = run(capsys, "hasse", "--chain", str(chain_file))
    assert rc == 0 and out == _hasse_all_pairs(parts)
    assert out.count("->") > 0


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
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", PARSER_PROBE, json.dumps([good, bad, good])],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == 0
    (rc1, out1, err1, built1), (rc2, out2, err2, built2), (rc3, out3, err3, built3) = \
        report["calls"]
    assert (rc1, out1, err1) == (0, "aleph(1)\n", "")
    assert rc2 == 2 and out2 == "" and "unrecognized arguments: --bogus" in err2
    assert (rc3, out3, err3) == (rc1, out1, err1)
    assert built1 > 1 and built1 == built2 == built3  # the whole tree, once


# ------------------------------------------------------- stdlib-only runtime

# Runs in a fresh isolated interpreter.  Modules loaded before pilat (site
# .pth files may preload third-party ones) are left out: only the modules
# that importing pilat.cli and serving the requests load are reported.
RUNTIME_PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import contextlib, io, json
import pilat.cli
codes = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        codes.append([pilat.cli.main(argv), bool(out.getvalue())])
print(json.dumps({"codes": codes, "loaded": sorted(set(sys.modules) - before)}))
"""


def test_runtime_loads_only_the_standard_library(tmp_path):
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
        ["cardinal", "eval", "pow(aleph(0), aleph(0))"],
        ["hasse", "--chain", str(chain)],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-I", "-c", RUNTIME_PROBE, src, json.dumps(requests)],
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
