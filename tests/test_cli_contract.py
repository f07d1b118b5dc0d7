"""The exit-code contract of the command line, over generated argv and files.

Whatever the arguments and input files, ``main`` returns 0, 1 or 2, lets no
exception escape, and writes nothing to stdout when it returns 2.  Sizes are
drawn from sets that either finish quickly or are refused at a cap.  Some
census samples pass ``--jobs``, which the census does not take, so they
check the parser's exit 2.

The same argv, edited into forms only argparse reads, check that the plain
reader answers only where argparse returns the same namespace.
"""
import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pilat.cli import _build_parser, _read_plain, main

HUGE = 10**19


def _n(*values):
    return st.sampled_from([str(v) for v in values])


def _flag(name):
    return st.sampled_from([[], [name]])


def _cmd(*parts):
    """argv from a tuple of fixed tokens, token strategies and list strategies."""
    def join(drawn):
        out = []
        for part in drawn:
            out.extend([part] if isinstance(part, str) else part)
        return out, {}
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts)).map(join)


enumerate_argv = st.one_of(
    _cmd("enumerate", "--n", _n(-1, 0, 1, 5, 13, HUGE)),
    _cmd("enumerate", "--counts", "--n", _n(-1, 0, 1, 5, 13, 26, 27, HUGE)),
)
keyframe_argv = _cmd("chains", "keyframe", "--k", _n(-1, 0, 3, 7, 8, HUGE))
antichains_argv = _cmd("antichains", st.sampled_from(["doubleton", "bipartition"]),
                       "--n", _n(-1, 0, 1, 2, 4, 129, HUGE), _flag("--verify"))
census_argv = _cmd("complements", "census", "--n", _n(-1, 0, 1, 3, 10, HUGE),
                   st.sampled_from([[], ["--jobs", "1"], ["--jobs", "0"], ["--jobs", "-5"]]))
search_argv = _cmd("ortho", "search", "--n", _n(-1, 0, 2, 4, 5, 6, HUGE),
                   _flag("--exhaustive"))
witness_argv = _cmd("ortho", "witness", "--n", _n(-1, 4, 5, 40, 128, 129, HUGE))
hasse_n_argv = _cmd("hasse", "--n", _n(-1, 0, 3, 8, HUGE))

# ------------------------------------------------------------ cardinal input

_ints = st.integers(min_value=0, max_value=12).map(str)
ordinals = st.recursive(
    st.one_of(_ints, st.just("w")),
    lambda o: st.one_of(
        st.builds("w^({})".format, o),
        st.builds("w^{}".format, st.one_of(_ints, st.just("w"))),
        st.builds("{}*{}".format, o, _ints),
        st.builds("{}+{}".format, o, o),
    ),
    max_leaves=8,
)
cardinals = st.recursive(
    st.one_of(st.builds("fin({})".format, _ints), st.builds("aleph({})".format, ordinals)),
    lambda c: st.one_of(st.builds("pow({}, {})".format, c, c), st.builds("cf({})".format, c)),
    max_leaves=6,
)
expressions = st.one_of(
    cardinals,
    st.builds("complements(shape(full={}, kappa={}, lambda={}))".format, _ints, cardinals,
              cardinals),
    st.builds("complements(shape(full={}, kappa={}))".format, _ints, cardinals),
    st.text(max_size=30),
    st.sampled_from(["aleph({})", "pow(fin(2), aleph({}))", "cf(aleph({}))"]).map(
        lambda form: form.format("w^(" * 2000 + "1" + ")" * 2000)),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=5), _ints),
    lambda v: st.one_of(st.lists(v, max_size=3), st.dictionaries(st.text(max_size=3), v,
                                                                 max_size=3)),
    max_leaves=8,
)
model_texts = st.one_of(
    json_values.map(json.dumps),
    st.fixed_dictionaries({"gch": st.booleans(),
                           "continuum": st.dictionaries(ordinals, ordinals, max_size=3)}
                          ).map(json.dumps),
    st.text(max_size=30),
)


@st.composite
def cardinal_argv(draw):
    argv = ["cardinal", "eval", draw(expressions)]
    which = draw(st.sampled_from(["default", "gch", "file", "missing"]))
    if which == "default":
        return argv, {}
    if which == "gch":
        return argv + ["--model", "gch"], {}
    if which == "missing":
        return argv + ["--model", "absent.json"], {}
    return argv + ["--model", "model.json"], {"model.json": draw(model_texts)}


# ----------------------------------------------------- chain and hasse files

def _literal(labels):
    """The block literal grouping equal labels, blocks ordered by least element."""
    blocks = {}
    for e, label in enumerate(labels):
        blocks.setdefault(label, []).append(str(e))
    return "|".join(" ".join(block) for block in blocks.values())


_blocks = st.lists(st.lists(st.integers(min_value=-1, max_value=6).map(str), min_size=1,
                            max_size=4).map(" ".join), min_size=1, max_size=4).map("|".join)
_valid = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(_literal),
                       min_size=1, max_size=6))
file_texts = st.one_of(_valid, st.lists(st.one_of(_blocks, st.text(max_size=10)), max_size=6)
                       ).map(lambda lines: "".join(line + "\n" for line in lines))


@st.composite
def file_argv(draw):
    argv = draw(st.sampled_from([["chains", "verify", "parts.txt"],
                                 ["hasse", "--chain", "parts.txt"],
                                 ["hasse", "--antichain", "parts.txt"],
                                 ["hasse", "--n", "3", "--chain", "parts.txt"],
                                 ["chains", "verify", "absent.txt"]]))
    return argv, {"parts.txt": draw(file_texts)}


# ------------------------------------------------------------ arbitrary argv

_words = st.sampled_from([
    "enumerate", "chains", "keyframe", "verify", "antichains", "doubleton", "bipartition",
    "complements", "census", "ortho", "search", "witness", "cardinal", "eval", "hasse",
    "--n", "--k", "--counts", "--verify", "--exhaustive", "--model", "--chain",
    "--antichain", "-h", "1", "3", "gch", "fin(1)",
])
# no decimal digits: a random number could be a size far beyond every cap
_junk = st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=8)
arbitrary_argv = st.lists(st.one_of(_words, _junk), max_size=6).map(lambda argv: (argv, {}))

all_argv = st.one_of(enumerate_argv, keyframe_argv, antichains_argv, census_argv,
                     search_argv, witness_argv, hasse_n_argv, cardinal_argv(), file_argv(),
                     arbitrary_argv)


@settings(deadline=None, max_examples=300)
@given(all_argv)
@example((["ortho", "witness", "--n", str(HUGE)], {}))
@example((["hasse", "--chain", ""], {}))
@example((["hasse", "--antichain", ""], {}))
@example((["enumerate", "--n", "2", "--output", ""], {}))
# Hypothesis raises the recursion limit while a test runs: 1000 "[", enough
# for a RecursionError from the command line, meets only a syntax error here.
@example((["cardinal", "eval", "fin(1)", "--model", "model.json"],
          {"model.json": "[" * 100_000}))
def test_cli_exit_contract(case):
    argv, files = case
    here = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.chdir(tmp)  # anything the command writes stays in the temporary directory
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        finally:
            os.chdir(here)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert out.getvalue() == ""


# ------------------------------------------------------- the plain reader

# tokens swapped or inserted into argv: help, "--", empty values, extra and
# misplaced positionals, and ints argparse reads but the reader leaves to it
_edits = st.sampled_from([
    "-h", "--help", "--", "", "-", "extra", "doubleton", "verify", "gch", "3", "00", "-1", "-0",
    "\u0665", "1\u0665", "+3", " 3", "3 ", "3_0", "--n", "--k", "--counts", "--verify",
    "--output", "--model", "--n=3", "--co", "--mod",
])


@st.composite
def edited_argv(draw):
    """argv of the contract's strategies, edited up to three times: a token
    inserted, replaced, dropped, repeated with its successor, shortened to a
    prefix (an abbreviation when it is an option) or joined to its successor
    by "=" ."""
    argv = list(draw(all_argv)[0])
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "drop", "repeat", "shorten", "join"]))
        if edit == "insert":
            argv.insert(i, draw(_edits))
        elif i == len(argv):
            continue
        elif edit == "replace":
            argv[i] = draw(_edits)
        elif edit == "drop":
            del argv[i]
        elif edit == "repeat":
            argv[i:i] = argv[i:i + 2]
        elif edit == "shorten":
            argv[i] = argv[i][:draw(st.integers(0, max(len(argv[i]) - 1, 0)))]
        else:
            argv[i:i + 2] = ["=".join(argv[i:i + 2])]
    return argv


def _argparse_fields(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(_build_parser().parse_args(argv))
    except SystemExit:
        return None


@settings(deadline=None, max_examples=500)
@given(st.one_of(all_argv.map(lambda case: case[0]), edited_argv()))
def test_plain_reader_answers_only_as_argparse(argv):
    plain = _read_plain(argv)
    if plain is not None:
        assert vars(plain) == _argparse_fields(argv)


PLAIN = [
    ["enumerate", "--n", "3"],
    ["enumerate", "--counts", "--output", "out.txt", "--n", "007"],
    ["chains", "keyframe", "--k", "2"],
    ["chains", "verify", "chain.txt"],
    ["antichains", "--verify", "--n", "4", "bipartition"],
    ["complements", "census", "--n", "3"],
    ["ortho", "search", "--exhaustive", "--n", "5"],
    ["ortho", "witness", "--n", str(HUGE)],
    ["cardinal", "eval", "--model", "gch", ""],
    ["cardinal", "eval", "pow(aleph(0), aleph(0))"],
    ["hasse", "--chain", "chain.txt", "--n", "3"],
    ["hasse"],
]
NOT_PLAIN = [
    [], ["-h"], ["enumerate", "--help"], ["enumerate", "--n=5"],
    ["enumerate", "--n", "3", "--coun"],
    ["enumerate", "--n", "-1"], ["enumerate", "--n", "+1"], ["enumerate", "--n", "\u0665"],
    ["enumerate", "--n", "1" * 5000], ["enumerate", "--n", "3", "--n", "3"],
    ["enumerate", "--counts", "--counts", "--n", "3"], ["enumerate", "--n"], ["enumerate"],
    ["enumerate", "--", "--n", "3"], ["enumerate", "--n", "3", "extra"], ["frobnicate", "--n", "3"],
    ["chains"], ["chains", "--k", "2", "keyframe"], ["chains", "verify"],
    ["chains", "verify", "-"], ["antichains", "bogus", "--n", "3"],
    ["cardinal", "eval", "fin(1)", "--model", "-"], ["cardinal", "eval", "-1"],
    ["hasse", "--chain", "--n"],
]


@pytest.mark.parametrize("argv", PLAIN, ids=" ".join)
def test_plain_argv_is_read_as_argparse_reads_it(argv):
    assert vars(_read_plain(argv)) == _argparse_fields(argv)


@pytest.mark.parametrize("argv", NOT_PLAIN, ids=lambda argv: " ".join(argv)[:40] or "empty")
def test_other_argv_is_left_to_argparse(argv):
    assert _read_plain(argv) is None
