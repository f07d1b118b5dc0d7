"""The exit-code contract of the command line, over generated argv and files.

Whatever the arguments and input files, ``main`` returns 0, 1 or 2, lets no
exception escape, and writes nothing to stdout when it returns 2.  Sizes are
drawn from sets that either finish quickly or are refused at a cap.  Some
census samples pass ``--jobs``, which the census does not take, so they
check the parser's exit 2.
"""
import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pilat.cli import main

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
