"""The expression reader against the recursive-descent parser it replaced.

``_tokens``, ``_Parser`` and ``_parse`` below are the reader as it was
before ordinals were read in one loop and nesting was capped in the scan,
kept verbatim as the reference: on every input whose parentheses it can
reach, the reader must give the same value or the same error text.  The
cap tests pin NEST_CAP itself: the deepest text answers, also from a stack
only 100 frames below the recursion limit, and one level more is refused
with one message whatever the caller's stack.
"""
from __future__ import annotations

import copy
import json
import pickle
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilat.cardinal import (GCH, NEST_CAP, OMEGA, ONE, Cardinal, CardinalInterval,
                            ContinuumModel, Ordinal, PartitionShape, aleph, card_cofinality,
                            card_pow, complement_count_symbolic, evaluate, fin, format_ordinal,
                            parse_ordinal, _nests_past_cap)
from pilat.cli import main
from test_cli_contract import expressions, ordinals as ordinal_texts

# ----------------------------------------------------------------- reference

_TOKEN = re.compile(r"\s*([a-z]+|[0-9]+|[()+*^,=])")


def _tokens(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad character {text[pos:].strip()[0]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def int_(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise ValueError(f"expected an integer, got {tok!r}")
        return int(tok)

    # ordinals ---------------------------------------------------------
    def ordinal(self) -> Ordinal:
        total = self.ord_term()
        while self.peek() == "+":
            self.take("+")
            total = total + self.ord_term()
        return total

    def ord_term(self) -> Ordinal:
        tok = self.peek()
        if tok == "w":
            self.take("w")
            exp = ONE
            if self.peek() == "^":
                self.take("^")
                exp = self.ord_atom()
            coeff = 1
            if self.peek() == "*":
                self.take("*")
                coeff = self.int_()
            return Ordinal.omega_power(exp, coeff)
        if tok is not None and tok.isdigit():
            return Ordinal.from_int(self.int_())
        raise ValueError(f"expected an ordinal term, got {tok!r}")

    def ord_atom(self) -> Ordinal:
        tok = self.peek()
        if tok == "(":
            self.take("(")
            o = self.ordinal()
            self.take(")")
            return o
        if tok == "w":
            self.take("w")
            return OMEGA
        if tok is not None and tok.isdigit():
            return Ordinal.from_int(self.int_())
        raise ValueError(f"expected an ordinal, got {tok!r}")

    # cardinals --------------------------------------------------------
    def cardinal(self, model: ContinuumModel):
        tok = self.take()
        if tok == "fin":
            self.take("(")
            k = self.int_()
            self.take(")")
            return fin(k)
        if tok == "aleph":
            self.take("(")
            ix = self.ordinal()
            self.take(")")
            return aleph(ix)
        if tok == "pow":
            self.take("(")
            base = self.exact_cardinal(model)
            self.take(",")
            exp = self.exact_cardinal(model)
            self.take(")")
            return card_pow(base, exp, model)
        if tok == "cf":
            self.take("(")
            c = self.exact_cardinal(model)
            self.take(")")
            return card_cofinality(c)
        raise ValueError(f"expected a cardinal expression, got {tok!r}")

    def exact_cardinal(self, model: ContinuumModel) -> Cardinal:
        res = self.cardinal(model)
        if isinstance(res, CardinalInterval):
            raise ValueError(f"subexpression is not determined by the model: {res}")
        return res

    def shape(self, model: ContinuumModel) -> PartitionShape:
        self.take("shape")
        self.take("(")
        self.take("full")
        self.take("=")
        full = self.int_()
        self.take(",")
        self.take("kappa")
        self.take("=")
        kappa = self.exact_cardinal(model)
        residue = None
        if self.peek() == ",":
            self.take(",")
            self.take("lambda")
            self.take("=")
            residue = self.exact_cardinal(model)
        self.take(")")
        return PartitionShape(kappa=kappa, full_blocks=min(full, 2), residue=residue)

    def expression(self, model: ContinuumModel):
        if self.peek() == "complements":
            self.take("complements")
            self.take("(")
            shp = self.shape(model)
            self.take(")")
            return complement_count_symbolic(shp, model)
        return self.cardinal(model)


def _parse(text: str, rule):
    """Run ``rule`` on a parser over the whole of ``text``.

    The parser recurses on every nesting level, so input nested beyond the
    interpreter's recursion limit is rejected as bad input.
    """
    p = _Parser(text)
    try:
        res = rule(p)
    except RecursionError:
        raise ValueError("expression nested too deeply") from None
    if p.peek() is not None:
        raise ValueError(f"trailing input near {p.peek()!r}")
    return res


# -------------------------------------------------------------------- oracle

def _outcome(read, text):
    """What reading ``text`` gives: ("value", v) or (exception type, message)."""
    try:
        return "value", read(text)
    except Exception as exc:  # any difference counts, not only ValueError's
        return type(exc).__name__, str(exc)


def _depth(text):
    """The deepest parenthesis nesting of ``text``."""
    depth = deepest = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    return deepest


# Tokens a mutation inserts: every token of the grammar, a few that are not
# words of it, and characters outside its alphabet.
_VOCABULARY = ["w", "^", "*", "+", "(", ")", ",", "=", "0", "1", "7", "12", "aleph", "fin",
               "pow", "cf", "complements", "shape", "full", "kappa", "lambda", "x", "#", "-",
               "\t", "\u00e9"]


@st.composite
def _mutated(draw, texts):
    """A text of ``texts`` with one to three tokens dropped, inserted or swapped,
    or cut short, joined back with or without spaces."""
    text = draw(texts)
    try:
        toks = _tokens(text)
    except ValueError:  # a bad character: mutate the characters instead
        toks = list(text)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "insert", "swap", "truncate"]))
        if kind == "insert" or not toks:
            toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(_VOCABULARY)))
        elif kind == "drop":
            del toks[draw(st.integers(0, len(toks) - 1))]
        elif kind == "swap":
            i, j = draw(st.integers(0, len(toks) - 1)), draw(st.integers(0, len(toks) - 1))
            toks[i], toks[j] = toks[j], toks[i]
        else:
            del toks[draw(st.integers(0, len(toks))):]
    return draw(st.sampled_from([" ", ""])).join(toks)


def _reachable(text):
    """Whether the reference, three frames per level, reaches the depth of ``text``."""
    return _depth(text) <= 40


expression_inputs = st.one_of(expressions, _mutated(expressions)).filter(_reachable)
ordinal_inputs = st.one_of(ordinal_texts, _mutated(ordinal_texts)).filter(_reachable)
MODELS = [GCH, ContinuumModel(), ContinuumModel(continuum={0: 2, 1: 3}),
          ContinuumModel(continuum={1: OMEGA + ONE})]


@settings(deadline=None, max_examples=400)
@given(expression_inputs, st.sampled_from(MODELS))
def test_reader_agrees_with_the_recursive_reference(text, model):
    got = _outcome(lambda t: evaluate(t, model), text)
    want = _outcome(lambda t: _parse(t, lambda p: p.expression(model)), text)
    assert got == want
    if got[0] == "value":
        assert str(got[1]) == str(want[1])


@settings(deadline=None, max_examples=400)
@given(ordinal_inputs)
def test_ordinal_reader_agrees_with_the_recursive_reference(text):
    got = _outcome(parse_ordinal, text)
    want = _outcome(lambda t: _parse(t, _Parser.ordinal), text)
    assert got == want
    if got[0] == "value":
        assert format_ordinal(got[1]) == format_ordinal(want[1])


@pytest.mark.parametrize("text", [
    "", " ", "w^", "w^(", "w^()", "w^(1", "w^(1))", "w*", "w*w", "w**2", "w^w^w", "1+",
    "+1", "w^(w+)", "w^(w^(w^(2)*", "w*0", "w^(0)*3", "w ^ ( w + 1 ) * 2 + 3", "ww", "w 1",
    "1 # 2", "w^(1)\u00a0+1", "12345678901234567890", "w^(" * 40 + "1" + ")" * 39,
])
def test_ordinal_reader_edge_cases(text):
    assert _outcome(parse_ordinal, text) == _outcome(lambda t: _parse(t, _Parser.ordinal), text)


def test_reader_is_linear_in_long_input():
    # 10^5 characters of shapes that make a backtracking scanner quadratic:
    # this test would not finish in reasonable time on one
    for text, outcome in [
        (" " * 100_000 + "#", ("ValueError", "bad character '#'")),
        (" " * 100_000, ("ValueError", "unexpected end of expression")),
        ("aleph(" + "w+" * 50_000 + "1)",
         ("value", aleph(Ordinal.omega_power(ONE, 50_000) + ONE))),
        ("(" * 50_000 + ")" * 50_000, ("ValueError", "expression nested too deeply")),
        ("fin(" + "1" * 4000 + ")", ("value", fin(int("1" * 4000)))),
    ]:
        assert _outcome(evaluate, text) == outcome


# ---------------------------------------------------------------------- caps

def _nested(depth, leaf="1"):
    text = leaf
    for _ in range(depth):
        text = f"w^({text})"
    return text


def _at_depth(frames, call):
    """``call()`` made from ``frames`` more frames of stack."""
    return call() if frames == 0 else _at_depth(frames - 1, call)


# Each form's own parentheses around the ordinal: the nested ordinal of a text
# at depth NEST_CAP is that many levels shallower.
FORMS = [("aleph({})", 1), ("pow(fin(2), aleph({}))", 2), ("cf(aleph({}))", 2)]


@pytest.mark.parametrize("form, outer", FORMS)
def test_expressions_answer_at_the_cap(form, outer):
    text = form.format(_nested(NEST_CAP - outer))
    assert _depth(text) == NEST_CAP
    assert str(evaluate(text)).startswith("aleph(")


@pytest.mark.parametrize("form, outer", FORMS)
@pytest.mark.parametrize("frames", [0, 600])
def test_expressions_refused_one_past_the_cap(form, outer, frames):
    text = form.format(_nested(NEST_CAP - outer + 1))
    assert _depth(text) == NEST_CAP + 1
    with pytest.raises(ValueError, match=r"^expression nested too deeply$"):
        _at_depth(frames, lambda: evaluate(text))


def _built(levels, level):
    """The ordinal of ``levels`` applications of ``level`` to 1."""
    ordinal = ONE
    for _ in range(levels):
        ordinal = level(ordinal)
    return ordinal


def test_cap_on_ordinals_and_whole_text():
    assert parse_ordinal(_nested(NEST_CAP)) == _built(NEST_CAP, Ordinal.omega_power)
    for text in (_nested(NEST_CAP + 1), "(" * (NEST_CAP + 1) + "1"):
        with pytest.raises(ValueError, match=r"^expression nested too deeply$"):
            parse_ordinal(text)
    # many parentheses, none deep: only the depth counts
    wide = "aleph(" + "+".join(["w^(1)"] * (NEST_CAP + 1)) + ")"
    assert evaluate(wide) == aleph(Ordinal.omega_power(ONE, NEST_CAP + 1))
    # a character outside the grammar is reported before the depth
    with pytest.raises(ValueError, match=r"^bad character '#'$"):
        evaluate(f"aleph({_nested(NEST_CAP + 1)})#")


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def _on_little_stack(call):
    """``call()`` under a recursion limit only 100 frames above the caller's depth."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        return call()
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("form, level", [
    ("w^({})", Ordinal.omega_power),
    ("w^({}+1)+1", lambda o: Ordinal.omega_power(o + ONE) + ONE),
])
def test_ordinal_reader_reads_the_cap_without_recursing(form, level):
    text = "1"
    for _ in range(NEST_CAP):
        text = form.format(text)
    assert _on_little_stack(lambda: parse_ordinal(text)) == _built(NEST_CAP, level)


@pytest.mark.parametrize("form, outer", FORMS)
def test_expressions_answer_at_the_cap_on_little_stack(form, outer):
    # read, evaluated and printed in the same frames at any nesting depth
    text = form.format(_nested(NEST_CAP - outer))
    assert _on_little_stack(lambda: str(evaluate(text))) == str(evaluate(text))


@pytest.mark.parametrize("head, want", [("cf(", aleph(0)),
                                        ("pow(fin(2), ", aleph(NEST_CAP - 1))])
def test_cardinal_chains_answer_at_the_cap_on_little_stack(head, want):
    levels = NEST_CAP - 1  # aleph( is the last level
    text = head * levels + "aleph(0)" + ")" * levels
    assert _depth(text) == NEST_CAP
    assert _on_little_stack(lambda: evaluate(text)) == want
    with pytest.raises(ValueError, match=r"^expression nested too deeply$"):
        evaluate(head + text + ")")


def _run_model(capsys, tmp_path, text, frames=0):
    model = tmp_path / "model.json"
    model.write_text(text)
    rc = _at_depth(frames, lambda: main(["cardinal", "eval", "fin(1)", "--model", str(model)]))
    out, err = capsys.readouterr()
    return rc, out, err.replace(str(model), "MODEL")


def _model_with_key(depth):
    key = _nested(depth)
    return json.dumps({"continuum": {f"{key}+1": f"{key}+3"}})


def test_model_key_answers_at_the_cap(capsys, tmp_path):
    assert _run_model(capsys, tmp_path, _model_with_key(NEST_CAP)) == (0, "fin(1)\n", "")
    assert _on_little_stack(
        lambda: _run_model(capsys, tmp_path, _model_with_key(NEST_CAP))) == (0, "fin(1)\n", "")


def test_deep_ordinals_compare_on_little_stack(capsys, tmp_path):
    # the two differ only at the innermost level, so comparing walks every level
    low, high = _nested(NEST_CAP, "1"), _nested(NEST_CAP, "2")
    a, b = parse_ordinal(low), parse_ordinal(high)
    assert _on_little_stack(lambda: (a < b, b < a, b >= a)) == (True, False, True)
    assert _on_little_stack(lambda: copy.deepcopy(b)) is b
    model = json.dumps({"continuum": {f"{low}+1": f"{high}+1"}})
    assert _on_little_stack(lambda: _run_model(capsys, tmp_path, model)) == (0, "fin(1)\n", "")


def test_deep_ordinals_pickle_at_the_cap():
    # two levels more than the cap: w^1 and w^w print without parentheses
    deep = _built(NEST_CAP + 2, Ordinal.omega_power)
    assert _depth(format_ordinal(deep)) == NEST_CAP
    card = aleph(deep)
    # each value with the path from it to the deep ordinal
    for value, inner in [(deep, lambda v: v),
                         (card, lambda v: v.index),
                         (CardinalInterval(card, None), lambda v: v.lo.index),
                         (PartitionShape(kappa=card, full_blocks=1, residue=card),
                          lambda v: v.kappa.index)]:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            twin = pickle.loads(pickle.dumps(value, protocol))
            assert twin == value and inner(twin) is deep


def test_ordinals_past_the_cap_copy_but_do_not_pickle():
    deep = _built(1000, Ordinal.omega_power)
    with pytest.raises(ValueError, match=r"^expression nested too deeply$"):
        pickle.dumps(deep)
    assert copy.copy(deep) is deep
    assert copy.deepcopy(deep) is deep


def test_model_refused_one_past_the_cap_from_a_deep_stack(capsys, tmp_path):
    # test_cardinal_eval_deep_model_file covers the same files from a shallow stack
    refused = (2, "", "error: MODEL: expression nested too deeply\n")
    assert _run_model(capsys, tmp_path, _model_with_key(NEST_CAP + 1), 600) == refused
    for text in ("[" * (NEST_CAP + 1), "[" * 1000, '{"a": ' * (NEST_CAP + 1)):
        assert _run_model(capsys, tmp_path, text, 600) == (
            2, "", "error: MODEL: JSON nested too deeply\n")


def test_model_file_within_the_cap_keeps_the_decoders_message(capsys, tmp_path):
    for text in ("[" * NEST_CAP, "[" * NEST_CAP + "]" * NEST_CAP):
        try:
            json.loads(text)
            message = "model file must hold a JSON object"
        except ValueError as exc:
            message = str(exc)
        assert _run_model(capsys, tmp_path, text) == (2, "", f"error: MODEL: {message}\n")
    # brackets inside strings, escaped quotes included, do not nest
    for inside in ("[" * 1000, '\\"' + "{" * 1000, "\\\\" + "[" * 1000):
        text = json.dumps({"continuum": {}, "x": inside})
        assert _run_model(capsys, tmp_path, text) == (
            2, "", "error: MODEL: unknown model key 'x'\n")


@pytest.mark.parametrize("opens, closes, quote", [("(", ")", None), ("[{", "]}", '"')],
                         ids=["expression", "JSON"])
def test_one_scan_guards_the_cap(opens, closes, quote):
    def past(text):
        return _nests_past_cap(text, opens, closes, quote)

    for o, c in zip(opens, closes):
        assert not past(o * NEST_CAP + c * NEST_CAP)
        assert past(o * (NEST_CAP + 1))
        assert not past((o + c) * 1000)  # many openers, never deep
    if quote is None:
        assert past('"' + "(" * (NEST_CAP + 1))  # no strings to skip
    else:
        assert not past('"' + opens * NEST_CAP + '"' + opens[0] * NEST_CAP)
        assert not past('"\\"' + opens[0] * (NEST_CAP + 1))  # an escaped quote ends no string
        assert past('"\\\\"' + opens[0] * (NEST_CAP + 1))  # an escaped backslash does not
