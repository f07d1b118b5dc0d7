"""Symbolic ordinals, aleph arithmetic, continuum models, and the expression
grammar."""
import copy
import operator
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilat import (
    Cardinal,
    CardinalInterval,
    ChainBounds,
    ContinuumModel,
    GCH,
    Ordinal,
    PartitionShape,
    aleph,
    card_cofinality,
    card_pow,
    card_sum_family,
    card_tarski_product,
    chain_cardinality_bounds,
    complement_count_symbolic,
    evaluate,
    fin,
    format_cardinal,
    format_ordinal,
    format_result,
    parse_ordinal,
    power_of_two,
)
from pilat.cardinal import OMEGA, ONE, ZERO
from oracles import cardinal_key, ordinal_key
from strats import cardinals, ordinals

W = parse_ordinal("w")


def al(text):
    return aleph(parse_ordinal(text))


# ------------------------------------------------------------------ ordinals

def test_ordinal_format_round_trip():
    for text in ["0", "5", "w", "w+1", "w*2", "w^2*3+w+5", "w^w",
                 "w^(w+1)", "w^(w^w)", "w^(w^2+1)*4+w^3+2"]:
        assert format_ordinal(parse_ordinal(text)) == text


_ints = st.integers(0, 12).map(str)
_coefficients = st.one_of(st.just(""), st.integers(1, 12).map("*{}".format))


def _ordinal_sums(exponents):
    """Texts of the grammar: sums of INT and w[^EXP][*INT] terms."""
    terms = st.one_of(_ints, st.builds("w{}{}".format,
                                       st.one_of(st.just(""), exponents.map("^{}".format)),
                                       _coefficients))
    return st.lists(terms, min_size=1, max_size=4).map("+".join)


ordinal_texts = st.recursive(
    _ordinal_sums(st.one_of(_ints, st.just("w"))),
    lambda inner: _ordinal_sums(st.one_of(_ints, st.just("w"), inner.map("({})".format))),
    max_leaves=10,
)


@settings(max_examples=200)
@given(ordinal_texts)
def test_ordinal_text_is_a_fixed_point_after_one_round(text):
    once = format_ordinal(parse_ordinal(text))
    assert parse_ordinal(once) == parse_ordinal(text)
    assert format_ordinal(parse_ordinal(once)) == once


def test_ordinal_parse_variants():
    assert parse_ordinal("w^1") == W
    assert parse_ordinal("w*1") == W
    assert parse_ordinal("0+w") == W
    assert parse_ordinal("w+0") == W


def test_ordinal_comparisons():
    seq = ["0", "1", "2", "w", "w+1", "w*2", "w*2+1", "w^2", "w^2+w",
           "w^3", "w^w", "w^w+1", "w^(w+1)", "w^(w^w)"]
    parsed = [parse_ordinal(t) for t in seq]
    for i, a in enumerate(parsed):
        for j, b in enumerate(parsed):
            assert (a < b) == (i < j)
            assert (a == b) == (i == j)


@pytest.mark.parametrize("value", [ONE, W, fin(1), aleph(0)], ids=str)
@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge],
                         ids=lambda op: op.__name__)
def test_order_against_another_type_is_a_type_error(value, op):
    # each comparison returns NotImplemented, so Python raises TypeError
    foreign = fin(1) if isinstance(value, Ordinal) else ONE
    for other in (3, "w", None, foreign):
        with pytest.raises(TypeError):
            op(value, other)
        with pytest.raises(TypeError):
            op(other, value)
    assert value != 3 and value != foreign


def test_ordinal_equality_is_structural():
    a, b = parse_ordinal("w^(w+1)*2+3"), parse_ordinal("w^(w+1)*2+3")
    assert a is b and a == b and hash(a) == hash(b)
    assert a == a and not a != a
    assert a != parse_ordinal("w^(w+1)*2+4") and a != parse_ordinal("w^(w+2)*2+3")


def _twins(value):
    """``value`` after a pickle round trip at every protocol, a copy and a deep copy."""
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))
    yield copy.copy(value)
    yield copy.deepcopy(value)


def test_ordinal_round_trips_return_the_one_object():
    for value in (ZERO, ONE, W, parse_ordinal("w^(w+1)*2+3")):
        for twin in _twins(value):
            assert twin is value


def test_cardinal_round_trips_keep_the_value():
    for value in (fin(0), fin(7), aleph(0), al("w^(w+1)*2+3")):
        for twin in _twins(value):
            assert twin == value and hash(twin) == hash(value) and twin.index is value.index


def test_ordinal_addition_absorbs():
    assert ONE + W == W
    assert W + ONE > W
    assert format_ordinal((W + ONE) + (W + ONE)) == "w*2+1"
    assert format_ordinal(parse_ordinal("w*2+3") + parse_ordinal("w^2")) == "w^2"
    assert parse_ordinal("w^2") + parse_ordinal("w^2") == parse_ordinal("w^2*2")


def test_ordinal_int_round_trip():
    for k in range(10):
        o = Ordinal.from_int(k)
        assert o.as_int() == k
    with pytest.raises(ValueError):
        W.as_int()
    with pytest.raises(ValueError):
        Ordinal.from_int(-1)


def test_ordinal_classification():
    assert ZERO.is_zero and not ZERO.is_successor and not ZERO.is_limit
    assert ONE.is_successor
    assert W.is_limit
    assert (W + ONE).is_successor
    assert parse_ordinal("w^2").is_limit


def test_ordinal_cofinality():
    assert ZERO.cofinality() == ZERO
    assert Ordinal.from_int(5).cofinality() == ONE
    for text in ["w", "w*2", "w^2", "w^w", "w^(w+1)", "w^w*5+w^2"]:
        assert parse_ordinal(text).cofinality() == W


def test_ordinal_is_immutable_and_hashable():
    with pytest.raises(AttributeError):
        W.terms = ()
    assert len({W, W, parse_ordinal("w")}) == 1


@settings(max_examples=200)
@given(ordinals(), ordinals(), ordinals())
def test_ordinal_addition_properties(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + ZERO == a and ZERO + a == a
    assert a + b >= a
    if b < c:
        assert a + b < a + c  # strictly monotone on the right


@settings(max_examples=200)
@given(ordinals(), ordinals())
def test_ordinal_order_is_total(a, b):
    assert (a < b) + (a == b) + (b < a) == 1
    assert format_ordinal(parse_ordinal(format_ordinal(a))) == format_ordinal(a)


@settings(max_examples=200)
@given(ordinals(), ordinals(), st.integers(1, 9), st.integers(0, 9), ordinal_texts)
def test_derived_ordinals_are_the_constructors_own(a, b, coeff, k, text):
    # sums, powers of w, from_int and the reader intern the terms they derive
    # unchecked: the validating constructor must accept those terms and
    # return the very same object
    for x in (a + b, Ordinal.omega_power(a, coeff), Ordinal.from_int(k),
              parse_ordinal(text)):
        assert Ordinal(x.terms) is x


_BAD_POWERS = st.one_of(
    st.tuples(ordinals(), st.sampled_from([0, -1, True, 2.5])),
    st.tuples(st.sampled_from([1, "w", None, (), 1.0]), st.integers(1, 4)),
)


@given(_BAD_POWERS)
def test_omega_power_refuses_as_the_constructor_does(bad):
    exp, coeff = bad
    with pytest.raises((TypeError, ValueError)) as expected:
        Ordinal(((exp, coeff),))
    with pytest.raises(expected.type) as got:
        Ordinal.omega_power(exp, coeff)
    assert str(got.value) == str(expected.value)


# ----------------------------------------------------------------- cardinals

def test_cardinal_order():
    seq = [fin(0), fin(1), fin(3), aleph(0), aleph(1), al("w"), al("w+1"), al("w*2")]
    for i, a in enumerate(seq):
        for j, b in enumerate(seq):
            assert (a < b) == (i < j)


_ORDER = (operator.lt, operator.le, operator.gt, operator.ge)


def _pairs(values):
    """Pairs of values, and equal pairs, which independent draws rarely give."""
    return st.one_of(st.tuples(values, values), values.map(lambda v: (v, v)))


@settings(max_examples=300)
@given(_pairs(ordinals()), _pairs(cardinals()))
def test_order_agrees_with_the_tuple_oracle(ordinal_pair, cardinal_pair):
    # each class gives one _cmp, from which all four comparisons are derived;
    # test_order_against_another_type_is_a_type_error covers mixed operands
    for (a, b), key in ((ordinal_pair, ordinal_key), (cardinal_pair, cardinal_key)):
        for op in _ORDER:
            assert op(a, b) == op(key(a), key(b))


def test_cardinal_successor():
    assert fin(3).successor() == fin(4)
    assert aleph(0).successor() == aleph(1)
    assert al("w").successor() == al("w+1")


def test_cardinal_cofinality():
    assert card_cofinality(fin(0)) == fin(0)
    assert card_cofinality(fin(7)) == fin(1)
    assert card_cofinality(aleph(0)) == aleph(0)
    assert card_cofinality(aleph(1)) == aleph(1)
    assert card_cofinality(al("w")) == aleph(0)
    assert card_cofinality(al("w+1")) == al("w+1")
    assert card_cofinality(al("w*2")) == aleph(0)
    assert card_cofinality(al("w^w")) == aleph(0)


def test_cardinal_regularity():
    assert aleph(0).is_regular
    assert aleph(1).is_regular
    assert al("w+1").is_regular
    assert not al("w").is_regular
    assert not al("w*2").is_regular


def test_cardinal_validation():
    with pytest.raises(ValueError):
        fin(-1)
    with pytest.raises(ValueError):
        Cardinal(finite=None, index=None)
    with pytest.raises(ValueError):
        Cardinal(finite=3, index=ZERO)


@pytest.mark.parametrize("build", [
    lambda: fin(2.5),
    lambda: fin(True),
    lambda: fin("3"),
    lambda: Cardinal(None, 2),
    lambda: Ordinal(((ZERO, 2.7),)),
    lambda: Ordinal(((ZERO, "3"),)),
    lambda: Ordinal(((ZERO, True),)),
    lambda: Ordinal.from_int(2.5),
    lambda: Ordinal.from_int(False),
    lambda: aleph(2.5),
    lambda: aleph(True),
    lambda: ContinuumModel(continuum={0: 2.5}),
    lambda: ContinuumModel(continuum={1.0: 2}),
])
def test_constructors_take_integers_only(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("build", [
    lambda: ContinuumModel(gch="no"),
    lambda: ContinuumModel(gch=1),
    lambda: ContinuumModel(gch=None),
    lambda: PartitionShape(kappa=3, full_blocks=1),
    lambda: PartitionShape(kappa=aleph(0), full_blocks=True),
    lambda: PartitionShape(kappa=aleph(0), full_blocks=1.0),
    lambda: PartitionShape(kappa=aleph(0), full_blocks=1, residue=3),
    lambda: PartitionShape(kappa=aleph(0), full_blocks=0, residue=ZERO),
])
def test_symbolic_constructors_check_types(build):
    # a wrong type is a TypeError, never read as a neighbouring valid value
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("trivial", ["no", 1, 0, None])
def test_shape_trivial_must_be_a_bool(trivial):
    # read by truth value, "no" would make a trivial shape with one complement
    with pytest.raises(TypeError, match="trivial must be a bool"):
        PartitionShape(kappa=aleph(0), full_blocks=0, trivial=trivial)


# ------------------------------------------------------------------ GCH powers

def test_gch_power_table():
    assert card_pow(aleph(0), aleph(0)) == aleph(1)
    assert card_pow(aleph(1), aleph(0)) == aleph(1)
    assert card_pow(aleph(0), aleph(1)) == aleph(2)
    assert card_pow(al("w"), aleph(0)) == al("w+1")
    assert card_pow(al("w+1"), aleph(0)) == al("w+1")
    assert card_pow(al("w"), al("w")) == al("w+1")
    assert card_pow(al("w"), aleph(1)) == al("w+1")
    assert card_pow(aleph(2), fin(5)) == aleph(2)
    assert card_pow(fin(2), aleph(1)) == aleph(2)
    assert card_pow(aleph(3), fin(0)) == fin(1)


def test_gch_power_of_two_is_successor():
    for c in [aleph(0), aleph(2), al("w"), al("w+1"), al("w^w")]:
        assert power_of_two(c) == c.successor()


def test_gch_power_cases_cover_cofinality():
    # below cf: identity; between cf and kappa: successor; above: successor
    # of the exponent.
    kappa = al("w+1")  # regular, so cf = kappa
    assert card_pow(kappa, aleph(0)) == kappa
    assert card_pow(kappa, kappa) == kappa.successor()
    assert card_pow(kappa, al("w+2")) == al("w+3")
    sing = al("w")  # cf = aleph_0 < kappa
    assert card_pow(sing, aleph(0)) == sing.successor()


def test_power_validation():
    with pytest.raises(ValueError):
        card_pow(fin(1), aleph(0))
    with pytest.raises(ValueError):
        card_pow(fin(2), fin(3))
    with pytest.raises(ValueError):
        power_of_two(fin(5))


def test_koenig_inequality_on_gch_powers():
    for c in [aleph(0), aleph(1), al("w"), al("w+1"), al("w*2")]:
        two = power_of_two(c)
        assert card_cofinality(two) > c


# --------------------------------------------------------------- custom models

def test_model_validation():
    with pytest.raises(ValueError, match="nothing to pin"):
        ContinuumModel(gch=True, continuum={0: 2})
    with pytest.raises(ValueError, match="regular"):
        ContinuumModel(continuum={W: parse_ordinal("w+2")})
    with pytest.raises(ValueError, match="monotone"):
        ContinuumModel(continuum={0: 3, 1: 2})
    with pytest.raises(ValueError, match="exceed"):
        ContinuumModel(continuum={1: 1})
    with pytest.raises(ValueError, match="exceed"):
        ContinuumModel(continuum={0: W})  # cf(aleph_w) = aleph_0


def test_model_accepts_easton_style_assignment():
    model = ContinuumModel(continuum={1: 3, 2: 3})
    assert power_of_two(aleph(1), model) == aleph(3)
    assert power_of_two(aleph(2), model) == aleph(3)
    assert card_pow(aleph(2), aleph(1), model) == aleph(3)


def test_unpinned_power_is_bracketed():
    model = ContinuumModel(continuum={1: 3, 2: 3})
    got = power_of_two(aleph(0), model)
    assert got == CardinalInterval(aleph(1), aleph(3))
    assert str(got) == "interval[aleph(1), aleph(3)]"


def test_squeezed_power_is_exact():
    model = ContinuumModel(continuum={0: 3, 2: 3})
    assert power_of_two(aleph(1), model) == aleph(3)


def test_empty_model_is_agnostic():
    model = ContinuumModel()
    got = power_of_two(aleph(0), model)
    assert got == CardinalInterval(aleph(1), None)
    assert str(got) == "interval[aleph(1), unbounded]"


def test_forced_power_via_large_continuum():
    # 2^aleph_0 = aleph_2 >= aleph_1 forces aleph_1^aleph_0 = aleph_2.
    model = ContinuumModel(continuum={0: 2})
    assert card_pow(aleph(1), aleph(0), model) == aleph(2)


def test_undetermined_power_stays_interval():
    model = ContinuumModel(continuum={0: 1})
    got = card_pow(aleph(2), aleph(0), model)
    assert got == CardinalInterval(aleph(2), None)


def test_model_round_trips_through_json():
    model = ContinuumModel.from_json(
        {"gch": False, "continuum": {"1": "3", "2": "3"}})
    assert power_of_two(aleph(1), model) == aleph(3)
    assert ContinuumModel.from_json({"gch": True}).gch
    with pytest.raises(ValueError):
        ContinuumModel.from_json([1, 2])
    with pytest.raises(ValueError):
        ContinuumModel.from_json({"continuum": "nope"})
    with pytest.raises(ValueError, match="'gch' must be true or false"):
        ContinuumModel.from_json({"gch": "false"})
    with pytest.raises(ValueError, match="unknown model key 'continum'"):
        ContinuumModel.from_json({"continum": {"1": "3"}})



def test_model_repr_lists_its_pins_in_order():
    assert repr(GCH) == "ContinuumModel[GCH]"
    assert repr(ContinuumModel(continuum={1: 3, 0: 2})) == (
        "ContinuumModel[2^aleph(0) = aleph(2), 2^aleph(1) = aleph(3)]")
    assert repr(ContinuumModel()) == "ContinuumModel[empty]"


# -------------------------------------------------------- sums and products

def test_sum_family_is_max():
    assert card_sum_family(aleph(0), fin(5)) == aleph(0)
    assert card_sum_family(fin(5), aleph(0)) == aleph(0)
    assert card_sum_family(aleph(1), al("w")) == al("w")
    with pytest.raises(ValueError):
        card_sum_family(fin(2), fin(3))
    with pytest.raises(ValueError):
        card_sum_family(fin(0), aleph(0))


def test_tarski_product():
    assert card_tarski_product(aleph(0), al("w")) == al("w+1")
    assert card_tarski_product(aleph(0), aleph(1)) == aleph(1)
    with pytest.raises(ValueError):
        card_tarski_product(fin(2), aleph(0))


def test_sum_product_separation():
    # countably many terms below aleph_w: sum aleph_w, product aleph_{w+1}
    assert card_sum_family(aleph(0), al("w")) == al("w")
    assert card_tarski_product(aleph(0), al("w")) > card_sum_family(aleph(0), al("w"))


# ------------------------------------------------------------ partition shapes

def test_shape_validation():
    with pytest.raises(ValueError):
        PartitionShape(kappa=fin(5), full_blocks=1, residue=fin(1))
    with pytest.raises(ValueError):
        PartitionShape(kappa=aleph(0), full_blocks=3)
    with pytest.raises(ValueError):
        PartitionShape(kappa=aleph(0), full_blocks=1)  # residue missing
    with pytest.raises(ValueError):
        PartitionShape(kappa=aleph(0), full_blocks=1, residue=aleph(1))


def test_complement_count_trivial():
    shape = PartitionShape(kappa=aleph(0), full_blocks=0, trivial=True)
    assert complement_count_symbolic(shape) == fin(1)


def test_complement_count_one_full_block():
    kappa = al("w+1")
    small = PartitionShape(kappa=kappa, full_blocks=1, residue=fin(3))
    assert complement_count_symbolic(small) == kappa
    below_cf = PartitionShape(kappa=kappa, full_blocks=1, residue=aleph(0))
    assert complement_count_symbolic(below_cf) == kappa
    at_kappa = PartitionShape(kappa=kappa, full_blocks=1, residue=kappa)
    assert complement_count_symbolic(at_kappa) == kappa.successor()
    empty = PartitionShape(kappa=kappa, full_blocks=1, residue=fin(0))
    assert complement_count_symbolic(empty) == fin(1)


def test_complement_count_no_or_many_full_blocks():
    kappa = aleph(0)
    for full in (0, 2):
        shape = PartitionShape(kappa=kappa, full_blocks=full)
        assert complement_count_symbolic(shape) == aleph(1)


def test_complement_count_singular_kappa():
    # one full block over aleph_w: any infinite residue reaches cf, so 2^kappa
    kappa = al("w")
    shape = PartitionShape(kappa=kappa, full_blocks=1, residue=aleph(0))
    assert complement_count_symbolic(shape) == al("w+1")
    finite = PartitionShape(kappa=kappa, full_blocks=1, residue=fin(2))
    assert complement_count_symbolic(finite) == kappa


def test_complement_count_under_custom_model():
    model = ContinuumModel(continuum={1: 3, 2: 3})
    shape = PartitionShape(kappa=aleph(2), full_blocks=1, residue=aleph(1))
    assert complement_count_symbolic(shape, model) == aleph(3)


# ----------------------------------------------------------------- chain sizes

def test_chain_bounds_regular():
    got = chain_cardinality_bounds(aleph(1))
    assert isinstance(got, ChainBounds)
    assert got.well_ordered_low == aleph(1)
    assert got.well_ordered_high == aleph(1)
    assert got.long_chain_exceeds == aleph(1)
    assert got.short_chain_in_pow == aleph(1)


def test_chain_bounds_singular():
    got = chain_cardinality_bounds(al("w"))
    assert got.well_ordered_low == aleph(0)
    assert got.well_ordered_high == al("w")


def test_chain_bounds_rejects_finite():
    with pytest.raises(ValueError):
        chain_cardinality_bounds(fin(5))


# ------------------------------------------------------------------- grammar

def test_evaluate_basics():
    assert evaluate("fin(7)") == fin(7)
    assert evaluate("aleph(w+1)") == al("w+1")
    assert evaluate("pow(aleph(0), aleph(0))") == aleph(1)
    assert evaluate("cf(aleph(w))") == aleph(0)
    assert evaluate("cf(pow(aleph(0), aleph(0)))") == aleph(1)
    assert evaluate("pow(fin(2), aleph(0))") == aleph(1)


def test_evaluate_complements_expression():
    assert evaluate(
        "complements(shape(full=1, kappa=aleph(0), lambda=fin(3)))") == aleph(0)
    assert evaluate(
        "complements(shape(full=0, kappa=aleph(0)))") == aleph(1)
    assert evaluate(
        "complements(shape(full=3, kappa=aleph(0)))") == aleph(1)  # 3 reads "many"


def test_evaluate_with_model():
    model = ContinuumModel(continuum={1: 3, 2: 3})
    assert evaluate("pow(aleph(2), aleph(1))", model) == aleph(3)
    got = evaluate("pow(fin(2), aleph(0))", model)
    assert got == CardinalInterval(aleph(1), aleph(3))
    assert format_result(got) == "interval[aleph(1), aleph(3)]"


def test_evaluate_rejects_interval_subexpressions():
    model = ContinuumModel()
    with pytest.raises(ValueError, match="not determined"):
        evaluate("cf(pow(fin(2), aleph(0)))", model)


def test_evaluate_rejects_bad_syntax():
    for text in ["", "pow(aleph(0)", "fin(2) junk", "aleph(0) aleph(1)",
                 "shape(full=1)", "pow(fin(1), aleph(0))", "fin(x)",
                 "complements(shape(kappa=aleph(0), full=1))"]:
        with pytest.raises(ValueError):
            evaluate(text)


def test_format_cardinal():
    assert format_cardinal(fin(3)) == "fin(3)"
    assert format_cardinal(al("w*2+1")) == "aleph(w*2+1)"
    assert format_result(aleph(0)) == "aleph(0)"


# ------------------------------------------------ metamorphic model properties
#
# These relate the answers of two models without recomputing either: they
# only read an answer as an interval [lo, hi] (an exact c is [c, c], hi None
# is unbounded) and compare cardinals.  Valid models are Easton's: 2^kappa
# pinned at regular kappa, monotone, with cf(2^kappa) > kappa (Jech, Set
# Theory, 2003, Thm 5.15 for the GCH values; Easton, Ann. Math. Logic 1, 1970).

_INDEX_TEXTS = ("0", "1", "2", "3", "4", "5", "6", "w", "w+1", "w+2")
_INFINITE = [al(t) for t in _INDEX_TEXTS]
_BASES = [fin(2), fin(3)] + _INFINITE
_REGULAR_INDICES = [parse_ordinal(t) for t in _INDEX_TEXTS if t != "w"]  # aleph_w is singular
_SUCCESSOR_VALUES = [parse_ordinal(t) for t in ("1", "2", "3", "4", "5", "6", "7", "8",
                                                  "w+1", "w+2", "w+3", "w+4")]


def _span(answer):
    if isinstance(answer, CardinalInterval):
        return answer.lo, answer.hi
    return answer, answer


def _holds(inner, outer):
    """True iff the interval of ``inner`` lies inside the interval of ``outer``."""
    (ilo, ihi), (olo, ohi) = _span(inner), _span(outer)
    return olo <= ilo and (ohi is None or (ihi is not None and ihi <= ohi))


def _shapes(kappa):
    yield PartitionShape(kappa, 0)
    yield PartitionShape(kappa, 2)
    for residue in [fin(0), fin(1), fin(3)] + [c for c in _INFINITE if c <= kappa]:
        yield PartitionShape(kappa, 1, residue)


def _answers(model):
    """Every power and complement count over the fixed cardinals, by key."""
    out = {}
    for lam in _INFINITE:
        out["2^", lam] = power_of_two(lam, model)
        for base in _BASES:
            out["pow", base, lam] = card_pow(base, lam, model)
        for shape in _shapes(lam):
            out["complements", shape] = complement_count_symbolic(shape, model)
    return out


@st.composite
def _pins(draw):
    """2^aleph_k = aleph_v at some regular k: values are successors above
    their key and do not decrease, so every draw is a valid model."""
    keys = sorted(draw(st.sets(st.sampled_from(_REGULAR_INDICES), max_size=4)))
    pins, floor = {}, ZERO
    for k in keys:
        floor = draw(st.sampled_from([v for v in _SUCCESSOR_VALUES if v > k and v >= floor]))
        pins[k] = floor
    return pins


@settings(max_examples=60, deadline=None)
@given(_pins(), st.data())
def test_pinning_more_values_refines_every_answer(pins, data):
    # (a) a model M that pins a subset of the values of M' answers with an
    # interval holding M''s answer: pinning more never widens or moves it
    kept = data.draw(st.sets(st.sampled_from(sorted(pins)))) if pins else set()
    finer = _answers(ContinuumModel(continuum=pins))
    coarser = _answers(ContinuumModel(continuum={k: pins[k] for k in kept}))
    assert [key for key in finer if not _holds(finer[key], coarser[key])] == []


_GCH_ANSWERS = _answers(GCH)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(_REGULAR_INDICES)))
def test_pinning_gch_values_keeps_the_gch_answer(keys):
    # (b) pins 2^aleph_k = aleph_{k+1} agree with GCH: every answer is GCH's
    # or an interval holding it
    model = ContinuumModel(continuum={k: k + ONE for k in keys})
    got = _answers(model)
    assert [key for key in got if not _holds(_GCH_ANSWERS[key], got[key])] == []


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(None), _pins()))
def test_complement_count_lies_between_one_and_the_power_set(pins):
    # (c) paper (V): a nontrivial partition of kappa has at least one and
    # at most 2^kappa complements, under GCH and under any model
    model = GCH if pins is None else ContinuumModel(continuum=pins)
    for kappa in _INFINITE:
        power_lo, power_hi = _span(power_of_two(kappa, model))
        for shape in _shapes(kappa):
            lo, hi = _span(complement_count_symbolic(shape, model))
            assert fin(1) <= lo <= power_lo, shape
            assert power_hi is None or (hi is not None and hi <= power_hi), shape
