"""Symbolic ordinal and cardinal arithmetic for the transfinite statements.

Ordinals below epsilon_0 are kept in Cantor normal form: a sum
w^b1*c1 + ... + w^bk*ck with strictly decreasing ordinal exponents and
positive integer coefficients.  Cardinals are either finite or alephs
indexed by such an ordinal.  Continuum behaviour is supplied by a model:
either GCH, or a finite list of values for 2^kappa at regular kappa.
Under a partial model a power evaluates to an exact cardinal only when the
model forces it; otherwise the result is an interval [lower, upper] (upper
may be unknown), never a guess.

Each ordinal value is one object (Ordinal interns its terms), so equality
and hashing are identity and a comparison follows one path of exponents in
a loop.  The constructor validates terms that come from a caller; sums,
``from_int`` and ``omega_power`` derive theirs from ordinals already
checked and look them up through ``_interned`` without a second check.
Identity hashes follow memory addresses, so no output may depend on the
iteration order of a set of ordinals.  Ordinals and cardinals are
each totally ordered by one ``_cmp``, from which ``_frozen.Ordered``
derives the four comparisons: finite cardinals by value and below every
aleph, alephs by their indices.  Comparing across the two classes, or
with an int, raises TypeError.

Text forms, shared with the CLI: ordinals use ``w`` for omega, as in
``w^2*3+w+5``; cardinals are ``fin(3)`` or ``aleph(w+1)``.  The reader
splits text into tokens in one scan, which refuses parentheses nested more
than NEST_CAP deep; it then reads ordinals in one loop and the ``pow``/``cf``
layer in another.  No function here calls itself, so the stack an answer
needs does not grow with the nesting.
"""
from __future__ import annotations

import re
from types import MappingProxyType
from typing import Mapping, NamedTuple

from ._frozen import Frozen, FrozenRecord, Ordered


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


_INTERNED: dict[tuple, "Ordinal"] = {}  # terms -> the one Ordinal with those terms


class Ordinal(Frozen, Ordered):
    """An ordinal below epsilon_0 in Cantor normal form (immutable).

    Each value is one object: construction returns the instance already
    made for equal terms, so equality and hashing are identity.
    """

    __slots__ = ("terms",)

    def __new__(cls, terms: tuple = ()):
        terms = tuple((e, c) for e, c in terms)
        # validate before the lookup: True == 1 and they hash alike
        for i, (e, c) in enumerate(terms):
            if not isinstance(e, Ordinal):
                raise TypeError("exponents must be Ordinals")
            if not _is_int(c):
                raise TypeError("coefficients must be ints")
            if c < 1:
                raise ValueError("coefficients must be positive")
            if i and not terms[i - 1][0] > e:
                raise ValueError("exponents must be strictly decreasing")
        return _interned(terms)

    def __reduce__(self):
        # pickled as its text, which the printer and the reader each handle in
        # a loop; the reader's scan refuses now what it would refuse at load
        text = format_ordinal(self)
        _tokens(text)
        return parse_ordinal, (text,)

    def __copy__(self):
        return self  # the one object of its value

    def __deepcopy__(self, memo):
        return self

    @staticmethod
    def from_int(k: int) -> "Ordinal":
        if not _is_int(k):
            raise TypeError(f"expected an int, not {type(k).__name__}")
        if k < 0:
            raise ValueError("ordinals are non-negative")
        return _interned(((ZERO, k),)) if k else ZERO

    @staticmethod
    def omega_power(exp: "Ordinal", coeff: int = 1) -> "Ordinal":
        if isinstance(exp, Ordinal) and _is_int(coeff) and coeff >= 1:
            return _interned(((exp, coeff),))
        return Ordinal(((exp, coeff),))  # raises the constructor's error

    # -- order ----------------------------------------------------------
    def _cmp(self, other: "Ordinal") -> int:
        """-1, 0 or 1 as self is below, equal to or above other.

        The first differing term decides, by its coefficients or, when its
        exponents differ, by their comparison, which the loop makes next.
        """
        a, b = self, other
        while a is not b:
            for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
                if ea is not eb:
                    a, b = ea, eb
                    break
                if ca != cb:
                    return -1 if ca < cb else 1
            else:  # one terms tuple extends the other
                return -1 if len(a.terms) < len(b.terms) else 1
        return 0

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other: "Ordinal") -> "Ordinal":
        """Ordinal addition; left terms below the right leading term vanish."""
        if not isinstance(other, Ordinal):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        e0, c0 = other.terms[0]
        keep = tuple(t for t in self.terms if t[0] > e0)
        same = [t for t in self.terms if t[0] == e0]
        if same:
            return _interned(keep + ((e0, same[0][1] + c0),) + other.terms[1:])
        return _interned(keep + other.terms)

    def successor(self) -> "Ordinal":
        return self + ONE

    # -- structure -------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero

    def as_int(self) -> int:
        if self.is_zero:
            return 0
        if len(self.terms) == 1 and self.terms[0][0].is_zero:
            return self.terms[0][1]
        raise ValueError(f"{self} is not finite")

    def cofinality(self) -> "Ordinal":
        """0, 1, or omega: every limit below epsilon_0 has cofinality omega."""
        if self.is_zero:
            return ZERO
        if self.is_successor:
            return ONE
        return OMEGA

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal[{format_ordinal(self)}]"


def _interned(terms: tuple) -> Ordinal:
    """The one Ordinal with ``terms``, unchecked: the lookup half of
    ``Ordinal.__new__``, for terms the module derives itself from valid
    ordinals.  They must be a tuple of (Ordinal, int >= 1) pairs, no bool
    among the ints, with strictly decreasing exponents."""
    self = _INTERNED.get(terms)
    if self is None:
        self = object.__new__(Ordinal)
        object.__setattr__(self, "terms", terms)
        self = _INTERNED.setdefault(terms, self)
    return self


ZERO = Ordinal(())
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def format_ordinal(o: Ordinal) -> str:
    """The text of ``o``, as in ``w^(w+1)*2+w^3+5``.  An exponent goes
    without parentheses exactly when it is omega or finite."""
    out: list[str] = []
    todo: list[Ordinal | str] = [o]  # what is left to write, last item first
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        if not item.terms:
            out.append("0")
            continue
        pieces: list[Ordinal | str] = []
        for exp, c in item.terms:
            if pieces:
                pieces.append("+")
            if exp is ZERO:
                pieces.append(str(c))
                continue
            if exp is ONE:
                pieces.append("w")
            elif exp is OMEGA or exp.terms[0][0] is ZERO:  # omega or finite
                pieces += ("w^", exp)
            else:
                pieces += ("w^(", exp, ")")
            if c != 1:
                pieces.append(f"*{c}")
        todo += reversed(pieces)
    return "".join(out)


class Cardinal(FrozenRecord, Ordered):
    """A finite cardinal or an aleph with a CNF ordinal index (immutable)."""

    __slots__ = ("finite", "index")

    def __init__(self, finite: int | None, index: Ordinal | None):
        if (finite is None) == (index is None):
            raise ValueError("exactly one of finite value and aleph index")
        if finite is not None and not _is_int(finite):
            raise TypeError("finite cardinals must be ints")
        if index is not None and not isinstance(index, Ordinal):
            raise TypeError("aleph indices must be Ordinals")
        if finite is not None and finite < 0:
            raise ValueError("finite cardinals are non-negative")
        object.__setattr__(self, "finite", finite)
        object.__setattr__(self, "index", index)

    @property
    def is_finite(self) -> bool:
        return self.finite is not None

    @property
    def is_infinite(self) -> bool:
        return self.index is not None

    def _cmp(self, other: "Cardinal") -> int:
        """-1, 0 or 1 as self is below, equal to or above other: finite
        cardinals by value, each below every aleph, alephs by index."""
        if self.finite is not None:
            if other.finite is None:
                return -1
            return (self.finite > other.finite) - (self.finite < other.finite)
        if other.finite is not None:
            return 1
        return self.index._cmp(other.index)

    def successor(self) -> "Cardinal":
        if self.is_finite:
            return fin(self.finite + 1)
        return aleph(self.index + ONE)

    def cofinality(self) -> "Cardinal":
        """cf: finite positives have cofinality 1; aleph_0 and successor
        alephs are regular; a limit-index aleph inherits the cofinality of
        its index, which below epsilon_0 is always omega."""
        if self.is_finite:
            return fin(0) if self.finite == 0 else fin(1)
        ix = self.index
        if ix.is_zero or ix.is_successor:
            return self
        return ALEPH0

    @property
    def is_regular(self) -> bool:
        return self.is_infinite and self.cofinality() == self

    def __str__(self) -> str:
        return format_cardinal(self)

    def __repr__(self) -> str:
        return f"Cardinal[{format_cardinal(self)}]"


def fin(k: int) -> Cardinal:
    return Cardinal(k, None)


def _ordinal(x: Ordinal | int) -> Ordinal:
    return x if isinstance(x, Ordinal) else Ordinal.from_int(x)


def aleph(index: Ordinal | int) -> Cardinal:
    return Cardinal(None, _ordinal(index))


ALEPH0 = aleph(0)


class CardinalInterval(NamedTuple):
    """All the model says: the value lies in [lo, hi] (hi None = no bound)."""

    lo: Cardinal
    hi: Cardinal | None

    def __str__(self) -> str:
        hi = "unbounded" if self.hi is None else format_cardinal(self.hi)
        return f"interval[{format_cardinal(self.lo)}, {hi}]"


class ContinuumModel(FrozenRecord):
    """GCH, or finitely many pinned values of 2^kappa at regular kappa (immutable).

    A custom assignment {i: j} reads 2^aleph_i = aleph_j.  Construction
    rejects assignments at singular indices, non-monotone assignments, and
    assignments violating cf(2^kappa) > kappa.  ``continuum`` is a read-only
    view of the validated assignment, in ascending order of its keys.  Two
    models are equal, and hash alike, when their ``gch`` and pins are equal.
    """

    __slots__ = ("gch", "continuum")

    def __init__(self, gch: bool = False,
                 continuum: Mapping[Ordinal | int, Ordinal | int] | None = None):
        if not isinstance(gch, bool):
            raise TypeError(f"gch must be a bool, not {type(gch).__name__}")
        entries = {_ordinal(k): _ordinal(v) for k, v in (continuum or {}).items()}
        if gch and entries:
            raise ValueError("GCH leaves nothing to pin")
        pins = dict(sorted(entries.items(), key=lambda kv: kv[0]))
        prev_value: Ordinal | None = None
        for k, v in pins.items():
            base = aleph(k)
            if not base.is_regular:
                raise ValueError(f"2^{base} can only be pinned at a regular cardinal")
            value = aleph(v)
            if value.cofinality() <= base:
                raise ValueError(f"cf(2^{base}) = cf({value}) must exceed {base}")
            if prev_value is not None and v < prev_value:
                raise ValueError("assignment is not monotone")
            prev_value = v
        object.__setattr__(self, "gch", gch)
        object.__setattr__(self, "continuum", MappingProxyType(pins))

    def _values(self) -> tuple:
        return self.gch, tuple(self.continuum.items())  # the pins are sorted: canonical

    def __reduce__(self):  # the constructor takes the pins as a mapping
        return type(self), (self.gch, dict(self.continuum))

    @classmethod
    def from_json(cls, data: dict) -> "ContinuumModel":
        """The model a JSON object describes: {"gch": bool, "continuum": {ord: ord}}.

        Both keys are optional and no other key is allowed.  Each ordinal
        is read under NEST_CAP, as an expression is; reading, comparing and
        hashing it take the same stack at any depth.
        """
        if not isinstance(data, dict):
            raise ValueError("model file must hold a JSON object")
        for key in data:
            if key not in ("gch", "continuum"):
                raise ValueError(f"unknown model key {key!r}")
        gch = data.get("gch", False)
        if not isinstance(gch, bool):
            raise ValueError("'gch' must be true or false")
        raw = data.get("continuum", {})
        if not isinstance(raw, dict):
            raise ValueError("'continuum' must be an object")
        cont = {parse_ordinal(str(k)): parse_ordinal(str(v)) for k, v in raw.items()}
        return cls(gch=gch, continuum=cont)

    def __repr__(self) -> str:
        if self.gch:
            return "ContinuumModel[GCH]"
        body = ", ".join(f"2^aleph({k}) = aleph({v})" for k, v in self.continuum.items())
        return f"ContinuumModel[{body or 'empty'}]"


GCH = ContinuumModel(gch=True)


def _bounds(x) -> tuple[Cardinal, Cardinal | None]:
    if isinstance(x, CardinalInterval):
        return x.lo, x.hi
    return x, x


def _result(lo: Cardinal, hi: Cardinal | None):
    if hi is not None and lo == hi:
        return lo
    return CardinalInterval(lo, hi)


def power_of_two(lam: Cardinal, model: ContinuumModel = GCH):
    """2^lam for infinite lam: exact under GCH or when pinned/squeezed,
    otherwise the interval the model admits."""
    if not lam.is_infinite:
        raise ValueError("power_of_two expects an infinite cardinal")
    ix = lam.index
    if model.gch:
        return aleph(ix + ONE)
    pinned = model.continuum.get(ix)
    if pinned is not None:
        return aleph(pinned)
    lo = aleph(ix + ONE)
    hi: Cardinal | None = None
    for k, v in model.continuum.items():
        if k < ix:
            lo = max(lo, aleph(v))  # monotone: 2^mu <= 2^lam for mu <= lam
        elif k > ix:
            hi = min(hi, aleph(v)) if hi is not None else aleph(v)
    assert hi is None or lo <= hi, "validated model produced crossed bounds"
    return _result(lo, hi)


def card_pow(base: Cardinal, exp: Cardinal, model: ContinuumModel = GCH):
    """kappa^lam under the model; exact cardinal or interval.

    Exactness rules beyond GCH: lam >= kappa gives 2^lam; a known
    2^lam >= kappa forces kappa^lam = 2^lam.  Otherwise the result is
    bracketed by kappa (kappa^+ once lam reaches cf(kappa)) and 2^kappa.
    """
    if base.is_finite and base.finite < 2:
        raise ValueError("base must be at least 2")
    if exp.is_finite:
        if exp.finite == 0:
            return fin(1)
        if base.is_finite:
            raise ValueError("finite base with finite positive exponent: not a cardinal question")
        return base
    if base.is_finite:
        return power_of_two(exp, model)
    kappa, lam = base, exp
    if model.gch:
        cfk = kappa.cofinality()
        if lam < cfk:
            return kappa
        if lam <= kappa:
            return kappa.successor()
        return lam.successor()
    if lam >= kappa:
        return power_of_two(lam, model)
    t = power_of_two(lam, model)
    tlo, thi = _bounds(t)
    if tlo >= kappa:
        return t
    lo = kappa.successor() if lam >= kappa.cofinality() else kappa
    lo = max(lo, tlo)
    _, hi = _bounds(power_of_two(kappa, model))
    return _result(lo, hi)


def card_cofinality(c: Cardinal) -> Cardinal:
    return c.cofinality()


def card_sum_family(index_count: Cardinal, term_sup: Cardinal) -> Cardinal:
    """Sum of index_count many cardinals each <= term_sup with sup term_sup:
    the maximum of the two, once either is infinite."""
    if index_count < fin(1) or term_sup < fin(1):
        raise ValueError("need at least one term and positive terms")
    if index_count.is_finite and term_sup.is_finite:
        raise ValueError("finite sums are plain arithmetic")
    return max(index_count, term_sup)


def card_tarski_product(index_count: Cardinal, term_sup: Cardinal,
                        model: ContinuumModel = GCH):
    """Product of an increasing index_count-indexed family with sup
    term_sup: term_sup^index_count (both must be infinite)."""
    if not (index_count.is_infinite and term_sup.is_infinite):
        raise ValueError("both the index set and the supremum must be infinite")
    return card_pow(term_sup, index_count, model)


class PartitionShape(FrozenRecord):
    """What the complement count of a partition of an infinite set sees.

    ``kappa``: size of the ground set.  ``full_blocks``: how many blocks
    have size kappa (0, 1, or 2 standing for "two or more").  When exactly
    one block is full, ``residue`` is the size of the ground set outside
    it.  ``trivial`` marks the bottom/top partitions, which are complements
    of each other and of nothing else.
    """

    __slots__ = ("kappa", "full_blocks", "residue", "trivial")

    def __init__(self, kappa: Cardinal, full_blocks: int, residue: Cardinal | None = None,
                 trivial: bool = False):
        if not isinstance(kappa, Cardinal):
            raise TypeError(f"kappa must be a Cardinal, not {type(kappa).__name__}")
        if not _is_int(full_blocks):
            raise TypeError(f"full_blocks must be an int, not {type(full_blocks).__name__}")
        if residue is not None and not isinstance(residue, Cardinal):
            raise TypeError(f"residue must be a Cardinal, not {type(residue).__name__}")
        if not isinstance(trivial, bool):
            raise TypeError(f"trivial must be a bool, not {type(trivial).__name__}")
        if not kappa.is_infinite:
            raise ValueError("shape classification needs an infinite ground set")
        if full_blocks not in (0, 1, 2):
            raise ValueError("full_blocks must be 0, 1 or 2 (2 = two or more)")
        if not trivial and full_blocks == 1:
            if residue is None:
                raise ValueError("one full block needs the residue cardinal")
            if residue > kappa:
                raise ValueError("residue cannot exceed the ground set")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "full_blocks", full_blocks)
        object.__setattr__(self, "residue", residue)
        object.__setattr__(self, "trivial", trivial)


def complement_count_symbolic(shape: PartitionShape, model: ContinuumModel = GCH):
    """Number of complements of a partition with the given shape.

    Trivial partitions have exactly one complement.  With one full block
    and residue lam the count is kappa^lam (so under GCH: kappa when
    1 <= lam < cf(kappa), else 2^kappa).  With no full block, or two or
    more, the count is 2^kappa.
    """
    if shape.trivial:
        return fin(1)
    if shape.full_blocks == 1:
        if shape.residue == fin(0):
            return fin(1)  # the one-block partition: only bottom works
        return card_pow(shape.kappa, shape.residue, model)
    return power_of_two(shape.kappa, model)


class ChainBounds(NamedTuple):
    """Cardinality facts about maximal chains in the lattice on kappa.

    Well-ordered maximal chains exist exactly in sizes cf(kappa) through
    kappa; some (non-well-ordered) maximal chain is strictly longer than
    kappa; and the lattice on 2^kappa has, under GCH, a maximal chain of
    size only kappa.
    """

    kappa: Cardinal
    well_ordered_low: Cardinal
    well_ordered_high: Cardinal
    long_chain_exceeds: Cardinal
    short_chain_in_pow: Cardinal


def chain_cardinality_bounds(kappa: Cardinal) -> ChainBounds:
    if not kappa.is_infinite:
        raise ValueError("chain bounds are about infinite ground sets")
    return ChainBounds(
        kappa=kappa,
        well_ordered_low=kappa.cofinality(),
        well_ordered_high=kappa,
        long_chain_exceeds=kappa,
        short_chain_in_pow=kappa,
    )


# ---------------------------------------------------------------------------
# text forms


def format_cardinal(c: Cardinal) -> str:
    if c.is_finite:
        return f"fin({c.finite})"
    return f"aleph({format_ordinal(c.index)})"


def format_result(res) -> str:
    return str(res)


NEST_CAP = 320  # the deepest parenthesis nesting read in an expression or model ordinal

# Neither pattern backtracks: the first stops at the first character outside
# the grammar's alphabet, the second matches each token in one step.
_ALPHABET = re.compile(r"[a-z0-9()+*^,=\s]*")
_TOKEN = re.compile(r"[a-z]+|[0-9]+|[()+*^,=]")


def _nests_past_cap(text: str, opens: str, closes: str, quote: str | None = None) -> bool:
    """Whether the brackets of ``text`` nest more than NEST_CAP deep: the one
    scan of the cap, for expressions and JSON model files.  It runs only past
    NEST_CAP openers, and skips the insides of ``quote`` strings, where a
    backslash escapes the next character."""
    if sum(map(text.count, opens)) <= NEST_CAP:
        return False
    depth = 0
    in_string = escaped = False
    for ch in text:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == quote:
                in_string = False
        elif ch == quote:
            in_string = True
        elif ch in opens:
            depth += 1
            if depth > NEST_CAP:
                return True
        elif ch in closes:
            depth -= 1
    return False


def _tokens(text: str) -> list[str]:
    """The tokens of ``text`` followed by a ``None`` end marker.

    Refuses text with a character outside the grammar, and then text whose
    parentheses nest more than NEST_CAP deep, before anything is parsed.
    """
    end = _ALPHABET.match(text).end()
    if end < len(text):
        raise ValueError(f"bad character {text[end]!r}")
    if _nests_past_cap(text, "(", ")"):
        raise ValueError("expression nested too deeply")
    toks = _TOKEN.findall(text)
    toks.append(None)
    return toks


def _exact(res) -> Cardinal:
    """``res``, refused when the model leaves it an interval."""
    if isinstance(res, CardinalInterval):
        raise ValueError(f"subexpression is not determined by the model: {res}")
    return res


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos]

    def take(self, *expected: str) -> str:
        """The next token, or each of ``expected`` in turn: the last taken."""
        for want in expected or (None,):
            tok = self.toks[self.pos]
            if tok is None:
                raise ValueError("unexpected end of expression")
            if want is not None and tok != want:
                raise ValueError(f"expected {want!r}, got {tok!r}")
            self.pos += 1
        return tok

    def int_(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise ValueError(f"expected an integer, got {tok!r}")
        return int(tok)

    # ordinals ---------------------------------------------------------
    def ordinal(self) -> Ordinal:
        """ORD := TERM ('+' TERM)*;  TERM := 'w' ['^' ATOM] ['*' INT] | INT;
        ATOM := '(' ORD ')' | 'w' | INT.

        One loop: ``pending`` holds, for each ``w^(`` still open, the sum
        read before it, and ``total`` the sum read so far inside it.
        """
        toks = self.toks
        pos = self.pos
        pending: list[Ordinal | None] = []
        total: Ordinal | None = None
        while True:
            tok = toks[pos]
            pos += 1
            if tok == "w":
                exp = ONE
                if toks[pos] == "^":
                    tok = toks[pos + 1]
                    pos += 2
                    if tok == "(":
                        pending.append(total)
                        total = None
                        continue
                    if tok == "w":
                        exp = OMEGA
                    elif tok is not None and tok.isdigit():
                        exp = Ordinal.from_int(int(tok))
                    else:
                        raise ValueError(f"expected an ordinal, got {tok!r}")
                term = None  # a power of w whose coefficient is still to read
            elif tok is not None and tok.isdigit():
                term = Ordinal.from_int(int(tok))
            else:
                raise ValueError(f"expected an ordinal term, got {tok!r}")
            # Finish the term.  A ')' after it ends the sum inside a w^( ),
            # and that power of w is the next term to finish.
            while True:
                if term is None:
                    coeff = 1
                    if toks[pos] == "*":
                        self.pos = pos + 1
                        coeff = self.int_()
                        pos = self.pos
                    term = Ordinal.omega_power(exp, coeff)
                total = term if total is None else total + term
                if toks[pos] == "+":
                    pos += 1
                    break
                self.pos = pos
                if not pending:
                    return total
                self.take(")")
                pos += 1
                exp = total
                total = pending.pop()
                term = None

    # cardinals --------------------------------------------------------
    def cardinal(self, model: ContinuumModel):
        """CARD := 'fin(' INT ')' | 'aleph(' ORD ')' | 'pow(' EXACT ',' EXACT ')'
        | 'cf(' EXACT ')', where EXACT is a CARD the model determines.

        One loop: ``frames`` holds, for each ``pow(`` or ``cf(`` still open,
        its name and, once read, the base of the ``pow``.
        """
        frames: list[tuple[str, Cardinal | None]] = []
        while True:
            tok = self.take()
            if tok == "pow" or tok == "cf":
                self.take("(")
                frames.append((tok, None))
                continue
            if tok == "fin":
                self.take("(")
                res = fin(self.int_())
            elif tok == "aleph":
                self.take("(")
                res = aleph(self.ordinal())
            else:
                raise ValueError(f"expected a cardinal expression, got {tok!r}")
            self.take(")")
            # Close the frames this result completes.  The second argument of
            # a pow is the next cardinal to read.
            while frames:
                _exact(res)
                name, base = frames.pop()
                if name == "pow" and base is None:
                    self.take(",")
                    frames.append((name, res))
                    break
                self.take(")")
                res = card_cofinality(res) if name == "cf" else card_pow(base, res, model)
            else:
                return res

    def exact_cardinal(self, model: ContinuumModel) -> Cardinal:
        return _exact(self.cardinal(model))

    def shape(self, model: ContinuumModel) -> PartitionShape:
        self.take("shape", "(", "full", "=")
        full = self.int_()
        self.take(",", "kappa", "=")
        kappa = self.exact_cardinal(model)
        residue = None
        if self.peek() == ",":
            self.take(",", "lambda", "=")
            residue = self.exact_cardinal(model)
        self.take(")")
        return PartitionShape(kappa=kappa, full_blocks=min(full, 2), residue=residue)

    def expression(self, model: ContinuumModel):
        if self.peek() == "complements":
            self.take("complements", "(")
            shp = self.shape(model)
            self.take(")")
            return complement_count_symbolic(shp, model)
        return self.cardinal(model)


def _parse(text: str, rule):
    """Run ``rule`` on a parser over the whole of ``text``.

    The scan has refused nesting beyond NEST_CAP.  Nothing after it
    recurses: ordinals and the ``pow``/``cf`` layer are each read in a loop,
    and comparing, hashing and printing an ordinal loop too, so whether a
    text is answered does not depend on the caller's stack.
    """
    p = _Parser(text)
    res = rule(p)
    if p.peek() is not None:
        raise ValueError(f"trailing input near {p.peek()!r}")
    return res


def parse_ordinal(text: str) -> Ordinal:
    return _parse(text, _Parser.ordinal)


def evaluate(text: str, model: ContinuumModel = GCH):
    """Evaluate a cardinal expression under a model.

    Grammar: fin(INT), aleph(ORD), pow(C, C), cf(C),
    complements(shape(full=INT, kappa=C, lambda=C)); ordinals use w, ^, *, +.
    """
    return _parse(text, lambda p: p.expression(model))
