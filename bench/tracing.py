"""Per-module spans for the traced run, installed from outside the program.

Each traced name is replaced by a wrapper that records calls and self time
(the span's duration minus the time of the spans it caused).  A function is
wrapped at every module of the package that holds it, so a name imported
into another module (``covers`` into ``cli``, ``chains`` and ``ortho``;
``comparable`` into ``antichains``; ``iter_partitions`` into four modules)
is traced wherever it is called from.  ``uninstall`` puts every original
back.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter


class Span:
    __slots__ = ("calls", "self_s", "count", "hits")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.count = 0   # items yielded or found
        self.hits = 0    # calls that returned True


def _snapshot(span: Span) -> dict:
    return {"calls": span.calls, "self_s": span.self_s, "count": span.count,
            "hits": span.hits}


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self._stack: list[list[float]] = []   # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _function(self, span: Span, fn, tally):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                span.calls += 1
                span.self_s += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if tally is not None:
                tally(span, result)
            return result
        return wrapper

    def _generator(self, span: Span, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span.calls += 1
            it = fn(*args, **kwargs)
            while True:
                child = [0.0]
                stack.append(child)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    item = it   # sentinel: the generator is done
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    span.self_s += dt - child[0]
                    if stack:
                        stack[-1][0] += dt
                if item is it:
                    return
                span.count += 1
                yield item
        return wrapper

    # -- installation ----------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def function(self, name: str, module, attr: str, *, generator: bool = False,
                 tally=None) -> None:
        """Wrap ``module.attr`` at every pilat module that holds the same object."""
        original = getattr(module, attr)
        span = self.spans.setdefault(name, Span())
        wrapper = (self._generator(span, original) if generator
                   else self._function(span, original, tally))
        for mod_name, mod in sorted(sys.modules.items()):
            if (mod_name == "pilat" or mod_name.startswith("pilat.")) \
                    and getattr(mod, attr, None) is original:
                self._replace(mod, attr, wrapper)

    def method(self, name: str, cls, attr: str) -> None:
        """Wrap a method, classmethod or dunder of ``cls``."""
        raw = cls.__dict__[attr]
        span = self.spans.setdefault(name, Span())
        if isinstance(raw, classmethod):
            self._replace(cls, attr, classmethod(self._function(span, raw.__func__, None)))
        else:
            self._replace(cls, attr, self._function(span, raw, None))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> dict[str, dict]:
        """Per-span totals since the last take, then reset them."""
        out = {name: _snapshot(span) for name, span in self.spans.items()}
        for span in self.spans.values():
            span.calls = span.count = span.hits = 0
            span.self_s = 0.0
        return out


def _count_hits(span: Span, result) -> None:
    span.hits += result is True


def _count_found(span: Span, result) -> None:
    span.count += len(result)


def install() -> Tracer:
    """Trace the layers the benchmark reports, in the imported pilat package."""
    from pilat import antichains, cardinal, chains, cli, complements, enumeration, ortho
    from pilat import partitions

    P = partitions.Partition
    t = Tracer()
    t.method("partitions.construct", P, "__init__")
    t.method("partitions.parse", P, "parse")
    t.method("partitions.leq", P, "__le__")
    t.method("partitions.meet", P, "__and__")
    t.method("partitions.join", P, "__or__")
    t.method("partitions.format", P, "format")
    t.function("partitions.covers", partitions, "covers", tally=_count_hits)
    t.function("antichains.comparable", partitions, "comparable", tally=_count_hits)
    t.function("enumeration.iter", enumeration, "iter_partitions", generator=True)
    t.function("complements.enumerate", complements, "enumerate_complements",
               tally=_count_found)
    t.function("complements.is_complement", complements, "is_complement")
    t.function("antichains.verify", antichains, "verify_antichain")
    t.function("ortho.search", ortho, "search_orthocomplementation")
    t.function("ortho.check", ortho, "check_ortho_map")
    t.function("chains.verify", chains, "verify_chain")
    t.function("chains.keyframe", chains, "keyframe_chain")
    t.function("cardinal.evaluate", cardinal, "evaluate")
    t.method("cardinal.model", cardinal.ContinuumModel, "from_json")
    t.function("cli.main", cli, "main")
    return t
