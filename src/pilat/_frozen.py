"""The one immutability guard and the one total order of the package's
value classes.

``Frozen`` refuses attribute assignment and deletion, so a value shared
across a process (an interned ordinal, ``ALEPH0``, the model ``GCH``, a
partition used as a dict key) cannot change in place.  Constructors write
with ``object.__setattr__``, or through the instance ``__dict__``.
``FrozenRecord`` reads equality (same class only), hashing, pickling and
the repr ``Name(field=value, ...)`` off ``_values()``, which defaults to
the ``__slots__`` in order, the constructor's positional arguments;
``_set(*values)`` writes them in that order.  Every value class but
``Ordinal`` is built on it, the result reports and ``cli._Arg`` included,
``Partition`` on ``(n, masks)`` and ``ContinuumModel`` on its flag and
sorted pins; those two keep their own repr, and the model its own
pickling, as its constructor takes a mapping.  None is a tuple, so no
record equals a plain tuple, and a record class is cheap to build at
import, with no ``collections`` code run for it.  A record pickles as a
constructor call, so loading one validates it: a pickled partition holds
no cached field, and one with overlapping masks, or an n over the current
cap, is refused on load.  ``Ordinal`` is ``Frozen`` only, and equal by
identity.

``Ordered`` derives ``<``, ``<=``, ``>`` and ``>=`` from one
``_cmp(other)``, which returns -1, 0 or 1; against an instance of another
class each comparison is ``NotImplemented``, so mixed comparisons raise
TypeError.  Equality stays the class's own.
"""


class Frozen:
    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class FrozenRecord(Frozen):
    __slots__ = ()

    def _set(self, *values) -> None:
        """Write ``values`` to the fields in slot order (constructors only)."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Ordered:
    __slots__ = ()

    def __lt__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._cmp(other) >= 0
