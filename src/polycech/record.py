"""Immutable value records, the package's one base for its value types,
and the integer tests of its inputs (``require_ints``, ``is_ascii_int``),
kept here because every submodule imports this one and it loads no other.
A record is built from its fields in order, with no defaults and no keywords.

``dataclasses`` imports ``inspect`` and writes each class's methods with
``exec``; for thirteen frozen classes that was about a third of the time
of ``import polycech``, paid again by every command line process.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Iterable, Sequence

_set = object.__setattr__


class Record:
    """Frozen value whose fields are the class's own annotations not starting
    with an underscore, in order. It is built from all of them, positionally:
    no field has a default and none is passed by keyword.

    Instances of the same class with equal fields are equal, hash as their
    fields and print as ``Name(f=v, ...)``. ``__post_init__`` runs after the
    fields are set; it may check them or set private attributes with
    ``object.__setattr__``, as the fields are set. A record keeps its
    ``__dict__``, so ``cached_property`` works on it.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(n for n in cls.__annotations__ if not n.startswith("_"))
        cls._key = attrgetter(*cls._fields)  # the field tuple; the value if only one

    def __init__(self, *args) -> None:
        names = self._fields
        if len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(args)}")
        for i, name in enumerate(names):  # faster than zip on CPython 3.11
            _set(self, name, args[i])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"


def require_ints(rows: Sequence[Iterable], error: type[Exception], what: str) -> None:
    """Raise ``error`` naming the first entry of ``rows`` that is not an int;
    a bool is not one."""
    if not {int}.issuperset(map(type, chain.from_iterable(rows))):
        a = next(a for row in rows for a in row if type(a) is not int)
        raise error(f"{what} has the entry {a!r}, not an int")


def is_ascii_int(text: str) -> bool:
    """Whether ``text`` is an integer in ASCII digits, with an optional "-":
    ``int`` would also read "1_0", padding and other scripts' digits."""
    return text.isascii() and text.removeprefix("-").isdigit()
