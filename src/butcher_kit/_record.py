"""Record: the frozen value type behind the package's small data classes.

A subclass lists its fields in _fields, in constructor order, and its
__init__ validates the arguments and stores them, and any attribute it
derives from them, with set_field, since assignment through the instance
is refused.  set_field is object.__setattr__, as in a frozen dataclass:
storing through self.__dict__ is faster to write, but on CPython 3.11 it
gives the instance a dict of its own, which is larger (168 against 105
bytes for three fields) and four times slower to read from.  Record gives
the subclass what a frozen dataclass would, without importing
dataclasses, whose import and the methods it generates with exec took
over a quarter of the time every CLI run spends importing the package:

  * == and hash over the field values in order, == only against an
    instance of the very same class;
  * the repr Name(field=value, ...);
  * assigning or deleting any attribute raises AttributeError;
  * pickling and copying through the constructor, so a copy is validated
    and derives its own attributes again, in whatever process loads it.
"""

from __future__ import annotations

set_field = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
