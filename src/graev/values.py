"""The immutable base of the library's value classes.

A value class names its fields in ``_fields`` and keeps them in
``__slots__``.  Its own ``__init__`` checks the arguments and stores each
field with ``object.__setattr__``; after that every assignment or deletion
raises ``AttributeError``.  Two values are equal when they are of exactly
the same class with equal fields, so a value never equals the tuple of its
fields.  The hash is that of the field tuple, and the repr is
``Name(field=value, ...)``, as a frozen dataclass would print it.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return type(self), self._astuple()  # copy and pickle rebuild through __init__

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")
