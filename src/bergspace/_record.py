"""Read-only slots records: the package's values and reports.

A ``Record`` subclass names its fields, in order, in ``__slots__``.
``Record`` takes every one of them, positionally or by keyword, renders
them as ``Name(field=value, ...)``, and compares and hashes them field by
field. A record equals only a record of its own class, never a tuple.
Every slot is read-only once ``__init__`` has set it through
``set_field``; copies and pickles are rebuilt through ``__init__``, so a
subclass that writes its own ``__init__`` keeps taking the fields in slot
order, or writes its own ``__reduce__``.
"""

from __future__ import annotations

set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            set_field(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__} missing field {name!r}")
            set_field(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unexpected or repeated {sorted(kwargs)}")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which takes the fields in slot order
        return self.__class__, self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"
