"""The bases of awarekit's value classes: formula nodes, models and reports.

Each value class writes its own constructor. The standard library's record
decorator would import `inspect`, `ast`, `dis` and `tokenize` and compile each
class's methods through `exec`, a cost every cold CLI process pays again when
no bytecode is cached. A subclass names its compared fields in `_fields`,
which give its `repr` and, unless it writes its own, its `__eq__` and
`__hash__`. The classes on hot paths (formula nodes, world copies, events,
awareness sets) write `__eq__` and `__hash__` out field by field.
"""


class Value:
    """Equal to an instance of the same class whose `_fields` are equal,
    unhashable, and shown as `Class(field=value, ...)`."""

    __slots__ = ()
    _fields = ()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)


class Frozen(Value):
    """A Value whose attributes cannot be assigned or deleted, hashed by its
    fields. Constructors set them through `object.__setattr__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())
