"""Frozen records: the one base of the package's value classes.

A record lists its fields, in order, in the class-level tuple ``_fields``,
and its own ``__init__`` validates its arguments and stores them with
``vars(self).update``.  The base compares, hashes and shows a record by
those fields: equal when of the same class with equal field tuples,
``Name(field=value, ...)`` as its repr, and no assignment or deletion once
built.  Instances keep a ``__dict__``, so ``vars``, ``copy``, ``deepcopy``
and ``pickle`` work on them unchanged.

Records are plain classes on purpose: the standard library's record
decorator imports ``inspect`` and generates each class's methods by
``exec``, costs that every cold ``eag`` process would pay before any
mathematics runs.
"""


class Record:
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
