"""A base class for the package's immutable records.

It gives them what ``@dataclass(frozen=True)`` would, without importing
``dataclasses`` (and through it ``inspect``) or generating code per class,
which a command-line child would pay for on every start.
"""

_set = object.__setattr__


class Record:
    """An immutable record whose fields are its class's ``__slots__``.

    It is built from every field, by position or keyword, and then
    ``__post_init__`` checks it.  Two records are equal when they are of the
    same class and their fields are equal; ``hash``, ``repr`` and the
    ``AttributeError`` on assignment are those of a frozen dataclass, and
    ``pickle`` and ``copy`` rebuild a record from its fields.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes at most {len(fields)} arguments")
        for name, value in zip(fields, args):
            _set(self, name, value)
        for name in fields[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            _set(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got unexpected arguments {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
