"""The base of gapkit's immutable records."""

from operator import attrgetter


class Record:
    """Immutable record whose fields are its ``__slots__``, in the order of
    the ``__init__`` parameters, which sets them with ``_init`` (a record
    built in an inner loop, with faster ``object.__setattr__`` calls).
    Equality and hashing use the tuple of the fields that neither start
    with "_" nor appear in ``_uncompared``; repr shows those without "_"."""

    __slots__ = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._shown = tuple(n for n in cls.__slots__ if n[0] != "_")
        cls._key = attrgetter(*(n for n in cls._shown if n not in cls._uncompared))
        # each slot's own setter, which Record.__setattr__ does not guard
        cls._setters = tuple(getattr(cls, n).__set__ for n in cls.__slots__)

    def _init(self, *values):
        for set_, value in zip(self._setters, values):
            set_(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._shown)
