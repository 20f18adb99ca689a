"""The immutable record the package's value types derive from, lighter to
import and to build than ``@dataclass(frozen=True)``."""

from operator import attrgetter


class Record:
    """Fields in ``__slots__``, written once by ``__init__`` with `_fill` and
    taken positionally in slot order.  ``==`` and ``hash`` compare the
    fields of records of one class, and assignment raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)
        # the slots' own setters, which bypass __setattr__
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def _fill(self, *values):
        """Write the fields, one value per slot in slot order."""
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = zip(self.__slots__, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, self._values(self)
