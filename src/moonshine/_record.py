"""The base of the package's immutable value records.

A record subclasses :class:`Record` and names its fields in ``__slots__``.
``Record.__init__(*fields)`` stores them in slot order and refuses a wrong
count with ``TypeError``; a record that checks its arguments has its own
``__init__`` that ends with the base's.  A ``dict`` field is held as a
read-only ``types.MappingProxyType`` over a copy, printed, pickled and
copied as its dict.  The base then behaves as ``@dataclass(frozen=True)``
would: ``==`` and ``hash`` compare the tuple of fields of two records of
the same class, the repr is ``Name(field=value, ...)``, assignment and
deletion raise ``AttributeError``, and pickle and copy rebuild a record
through its ``__init__``.  Nothing is generated when a class is created.
The ``dataclasses`` helpers (``fields``, ``replace``, ``is_dataclass``) do
not apply.

The ``sl2z`` matrices and points and ``LaurentSeries._set`` store their
fields with :func:`setfield` directly, since the reduction and the series
kernels build one per step and the base's loop costs about twice as much.

Every value class is a record, the two series included, except ``groups.Perm``,
whose own ``==`` and cached hash are the group core's hot path.
"""

from operator import attrgetter, eq
from types import MappingProxyType

# Stores a field past the record's refusing __setattr__; one direct call per
# field is the cheapest way to fill slots.
setfield = object.__setattr__


def compare(op):
    """A rich comparison that applies ``op`` to the field tuples of two
    records of the same class, as a dataclass does."""
    def method(self, other):
        if other.__class__ is self.__class__:
            return op(self._key(self), self._key(other))
        return NotImplemented
    return method


def _plain(value):
    """A field as the constructor takes it: a mapping view as its dict."""
    return dict(value) if type(value) is MappingProxyType else value


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        # The fields as a tuple, read at C speed; one field needs the wrap,
        # since attrgetter of one name returns the bare value.
        get = attrgetter(*cls.__slots__)
        cls._key = staticmethod(get if len(cls.__slots__) > 1 else lambda r: (get(r),))

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(self.__slots__)} "
                            f"fields, not {len(fields)}")
        for name, value in zip(self.__slots__, fields):
            if isinstance(value, dict):
                value = MappingProxyType(dict(value))
            setfield(self, name, value)

    __eq__ = compare(eq)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={_plain(value)!r}"
                           for name, value in zip(self.__slots__, self._key(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(map(_plain, self._key(self)))
