"""The base of the package's immutable value records.

A record subclasses :class:`Record`, names its fields in ``__slots__`` and
writes its own ``__init__``, which validates its arguments and stores each
field once with :func:`setfield`.  The base then behaves as
``@dataclass(frozen=True)`` would: ``==`` and ``hash`` compare the tuple of
fields of two records of the same class, the repr is
``Name(field=value, ...)``, assignment and deletion raise ``AttributeError``,
and pickle and copy rebuild a record through its ``__init__``.  Nothing is
generated when a class is created, so importing a module that defines
records costs no more than its class statements.  The ``dataclasses``
helpers (``fields``, ``replace``, ``is_dataclass``) do not apply.

Every value class is a record, the two series included, except ``groups.Perm``,
whose own ``==`` and cached hash are the group core's hot path.
"""

from operator import attrgetter, eq

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


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        # The fields as a tuple, read at C speed; one field needs the wrap,
        # since attrgetter of one name returns the bare value.
        get = attrgetter(*cls.__slots__)
        cls._key = staticmethod(get if len(cls.__slots__) > 1 else lambda r: (get(r),))

    __eq__ = compare(eq)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._key(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key(self)
