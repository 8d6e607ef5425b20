"""The root of the package's exception hierarchy.

Every exception class in :mod:`moonshine` derives from :class:`MoonshineError`
and from the standard exception it stands for (``ValueError``,
``RuntimeError``, ...), so callers can catch either.  An exception that is not
a ``MoonshineError`` is a fault in the package, not a refused input.
``DomainError`` lives here, not in the modules that raise it, so that the
group and PSL2(Z) modules need import nothing from :mod:`moonshine.modular`.
"""


class MoonshineError(Exception):
    """A refused input, exhausted data or a passed budget."""


class DomainError(MoonshineError, ValueError):
    """An argument is outside the operation's domain."""
