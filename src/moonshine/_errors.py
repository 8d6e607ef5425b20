"""The root of the package's exception hierarchy.

Every exception class in :mod:`moonshine` derives from :class:`MoonshineError`
and from the standard exception it stands for (``ValueError``,
``RuntimeError``, ...), so callers can catch either.  An exception that is not
a ``MoonshineError`` is a fault in the package, not a refused input.
"""


class MoonshineError(Exception):
    """A refused input, exhausted data or a passed budget."""
