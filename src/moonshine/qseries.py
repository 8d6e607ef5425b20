"""Exact truncated Laurent series arithmetic.

One-variable series are dense (a coefficient tuple over a contiguous
exponent window), two-variable series are sparse maps truncated to a
rectangle of exponents.  Coefficients are plain ints or
:class:`fractions.Fraction` values; nothing in this module ever touches
floating point.

One-variable products go through one kernel, :func:`_product`: exact
Kronecker substitution at every width, which packs each operand into a
single integer so that CPython's Karatsuba multiplies the whole series at
once.  The kernel returns normalized coefficients (integral Fractions as
ints), so products skip the constructor's validation.

Two-variable products sort the shorter operand by p-exponent and, for each
term of the other, stop at the first partner whose product leaves the
rectangle in p; the q-bounds are tested per pair.  Zero sums are dropped,
integral Fractions are stored as ints, and the result is not re-validated.

Both series are records (see :mod:`moonshine._record`), and the terms of a
two-variable series are a read-only mapping view.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from types import MappingProxyType

from ._errors import DomainError, MoonshineError
from ._record import Record, setfield


class ZeroLeadingCoefficient(MoonshineError, ArithmeticError):
    """The series is zero through its truncation order and cannot be inverted."""


class UnknownCoefficient(MoonshineError, LookupError):
    """A coefficient at or past the truncation order was queried."""


class RectangleMismatch(MoonshineError, ValueError):
    """Two-variable operands live on different truncation rectangles."""


def _norm(c):
    # Integral Fractions collapse to ints so integer pipelines stay on the
    # fast native path.  Floats are rejected outright.
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    raise TypeError(f"exact coefficient expected, got {type(c).__name__}")


def _check_exponents(valuation, trunc):
    if type(valuation) is not int or type(trunc) is not int:
        raise TypeError(f"series exponents must be integers, not {valuation!r} and {trunc!r}")


def coeff_denominator(c) -> int:
    """Denominator of an exact coefficient (1 for plain ints)."""
    return c.denominator if isinstance(c, Fraction) else 1


def _product(a, b, width):
    """The first ``width`` coefficients of the product of two coefficient lists.

    Kronecker substitution: denominators are cleared with their lcm, each
    operand is packed into one integer whose base-2^(8*nb) digits are its
    coefficients, the two integers are multiplied once, and the product's
    digits are read back.  Every step is exact.
    """
    a, b = a[:width], b[:width]
    a, da = _integral(a)
    b, db = _integral(b)
    # |product digit| <= min(len) * max|a| * max|b| < 2^(8*nb - 1)
    bits = (max(map(int.bit_length, a)) + max(map(int.bit_length, b))
            + min(len(a), len(b)).bit_length() + 1)
    nb = (bits + 7) // 8
    out = _unpack(_pack(a, nb) * _pack(b, nb), width, nb)
    d = da * db
    if d != 1:
        out = [_norm(Fraction(c, d)) for c in out]
    return out


def _integral(coeffs):
    """Integer coefficients and the common denominator they were scaled by.

    Any non-int entry is rebuilt, whole Fractions included: the packing step
    needs plain ints.
    """
    if all(type(c) is int for c in coeffs):
        return coeffs, 1
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _pack(coeffs, nb):
    """Sum of c_i * 2^(8*nb*i): the positive and negative parts go in separately."""
    zero = bytes(nb)
    pos = b"".join(c.to_bytes(nb, "little") if c > 0 else zero for c in coeffs)
    neg = b"".join((-c).to_bytes(nb, "little") if c < 0 else zero for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(value, count, nb):
    """The low ``count`` signed base-2^(8*nb) digits of ``value``.

    Adding 2^(8*nb - 1) to each of those digits makes every one of them
    nonnegative without a carry, so once the higher digits are masked off
    they can be read off the bytes.
    """
    half = 1 << (8 * nb - 1)
    size = nb * count
    value += int.from_bytes((bytes(nb - 1) + b"\x80") * count, "little")
    raw = (value & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    return [int.from_bytes(raw[i:i + nb], "little") - half for i in range(0, size, nb)]


class LaurentSeries(Record):
    """A Laurent series known exactly on the exponent window [valuation, trunc).

    ``trunc`` is the exponent of the first *unknown* term.  Querying a
    coefficient at or past it raises :class:`UnknownCoefficient` instead of
    returning zero, so a window that is too short for a computation fails
    loudly rather than silently dropping precision.

    The zero series is the sentinel with an empty coefficient tuple and a
    recorded ``trunc`` (its ``valuation`` equals ``trunc`` by convention).
    Instances are immutable records; every operation returns a new series.
    """

    __slots__ = ("coeffs", "valuation", "trunc")

    def __init__(self, coeffs, valuation=0, trunc=None):
        coeffs = [_norm(c) for c in coeffs]
        if trunc is None:
            trunc = valuation + len(coeffs)
        _check_exponents(valuation, trunc)
        if trunc != valuation + len(coeffs):
            raise DomainError("coefficients must cover the window [valuation, trunc)")
        self._set(coeffs, valuation, trunc)

    def _set(self, coeffs, valuation, trunc):
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        setfield(self, "coeffs", tuple(coeffs[lead:]))
        setfield(self, "valuation", valuation + lead if self.coeffs else trunc)
        setfield(self, "trunc", trunc)

    @classmethod
    def _make(cls, coeffs, valuation, trunc):
        """A series from normalized coefficients covering [valuation, trunc), unchecked."""
        s = cls.__new__(cls)
        s._set(coeffs, valuation, trunc)
        return s

    @classmethod
    def zero(cls, trunc):
        return cls((), trunc, trunc)

    @classmethod
    def constant(cls, value, trunc):
        _check_exponents(0, trunc)
        if trunc <= 0:
            return cls.zero(trunc)
        return cls([value] + [0] * (trunc - 1), 0, trunc)

    @classmethod
    def one(cls, trunc):
        return cls.constant(1, trunc)

    @classmethod
    def monomial(cls, exponent, coeff=1, trunc=None):
        if trunc is None:
            trunc = exponent + 1
        _check_exponents(exponent, trunc)
        if trunc <= exponent:
            return cls.zero(trunc)
        return cls([coeff] + [0] * (trunc - exponent - 1), exponent, trunc)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, e):
        """Coefficient of q^e; exact zero below the valuation, error at/past trunc."""
        if e >= self.trunc:
            raise UnknownCoefficient(f"exponent {e} is at or past truncation {self.trunc}")
        if e < self.valuation:
            return 0
        return self.coeffs[e - self.valuation]

    __getitem__ = coefficient

    def coefficient_list(self):
        """Known coefficients as a list over [valuation, trunc)."""
        return list(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            # A scalar changes only the q^0 slot, which a window ending at or
            # below q^0 does not hold.
            other = _norm(other)
            if self.trunc <= 0:
                return self
            val = min(self.valuation, 0)
            out = [0] * (self.valuation - val) + list(self.coeffs)
            out[-val] += other
            return LaurentSeries(out, val, self.trunc)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        val = min(self.valuation, other.valuation, trunc)
        out = []
        for e in range(val, trunc):
            a = self.coeffs[e - self.valuation] if self.valuation <= e < self.trunc and self.coeffs else 0
            b = other.coeffs[e - other.valuation] if other.valuation <= e < other.trunc and other.coeffs else 0
            out.append(a + b)
        return LaurentSeries(out, val, trunc)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries._make([-c for c in self.coeffs], self.valuation, self.trunc)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + -_norm(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return LaurentSeries.zero(self.trunc)
            return LaurentSeries([c * other for c in self.coeffs], self.valuation, self.trunc)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        av = self.valuation  # equals trunc for the zero series: widest honest window
        bv = other.valuation
        trunc = min(self.trunc + bv, other.trunc + av)
        if self.is_zero or other.is_zero:
            return LaurentSeries.zero(trunc)
        val = av + bv
        return LaurentSeries._make(_product(self.coeffs, other.coeffs, trunc - val), val, trunc)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)) or scalar == 0:
            raise DomainError("can only divide a series by a nonzero exact scalar")
        return self * (Fraction(1) / Fraction(scalar))

    def inverse(self):
        """Multiplicative inverse on the widest window the input determines.

        Requires a nonzero leading coefficient (a unit times a power of q):
        the result has valuation -v and ``self * self.inverse()`` equals 1 on
        the whole determined window.
        """
        if self.is_zero:
            raise ZeroLeadingCoefficient("series is zero up to its truncation")
        width = self.trunc - self.valuation
        u = self.coeffs
        # u_0 g_k = -(u_1 g_(k-1) + ... + u_k g_0), solved term by term
        g = [_norm(Fraction(1) / Fraction(u[0]))]
        for k in range(1, width):
            g.append(_norm(-sum(u[i] * g[k - i] for i in range(1, k + 1)) * g[0]))
        return LaurentSeries._make(g, -self.valuation, self.trunc - 2 * self.valuation)

    def __pow__(self, e):
        if type(e) is not int:
            raise TypeError("series powers must be integers")
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return LaurentSeries.one(self.trunc - self.valuation)
        result = None
        base = self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    # -- window management ---------------------------------------------------

    def shift(self, k):
        """Multiply by q^k (shifts the whole window by k)."""
        if type(k) is not int:
            raise TypeError("series shifts must be integers")
        return LaurentSeries._make(self.coeffs, self.valuation + k, self.trunc + k)

    def truncate(self, new_trunc):
        """Restrict the known window to exponents below ``new_trunc``."""
        _check_exponents(self.valuation, new_trunc)
        if new_trunc > self.trunc:
            raise DomainError("cannot extend a series window by truncation")
        if new_trunc == self.trunc:
            return self
        if new_trunc <= self.valuation:
            return LaurentSeries.zero(new_trunc)
        return LaurentSeries._make(self.coeffs[: new_trunc - self.valuation], self.valuation, new_trunc)

    # -- display ---------------------------------------------------------------

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs[:6]):
            if c == 0:
                continue
            e = self.valuation + i
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*q")
            else:
                parts.append(f"{c}*q^{e}")
        if len(self.coeffs) > 6:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        return f"LaurentSeries({body} + O(q^{self.trunc}))"


class BiLaurentSeries(Record):
    """Sparse two-variable Laurent series on a rectangle of exponents.

    ``rect`` is ``(pmin, pmax, qmin, qmax)``; keys of ``terms`` are ``(m, n)``
    for the monomial p^m q^n.  Products falling outside the rectangle are
    never formed: the rectangle is the two-variable truncation window.
    ``terms`` is a read-only view, so a series cannot change once built.
    """

    __slots__ = ("terms", "rect")

    def __init__(self, terms, rect):
        pmin, pmax, qmin, qmax = rect
        if set(map(type, rect)) != {int}:
            raise TypeError(f"rectangle bounds must be integers, not {rect!r}")
        if pmin > pmax or qmin > qmax:
            raise DomainError("empty truncation rectangle")
        store = {}
        for (m, n), c in terms.items():
            if type(m) is not int or type(n) is not int:
                raise TypeError(f"series exponents must be integers, not ({m!r}, {n!r})")
            c = _norm(c)
            if c == 0:
                continue
            if not (pmin <= m <= pmax and qmin <= n <= qmax):
                raise DomainError(f"exponent ({m}, {n}) outside rectangle {rect}")
            store[(m, n)] = c
        setfield(self, "terms", MappingProxyType(store))
        setfield(self, "rect", (pmin, pmax, qmin, qmax))

    @classmethod
    def _make(cls, terms, rect):
        """A series viewing a new dict of nonzero normalized terms in ``rect``, unchecked."""
        s = cls.__new__(cls)
        setfield(s, "terms", MappingProxyType(terms))
        setfield(s, "rect", rect)
        return s

    def coefficient(self, m, n):
        pmin, pmax, qmin, qmax = self.rect
        if not (pmin <= m <= pmax and qmin <= n <= qmax):
            raise UnknownCoefficient(f"exponent ({m}, {n}) outside rectangle {self.rect}")
        return self.terms.get((m, n), 0)

    def __mul__(self, other):
        if not isinstance(other, BiLaurentSeries):
            return NotImplemented
        if other.rect != self.rect:
            raise RectangleMismatch(f"{self.rect} vs {other.rect}")
        pmin, pmax, qmin, qmax = self.rect
        outer, inner = self.terms, other.terms
        if len(inner) > len(outer):
            outer, inner = inner, outer
        # the shorter operand by ascending p-exponent: once a partner's
        # product passes pmax, every later partner's does too
        partners = sorted(inner.items())
        out = {}
        get = out.get
        for (m1, n1), c1 in outer.items():
            for (m2, n2), c2 in partners:
                m = m1 + m2
                if m > pmax:
                    break
                n = n1 + n2
                if qmin <= n <= qmax and pmin <= m:
                    key = (m, n)
                    out[key] = get(key, 0) + c1 * c2
        terms = {k: c if type(c) is int else _norm(c) for k, c in out.items() if c}
        return BiLaurentSeries._make(terms, self.rect)

    def __hash__(self):
        # Record's hash would hash the terms view, which is unhashable.
        return hash((self.rect, tuple(sorted(self.terms.items()))))

    def __reduce__(self):
        # A mappingproxy cannot be pickled; the constructor takes a dict.
        return self.__class__, (dict(self.terms), self.rect)

    def __repr__(self):
        items = sorted(self.terms.items())[:6]
        body = " + ".join(f"{c}*p^{m}*q^{n}" for (m, n), c in items) or "0"
        if len(self.terms) > 6:
            body += " + ..."
        return f"BiLaurentSeries({body} on {self.rect})"
