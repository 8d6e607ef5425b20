"""Classical level-one modular objects as exact q-expansions.

Everything is expressed through the constant-term-1 Eisenstein series E4 and
E6, which keeps all arithmetic in integers and rationals: the discriminant is
(E4^3 - E6^2)/1728 and the modular invariant is J = E4^3 / Delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

from .qseries import LaurentSeries


class DomainError(ValueError):
    """An argument is outside the operation's domain."""


@dataclass(frozen=True)
class ModularFormExpansion:
    """A labelled q-expansion of a modular form or function."""

    label: str
    weight: int
    series: LaurentSeries


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n) = sum of d^k over divisors d of n."""
    if n < 1:
        raise DomainError("sigma is only defined for n >= 1")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
    return total


# Filled on demand by the standard recurrence; reads and idempotent inserts
# are safe under the GIL, so concurrent use needs no extra locking.
_BERNOULLI: dict[int, Fraction] = {0: Fraction(1)}


def _bernoulli_raw(n: int) -> Fraction:
    for m in range(len(_BERNOULLI), n + 1):
        total = sum(comb(m + 1, k) * _BERNOULLI[k] for k in range(m))
        _BERNOULLI[m] = Fraction(-total, m + 1)
    return _BERNOULLI[n]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n for even n >= 2 (B_2 = 1/6, B_4 = -1/30)."""
    if n < 2 or n % 2:
        raise DomainError("bernoulli expects an even index >= 2")
    return _bernoulli_raw(n)


def eisenstein_normalized(weight: int, order: int) -> ModularFormExpansion:
    """E_w = 1 - (2w/B_w) * sum sigma_{w-1}(n) q^n, truncated at ``order``.

    The coefficients are integers for w in {4, 6, 8, 10, 14} and rationals in
    general.
    """
    if weight < 4 or weight % 2:
        raise DomainError("Eisenstein weight must be an even integer >= 4")
    if order < 1:
        raise DomainError("order must be >= 1")
    scale = Fraction(-2 * weight) / bernoulli(weight)
    coeffs = [1] + [scale * sigma(weight - 1, n) for n in range(1, order)]
    return ModularFormExpansion(f"E{weight}", weight, LaurentSeries(coeffs))


def _delta(e4_cubed: LaurentSeries, order: int) -> LaurentSeries:
    """(E4^3 - E6^2)/1728 from a precomputed E4^3 on the same window."""
    e6 = eisenstein_normalized(6, order).series
    return (e4_cubed - e6**2) / 1728


def discriminant(order: int) -> ModularFormExpansion:
    """The cusp form Delta = (E4^3 - E6^2)/1728 = q - 24q^2 + ..., to ``order``."""
    if order < 2:
        raise DomainError("order must be >= 2")
    e4 = eisenstein_normalized(4, order).series
    return ModularFormExpansion("Delta", 12, _delta(e4**3, order))


def _euler_terms(order: int) -> list[tuple[int, int]]:
    """Nonzero terms (n, f_n), n >= 1, of prod_{n>=1} (1 - q^n) below q^order.

    By Euler's pentagonal theorem they sit at k(3k-1)/2 and k(3k+1)/2 with
    sign (-1)^k, k = 1, 2, ...; the list comes out sorted by exponent.
    """
    terms = []
    k = 1
    while k * (3 * k - 1) // 2 < order:
        sign = -1 if k % 2 else 1
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e < order:
                terms.append((e, sign))
        k += 1
    return terms


def eta_product_delta(order: int) -> LaurentSeries:
    """Independent route to Delta: q * prod_{n>=1} (1 - q^n)^24, to ``order``.

    The 24th power of Euler's sparse pentagonal series comes from J.C.P.
    Miller's recurrence n*p_n = sum_k (25k - n) f_k p_(n-k), so this route
    shares no multiplication code with :func:`discriminant`.
    """
    if order < 2:
        raise DomainError("order must be >= 2")
    f = _euler_terms(order - 1)
    p = [1]
    for n in range(1, order - 1):
        acc = 0
        for k, fk in f:
            if k > n:
                break
            acc += (25 * k - n) * fk * p[n - k]
        pn, rem = divmod(acc, n)
        if rem:
            raise ArithmeticError(f"power recurrence left remainder {rem} at n = {n}")
        p.append(pn)
    return LaurentSeries(p, 1)


def j_expansion(order: int) -> ModularFormExpansion:
    """The modular invariant J = E4^3 / Delta = q^-1 + 744 + 196884q + ...

    The returned series has valuation -1 and is determined through exponent
    ``order - 1`` (truncation ``order``).  E4^3 is computed once and serves
    both as the numerator and inside Delta.
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    base = order + 2
    e4_cubed = eisenstein_normalized(4, base).series ** 3
    unit = _delta(e4_cubed, base).shift(-1)
    return ModularFormExpansion("J", 0, (e4_cubed * unit.inverse()).shift(-1))


def j_normalized(order: int) -> ModularFormExpansion:
    """J with the constant term removed: q^-1 + 196884q + 21493760q^2 + ..."""
    return ModularFormExpansion("Jtilde", 0, j_expansion(order).series - 744)


def weight_space_basis(weight: int, order: int) -> list[ModularFormExpansion]:
    """q-expansions of all monomials E4^a E6^b with 4a + 6b = weight.

    The number of monomials equals the dimension of the weight space; weight 0
    yields the single empty monomial (the constant series 1).
    """
    if weight < 0 or weight % 2:
        raise DomainError("weight must be an even integer >= 0")
    if order < 1:
        raise DomainError("order must be >= 1")
    solutions = []
    for b in range(weight // 6 + 1):
        rem = weight - 6 * b
        if rem % 4 == 0:
            solutions.append((rem // 4, b))
    solutions.sort(key=lambda ab: -ab[0])
    if not solutions:
        return []
    e4 = eisenstein_normalized(4, order).series if any(a for a, _ in solutions) else None
    e6 = eisenstein_normalized(6, order).series if any(b for _, b in solutions) else None
    out = []
    for a, b in solutions:
        series = LaurentSeries.one(order)
        label_parts = []
        if a:
            series = series * (e4**a)
            label_parts.append("E4" if a == 1 else f"E4^{a}")
        if b:
            series = series * (e6**b)
            label_parts.append("E6" if b == 1 else f"E6^{b}")
        out.append(ModularFormExpansion("*".join(label_parts) or "1", weight, series))
    return out
