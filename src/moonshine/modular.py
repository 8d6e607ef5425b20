"""Classical level-one modular objects as exact q-expansions.

The constant-term-1 Eisenstein series E4, E6, ... keep all arithmetic in
integers and rationals.  The discriminant is Jacobi's product
Delta = q * prod (1 - q^n)^24 and takes no series product: both powers of
Euler's product come from one helper, :func:`_eta_power`, which runs
J.C.P. Miller's power recurrence on the sparse pentagonal series.  The
modular invariant J = E4^3 / Delta takes one series product: M_12 is
2-dimensional, so J = E12 / Delta + 432000/691, that is
691 q J = (691 E12) P + 432000 q with P = prod (1 - q^n)^-24 and
691 E12 = 691 + 65520 sum sigma_11(n) q^n.  The slower routes,
Delta = (E4^3 - E6^2)/1728 and J = E4^3 * q^-1 * P, are the oracles in the
tests.

Two budgets fail with :class:`BudgetExceeded` before anything is allocated:
``SERIES_ORDER_LIMIT`` bounds the coefficients that J, Delta or an
Eisenstein series computes, and ``EISENSTEIN_WEIGHT_LIMIT`` the weight of an
Eisenstein series, whose Bernoulli number costs O(w^2) Fraction sums.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from ._errors import DomainError, MoonshineError
from ._record import Record
from .qseries import LaurentSeries


class BudgetExceeded(MoonshineError, RuntimeError):
    """A request is past one of the module's work budgets."""


# Most coefficients one expansion may compute: J to order 16383, Delta and
# E_w to order 16384.  At the limit `j --order 16383` took 29-32 s and 78 MB
# peak RSS, `delta` 1.1-1.3 s and 20 MB, and `eisenstein --weight 256` 1.2 s
# and 70 MB (one CLI process each, 2-core Xeon VM, CPython 3.11.7).
SERIES_ORDER_LIMIT = 2 ** 14
# bernoulli(256) takes about 0.2 s from an empty cache; B_w costs O(w^2) Fraction sums.
EISENSTEIN_WEIGHT_LIMIT = 256


def _check_window(order: int, width: int) -> None:
    if width > SERIES_ORDER_LIMIT:
        raise BudgetExceeded(f"order {order} needs {width} coefficients; "
                             f"SERIES_ORDER_LIMIT is {SERIES_ORDER_LIMIT}")


class ModularFormExpansion(Record):
    """A labelled q-expansion of a modular form or function."""

    __slots__ = ("label", "weight", "series")


def _sigma_sieve(k: int, order: int) -> list[int]:
    """[0, sigma_k(1), ..., sigma_k(order - 1)]: each d^k is added to its
    multiples, O(order log order) additions in all."""
    sums = [0] * order
    for d in range(1, order):
        dk = d**k
        for n in range(d, order, d):
            sums[n] += dk
    return sums


# Filled on demand by the standard recurrence; reads and idempotent inserts
# are safe under the GIL, so concurrent use needs no extra locking.
_BERNOULLI: dict[int, Fraction] = {0: Fraction(1)}


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n for even n >= 2 (B_2 = 1/6, B_4 = -1/30)."""
    if n < 2 or n % 2:
        raise DomainError("bernoulli expects an even index >= 2")
    for m in range(len(_BERNOULLI), n + 1):
        total = sum(comb(m + 1, k) * _BERNOULLI[k] for k in range(m))
        _BERNOULLI[m] = Fraction(-total, m + 1)
    return _BERNOULLI[n]


def eisenstein_normalized(weight: int, order: int) -> ModularFormExpansion:
    """E_w = 1 - (2w/B_w) * sum sigma_{w-1}(n) q^n, truncated at ``order``.

    The coefficients are integers for w in {4, 6, 8, 10, 14} and rationals in
    general.  The divisor sums come from one sieve (:func:`_sigma_sieve`).
    """
    if weight < 4 or weight % 2:
        raise DomainError("Eisenstein weight must be an even integer >= 4")
    if order < 1:
        raise DomainError("order must be >= 1")
    if weight > EISENSTEIN_WEIGHT_LIMIT:
        raise BudgetExceeded(f"weight {weight} is past EISENSTEIN_WEIGHT_LIMIT = "
                             f"{EISENSTEIN_WEIGHT_LIMIT}")
    _check_window(order, order)
    scale = Fraction(-2 * weight) / bernoulli(weight)
    if scale.denominator == 1:
        scale = scale.numerator
    coeffs = [1] + [scale * s for s in _sigma_sieve(weight - 1, order)[1:]]
    return ModularFormExpansion(f"E{weight}", weight, LaurentSeries(coeffs))


def discriminant(order: int) -> ModularFormExpansion:
    """The cusp form Delta = q * prod_{n>=1} (1 - q^n)^24 = q - 24q^2 + ..., to
    ``order``.

    Jacobi's product needs no series product: its 24th power comes from
    Miller's recurrence (:func:`_eta_power`).
    """
    if order < 2:
        raise DomainError("order must be >= 2")
    _check_window(order, order)
    delta = LaurentSeries._make(_eta_power(24, order - 1), 1, order)
    return ModularFormExpansion("Delta", 12, delta)


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


def _eta_power(exponent: int, width: int) -> list[int]:
    """The first ``width`` >= 1 coefficients of prod_{n>=1} (1 - q^n)^exponent.

    J.C.P. Miller's recurrence for a power P = F^a of a series with f_0 = 1,
    n*p_n = sum_{k=1..n} ((a+1)k - n) f_k p_(n-k), runs over the sparse
    pentagonal terms f_k of F = prod (1 - q^n).  Each division by n is exact
    for an integer exponent; a remainder raises ``ArithmeticError``.
    """
    # each term carries (a+1) k f_k, which does not depend on n
    terms = [(k, (exponent + 1) * k * fk, fk) for k, fk in _euler_terms(width)]
    p = [1]
    for n in range(1, width):
        acc = 0
        for k, c, fk in terms:
            if k > n:
                break
            acc += (c - n * fk) * p[n - k]
        pn, rem = divmod(acc, n)
        if rem:
            raise ArithmeticError(f"power recurrence left remainder {rem} at n = {n}")
        p.append(pn)
    return p


def j_expansion(order: int) -> ModularFormExpansion:
    """The modular invariant J = E4^3 / Delta = q^-1 + 744 + 196884q + ...

    The returned series has valuation -1 and is determined through exponent
    ``order - 1`` (truncation ``order``).  M_12 is spanned by E4^3 and E6^2, so
    691 E12 = 441 E4^3 + 250 E6^2, and with E4^3 - E6^2 = 1728 Delta this gives
    J = E12 / Delta + 432000/691.  With P = prod (1 - q^n)^-24 from Miller's
    recurrence (:func:`_eta_power`) and S = sum sigma_11(n) q^n,

        691 q J = 691 P + 65520 S P + 432000 q,

    so J costs one series product, (691 E12) * P = (691 + 65520 S) * P, of two
    windows of ``order + 1`` coefficients.  The constant 691 keeps the window
    of 691 E12 starting at q^0, so the product runs at full width.  The
    division by 691 is exact; a remainder raises ``ArithmeticError``.
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    width = order + 1
    _check_window(order, width)
    eta = LaurentSeries._make(_eta_power(-24, width), 0, width)
    e12 = LaurentSeries._make(_sigma_sieve(11, width), 0, width) * 65520 + 691
    coeffs = []
    for n, c in enumerate((e12 * eta).coeffs):
        d, rem = divmod(c + (432000 if n == 1 else 0), 691)
        if rem:
            raise ArithmeticError(f"691 J leaves remainder {rem} mod 691 at q^{n - 1}")
        coeffs.append(d)
    return ModularFormExpansion("J", 0, LaurentSeries._make(coeffs, -1, order))


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
