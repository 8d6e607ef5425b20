"""Eisenstein series, the discriminant and the modular invariant, each
against independent oracle routes; all values exact.

Oracles: Delta = (E4^3 - E6^2)/1728 from Eisenstein series, and J as
E4^3 * q^-1 * prod (1 - q^n)^-24 and as E4^3 * inverse(Delta / q)."""

import math
from fractions import Fraction

import pytest
import sympy

from moonshine import modular, qseries
from moonshine.modular import (
    DomainError,
    bernoulli,
    discriminant,
    eisenstein_normalized,
    j_expansion,
    j_normalized,
    weight_space_basis,
)
from moonshine.qseries import LaurentSeries, coeff_denominator


def _divisor_sum(k, n):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def test_sigma_against_divisor_enumeration():
    for k in (1, 3, 5, 9):
        assert modular._sigma_sieve(k, 60) == [0] + [_divisor_sum(k, n) for n in range(1, 60)]


def test_sigma_matches_sieve():
    # sigma_k is multiplicative, with sigma_k(p^e) = 1 + p^k + ... + p^(ek)
    for k in (1, 3, 5, 11, 23):
        sums = modular._sigma_sieve(k, 400)
        for n in range(1, 400):
            expected, m, p = 1, n, 2
            while m > 1:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                expected *= sum(p ** (i * k) for i in range(e + 1))
                p += 1
            assert sums[n] == expected, (k, n)
        assert sums[0] == 0
    assert modular._sigma_sieve(3, 1) == [0]


def test_bernoulli_examples():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_against_sympy():
    for n in range(2, 31, 2):
        expected = sympy.Rational(sympy.bernoulli(n))
        assert bernoulli(n) == Fraction(int(expected.p), int(expected.q))


def test_bernoulli_domain():
    for bad in (0, -2, 3, 7):
        with pytest.raises(DomainError):
            bernoulli(bad)


def test_eisenstein_e4_head():
    e4 = eisenstein_normalized(4, 3).series
    assert e4.coefficient_list() == [1, 240, 2160]


def test_eisenstein_e6_head():
    e6 = eisenstein_normalized(6, 2).series
    assert e6.coefficient_list() == [1, -504]


def test_eisenstein_constant_term_one():
    for weight in (4, 6, 8, 10, 12, 14, 16):
        assert eisenstein_normalized(weight, 2).series.coefficient(0) == 1


def test_eisenstein_integrality_pattern():
    # integral coefficients exactly for the weights where M_k is 1-dimensional
    for weight in (4, 6, 8, 10, 14):
        s = eisenstein_normalized(weight, 12).series
        assert all(coeff_denominator(c) == 1 for c in s.coeffs), weight
    e12 = eisenstein_normalized(12, 3).series
    assert coeff_denominator(e12.coefficient(1)) == 691


def test_eisenstein_domain():
    with pytest.raises(DomainError):
        eisenstein_normalized(2, 5)
    with pytest.raises(DomainError):
        eisenstein_normalized(5, 5)


def test_discriminant_head():
    d = discriminant(4).series
    assert d.valuation == 1
    assert d.coefficient(1) == 1
    assert d.coefficient(2) == -24
    assert d.coefficient(3) == 252


def _delta_eisenstein(order):
    """Oracle: Delta = (E4^3 - E6^2)/1728, with an exact-division check."""
    e4 = modular.eisenstein_normalized(4, order).series
    e6 = modular.eisenstein_normalized(6, order).series
    diff = e4**3 - e6**2
    coeffs = []
    for c in diff.coeffs:
        d, rem = divmod(c, 1728)
        if rem:
            raise ArithmeticError(f"E4^3 - E6^2 has coefficient {c}, not divisible by 1728")
        coeffs.append(d)
    return LaurentSeries(coeffs, diff.valuation, diff.trunc)


def _j_e4_cubed(order):
    """Oracle: J = E4^3 * q^-1 * prod (1 - q^n)^-24, to ``order``."""
    width = order + 1
    e4_cubed = eisenstein_normalized(4, width).series ** 3
    return (e4_cubed * LaurentSeries(modular._eta_power(-24, width))).shift(-1)


def test_eta_product_head():
    assert modular._eta_power(24, 3) == [1, -24, 252]
    e = _delta_eisenstein(4)
    assert [e.coefficient(n) for n in (1, 2, 3)] == [1, -24, 252]


def test_discriminant_equals_eta_product():
    # q times the dense Euler product to the 24th power: no Miller recurrence
    order = 120
    euler = [1] + [0] * (order - 2)
    for n in range(1, order - 1):
        for j in range(order - 2, n - 1, -1):
            euler[j] -= euler[j - n]
    assert discriminant(order).series == (LaurentSeries(euler) ** 24).shift(1)


def test_euler_terms_match_dense_product():
    # the pentagonal terms against prod (1 - q^n) multiplied out term by term
    order = 200
    dense = [1] + [0] * (order - 1)
    for n in range(1, order):
        for j in range(order - 1, n - 1, -1):
            dense[j] -= dense[j - n]
    sparse = [0] * order
    sparse[0] = 1
    for e, c in modular._euler_terms(order):
        sparse[e] = c
    assert sparse == dense


def test_eta_product_small_orders():
    for order in range(2, 40):
        assert discriminant(order).series == _delta_eisenstein(order)


def _tau_failures(tau):
    """Where the list ``tau`` (tau[n] for 1 <= n < len(tau)) breaks each of
    three facts about Ramanujan's tau, as three lists of n:

    - Hecke: tau(mn) = tau(m) tau(n) for coprime m, n, and
      tau(p^(k+1)) = tau(p) tau(p^k) - p^11 tau(p^(k-1)), at each composite n;
    - Ramanujan: tau(n) = sigma_11(n) mod 691, at each n, with the divisor
      sums taken here;
    - Deligne: tau(p)^2 <= 4 p^11, at each prime p.
    """
    limit = len(tau)
    least = list(range(limit))  # least prime factor
    for p in range(2, math.isqrt(limit - 1) + 1):
        if least[p] == p:
            for m in range(p * p, limit, p):
                least[m] = min(least[m], p)
    hecke, deligne = [], []
    for n in range(2, limit):
        p = least[n]
        if p == n:
            if tau[p] ** 2 > 4 * p**11:
                deligne.append(n)
            continue
        rest, power = n, 1
        while rest % p == 0:
            rest, power = rest // p, power * p
        if rest > 1:
            expected = tau[power] * tau[rest]
        else:
            expected = tau[p] * tau[n // p] - p**11 * tau[n // (p * p)]
        if tau[n] != expected:
            hecke.append(n)
    sigma = [0] * limit  # sigma_11(n) mod 691
    for d in range(1, limit):
        dk = pow(d, 11, 691)
        for m in range(d, limit, d):
            sigma[m] += dk
    ramanujan = [n for n in range(1, limit) if (tau[n] - sigma[n]) % 691]
    return hecke, ramanujan, deligne


def test_discriminant_at_the_series_limit():
    # Delta to SERIES_ORDER_LIMIT against facts independent of its route
    delta = discriminant(modular.SERIES_ORDER_LIMIT).series
    assert delta.valuation == 1 and delta.trunc == modular.SERIES_ORDER_LIMIT
    tau = [0, *delta.coeffs]
    assert len(tau) == modular.SERIES_ORDER_LIMIT
    assert tau[:7] == [0, 1, -24, 252, -1472, 4830, -6048]
    assert _tau_failures(tau) == ([], [], [])
    # Negative control: tau(6) off by one breaks tau(6) = tau(2) tau(3) and
    # the congruence at 6 (every other n splits off its least prime power).
    bent = tau.copy()
    bent[6] += 1
    assert _tau_failures(bent) == ([6], [6], [])
    # and tau(13) just past Deligne's bound is caught there
    bent = tau.copy()
    bent[13] = math.isqrt(4 * 13**11) + 1
    assert _tau_failures(bent)[2] == [13]


def test_j_expansion_one_product_no_eisenstein(monkeypatch):
    real = qseries._product
    calls = []

    def counting(a, b, width):
        calls.append(width)
        return real(a, b, width)

    def refuse(*args):
        raise AssertionError("J builds a series it does not need")

    monkeypatch.setattr(qseries, "_product", counting)
    monkeypatch.setattr(modular, "eisenstein_normalized", refuse)
    monkeypatch.setattr(LaurentSeries, "__pow__", refuse)
    for order in (0, 30, 300):
        calls.clear()
        j_expansion(order)
        assert calls == [order + 1]  # (691 E12) * P once, at full width


def _j_by_inverse(order):
    """Oracle: E4^3 * inverse(Delta / q), with Delta from Eisenstein series."""
    base = order + 2
    e4_cubed = eisenstein_normalized(4, base).series ** 3
    unit = _delta_eisenstein(base).shift(-1)
    return (e4_cubed * unit.inverse()).shift(-1)


def test_j_expansion_matches_inverse_oracle():
    for order in list(range(61)) + [300]:
        j = j_expansion(order).series
        oracle = _j_by_inverse(order)
        assert j == oracle, order
        assert (j.valuation, j.trunc) == (-1, order)
        assert all(type(c) is int for c in j.coeffs), order


def test_j_expansion_matches_e4_cubed_oracle():
    for order in list(range(61)) + [300, 2001]:
        j = j_expansion(order).series
        assert j == _j_e4_cubed(order), order
        assert all(type(c) is int for c in j.coeffs), order


def test_j_691_division_is_exact(monkeypatch):
    # a sieve bent at sigma_11(5) makes 691 q J indivisible at q^5, J's q^4
    real = modular._sigma_sieve

    def bent(k, order):
        sums = real(k, order)
        if order > 5:
            sums[5] += 1
        return sums

    oracle = _j_e4_cubed(4)
    monkeypatch.setattr(modular, "_sigma_sieve", bent)
    assert j_expansion(4).series == oracle
    with pytest.raises(ArithmeticError, match="691 .* at q\\^4$"):
        j_expansion(5)


def test_j_times_discriminant_is_e4_cubed():
    # E4^3 is on neither production route: J comes from E12, Delta from eta
    order = 300
    product = j_expansion(order).series * discriminant(order).series
    e4_cubed = eisenstein_normalized(4, order).series ** 3
    assert product.trunc == order - 1
    assert product == e4_cubed.truncate(order - 1)


def _partition_numbers(count):
    p = [1] + [0] * (count - 1)
    for part in range(1, count):
        for n in range(part, count):
            p[n] += p[n - part]
    return p


def test_eta_power_exponents():
    # exponent -1 gives the partition numbers, +24 the Eisenstein Delta / q,
    # and the -24th and 24th powers are inverse to each other
    assert modular._eta_power(-1, 80) == _partition_numbers(80)
    assert modular._eta_power(1, 1) == [1]
    assert modular._eta_power(24, 99) == list(_delta_eisenstein(100).coeffs)
    plus = LaurentSeries(modular._eta_power(24, 200))
    minus = LaurentSeries(modular._eta_power(-24, 200))
    assert plus * minus == LaurentSeries.one(200)


def test_eta_power_remainder_check():
    # a half-integer power has non-integral coefficients (the q-coefficient
    # of prod (1 - q^n)^(1/2) is -1/2), so an exact division must fail
    with pytest.raises(ArithmeticError, match="remainder"):
        modular._eta_power(Fraction(1, 2), 3)


def test_discriminant_division_is_exact(monkeypatch):
    # the Eisenstein oracle refuses a remainder mod 1728
    real = modular.eisenstein_normalized

    def bent(weight, order):
        form = real(weight, order)
        if weight != 6:
            return form
        coeffs = list(form.series.coeffs)
        coeffs[-1] += 1
        return modular.ModularFormExpansion(form.label, weight, LaurentSeries(coeffs))

    monkeypatch.setattr(modular, "eisenstein_normalized", bent)
    with pytest.raises(ArithmeticError, match="1728"):
        _delta_eisenstein(10)


def test_eisenstein_matches_fraction_scale():
    # the integer scale for weights 4..14 and the Fraction one above agree
    # with 1 - (2w/B_w) sum sigma_(w-1)(n) q^n taken entirely in Fractions
    for weight in range(4, 27, 2):
        s = eisenstein_normalized(weight, 40).series
        scale = Fraction(-2 * weight) / bernoulli(weight)
        expected = [1] + [scale * _divisor_sum(weight - 1, n) for n in range(1, 40)]
        assert s.coefficient_list() == expected
        assert all(type(c) is int or c.denominator > 1 for c in s.coeffs)


def test_j_head_values():
    j = j_expansion(6).series
    assert j.valuation == -1
    assert [j.coefficient(n) for n in range(-1, 5)] == [
        1, 744, 196884, 21493760, 864299970, 20245856256]


def test_j_normalized():
    jn = j_normalized(4).series
    assert jn.coefficient(0) == 0
    assert jn.coefficient(-1) == 1
    assert jn.coefficient(2) == 21493760
    assert jn + 744 == j_expansion(4).series


def test_j_integrality():
    j = j_expansion(60).series
    assert all(coeff_denominator(c) == 1 for c in j.coeffs)


def test_j_truncation_consistency():
    wide = j_expansion(40).series
    for order in (0, 1, 7, 25):
        assert wide.truncate(order) == j_expansion(order).series


def test_weight_space_examples():
    assert [f.label for f in weight_space_basis(0, 4)] == ["1"]
    twelve = weight_space_basis(12, 4)
    assert len(twelve) == 2
    assert {f.label for f in twelve} == {"E4^3", "E6^2"}
    fourteen = weight_space_basis(14, 4)
    assert len(fourteen) == 1
    assert fourteen[0].label == "E4^2*E6"
    assert weight_space_basis(2, 4) == []


def _rank(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    rank, col = 0, 0
    width = len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_weight_space_monomials_independent():
    for weight in range(0, 26, 2):
        basis = weight_space_basis(weight, max(weight, 8))
        if not basis:
            continue
        count = len(basis)
        rows = [[f.series.coefficient(n) for n in range(count)] for f in basis]
        assert _rank(rows) == count, weight
