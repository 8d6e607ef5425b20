"""Laurent-series substrate: arithmetic examples, window semantics, and the
randomized ring-law suites (exact comparisons only)."""

import random
from fractions import Fraction

import pytest

from moonshine import MoonshineError, qseries
from moonshine.groups import ClassFunction, class_fn_inner, symmetric_group, trivial_character
from moonshine.monster import DataFormatError, IrrepDims, knz_verify
from moonshine.qseries import (
    BiLaurentSeries,
    LaurentSeries,
    RectangleMismatch,
    UnknownCoefficient,
    ZeroLeadingCoefficient,
    coeff_denominator,
)


def series(coeffs, valuation=0, trunc=None):
    return LaurentSeries(coeffs, valuation, trunc)


def test_coefficient_window_semantics():
    s = series([1, 2, 3], valuation=-1)  # q^-1 + 2 + 3q, trunc 2
    assert s.coefficient(-1) == 1
    assert s.coefficient(0) == 2
    assert s.coefficient(-5) == 0
    with pytest.raises(UnknownCoefficient):
        s.coefficient(2)
    with pytest.raises(UnknownCoefficient):
        s.coefficient(100)


def test_zero_series_sentinel():
    z = LaurentSeries.zero(4)
    assert z.is_zero
    assert z.coeffs == ()
    assert z.trunc == 4
    assert z.coefficient(3) == 0
    with pytest.raises(UnknownCoefficient):
        z.coefficient(4)
    # canonicalization: an all-zero window collapses to the sentinel
    assert series([0, 0, 0], valuation=2) == LaurentSeries.zero(5)


def test_canonical_leading_coefficient():
    s = series([0, 0, 5, 0], valuation=-2)
    assert s.valuation == 0
    assert s.coeffs == (5, 0)
    assert s.trunc == 2


def test_add_disjoint_supports():
    a = series([1, 744], valuation=-1)
    b = series([0, 0, 196884], valuation=-1)
    total = a + b
    assert total.coefficient(-1) == 1
    assert total.coefficient(0) == 744
    # the narrower window wins
    assert total.trunc == 1


def test_add_additive_inverse():
    a = series([3, -1, 2], valuation=-1)
    z = a + (-a)
    assert z.is_zero
    assert z.trunc == a.trunc


def test_add_truncation_min_rule():
    a = series([1, 1, 0, 0, 0])            # 1 + q, trunc 5
    b = series([1, 0, 1])                  # 1 + q^2, trunc 3
    s = a + b
    assert s == series([2, 1, 1])
    assert s.trunc == 3


def test_mul_geometric_series():
    one_minus_q = series([1, -1] + [0] * 6)
    geo = series([1] * 8)
    prod = one_minus_q * geo
    assert prod.valuation == 0
    assert prod.coefficient(0) == 1
    assert all(prod.coefficient(k) == 0 for k in range(1, prod.trunc))


def test_mul_valuation_addition():
    qinv = LaurentSeries.monomial(-1)
    q = LaurentSeries.monomial(1)
    assert (qinv * q).coefficient(0) == 1


def test_mul_binomial():
    s = series([1, 1, 0])
    assert (s * s).coefficient_list() == [1, 2, 1]


def test_mul_window_rule():
    a = series([1, 1], valuation=2)    # q^2 + q^3, trunc 4
    b = series([1, 5, 7], valuation=-1)  # trunc 2
    prod = a * b
    assert prod.valuation == 1
    assert prod.trunc == min(a.trunc + b.valuation, b.trunc + a.valuation)


def _long_division_inverse(a):
    """Oracle: divide 1 by the unit part of ``a`` with explicit long division."""
    width = a.trunc - a.valuation
    u = [a.coefficient(a.valuation + i) for i in range(width)]
    remainder = [Fraction(1)] + [Fraction(0)] * (width - 1)
    quotient = []
    for _ in range(width):
        q = remainder[0] / u[0]
        quotient.append(q)
        remainder = [remainder[i] - q * u[i] for i in range(len(remainder))]
        remainder.pop(0)
        u.pop()
    return LaurentSeries(quotient, -a.valuation)


def _schoolbook_mul(a, b):
    """Oracle: the plain double loop over both coefficient windows."""
    av, bv = a.valuation, b.valuation
    trunc = min(a.trunc + bv, b.trunc + av)
    if a.is_zero or b.is_zero:
        return LaurentSeries.zero(trunc)
    width = trunc - av - bv
    out = [0] * width
    for i, ai in enumerate(a.coeffs[:width]):
        for j, bj in enumerate(b.coeffs[: width - i]):
            out[i + j] += ai * bj
    return LaurentSeries(out, av + bv, trunc)


def _edge_coefficient(rng, max_bits):
    """A signed coefficient, often sitting on a byte boundary of its size."""
    k = rng.randint(1, max(1, max_bits // 8))
    magnitude = rng.choice([
        0, 1, rng.getrandbits(rng.randint(1, max_bits)),
        2 ** (8 * k - 1), 2 ** (8 * k) - 1, 2 ** (8 * k), 2 ** (8 * k - 1) - 1,
    ])
    return rng.choice([1, -1]) * magnitude


def _wide_series(rng, width, max_bits, fractions=False):
    coeffs = [_edge_coefficient(rng, max_bits) for _ in range(width)]
    coeffs[0] = coeffs[0] or 1
    if fractions:
        # pairwise coprime denominators, so the common one is their product
        dens = [1, 2, 3, 5, 7, 691, 2**61 - 1]
        coeffs = [Fraction(c, rng.choice(dens)) for c in coeffs]
    return LaurentSeries(coeffs, rng.randint(-5, 5))


def test_mul_matches_schoolbook_across_crossover():
    # every width from 1 to 55, with coefficients up to about 2000 bits
    rng = random.Random(20261018)
    for wa in range(1, 56):
        wb = rng.randint(1, 56)
        bits = rng.choice([8, 64, 300, 2000])
        a, b = _wide_series(rng, wa, bits), _wide_series(rng, wb, bits)
        prod = a * b
        assert prod == _schoolbook_mul(a, b)
        assert all(type(c) is int for c in prod.coeffs)


def test_mul_matches_schoolbook_wide_windows():
    rng = random.Random(7)
    for width, bits in [(64, 2000), (97, 40), (128, 800), (200, 16), (256, 2000),
                        (300, 120)]:
        a = _wide_series(rng, width, bits)
        b = _wide_series(rng, rng.randint(24, width), bits)
        assert a * b == _schoolbook_mul(a, b)
        assert b * a == _schoolbook_mul(a, b)


def test_mul_worst_case_digits():
    # every product digit at its largest magnitude: the packed digit width
    # must still hold it whatever the operand bit lengths are modulo 8
    for n in (24, 127):
        for bits_a in range(1, 18):
            for bits_b in (bits_a, bits_a + 3):
                top_a, top_b = 2**bits_a - 1, 2**bits_b - 1
                for sign in (1, -1):
                    a = LaurentSeries([top_a] * n)
                    b = LaurentSeries([sign * top_b] * n, -2)
                    assert a * b == _schoolbook_mul(a, b)
                alternating = LaurentSeries([(-1) ** i * 2**bits_a for i in range(n)])
                assert alternating * b == _schoolbook_mul(alternating, b)
    for top in (2**2000 - 1, 2**1999, -(2**2000)):
        a = LaurentSeries([top] * 64)
        assert a * a == _schoolbook_mul(a, a)


def test_mul_fraction_coefficients():
    rng = random.Random(3)
    for width in (5, 23, 24, 60, 150):
        a = _wide_series(rng, width, 200, fractions=True)
        b = _wide_series(rng, width + rng.randint(-3, 3), 200, fractions=True)
        prod = a * b
        assert prod == _schoolbook_mul(a, b)
        # integral coefficients come back as ints, like every other route
        assert all(type(c) is int or c.denominator > 1 for c in prod.coeffs)
        mixed = LaurentSeries([Fraction(1, 3)] + [3] * (width - 1), -1)
        assert mixed * a == _schoolbook_mul(mixed, a)


def test_mul_zero_operands_and_valuations():
    rng = random.Random(1)
    for width in (1, 24, 80):
        a = _wide_series(rng, width, 100)
        z = LaurentSeries.zero(rng.randint(-4, 90))
        assert a * z == _schoolbook_mul(a, z)
        assert z * a == _schoolbook_mul(z, a)
        shifted = a.shift(rng.randint(-9, 9))
        b = LaurentSeries([0, 0] + [rng.randint(-9, 9) for _ in range(width)], 3)
        assert shifted * b == _schoolbook_mul(shifted, b)


def test_product_kernel_short_and_long_windows():
    # below len(a) + len(b) - 1 the product is cut; above it the tail is zero
    rng = random.Random(11)
    for la, lb in [(1, 1), (3, 40), (30, 30), (70, 45)]:
        a = [_edge_coefficient(rng, 500) for _ in range(la)]
        b = [_edge_coefficient(rng, 500) for _ in range(lb)]
        full = [0] * (la + lb - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                full[i + j] += ai * bj
        for width in (1, min(la, lb), la + lb - 2, la + lb - 1, la + lb + 5):
            if width < 1:
                continue
            expect = (full + [0] * width)[:width]
            assert qseries._product(a, b, width) == expect
            assert qseries._product(tuple(b), tuple(a), width) == expect
            # unnormalized Fractions with denominator 1 pack like ints
            assert qseries._product([Fraction(c) for c in a], b, width) == expect


def test_every_width_packs_both_operands(monkeypatch):
    # one kernel at every width: even a one- or two-term product is packed
    packed, pack = [], qseries._pack
    monkeypatch.setattr(qseries, "_pack", lambda c, nb: packed.append(list(c)) or pack(c, nb))
    assert LaurentSeries([3]) * LaurentSeries([-5]) == LaurentSeries([-15])
    assert packed == [[3], [-5]]
    packed.clear()
    prod = LaurentSeries([1, 2]) * LaurentSeries([Fraction(1, 2), 3])
    assert prod == LaurentSeries([Fraction(1, 2), 4])
    assert packed == [[1, 2], [1, 6]]


def test_product_returns_integral_fractions_as_ints():
    # (1/2 + q/3 + ...) * (2 + 3q + ...): the constant term is the int 1 at
    # every width
    for width in (2, 23, 24, 72):
        a = LaurentSeries([Fraction(1, 2), Fraction(1, 3)] + [Fraction(1, 6)] * (width - 2))
        b = LaurentSeries([2, 3] + [6 * (i % 5 - 2) for i in range(width - 2)])
        for prod in (a * b, b * a):
            assert prod == _schoolbook_mul(a, b)
            assert type(prod.coeffs[0]) is int and prod.coeffs[0] == 1
            assert all(type(c) is int or c.denominator > 1 for c in prod.coeffs)
        # Fractions whose products cancel to whole numbers throughout
        thirds = LaurentSeries([Fraction(3, 2)] + [Fraction(k, 3) for k in range(1, width)])
        sixes = LaurentSeries([6] * width, -1)
        prod = thirds * sixes
        assert prod == _schoolbook_mul(thirds, sixes)
        assert all(type(c) is int for c in prod.coeffs)


def test_invert_geometric():
    inv = series([1, -1, 0, 0, 0, 0]).inverse()
    assert inv.coefficient_list() == [1, 1, 1, 1, 1, 1]


def test_invert_monomial():
    assert LaurentSeries.monomial(1).inverse() == LaurentSeries.monomial(-1)


def test_invert_discriminant_head_against_long_division():
    # head of q * prod(1-q^n)^24; the inverse must match classical 1/Delta
    delta = series([1, -24, 252, -1472, 4830], valuation=1)
    inv = delta.inverse()
    assert inv == _long_division_inverse(delta)
    assert inv.valuation == -1
    assert inv.coefficient(-1) == 1
    assert inv.coefficient(0) == 24
    assert inv.coefficient(1) == 324
    assert (delta * inv) == LaurentSeries.one((delta * inv).trunc)


def test_inverse_matches_long_division():
    rng = random.Random(20261018)
    leads = [1, -1, 2, 691, Fraction(3, 7), Fraction(-5, 2)]
    widths = [1, 2, 3, 7, 23, 24, 49, 100]
    for lead in leads:
        for width in widths:
            coeffs = [lead] + [rng.randint(-10**6, 10**6) for _ in range(width - 1)]
            a = LaurentSeries(coeffs, rng.randint(-3, 3))
            inv = a.inverse()
            assert inv == _long_division_inverse(a)
            if lead in (1, -1):
                assert all(type(c) is int for c in inv.coeffs)
            prod = a * inv
            assert prod == LaurentSeries.one(prod.trunc)


def test_inverse_fraction_coefficients():
    rng = random.Random(5)
    for width in (5, 40, 90):
        a = _wide_series(rng, width, 60, fractions=True)
        assert a.inverse() == _long_division_inverse(a)
    # a round trip through a Fraction series comes back exactly
    p = LaurentSeries([1, Fraction(1, 2)] + [0] * 50)
    assert p.inverse().inverse() == p


def test_invert_zero_raises():
    with pytest.raises(ZeroLeadingCoefficient):
        LaurentSeries.zero(5).inverse()


def test_pow_examples():
    s = series([1, 1, 0, 0])
    assert (s**3).coefficient_list() == [1, 3, 3, 1]
    assert s**0 == LaurentSeries.one(4)
    inv_sq = series([1, -1, 0, 0, 0]) ** -2
    assert inv_sq.coefficient_list() == [1, 2, 3, 4, 5]


def test_pow_negative_propagates_inversion_error():
    with pytest.raises(ZeroLeadingCoefficient):
        LaurentSeries.zero(3) ** -1


def test_scalar_arithmetic():
    s = series([1, 2, 3])
    assert (s - 1).coefficient(0) == 0
    assert (s - 1).valuation == 1
    assert (s + 0) == s
    assert (s * 2).coefficient_list() == [2, 4, 6]
    assert (s / 2).coefficient(1) == 1
    assert coeff_denominator((s / 2).coefficient(0)) == 2
    # adding a constant beyond the known window is a no-op
    t = series([1], valuation=-1)  # window [-1, 0)
    assert (t + 744) == t


def test_scalar_add_matches_constant_series():
    # the scalar route edits the q^0 slot; the series route adds 1 + 0q + ...
    rng = random.Random(12)
    for _ in range(500):
        s = _random_series(rng, allow_fraction=True)
        if rng.random() < 0.2:
            s = LaurentSeries.zero(rng.randint(-3, 5))
        c = rng.choice([0, 1, -7, Fraction(1, 2), Fraction(-2, 3), Fraction(6, 3)])
        const = LaurentSeries.constant(c, max(s.trunc, 1))
        for got, want in ((s + c, s + const), (c + s, s + const),
                          (s - c, s + (-const)), (c - s, const + (-s))):
            assert got == want
            assert [type(x) for x in got.coeffs] == [type(x) for x in want.coeffs]
    for bad in (True, 1.5):
        with pytest.raises(TypeError):
            series([1, 2]) + bad
        with pytest.raises(TypeError):
            series([1, 2]) - bad


def _random_series(rng, allow_fraction=False):
    width = rng.randint(1, 7)
    val = rng.randint(-3, 3)
    coeffs = []
    for _ in range(width):
        c = rng.randint(-9, 9)
        if allow_fraction and rng.random() < 0.3:
            c = Fraction(c, rng.randint(1, 5))
        coeffs.append(c)
    return LaurentSeries(coeffs, val)


def _agree(a, b):
    """Exact equality on the jointly determined window."""
    t = min(a.trunc, b.trunc)
    return a.truncate(t) == b.truncate(t)


def test_ring_laws_randomized():
    rng = random.Random(20260809)
    for _ in range(200):
        a = _random_series(rng, allow_fraction=True)
        b = _random_series(rng, allow_fraction=True)
        c = _random_series(rng, allow_fraction=True)
        assert a + b == b + a
        assert a * b == b * a
        assert _agree((a + b) + c, a + (b + c))
        assert (a * b) * c == a * (b * c)
        assert _agree(a * (b + c), a * b + a * c)


def test_inverse_roundtrip_randomized():
    rng = random.Random(97)
    for _ in range(200):
        a = _random_series(rng, allow_fraction=True)
        while a.is_zero:
            a = _random_series(rng, allow_fraction=True)
        prod = a * a.inverse()
        assert prod == LaurentSeries.one(prod.trunc)
        assert prod.trunc == a.trunc - a.valuation


def test_truncation_monotonicity_randomized():
    # recomputing a pipeline with wider windows and restricting must agree
    rng = random.Random(5)
    for _ in range(200):
        coeffs = [rng.randint(-9, 9) for _ in range(8)]
        coeffs[0] = rng.choice([1, -1, 2, 3])
        lo = LaurentSeries(coeffs[:5])
        hi = LaurentSeries(coeffs)
        e = rng.randint(1, 3)
        narrow = (lo**e + lo.inverse()) * lo
        wide = (hi**e + hi.inverse()) * hi
        assert wide.truncate(narrow.trunc) == narrow


def test_integer_closure_randomized():
    rng = random.Random(11)
    for _ in range(200):
        a = _random_series(rng)
        b = _random_series(rng)
        out = (a + b) * a - b * b + a**3
        assert all(isinstance(c, int) for c in out.coeffs)


# -- two-variable series -------------------------------------------------------


def test_bls_mul_examples():
    rect = (0, 2, -2, 0)
    a = BiLaurentSeries({(0, 0): 1, (1, -1): -1}, rect)
    b = BiLaurentSeries({(0, 0): 1, (1, -1): 1}, rect)
    assert a * b == BiLaurentSeries({(0, 0): 1, (2, -2): -1}, rect)

    rect2 = (-1, 1, -1, 1)
    x = BiLaurentSeries({(-1, 0): 1, (0, -1): -1}, rect2)
    pq = BiLaurentSeries({(1, 1): 1}, rect2)
    assert x * pq == BiLaurentSeries({(0, 1): 1, (1, 0): -1}, rect2)

    one = BiLaurentSeries({(0, 0): 1}, rect2)
    assert x * one == x


def _all_pairs_bimul(a, b):
    """Oracle: every pair of terms, keeping the products inside the rectangle."""
    pmin, pmax, qmin, qmax = a.rect
    out = {}
    for (m1, n1), c1 in a.terms.items():
        for (m2, n2), c2 in b.terms.items():
            m, n = m1 + m2, n1 + n2
            if pmin <= m <= pmax and qmin <= n <= qmax:
                out[(m, n)] = out.get((m, n), 0) + c1 * c2
    return BiLaurentSeries(out, a.rect)


def _random_bls(rng, rect, count, fractions):
    pmin, pmax, qmin, qmax = rect
    terms = {}
    for _ in range(count):
        c = rng.randint(-9, 9)
        if fractions and rng.random() < 0.5:
            c = Fraction(c, rng.choice([2, 3, 4, 6]))
        terms[(rng.randint(pmin, pmax), rng.randint(qmin, qmax))] = c
    return BiLaurentSeries(terms, rect)


def _canonical_terms(s):
    return all(c != 0 and (type(c) is int or c.denominator > 1) for c in s.terms.values())


def test_bls_mul_matches_all_pairs():
    rng = random.Random(5)
    for trial in range(300):
        pmin, qmin = rng.randint(-6, 2), rng.randint(-6, 2)
        rect = (pmin, pmin + rng.randint(0, 8), qmin, qmin + rng.randint(0, 8))
        fractions = trial % 2 == 1
        a = _random_bls(rng, rect, rng.randint(0, 25), fractions)
        b = _random_bls(rng, rect, rng.randint(0, 25), fractions)
        for x, y in ((a, b), (b, a)):
            prod = x * y
            assert prod == _all_pairs_bimul(x, y), (rect, x, y)
            assert _canonical_terms(prod)


def test_bls_mul_cancellation():
    rect = (-2, 3, -2, 3)
    # (1/2 + p/3) * (2 - 4p/3): the p-terms cancel, the constant is the int 1
    a = BiLaurentSeries({(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 3)}, rect)
    b = BiLaurentSeries({(0, 0): 2, (1, 0): Fraction(-4, 3)}, rect)
    for prod in (a * b, b * a):
        assert prod.terms == {(0, 0): 1, (2, 0): Fraction(-4, 9)}
        assert type(prod.terms[(0, 0)]) is int
    # (1 - p q^-1) * (1 + p q^-1) = 1 - p^2 q^-2: the middle terms sum to zero
    c = BiLaurentSeries({(0, 0): 1, (1, -1): -1}, rect)
    d = BiLaurentSeries({(0, 0): 1, (1, -1): 1}, rect)
    assert (c * d).terms == {(0, 0): 1, (2, -2): -1}
    # partners past the rectangle in p and in q on both sides are never kept
    e = BiLaurentSeries({(-2, 3): 5, (3, -2): 7, (0, 0): 1}, rect)
    assert e * e == _all_pairs_bimul(e, e)
    assert (e * e).terms == {(-2, 3): 10, (3, -2): 14, (0, 0): 1, (1, 1): 70}


def test_bls_rectangle_mismatch():
    a = BiLaurentSeries({(0, 0): 1}, (0, 1, 0, 1))
    b = BiLaurentSeries({(0, 0): 1}, (0, 2, 0, 1))
    with pytest.raises(RectangleMismatch):
        a * b


def test_bls_coefficient():
    rect = (0, 2, 0, 2)
    f = BiLaurentSeries({(1, 1): 4}, rect)
    assert f.coefficient(1, 1) == 4
    assert f.coefficient(0, 0) == 0
    with pytest.raises(UnknownCoefficient):
        f.coefficient(3, 0)


def test_bls_terms_are_read_only():
    s = BiLaurentSeries({(0, 0): 1}, (0, 1, 0, 1))
    with pytest.raises(TypeError):
        s.terms[(0, 1)] = Fraction(1, 2)
    r = knz_verify(2)
    with pytest.raises(TypeError):
        r.lhs.terms[(0, 0)] = 1.5
    with pytest.raises(TypeError):
        del (s * s).terms[(0, 0)]
    assert r.equal and r.lhs == r.rhs and s.terms == {(0, 0): 1}


def test_bls_rejects_out_of_rectangle_keys():
    with pytest.raises(ValueError):
        BiLaurentSeries({(5, 0): 1}, (0, 2, 0, 2))


def test_no_floats_anywhere():
    with pytest.raises(TypeError):
        LaurentSeries([1.5])
    with pytest.raises(TypeError):
        BiLaurentSeries({(0, 0): 0.5}, (0, 1, 0, 1))
    with pytest.raises(TypeError):
        LaurentSeries([1, 2]).shift(0.5)
    s3 = symmetric_group(3)
    for value in (0.1, True):
        with pytest.raises(TypeError):
            class_fn_inner(ClassFunction({0: value, 1: 1, 2: 1}), trivial_character(s3), s3)
    assert ClassFunction({0: Fraction(1, 2), 1: 1}).values == {0: Fraction(1, 2), 1: 1}
    with pytest.raises(DataFormatError, match=r"r_2"):
        IrrepDims((1, 2.5))


@pytest.mark.parametrize("call", [
    lambda: LaurentSeries([1, 2], 0.5),
    lambda: LaurentSeries([1, 2], 0, 2.0),
    lambda: LaurentSeries([1, 2], Fraction(0), 2),
    lambda: LaurentSeries([1, 2], True),
    lambda: LaurentSeries.zero(3.0),
    lambda: BiLaurentSeries({(0.5, 0): 1}, (0, 1, 0, 1)),
    lambda: BiLaurentSeries({(0, Fraction(1)): 1}, (0, 1, 0, 1)),
    lambda: BiLaurentSeries({(1.0, 0): 0}, (0, 1, 0, 1)),
    lambda: BiLaurentSeries({}, (0, 1.5, 0, 1)),
    lambda: BiLaurentSeries({(0, 0): 1}, (0, 1, False, 1)),
], ids=["float-valuation", "float-trunc", "fraction-valuation", "bool-valuation",
        "float-zero", "float-exponent", "fraction-exponent",
        "float-exponent-of-zero-term", "float-bound", "bool-bound"])
def test_series_exponents_must_be_integers(call):
    with pytest.raises(TypeError, match="must be integers"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: LaurentSeries.monomial(1.0), "integers, not 1.0 and 2.0"),
    (lambda: LaurentSeries.monomial(2, 1, 4.0), "integers, not 2 and 4.0"),
    (lambda: LaurentSeries.monomial(0, 1, Fraction(3)), "integers, not 0 and Fraction"),
    (lambda: LaurentSeries.constant(5, 2.0), "integers, not 0 and 2.0"),
    (lambda: LaurentSeries([1, 2]).shift(True), "shifts must be integers"),
    (lambda: LaurentSeries([1, 2]) ** True, "powers must be integers"),
    (lambda: LaurentSeries([1, 2, 3]).truncate(True), "integers, not 0 and True"),
    (lambda: LaurentSeries([1, 2, 3]).truncate(1.5), "integers, not 0 and 1.5"),
    (lambda: LaurentSeries([1, 2, 3]).truncate(3.0), "integers, not 0 and 3.0"),
], ids=["float-monomial", "float-monomial-trunc", "fraction-monomial-trunc",
        "float-constant-trunc", "bool-shift", "bool-power", "bool-truncate",
        "float-truncate", "whole-float-truncate"])
def test_series_builders_and_moves_name_a_non_int_exponent(call, message):
    # Refused with the constructor's message before a coefficient list is
    # built, and a bool is refused as the constructors refuse it.
    with pytest.raises(TypeError, match=message):
        call()


@pytest.mark.parametrize("call", [
    lambda: LaurentSeries([1, 2], 0, 5),
    lambda: LaurentSeries([1, 2]) / 0,
    lambda: LaurentSeries([1, 2]).truncate(3),
    lambda: BiLaurentSeries({}, (1, 0, 0, 2)),
    lambda: BiLaurentSeries({(5, 0): 1}, (0, 2, 0, 2)),
], ids=["window", "divide-by-zero", "extend-window", "empty-rectangle", "outside-rectangle"])
def test_refused_arguments_raise_domain_error(call):
    # A refused argument is a MoonshineError that is still a ValueError.
    with pytest.raises(MoonshineError) as info:
        call()
    assert isinstance(info.value, ValueError)
