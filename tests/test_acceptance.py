"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by; every comparison is exact and every stated runtime bound is asserted.
"""

import random
import time
from fractions import Fraction

from moonshine.groups import (
    alternating_group,
    class_fn_inner,
    class_indicator,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)
from moonshine.modular import discriminant, eisenstein_normalized, j_expansion
from moonshine.monster import (
    CheckStatus,
    CoeffTable,
    IrrepDims,
    knz_verify,
    mckay_identity_check,
    monster_order,
)
from moonshine.qseries import LaurentSeries, coeff_denominator
from moonshine.sl2z import (
    IDENTITY,
    S,
    T,
    UpperHalfPoint,
    evaluate_word,
    in_fundamental_domain,
    moebius,
    reduce_to_fundamental,
    t_power,
    word_decompose,
)

# Externally sourced configuration (OEIS A001379 continuation); not shipped
# with the package, supplied here to exercise the configured-tail path.
R6 = 19360062527
R7 = 293553734298


def _report(number, name):
    print(f"criterion {number:02d} ({name}): PASS")


def test_criterion_01_j_expansion_head():
    start = time.monotonic()
    j = j_expansion(10).series
    elapsed = time.monotonic() - start
    expected = [1, 744, 196884, 21493760, 864299970, 20245856256]
    assert [j.coefficient(n) for n in range(-1, 5)] == expected
    assert elapsed < 1.0, f"order-10 expansion took {elapsed:.3f}s"
    _report(1, "J-expansion head, exact")


def test_criterion_02_performance_envelope():
    start = time.monotonic()
    j = j_expansion(1000).series
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"order-1000 expansion took {elapsed:.1f}s"
    assert j.valuation == -1 and j.trunc == 1000
    assert all(coeff_denominator(c) == 1 for c in j.coeffs)
    _report(2, f"order-1000 expansion in {elapsed:.2f}s, all integers")


def test_criterion_03_discriminant_oracle():
    # the eta product in src/ against the Eisenstein route (E4^3 - E6^2)/1728
    order = 500
    eta_route = discriminant(order).series
    e4 = eisenstein_normalized(4, order).series
    e6 = eisenstein_normalized(6, order).series
    diff = e4**3 - e6**2
    assert all(c % 1728 == 0 for c in diff.coeffs)
    eis_route = LaurentSeries([c // 1728 for c in diff.coeffs], diff.valuation, diff.trunc)
    assert eta_route == eis_route
    assert eta_route.coefficient(1) == 1
    _report(3, "discriminant equals (E4^3 - E6^2)/1728 through order 500")


def test_criterion_04_mckay_thompson_identities():
    coeffs = CoeffTable.from_resource()
    dims = IrrepDims.from_resource()
    partial = {r.label: r.status for r in mckay_identity_check(coeffs, dims)}
    assert partial["c(2)"] is CheckStatus.PASS
    assert partial["c(3)"] is CheckStatus.PASS
    assert partial["c(4)"] is CheckStatus.PASS
    assert partial["c(5)"] is CheckStatus.NOT_CONFIGURED
    assert partial["c(6)"] is CheckStatus.NOT_CONFIGURED
    full = mckay_identity_check(coeffs, dims.extended(R6, R7))
    assert all(r.status is CheckStatus.PASS for r in full)
    _report(4, "decomposition identities: c(2)..c(4) embedded, c(5)/c(6) configured")


def test_criterion_05_knz_truncated_identity():
    for order in range(1, 6):
        assert knz_verify(order).equal, f"order {order}"
    start = time.monotonic()
    assert knz_verify(6).equal
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"order-6 verification took {elapsed:.1f}s"
    assert not knz_verify(2, unnormalized_c0=True).equal
    _report(5, f"two-variable identity exact for N=1..6 ({elapsed:.2f}s at N=6)")


def test_criterion_06_fundamental_domain_suite():
    rng = random.Random(20260809)
    bound = 10**6
    for _ in range(1000):
        tau = UpperHalfPoint(
            Fraction(rng.randint(-bound, bound), rng.randint(1, bound)),
            Fraction(rng.randint(1, bound), rng.randint(1, bound)),
        )
        star, m, word = reduce_to_fundamental(tau)
        assert in_fundamental_domain(star)
        assert moebius(m, tau) == star
    half = Fraction(1, 2)
    for _ in range(100):
        x = Fraction(rng.randint(-499, 499), 1000)
        y = Fraction(rng.randint(1001, 3000), 1000)
        assert -half < x < half and x * x + y * y > 1
        tau = UpperHalfPoint(x, y)
        star, m, _ = reduce_to_fundamental(tau)
        assert star == tau and m == IDENTITY
    _report(6, "1000 random points reduce exactly; interior reduction idempotent")


def test_criterion_07_modular_group_relations():
    assert (S * S).is_identity
    st = S * T
    assert (st * st * st).is_identity
    rng = random.Random(404)
    for _ in range(500):
        m = IDENTITY
        for _ in range(rng.randint(0, 12)):
            m = m * (S if rng.random() < 0.5 else t_power(rng.choice([-2, -1, 1, 2])))
        assert evaluate_word(word_decompose(m)) == m
    _report(7, "S^2 = (ST)^3 = 1; 500 word round-trips")


def test_criterion_08_jordan_holder_suite():
    start = time.monotonic()
    assert [d.order for d in cyclic_group(12).jordan_holder_factors()] == [2, 2, 3]
    for p in (3, 5, 7):
        assert (dihedral_group(p).jordan_holder_factors()
                == cyclic_group(2 * p).jordan_holder_factors())
    assert alternating_group(5).is_simple()
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        assert cyclic_group(p).is_simple()
    assert [d.order for d in symmetric_group(4).jordan_holder_factors()] == [2, 2, 2, 3]

    families = [cyclic_group(n) for n in range(1, 201)]
    families += [dihedral_group(n) for n in range(3, 101)]
    families += [g for g in (alternating_group(n) for n in range(1, 7)) if g.order <= 200]
    families += [g for g in (symmetric_group(n) for n in range(1, 7)) if g.order <= 200]
    total_series = 0
    for g in families:
        chains = g.all_composition_series()
        multisets = {g.factor_descriptors(chain) for chain in chains}
        assert len(multisets) == 1, g.name
        total_series += len(chains)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    _report(8, f"{len(families)} groups, {total_series} series, one multiset each "
               f"({elapsed:.1f}s)")


def test_criterion_09_monster_facts():
    order = monster_order()
    assert order == 808017424794512875886459904961710757005754368000000000
    assert len(str(order)) == 54
    _report(9, "monster order reproduced, 54 digits")


def test_criterion_10_property_suites():
    rng = random.Random(1)

    def rand_series(allow_fraction=True):
        width = rng.randint(1, 7)
        coeffs = []
        for _ in range(width):
            c = rng.randint(-9, 9)
            if allow_fraction and rng.random() < 0.25:
                c = Fraction(c, rng.randint(1, 5))
            coeffs.append(c)
        return LaurentSeries(coeffs, rng.randint(-3, 3))

    def agree(a, b):
        t = min(a.trunc, b.trunc)
        return a.truncate(t) == b.truncate(t)

    for _ in range(200):  # ring laws
        a, b, c = rand_series(), rand_series(), rand_series()
        assert a + b == b + a
        assert a * b == b * a
        assert agree((a + b) + c, a + (b + c))
        assert (a * b) * c == a * (b * c)
        assert agree(a * (b + c), a * b + a * c)

    for _ in range(200):  # truncation monotonicity
        coeffs = [rng.randint(-9, 9) for _ in range(9)]
        coeffs[0] = rng.choice([1, -1, 2])
        lo, hi = LaurentSeries(coeffs[:5]), LaurentSeries(coeffs)
        e = rng.randint(1, 3)
        narrow = (lo**e + lo.inverse()) * lo
        wide = (hi**e + hi.inverse()) * hi
        assert wide.truncate(narrow.trunc) == narrow

    groups = [cyclic_group(n) for n in range(1, 140)]
    groups += [dihedral_group(n) for n in range(3, 70)]
    groups += [alternating_group(n) for n in range(3, 6)]
    groups += [symmetric_group(n) for n in range(2, 6)]
    assert len(groups) >= 200
    for g in groups:  # class equation
        classes = g.conjugacy_classes()
        assert sum(c.size for c in classes) == g.order
        assert all(g.order % c.size == 0 for c in classes)
        singleton = next(c for c in classes if g.identity in c.members)
        assert singleton.size == 1

    pool = [symmetric_group(4), alternating_group(5), dihedral_group(7),
            cyclic_group(12), dihedral_group(6), symmetric_group(5)]
    for _ in range(200):  # orthogonality of class indicator functions
        g = rng.choice(pool)
        k = len(g.conjugacy_classes())
        i, j = rng.randrange(k), rng.randrange(k)
        inner = class_fn_inner(class_indicator(g, i), class_indicator(g, j), g)
        if i == j:
            assert inner == Fraction(g.conjugacy_classes()[i].size, g.order)
        else:
            assert inner == 0
    _report(10, "ring laws, truncation monotonicity, class equation, orthogonality")
