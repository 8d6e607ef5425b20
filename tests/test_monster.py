"""Embedded datasets, the decomposition identities, bounded search, the
two-variable product identity, and the documented monster constants."""

import math
import random
from fractions import Fraction

import pytest

from moonshine import monster
from moonshine.monster import (
    MONSTER_FACTS,
    CheckStatus,
    CoeffTable,
    IrrepDims,
    InsufficientCoefficients,
    InsufficientData,
    KnzResult,
    SearchSpaceTooLarge,
    decompose_bounded,
    graded_dimension_check,
    knz_verify,
    mckay_identity_check,
    monster_order,
)
from moonshine.qseries import BiLaurentSeries

# Deeper irreducible dimensions are deliberately not shipped with the
# package; the two deepest checks treat them as externally sourced
# configuration.  Values below are the OEIS A001379 continuation.
R6 = 19360062527
R7 = 293553734298


@pytest.fixture(scope="module")
def coeffs():
    return CoeffTable.from_resource()


@pytest.fixture(scope="module")
def dims():
    return IrrepDims.from_resource()


@pytest.fixture(scope="module")
def j_table():
    # enough for knz_verify(24): c(n) through n = 25^2
    return CoeffTable.from_expansion(25 * 25 + 1)


def _binomial(m, n, e, rect):
    """(1 - p^m q^n)^e expanded inside the rectangle (m >= 1).

    The coefficient of x^j in (1 - x)^e is (-1)^j C(e, j) for e >= 0 and
    C(-e + j - 1, j) for e < 0.
    """
    pmin, pmax, qmin, qmax = rect
    terms = {}
    j = 0
    while j * m <= pmax and qmin <= j * n <= qmax:
        terms[(j * m, j * n)] = (-1) ** j * math.comb(e, j) if e >= 0 else math.comb(j - e - 1, j)
        j += 1
    return BiLaurentSeries(terms, rect)


def _knz_lhs_by_factors(order, coeffs):
    """Oracle: the left side multiplied out one binomial factor at a time."""
    work_rect = (0, order + 1, -1, order + 1)
    acc = _binomial(1, -1, coeffs.c(-1), work_rect)
    for m in range(1, order + 2):
        for n in range(0, order + 2):
            e = coeffs.c(m * n)
            if e:
                acc = acc * _binomial(m, n, e, work_rect)
    # times p^-1, and cut to q^order
    return BiLaurentSeries({(m - 1, n): v for (m, n), v in acc.terms.items() if n <= order},
                           (-1, order, -1, order))


def test_embedded_table_matches_computed_expansion(coeffs):
    computed = CoeffTable.from_expansion(coeffs.max_index + 1)
    assert coeffs.values == computed.values
    assert coeffs.provenance == "embedded"
    assert computed.provenance == "computed"


def test_coeff_table_minimal_window():
    tiny = CoeffTable.from_expansion(0)
    assert tiny.max_index == -1
    assert tiny.c(-1) == 1


def test_coeff_table_invariants(coeffs):
    assert coeffs.c(-1) == 1
    assert coeffs.c(0) == 0
    assert coeffs.c(-12) == 0
    with pytest.raises(InsufficientCoefficients):
        coeffs.c(coeffs.max_index + 1)
    with pytest.raises(ValueError):
        CoeffTable({-1: 2, 0: 0}, "bad")
    with pytest.raises(ValueError):
        CoeffTable({-1: 1, 0: 744}, "bad")
    with pytest.raises(ValueError):
        CoeffTable({-1: 1, 1: 5}, "gap")
    for value in (0.5, Fraction(1), Fraction(1, 2), True, "3"):
        with pytest.raises(ValueError, match=r"c\(3\)"):
            coeffs.with_value(3, value)
    with pytest.raises(monster.DataFormatError, match=r"c\(-1\)"):
        CoeffTable({}, "empty")


def test_irrep_dims_invariants(dims):
    assert dims.r(1) == 1
    assert dims.r(2) == 196883
    assert dims.count == 5
    assert list(dims.dims) == sorted(dims.dims)
    with pytest.raises(ValueError):
        IrrepDims((2, 3))
    with pytest.raises(ValueError):
        IrrepDims((1, 5, 5))
    with pytest.raises(monster.DataFormatError, match="no dimensions"):
        IrrepDims(())
    with pytest.raises(InsufficientData):
        dims.r(6)


def test_identity_checks_with_embedded_head(coeffs, dims):
    results = mckay_identity_check(coeffs, dims)
    assert [r.label for r in results] == ["c(2)", "c(3)", "c(4)", "c(5)", "c(6)"]
    statuses = {r.label: r.status for r in results}
    assert statuses["c(2)"] is CheckStatus.PASS
    assert statuses["c(3)"] is CheckStatus.PASS
    assert statuses["c(4)"] is CheckStatus.PASS
    assert statuses["c(5)"] is CheckStatus.NOT_CONFIGURED
    assert statuses["c(6)"] is CheckStatus.NOT_CONFIGURED
    # McKay's observation, spelled out
    first = results[0]
    assert first.coefficient == 196884
    assert first.decomposition.total == 196883 + 1


def test_identity_checks_with_configured_tail(coeffs, dims):
    full = dims.extended(R6, R7)
    results = mckay_identity_check(coeffs, full)
    assert all(r.status is CheckStatus.PASS for r in results)


def test_identity_checks_flag_perturbation(coeffs, dims):
    perturbed = coeffs.with_value(1, coeffs.c(1) + 1)
    results = mckay_identity_check(perturbed, dims)
    assert results[0].status is CheckStatus.FAIL
    assert results[1].status is CheckStatus.PASS


def test_identity_checks_need_five_dims(coeffs):
    with pytest.raises(InsufficientData):
        mckay_identity_check(coeffs, IrrepDims((1, 196883, 21296876, 842609326)))


def test_graded_dimension_check(coeffs):
    assert graded_dimension_check(coeffs, [1, 0, 196884, 21493760])
    assert not graded_dimension_check(coeffs, [1, 744, 196884, 21493760])
    assert graded_dimension_check(coeffs, [])
    assert not graded_dimension_check(coeffs, [1] + [0] * (coeffs.max_index + 5))


def test_decompose_bounded_examples(dims):
    found = decompose_bounded(196884, dims, max_mult=3, max_parts=2)
    assert [d.multiplicities for d in found] == [(1, 1)]
    zero = decompose_bounded(0, dims, max_mult=3, max_parts=2)
    assert [d.multiplicities for d in zero] == [(0, 0)]
    c3 = decompose_bounded(21493760, dims, max_mult=3, max_parts=3)
    assert (1, 1, 1) in [d.multiplicities for d in c3]


def test_decompose_bounded_contains_printed_vectors(coeffs, dims):
    # each classical identity's multiplicity vector must appear in the search
    full = dims.extended(R6, R7)
    expected = {
        1: (1, 1),
        2: (1, 1, 1),
        3: (2, 2, 1, 1),
        4: (3, 3, 1, 2, 1),
        5: (4, 5, 3, 2, 1, 1, 1),
    }
    for n, mults in expected.items():
        found = decompose_bounded(coeffs.c(n), full, max_mult=5, max_parts=len(mults))
        assert mults in [d.multiplicities for d in found]


def test_decompose_bounded_sums_check_out(dims):
    for d in decompose_bounded(864299970, dims, max_mult=4, max_parts=4):
        assert sum(m * dims.r(i + 1) for i, m in enumerate(d.multiplicities)) == d.total == 864299970


def test_decompose_bounded_node_budget(dims):
    with pytest.raises(SearchSpaceTooLarge):
        decompose_bounded(864299970, dims, max_mult=4, max_parts=4, node_budget=3)


def test_knz_small_orders():
    for order in range(0, 4):
        result = knz_verify(order)
        assert result.equal
        assert result.mismatches() == []


def test_knz_lowest_order_terms():
    result = knz_verify(2)
    assert result.lhs.coefficient(-1, 0) == 1
    assert result.lhs.coefficient(0, -1) == -1
    assert result.rhs.coefficient(0, -1) == -1
    assert result.lhs.coefficient(1, 0) == 196884


def test_knz_antisymmetric_under_swap():
    result = knz_verify(3)
    for side in (result.lhs, result.rhs):
        swapped = {(n, m): c for (m, n), c in side.terms.items()}
        assert swapped == {k: -c for k, c in side.terms.items()}


def test_knz_negative_control():
    result = knz_verify(2, unnormalized_c0=True)
    assert not result.equal
    assert result.mismatches()


def test_knz_rows_match_factor_oracle(j_table):
    for order in list(range(0, 13)) + [20, 24]:
        result = knz_verify(order, j_table)
        assert result.lhs == _knz_lhs_by_factors(order, j_table)
        assert result.equal
    control = j_table.with_value(0, 744)
    for order in range(0, 13):
        result = knz_verify(order, j_table, unnormalized_c0=True)
        assert result.lhs == _knz_lhs_by_factors(order, control)
        assert not result.equal


def test_knz_control_is_the_perturbed_table(j_table):
    before = dict(j_table.values)
    for order in range(0, 7):
        flagged = knz_verify(order, j_table, unnormalized_c0=True)
        perturbed = knz_verify(order, j_table.with_value(0, 744))
        assert (flagged.lhs, flagged.rhs, flagged.equal) == \
            (perturbed.lhs, perturbed.rhs, perturbed.equal)
    assert j_table.values == before and j_table.normalized


def test_knz_perturbed_tables_match_oracle(j_table):
    rng = random.Random(2024)
    for _ in range(40):
        order = rng.randrange(1, 7)
        table = j_table
        for _ in range(rng.randrange(1, 4)):
            n = rng.randrange(0, (order + 1) ** 2 + 1)
            table = table.with_value(n, rng.choice([-3, -2, -1, 0, 1, 2, 5, table.c(n) + 1]))
        result = knz_verify(order, table)
        oracle = KnzResult(_knz_lhs_by_factors(order, table), result.rhs, False)
        assert result.mismatches() == oracle.mismatches()


def test_knz_negative_exponent_reports_mismatches():
    table = CoeffTable.from_expansion(30).with_value(2, -1)
    result = knz_verify(3, table)
    assert not result.equal
    assert result.mismatches()
    assert result.lhs == _knz_lhs_by_factors(3, table)


def test_knz_rows_remainder_check():
    with pytest.raises(ArithmeticError):
        monster._knz_rows(4, lambda k: Fraction(1, 2) if k == 1 else 0)


def test_knz_insufficient_coefficients():
    short = CoeffTable.from_expansion(5)
    with pytest.raises(InsufficientCoefficients):
        knz_verify(3, coeffs=short)


def test_monster_order():
    order = monster_order()
    assert order == 808017424794512875886459904961710757005754368000000000
    assert len(str(order)) == 54
    assert order % 71 == 0
    assert order % 2**46 == 0
    assert (order // 2**46) % 2 == 1


def test_monster_facts():
    assert MONSTER_FACTS.conjugacy_class_count == 194
    assert MONSTER_FACTS.distinct_mckay_thompson_series == 172
    assert MONSTER_FACTS.mckay_thompson_span_dimension == 163
    assert MONSTER_FACTS.order == monster_order()


def test_irrep_dims_from_file(tmp_path):
    path = tmp_path / "dims.txt"
    path.write_text("# user supplied\n1 1\n2 196883\n3 21296876\n"
                    f"4 842609326\n5 18538750076\n6 {R6}\n7 {R7}\n")
    dims = IrrepDims.from_file(path)
    assert dims.count == 7
    assert dims.r(7) == R7
