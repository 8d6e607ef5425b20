"""The value records: reprs, equality, hashing, immutability, ordering,
pickling and validation, as frozen dataclasses had them."""

import copy
import pickle
from fractions import Fraction

import pytest

from moonshine import groups, modular, monster, sl2z
from moonshine.qseries import BiLaurentSeries, LaurentSeries

_P = groups.Perm.from_cycles(3, (0, 1))
_DEC = monster.Decomposition((1, 1), 196884)

# Builders of one record of each kind, with the repr a frozen dataclass gave;
# the series print their own.  A key past a "-" names a second case of a kind.
RECORDS = {
    "ConjClass": (lambda: groups.ConjClass(_P, frozenset({_P})),
                  "ConjClass(representative=(0 1), members=frozenset({(0 1)}))"),
    "FactorDescriptor": (lambda: groups.FactorDescriptor(2, True, True),
                         "FactorDescriptor(order=2, is_abelian=True, is_simple=True)"),
    "ClassFunction": (lambda: groups.ClassFunction({0: 1, 1: Fraction(1, 2)}),
                      "ClassFunction(values={0: 1, 1: Fraction(1, 2)})"),
    "Mat2Z": (lambda: sl2z.Mat2Z(1, 1, 0, 1), "Mat2Z(a=1, b=1, c=0, d=1)"),
    "PSLElement": (lambda: sl2z.PSLElement(sl2z.Mat2Z(-1, 0, 0, -1)),
                   "PSLElement(rep=Mat2Z(a=1, b=0, c=0, d=1))"),
    "UpperHalfPoint": (lambda: sl2z.UpperHalfPoint(1, "1/2"),
                       "UpperHalfPoint(x=Fraction(1, 1), y=Fraction(1, 2))"),
    "LatticeBasis": (lambda: sl2z.LatticeBasis((1, 0), ("1/3", 2)),
                     "LatticeBasis(omega1=(Fraction(1, 1), Fraction(0, 1)), "
                     "omega2=(Fraction(1, 3), Fraction(2, 1)))"),
    "ModularFormExpansion": (lambda: modular.discriminant(3),
                             "ModularFormExpansion(label='Delta', weight=12, "
                             "series=LaurentSeries(1*q + -24*q^2 + O(q^3)))"),
    "CoeffTable": (lambda: monster.CoeffTable({-1: 1, 0: 0, 1: 196884}, "test"),
                   "CoeffTable(values={-1: 1, 0: 0, 1: 196884}, provenance='test', "
                   "normalized=True)"),
    "IrrepDims": (lambda: monster.IrrepDims((1, 196883)), "IrrepDims(dims=(1, 196883))"),
    "Decomposition": (lambda: monster.Decomposition((1, 1), 196884),
                      "Decomposition(multiplicities=(1, 1), total=196884)"),
    "IdentityCheck": (lambda: monster.IdentityCheck("c(2)", 1, 196884, _DEC,
                                                    monster.CheckStatus.PASS),
                      "IdentityCheck(label='c(2)', q_exponent=1, coefficient=196884, "
                      "decomposition=Decomposition(multiplicities=(1, 1), total=196884), "
                      "status=<CheckStatus.PASS: 'pass'>)"),
    "KnzResult": (lambda: monster.KnzResult(BiLaurentSeries({(0, 0): 1}, (0, 1, 0, 1)),
                                            BiLaurentSeries({(1, 0): 2}, (0, 1, 0, 1)), False),
                  "KnzResult(lhs=BiLaurentSeries(1*p^0*q^0 on (0, 1, 0, 1)), "
                  "rhs=BiLaurentSeries(2*p^1*q^0 on (0, 1, 0, 1)), equal=False)"),
    "LaurentSeries": (lambda: LaurentSeries([Fraction(1, 2), 0, 3], -1),
                      "LaurentSeries(1/2*q^-1 + 3*q + O(q^2))"),
    "LaurentSeries-zero": (lambda: LaurentSeries.zero(3), "LaurentSeries(0 + O(q^3))"),
    "BiLaurentSeries": (lambda: BiLaurentSeries({(0, 1): 2, (-1, 0): Fraction(1, 3)},
                                                (-1, 1, 0, 1)),
                        "BiLaurentSeries(1/3*p^-1*q^0 + 2*p^0*q^1 on (-1, 1, 0, 1))"),
    "MonsterFacts": (lambda: monster.MonsterFacts(),
                     "MonsterFacts(order_factorization=((2, 46), (3, 20), (5, 9), (7, 6), "
                     "(11, 2), (13, 3), (17, 1), (19, 1), (23, 1), (29, 1), (31, 1), (41, 1), "
                     "(47, 1), (59, 1), (71, 1)), conjugacy_class_count=194, "
                     "distinct_mckay_thompson_series=172, mckay_thompson_span_dimension=163)"),
}
UNHASHABLE = {"ClassFunction", "CoeffTable"}  # a dict field, as with a dataclass
OWN_HASH = {"BiLaurentSeries"}  # its terms view is unhashable, so it hashes sorted terms


def fields(record):
    return tuple(getattr(record, name) for name in record.__slots__)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr(name):
    build, text = RECORDS[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_and_hash(name):
    build, _ = RECORDS[name]
    a, b = build(), build()
    assert type(a).__name__ == name.partition("-")[0]
    assert a == b and not a != b
    # Another type never equals a record, even with the same field values.
    assert a != fields(a) and fields(a) != a
    assert a.__eq__(fields(a)) is NotImplemented
    assert all(a != other() for key, (other, _) in RECORDS.items() if key != name)
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
    elif name in OWN_HASH:
        assert hash(a) == hash(b)
    else:
        assert hash(a) == hash(b) == hash(fields(a))


def test_two_variable_series_hash_by_value():
    rect = (0, 2, -1, 2)
    a = BiLaurentSeries({(0, 0): 1, (1, -1): -1, (2, 2): Fraction(1, 2)}, rect)
    b = BiLaurentSeries({(2, 2): Fraction(1, 2), (1, -1): -1, (0, 0): 1, (1, 1): 0}, rect)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    # A KnzResult hashes both of its sides.
    r, s = monster.knz_verify(3), monster.knz_verify(3)
    assert r == s and hash(r) == hash(s) and len({r, s}) == 1


def test_unequal_fields_are_unequal():
    assert sl2z.Mat2Z(1, 1, 0, 1) != sl2z.Mat2Z(1, 2, 0, 1)
    assert monster.Decomposition((1, 1), 5) != monster.Decomposition((1, 1), 6)
    assert groups.FactorDescriptor(2, True, True) != groups.FactorDescriptor(2, True, False)
    assert len({sl2z.Mat2Z(1, k, 0, 1) for k in (0, 1, 1, 2)}) == 3


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_are_read_only(name):
    build, text = RECORDS[name]
    record = build()
    for field in record.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_pickle_and_copy_round_trips(name):
    build, text = RECORDS[name]
    record = build()
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record and repr(twin) == text


def test_factor_descriptor_orderings():
    small, large = groups.FactorDescriptor(2, True, True), groups.FactorDescriptor(3, True, True)
    nonabelian = groups.FactorDescriptor(2, False, True)
    assert small < large and small <= large and large > small and large >= small
    assert small <= small and small >= small and not small < small and not small > small
    assert nonabelian < small  # (order, is_abelian, is_simple) as a tuple
    assert sorted([large, small, nonabelian]) == [nonabelian, small, large]
    for op in ("<", "<=", ">", ">="):
        with pytest.raises(TypeError):
            eval(f"small {op} (2, True, True)")


def test_keywords_and_defaults():
    assert monster.CoeffTable(values={-1: 1}, provenance="p").normalized is True
    assert monster.MonsterFacts(conjugacy_class_count=1).conjugacy_class_count == 1
    assert monster.MonsterFacts().order == monster.monster_order()
    assert sl2z.Mat2Z(a=1, b=0, c=0, d=1).entries() == (1, 0, 0, 1)
    assert sl2z.PSLElement(sl2z.Mat2Z(0, 1, -1, 0)).rep == sl2z.Mat2Z(0, -1, 1, 0)
    point = sl2z.UpperHalfPoint(x=Fraction(1, 2), y=3)
    assert (point.x, point.y) == (Fraction(1, 2), Fraction(3)) and type(point.y) is Fraction
    assert groups.ConjClass(_P, frozenset({_P})).size == 1


@pytest.mark.parametrize("build, error, message", [
    (lambda: monster.CoeffTable({-1: 1, 0: 0, 1: 2.0}, "t"), monster.DataFormatError,
     r"^c\(1\) = 2\.0 is not an int$"),
    (lambda: monster.CoeffTable({-1: 1, 1: 2}, "t"), monster.DataFormatError,
     "^coefficient table must cover a contiguous range from -1$"),
    (lambda: monster.CoeffTable({-1: 2, 0: 0}, "t"), monster.DataFormatError,
     r"^c\(-1\) must be 1$"),
    pytest.param(lambda: monster.CoeffTable({-1: 1, 0: 0}, "t").with_value(-1, 2),
                 monster.DataFormatError, r"^c\(-1\) must be 1$", id="with-value-c(-1)"),
    (lambda: monster.CoeffTable({-1: 1, 0: 744}, "t"), monster.DataFormatError,
     r"^normalized table must have c\(0\) = 0$"),
    (lambda: monster.IrrepDims(()), monster.DataFormatError, "^no dimensions$"),
    (lambda: monster.IrrepDims((2, 3)), monster.DataFormatError, "^r_1 must be 1, not 2$"),
    (lambda: monster.IrrepDims((1, 5, 5)), monster.DataFormatError,
     "^dimensions must increase, but r_3 = 5 <= r_2$"),
    (lambda: sl2z.Mat2Z(2, 0, 0, 1), sl2z.DomainError, "^determinant must be 1$"),
    (lambda: sl2z.UpperHalfPoint(0, 0), sl2z.DomainError, "^imaginary part must be positive$"),
    (lambda: sl2z.UpperHalfPoint(0, "-1/2"), sl2z.DomainError,
     "^imaginary part must be positive$"),
    (lambda: sl2z.UpperHalfPoint(0.5, 1), TypeError, "^floating point input"),
])
def test_validation_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_unnormalized_table_admits_c0():
    table = monster.CoeffTable({-1: 1, 0: 744}, "t", normalized=False)
    assert table.c(0) == 744 and not table.normalized


@pytest.mark.parametrize("perturb, normalized", [
    (lambda t: t.with_value(-1, 1), True),
    (lambda t: t.with_value(0, 744), False),
    (lambda t: t.with_value(0, 744).with_value(0, 0), True),
], ids=["c(-1)-kept", "c(0)-set", "c(0)-restored"])
def test_with_value_normalized_follows_c0(perturb, normalized):
    table = perturb(monster.CoeffTable({-1: 1, 0: 0, 1: 196884}, "t"))
    assert table.normalized is normalized
