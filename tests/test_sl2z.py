"""Moebius action, fundamental-domain reduction, generator words, and
lattice-basis equivalence; all comparisons exact."""

import math
import random
from fractions import Fraction

import pytest

from moonshine import sl2z
from moonshine.sl2z import (
    IDENTITY,
    DegenerateBasis,
    LatticeBasis,
    Mat2Z,
    PSLElement,
    S,
    T,
    UpperHalfPoint,
    evaluate_word,
    in_fundamental_domain,
    lattice_same,
    moebius,
    reduce_to_fundamental,
    t_power,
    tau_equivalent,
    tau_from_basis,
    word_decompose,
    word_to_str,
)

F = Fraction
I_POINT = UpperHalfPoint(0, 1)


def test_mat2z_determinant_enforced():
    with pytest.raises(ValueError):
        Mat2Z(1, 1, 1, 0)
    with pytest.raises(ValueError):
        Mat2Z(2, 0, 0, 2)
    # determinant 1, but not integer entries
    for entries in ((F(1, 2), 0, 0, 2), (0.5, 0, 0, 2.0), (F(1), 0, 0, 1), (1, 0, 0, True)):
        with pytest.raises(ValueError, match="^entries must be integers$"):
            Mat2Z(*entries)


def test_psl_canonical_sign():
    m = PSLElement(Mat2Z(0, 1, -1, 0))
    assert m.rep == Mat2Z(0, -1, 1, 0)
    assert m == S
    neg_id = PSLElement(Mat2Z(-1, 0, 0, -1))
    assert neg_id == IDENTITY


def test_moebius_examples():
    assert moebius(S, I_POINT) == I_POINT
    moved = moebius(T, UpperHalfPoint(F(1, 3), 2))
    assert moved == UpperHalfPoint(F(4, 3), 2)
    m = PSLElement(Mat2Z(2, 1, 1, 1))
    assert moebius(m, I_POINT) == UpperHalfPoint(F(3, 2), F(1, 2))


def test_in_fundamental_domain():
    assert in_fundamental_domain(UpperHalfPoint(0, 2))
    assert not in_fundamental_domain(UpperHalfPoint(0, F(1, 2)))
    assert in_fundamental_domain(UpperHalfPoint(F(1, 2), 2))
    assert in_fundamental_domain(UpperHalfPoint(F(-1, 2), 2))
    assert in_fundamental_domain(I_POINT)


def test_reduce_translation_only():
    tau = UpperHalfPoint(5, 1)
    star, m, word = reduce_to_fundamental(tau)
    assert star == I_POINT
    assert m == t_power(-5)
    assert word == (("T", -5),)
    assert word_to_str(word) == "T^-5"


def test_reduce_inversion():
    star, m, word = reduce_to_fundamental(UpperHalfPoint(0, F(1, 2)))
    assert star == UpperHalfPoint(0, 2)
    assert m == S
    assert word == (("S", 1),)


def test_reduce_generic_point():
    tau = UpperHalfPoint(F(7, 3), F(1, 5))
    star, m, word = reduce_to_fundamental(tau)
    assert in_fundamental_domain(star)
    assert moebius(m, tau) == star
    assert evaluate_word(word) == m


def test_reduce_idempotent_on_interior():
    for tau in (UpperHalfPoint(0, 2), UpperHalfPoint(F(1, 3), F(7, 5)),
                UpperHalfPoint(F(-2, 5), 3)):
        star, m, word = reduce_to_fundamental(tau)
        assert star == tau
        assert m == IDENTITY
        assert word == ()


def test_tau_equivalent_examples():
    m = tau_equivalent(UpperHalfPoint(0, 2), UpperHalfPoint(1, 2))
    assert m == T
    m = tau_equivalent(UpperHalfPoint(0, 2), UpperHalfPoint(0, F(1, 2)))
    assert m == S
    assert tau_equivalent(UpperHalfPoint(0, 2), UpperHalfPoint(0, 3)) is None


def test_tau_equivalent_boundary_identification():
    left = UpperHalfPoint(F(-1, 2), 3)
    right = UpperHalfPoint(F(1, 2), 3)
    m = tau_equivalent(left, right)
    assert m is not None
    assert moebius(m, left) == right
    # unit-arc identification: 3/5 + 4i/5 lies on |tau| = 1
    arc = UpperHalfPoint(F(3, 5), F(4, 5))
    mirrored = UpperHalfPoint(F(-3, 5), F(4, 5))
    m = tau_equivalent(arc, mirrored)
    assert m is not None
    assert moebius(m, arc) == mirrored


def test_word_decompose_examples():
    assert word_decompose(IDENTITY) == ()
    assert word_decompose(T) == (("T", 1),)
    m = PSLElement(Mat2Z(2, 1, 1, 1))
    word = word_decompose(m)
    assert evaluate_word(word) == m


def test_modular_group_relations():
    assert (S * S).is_identity
    st = S * T
    assert (st * st * st).is_identity


def _random_element(rng, max_moves=12):
    m = IDENTITY
    for _ in range(rng.randint(0, max_moves)):
        if rng.random() < 0.5:
            m = m * S
        else:
            m = m * t_power(rng.choice([-3, -2, -1, 1, 2, 3]))
    return m


def _random_point(rng, bound=1000):
    x = F(rng.randint(-bound, bound), rng.randint(1, bound))
    y = F(rng.randint(1, bound), rng.randint(1, bound))
    return UpperHalfPoint(x, y)


def test_action_law_randomized():
    rng = random.Random(42)
    for _ in range(200):
        m1 = _random_element(rng)
        m2 = _random_element(rng)
        tau = _random_point(rng)
        assert moebius(m1 * m2, tau) == moebius(m1, moebius(m2, tau))


def test_reduction_soundness_randomized():
    rng = random.Random(7)
    for _ in range(300):
        tau = _random_point(rng)
        star, m, word = reduce_to_fundamental(tau)
        assert in_fundamental_domain(star)
        assert moebius(m, tau) == star
        assert evaluate_word(word) == m


def test_word_roundtrip_randomized():
    rng = random.Random(13)
    for _ in range(500):
        m = _random_element(rng)
        assert evaluate_word(word_decompose(m)) == m


def test_equivalence_symmetric_and_transitive():
    rng = random.Random(99)
    for _ in range(100):
        tau = _random_point(rng, bound=50)
        t1 = moebius(_random_element(rng), tau)
        t2 = moebius(_random_element(rng), tau)
        t3 = moebius(_random_element(rng), tau)
        m12 = tau_equivalent(t1, t2)
        assert m12 is not None and moebius(m12, t1) == t2
        m21 = tau_equivalent(t2, t1)
        assert m21 is not None and moebius(m21, t2) == t1
        m23 = tau_equivalent(t2, t3)
        m13 = tau_equivalent(t1, t3)
        assert m23 is not None and m13 is not None
        assert moebius(m23 * m12, t1) == t3


def test_upper_half_point_validation():
    with pytest.raises(ValueError):
        UpperHalfPoint(0, 0)
    with pytest.raises(ValueError):
        UpperHalfPoint(0, -1)
    with pytest.raises(TypeError):
        UpperHalfPoint(0.5, 1.0)


def test_tau_from_basis_examples():
    assert tau_from_basis(LatticeBasis((0, 1), (1, 0))) == I_POINT
    # swap branch: 1/i has negative imaginary part
    assert tau_from_basis(LatticeBasis((1, 0), (0, 1))) == I_POINT
    assert tau_from_basis(LatticeBasis((2, 2), (2, 0))) == UpperHalfPoint(1, 1)


def test_tau_from_basis_degenerate():
    with pytest.raises(DegenerateBasis):
        tau_from_basis(LatticeBasis((2, 4), (1, 2)))
    with pytest.raises(DegenerateBasis):
        tau_from_basis(LatticeBasis((1, 1), (0, 0)))


def test_lattice_same_examples():
    b1 = LatticeBasis((0, 1), (1, 0))  # (i, 1)
    shear = lattice_same(b1, LatticeBasis((1, 1), (1, 0)))
    assert shear == ((1, 1), (0, 1))
    assert lattice_same(b1, LatticeBasis((0, 2), (1, 0))) is None
    m = lattice_same(b1, LatticeBasis((3, 1), (2, 1)))
    assert m == ((1, 3), (1, 2))
    (a, b), (c, d) = m
    assert abs(a * d - b * c) == 1


def test_lattice_same_degenerate():
    with pytest.raises(DegenerateBasis):
        lattice_same(LatticeBasis((1, 0), (2, 0)), LatticeBasis((0, 1), (1, 0)))
    with pytest.raises(DegenerateBasis):
        lattice_same(LatticeBasis((0, 1), (1, 0)), LatticeBasis((1, 0), (2, 0)))


# -- oracles: the former Fraction loops -------------------------------------

def _reduce_oracle(tau):
    """Translate Re(tau) into [-1/2, 1/2) and invert while |tau| < 1, on
    Fractions, building the matrix as a PSL product at every move."""
    x, y = tau.x, tau.y
    m = IDENTITY
    applied = []
    while True:
        k = math.floor(x + F(1, 2))
        if k:
            x -= k
            m = t_power(-k) * m
            applied.append(("T", -k))
        norm = x * x + y * y
        if norm >= 1:
            return UpperHalfPoint(x, y), m, tuple(reversed(applied))
        x, y = -x / norm, y / norm
        m = S * m
        applied.append(("S", 1))


def _equivalent_oracle(tau1, tau2):
    """Reduce both points, move the unit arc's Re > 0 half by S and the edge
    Re = 1/2 by T^-1, then compare."""
    ends = []
    for tau in (tau1, tau2):
        star, m, _ = _reduce_oracle(tau)
        if star.norm_sq() == 1 and star.x > 0:
            star, m = moebius(S, star), S * m
        elif star.x == F(1, 2):
            star, m = UpperHalfPoint(star.x - 1, star.y), t_power(-1) * m
        ends.append((star, m))
    (t1, m1), (t2, m2) = ends
    return m2.inverse() * m1 if t1 == t2 else None


def _word_oracle(elem):
    """Euclid on the first column with k = floor(a/c + 1/2) taken on a
    Fraction; also reports whether some step saw c < 0."""
    a, b, c, d = elem.rep.entries()
    word, negative = [], False
    while c != 0:
        negative |= c < 0
        k = math.floor(F(a, c) + F(1, 2))
        a, b, c, d = -c, -d, a - k * c, b - k * d
        if k:
            word.append(("T", k))
        word.append(("S", 1))
    tail = b if a == 1 else -b
    if tail:
        word.append(("T", tail))
    return tuple(word), negative


def _deep_point(rng):
    """As the benchmark's deep points: bounds 10^20..10^30, Im near 10^-e."""
    b = 10 ** rng.randint(20, 30)
    return UpperHalfPoint(F(rng.randint(-b, b), rng.randint(1, b)),
                          F(rng.randint(1, b), rng.randint(1, b) * b))


def _deep_element(rng):
    """As the benchmark's deep matrices: 12 to 18 steps T^k S, |k| <= 99."""
    m = IDENTITY
    for _ in range(rng.randint(12, 18)):
        m = m * t_power(rng.randint(2, 99) * rng.choice((-1, 1))) * S
    return m


ARC = [UpperHalfPoint(F(x, r), F(y, r)) for x, y, r in
       ((3, 4, 5), (-3, 4, 5), (7, 24, 25), (-7, 24, 25), (5, 12, 13), (-5, 12, 13),
        (8, 15, 17), (-8, 15, 17), (12, 35, 37), (-12, 35, 37), (0, 1, 1))]
EDGES = [UpperHalfPoint(F(s, 2), y) for s in (-1, 1, 3, -3, 7)
         for y in (F(7, 8), 1, F(3, 2), 5)]
# Reduces to the arc point +-5/13 + 12i/13 only after several S steps.
ARC_IMAGE = moebius(S * T * T * S * t_power(-3) * S * T * S, ARC[4])


def test_reduce_matches_fraction_oracle():
    rng = random.Random(2024)
    star, _, word = reduce_to_fundamental(ARC_IMAGE)
    assert star in ARC[4:6] and sum(gen == "S" for gen, _ in word) >= 3
    points = [_deep_point(rng) for _ in range(300)] + ARC + EDGES + [ARC_IMAGE]
    points += [_random_point(rng) for _ in range(300)]
    points += [moebius(_random_element(rng, 20), tau) for tau in ARC + EDGES for _ in range(5)]
    for tau in points:
        star, m, word = reduce_to_fundamental(tau)
        assert (star, m, word) == _reduce_oracle(tau)
        assert -F(1, 2) <= star.x < F(1, 2) and star.norm_sq() >= 1


def test_reduce_deep_points_exactly():
    rng = random.Random(11)
    inversions = 0
    for _ in range(100):
        tau = _deep_point(rng)
        star, m, word = reduce_to_fundamental(tau)
        assert in_fundamental_domain(star)
        assert moebius(m, tau) == star and evaluate_word(word) == m
        inversions += sum(gen == "S" for gen, _ in word)
    assert inversions > 100 * 10


def test_tau_equivalent_matches_fraction_oracle():
    rng = random.Random(77)
    pairs = [(p, q) for p in ARC for q in ARC] + [(p, q) for p in EDGES for q in EDGES]
    pairs += [(_deep_point(rng), _deep_point(rng)) for _ in range(30)]
    same_orbit = [(ARC_IMAGE, ARC[4]), (ARC_IMAGE, ARC[5])]
    for tau in ARC + EDGES + [_deep_point(rng) for _ in range(20)]:
        for _ in range(3):
            image = moebius(_random_element(rng, 20), tau)
            same_orbit += [(image, tau), (tau, image)]
            pairs.append((image, UpperHalfPoint(-tau.x, tau.y)))
    # Deep images of the arc points with their mirrors: the images of the
    # Re < 0 points reduce to the arc's Re > 0 half (b < 0, c == a) with
    # 10^20-size forms.
    deep_arc = 0
    for tau in ARC[:-1]:
        mirror = UpperHalfPoint(-tau.x, tau.y)
        for _ in range(4):
            image = moebius(_deep_element(rng), tau)
            a, b, c = sl2z._reduce(image)[:3]
            deep_arc += b < 0 and c == a and a > 10 ** 20
            same_orbit += [(image, mirror), (mirror, image),
                           (image, moebius(_deep_element(rng), mirror))]
    assert deep_arc >= 12
    for k, (tau1, tau2) in enumerate(pairs + same_orbit):
        m = tau_equivalent(tau1, tau2)
        assert m == _equivalent_oracle(tau1, tau2)
        assert m is None or moebius(m, tau1) == tau2
        assert m is not None or k < len(pairs)


def test_tau_equivalent_builds_no_fraction(monkeypatch):
    rng = random.Random(31)
    pairs = [(p, q) for p in ARC for q in ARC] + [(ARC_IMAGE, ARC[5])]
    pairs += [(_deep_point(rng), _deep_point(rng)) for _ in range(10)]
    pairs += [(moebius(_deep_element(rng), tau), tau) for tau in ARC + EDGES]
    expected = [tau_equivalent(p, q) for p, q in pairs]
    built = []
    monkeypatch.setattr(sl2z, "Fraction", lambda *args: built.append(args) or Fraction(*args))
    assert [tau_equivalent(p, q) for p, q in pairs] == expected
    assert built == []
    reduce_to_fundamental(ARC_IMAGE)
    assert len(built) == 2


def test_reduced_point_is_canonical():
    rng = random.Random(8)
    points = ARC + EDGES + [ARC_IMAGE] + [_deep_point(rng) for _ in range(30)]
    points += [_random_point(rng) for _ in range(30)]
    for tau in points:
        star = reduce_to_fundamental(tau)[0]
        assert type(star.x) is Fraction and type(star.y) is Fraction
        for q in (star.x, star.y):
            assert q.denominator > 0 and math.gcd(q.numerator, q.denominator) == 1
        rebuilt = UpperHalfPoint(star.x, star.y)
        assert star == rebuilt and hash(star) == hash(rebuilt) and repr(star) == repr(rebuilt)


def test_word_decompose_matches_fraction_oracle():
    rng = random.Random(5)
    elems = [_random_element(rng, 20) for _ in range(400)]
    elems += [PSLElement(Mat2Z(a, b, c, d)) for a, b, c, d in
              ((2, 1, 1, 1), (1, 0, -3, 1), (5, -2, -7, 3), (-4, 3, 5, -4), (0, -1, 1, 7))]
    negative = 0
    for elem in elems:
        word, saw_negative = _word_oracle(elem)
        negative += saw_negative
        assert word_decompose(elem) == word
        assert evaluate_word(word) == elem
    assert negative > 50


def test_evaluate_word_refuses_bad_moves():
    with pytest.raises(ValueError, match="exponent 1"):
        evaluate_word((("T", 2), ("S", 2)))
    with pytest.raises(ValueError, match="unknown generator"):
        evaluate_word((("U", 1),))
    assert evaluate_word((("T", 0), ("S", 1), ("S", 1))) == IDENTITY
