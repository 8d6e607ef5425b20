"""The modular group PSL2(Z): exact Moebius action, reduction to the
fundamental domain, generator words and lattice-basis equivalence.

Points of the upper half-plane carry exact rational coordinates, so every
comparison (domain membership, orbit equality) is decided exactly.  The
corner points rho and rho^2 have irrational imaginary part and are therefore
not representable; boundary identification only ever involves the vertical
edges and the unit arc.

Reduction is Gauss-Lagrange reduction of the integer binary quadratic form
whose root is tau (H. Cohen, A Course in Computational Algebraic Number
Theory, section 5.4).  Equivalence compares the two reduced forms on
integers: the unit arc's Re > 0 half is b < 0, c == a.  Words are decomposed
and evaluated on integer entries.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._errors import DomainError, MoonshineError
from ._record import Record, setfield


class DegenerateBasis(MoonshineError, ValueError):
    """The two basis vectors are collinear over R (or one is zero)."""


def _frac(v) -> Fraction:
    if isinstance(v, float):
        raise TypeError("floating point input; pass int, str or Fraction")
    return Fraction(v)


class Mat2Z(Record):
    """Integer 2x2 matrix (a b; c d) with determinant 1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if not type(a) is type(b) is type(c) is type(d) is int:
            raise DomainError("entries must be integers")
        if a * d - b * c != 1:
            raise DomainError("determinant must be 1")
        setfield(self, "a", a)
        setfield(self, "b", b)
        setfield(self, "c", c)
        setfield(self, "d", d)

    def __mul__(self, other: "Mat2Z") -> "Mat2Z":
        return Mat2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2Z":
        return Mat2Z(self.d, -self.b, -self.c, self.a)

    def entries(self):
        return (self.a, self.b, self.c, self.d)


class PSLElement(Record):
    """Element of PSL2(Z): a matrix identified with its negative.

    The stored representative is canonical: c > 0, or c == 0 and a > 0.
    """

    __slots__ = ("rep",)

    def __init__(self, rep: Mat2Z):
        if rep.c < 0 or (rep.c == 0 and rep.a < 0):
            rep = Mat2Z(-rep.a, -rep.b, -rep.c, -rep.d)
        setfield(self, "rep", rep)

    def __mul__(self, other: "PSLElement") -> "PSLElement":
        return PSLElement(self.rep * other.rep)

    def inverse(self) -> "PSLElement":
        return PSLElement(self.rep.inverse())

    @property
    def is_identity(self) -> bool:
        return self.rep == Mat2Z(1, 0, 0, 1)


IDENTITY = PSLElement(Mat2Z(1, 0, 0, 1))
S = PSLElement(Mat2Z(0, -1, 1, 0))
T = PSLElement(Mat2Z(1, 1, 0, 1))


def t_power(k: int) -> PSLElement:
    return PSLElement(Mat2Z(1, k, 0, 1))


class UpperHalfPoint(Record):
    """A point x + iy of the upper half-plane with exact rational coordinates."""

    __slots__ = ("x", "y")

    def __init__(self, x: Fraction, y: Fraction):
        x, y = _frac(x), _frac(y)
        if y <= 0:
            raise DomainError("imaginary part must be positive")
        setfield(self, "x", x)
        setfield(self, "y", y)

    @classmethod
    def _make(cls, x: Fraction, y: Fraction) -> "UpperHalfPoint":
        """A point from Fractions x and y > 0, unchecked."""
        tau = cls.__new__(cls)
        setfield(tau, "x", x)
        setfield(tau, "y", y)
        return tau

    def norm_sq(self) -> Fraction:
        return self.x * self.x + self.y * self.y


class LatticeBasis(Record):
    """Basis (omega1, omega2) of a rank-2 lattice in C, as (re, im) pairs."""

    __slots__ = ("omega1", "omega2")

    def __init__(self, omega1: tuple[Fraction, Fraction], omega2: tuple[Fraction, Fraction]):
        super().__init__((_frac(omega1[0]), _frac(omega1[1])),
                         (_frac(omega2[0]), _frac(omega2[1])))


def moebius(m: PSLElement, tau: UpperHalfPoint) -> UpperHalfPoint:
    """Exact image (a*tau + b)/(c*tau + d); stays in the upper half-plane."""
    a, b, c, d = m.rep.entries()
    x, y = tau.x, tau.y
    den = (c * x + d) ** 2 + (c * y) ** 2
    real = ((a * x + b) * (c * x + d) + a * c * y * y) / den
    return UpperHalfPoint(real, y / den)


def in_fundamental_domain(tau: UpperHalfPoint) -> bool:
    """Closed-domain test: |tau| >= 1 and -1/2 <= Re(tau) <= 1/2."""
    half = Fraction(1, 2)
    return tau.norm_sq() >= 1 and -half <= tau.x <= half


# A generator word is a tuple of moves ("T", k) with k != 0 or ("S", 1),
# multiplied left to right.  T-powers are kept run-length encoded: reducing a
# point with a large real part would otherwise materialise millions of
# letters.

def evaluate_word(word) -> PSLElement:
    """Left-to-right product of the generator moves."""
    a, b, c, d = 1, 0, 0, 1
    for gen, exp in word:
        if gen == "T":
            b, d = a * exp + b, c * exp + d
        elif gen == "S":
            if exp != 1:
                raise DomainError("S moves carry exponent 1 (S is an involution in PSL)")
            a, b, c, d = b, -a, d, -c
        else:
            raise DomainError(f"unknown generator {gen!r}")
    return PSLElement(Mat2Z(a, b, c, d))


def word_to_str(word) -> str:
    if not word:
        return "1"
    parts = []
    for gen, exp in word:
        if gen == "S" or exp == 1:
            parts.append(gen)
        else:
            parts.append(f"{gen}^{exp}")
    return " ".join(parts)


def _reduce(tau: UpperHalfPoint):
    """Gauss-Lagrange reduction of tau's form, on ints.

    With n the common denominator of x and y, tau is the root of the form
    (a, b, c) = n^2 * (1, -2x, x^2 + y^2): Re(tau) = -b/2a and
    |tau|^2 = c/a.  T^-k with k = floor(Re(tau) + 1/2) = (a - b) // 2a maps
    it to (a, b + 2ak, c + bk + ak^2), and while c < a, S maps it to
    (c, -b, a).  Each S step lowers the positive integer a, so the loop
    ends.  The discriminant -(2ny)^2 is invariant, so the reduced point is
    (-b/2a, h/a) with h = n^2 * y.  Returns the reduced form, h, the matrix
    entries and the moves in the order applied: (a, b, c, h, ma, mb, mc, md,
    moves).
    """
    x, y = tau.x, tau.y
    n = math.lcm(x.denominator, y.denominator)
    u, v = x.numerator * (n // x.denominator), y.numerator * (n // y.denominator)
    a, b, c = n * n, -2 * u * n, u * u + v * v
    ma, mb, mc, md = 1, 0, 0, 1
    applied: list[tuple[str, int]] = []
    while True:
        k = (a - b) // (2 * a)
        if k:
            b, c = b + 2 * a * k, c + (b + a * k) * k
            ma, mb = ma - k * mc, mb - k * md
            applied.append(("T", -k))
        if c >= a:
            break
        a, b, c = c, -b, a
        ma, mb, mc, md = -mc, -md, ma, mb
        applied.append(("S", 1))
    return a, b, c, v * n, ma, mb, mc, md, applied


def reduce_to_fundamental(tau: UpperHalfPoint):
    """Reduce tau into the fundamental domain.

    Returns (tau*, M, word) with |tau*| >= 1, -1/2 <= Re(tau*) < 1/2,
    moebius(M, tau) == tau* and evaluate_word(word) == M.
    """
    a, b, _, h, ma, mb, mc, md, applied = _reduce(tau)
    star = UpperHalfPoint._make(Fraction(-b, 2 * a), Fraction(h, a))
    return star, PSLElement(Mat2Z(ma, mb, mc, md)), tuple(reversed(applied))


def tau_equivalent(tau1: UpperHalfPoint, tau2: UpperHalfPoint):
    """A matrix M with M.tau1 == tau2 if the points share an orbit, else None.

    Equivalence compares the reduced forms on integers.  Reduction never
    returns Re = 1/2, so the one boundary identification left is S on the
    unit arc's Re > 0 half, the forms with b < 0 and c == a; it maps b to -b.
    As a > 0, the points (-b/2a, h/a) are equal exactly when b1*a2 == b2*a1
    and h1*a2 == h2*a1, and then M = M2^-1 M1, M2^-1 = (s2 -q2; -r2 p2).
    """
    ends = []
    for tau in (tau1, tau2):
        a, b, c, h, p, q, r, s, _ = _reduce(tau)
        ends.append((a, -b, h, -r, -s, p, q) if b < 0 and c == a else (a, b, h, p, q, r, s))
    (a1, b1, h1, p, q, r, s), (a2, b2, h2, p2, q2, r2, s2) = ends
    if b1 * a2 != b2 * a1 or h1 * a2 != h2 * a1:
        return None
    return PSLElement(Mat2Z(s2 * p - q2 * r, s2 * q - q2 * s, p2 * r - r2 * p, p2 * s - r2 * q))


def word_decompose(elem: PSLElement):
    """A generator word evaluating to ``elem`` in PSL.

    Euclidean reduction on the first column: repeatedly strip the nearest
    T-power k = floor(a/c + 1/2) = (2a + c) // 2c and invert until the
    lower-left entry vanishes, then read off the remaining translation.  Any
    valid word is acceptable; this one has O(log |entries|) moves.
    """
    a, b, c, d = elem.rep.entries()
    word: list[tuple[str, int]] = []
    while c != 0:
        k = (2 * a + c) // (2 * c)
        a, b, c, d = -c, -d, a - k * c, b - k * d
        if k:
            word.append(("T", k))
        word.append(("S", 1))
    tail = b if a == 1 else -b
    if tail:
        word.append(("T", tail))
    return tuple(word)


def _cdiv(w1, w2):
    """Exact complex division w1 / w2 on (re, im) Fraction pairs."""
    a, b = w1
    c, d = w2
    den = c * c + d * d
    if den == 0:
        raise DegenerateBasis("division by the zero vector")
    return ((a * c + b * d) / den, (b * c - a * d) / den)


def tau_from_basis(basis: LatticeBasis) -> UpperHalfPoint:
    """The half-plane parameter omega1/omega2, swapping the pair if needed."""
    re, im = _cdiv(basis.omega1, basis.omega2)
    if im > 0:
        return UpperHalfPoint(re, im)
    if im == 0:
        raise DegenerateBasis("omega1/omega2 is real")
    re, im = _cdiv(basis.omega2, basis.omega1)
    return UpperHalfPoint(re, im)


def lattice_same(b1: LatticeBasis, b2: LatticeBasis):
    """Integer change-of-basis matrix from b1 to b2, or None.

    Solves omega'_i = A_i omega1 + B_i omega2 exactly over the rationals and
    returns ((A1, B1), (A2, B2)) when all entries are integers with
    determinant +-1 (so the two bases span the same lattice).
    """
    w1, w2 = b1.omega1, b1.omega2
    det = w1[0] * w2[1] - w2[0] * w1[1]
    if det == 0:
        raise DegenerateBasis("first basis is degenerate")
    v1, v2 = b2.omega1, b2.omega2
    if v1[0] * v2[1] - v2[0] * v1[1] == 0:
        raise DegenerateBasis("second basis is degenerate")
    rows = []
    for target in (v1, v2):
        coef_a = (target[0] * w2[1] - w2[0] * target[1]) / det
        coef_b = (w1[0] * target[1] - target[0] * w1[1]) / det
        if coef_a.denominator != 1 or coef_b.denominator != 1:
            return None
        rows.append((int(coef_a), int(coef_b)))
    (a, b), (c, d) = rows
    if abs(a * d - b * c) != 1:
        return None
    return ((a, b), (c, d))
