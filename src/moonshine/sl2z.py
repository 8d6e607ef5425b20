"""The modular group PSL2(Z): exact Moebius action, reduction to the
fundamental domain, generator words and lattice-basis equivalence.

Points of the upper half-plane carry exact rational coordinates, so every
comparison (domain membership, orbit equality) is decided exactly.  The
corner points rho and rho^2 have irrational imaginary part and are therefore
not representable; boundary identification only ever involves the vertical
edges and the unit arc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._errors import MoonshineError


class DegenerateBasis(MoonshineError, ValueError):
    """The two basis vectors are collinear over R (or one is zero)."""


def _frac(v) -> Fraction:
    if isinstance(v, float):
        raise TypeError("floating point input; pass int, str or Fraction")
    return Fraction(v)


@dataclass(frozen=True)
class Mat2Z:
    """Integer 2x2 matrix (a b; c d) with determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

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


@dataclass(frozen=True)
class PSLElement:
    """Element of PSL2(Z): a matrix identified with its negative.

    The stored representative is canonical: c > 0, or c == 0 and a > 0.
    """

    rep: Mat2Z

    def __post_init__(self):
        m = self.rep
        if m.c < 0 or (m.c == 0 and m.a < 0):
            object.__setattr__(self, "rep", Mat2Z(-m.a, -m.b, -m.c, -m.d))

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


@dataclass(frozen=True)
class UpperHalfPoint:
    """A point x + iy of the upper half-plane with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _frac(self.x))
        object.__setattr__(self, "y", _frac(self.y))
        if self.y <= 0:
            raise ValueError("imaginary part must be positive")

    def norm_sq(self) -> Fraction:
        return self.x * self.x + self.y * self.y


@dataclass(frozen=True)
class LatticeBasis:
    """Basis (omega1, omega2) of a rank-2 lattice in C, as (re, im) pairs."""

    omega1: tuple[Fraction, Fraction]
    omega2: tuple[Fraction, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "omega1", (_frac(self.omega1[0]), _frac(self.omega1[1])))
        object.__setattr__(self, "omega2", (_frac(self.omega2[0]), _frac(self.omega2[1])))


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

def t_moves(k: int) -> list[tuple[str, int]]:
    return [("T", k)] if k else []


def evaluate_word(word) -> PSLElement:
    """Left-to-right product of the generator moves."""
    acc = IDENTITY
    for gen, exp in word:
        if gen == "T":
            acc = acc * t_power(exp)
        elif gen == "S":
            if exp != 1:
                raise ValueError("S moves carry exponent 1 (S is an involution in PSL)")
            acc = acc * S
        else:
            raise ValueError(f"unknown generator {gen!r}")
    return acc


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


def reduce_to_fundamental(tau: UpperHalfPoint):
    """Reduce tau into the fundamental domain.

    Returns (tau*, M, word) with |tau*| >= 1, -1/2 <= Re(tau*) < 1/2,
    moebius(M, tau) == tau* and evaluate_word(word) == M.  The loop translates
    the real part into [-1/2, 1/2) and inverts while |tau| < 1; every
    inversion strictly increases the imaginary part, which is bounded on the
    orbit, so the loop terminates.
    """
    x, y = tau.x, tau.y
    m = IDENTITY
    applied: list[tuple[str, int]] = []
    half = Fraction(1, 2)
    while True:
        k = math.floor(x + half)
        if k:
            x -= k
            m = t_power(-k) * m
            applied.extend(t_moves(-k))
        norm = x * x + y * y
        if norm < 1:
            x, y = -x / norm, y / norm
            m = S * m
            applied.append(("S", 1))
        else:
            break
    word = tuple(reversed(applied))
    return UpperHalfPoint(x, y), m, word


def _normalize_boundary(tau: UpperHalfPoint):
    """Canonical representative for reduced points on the domain boundary.

    Points on the unit arc are moved to Re <= 0 (via S), points on the
    Re = 1/2 edge to Re = -1/2 (via T^-1); interior points pass through.
    """
    half = Fraction(1, 2)
    if tau.norm_sq() == 1 and tau.x > 0:
        return moebius(S, tau), S
    if tau.x == half:
        return UpperHalfPoint(tau.x - 1, tau.y), t_power(-1)
    return tau, IDENTITY


def tau_equivalent(tau1: UpperHalfPoint, tau2: UpperHalfPoint):
    """A matrix M with M.tau1 == tau2 if the points share an orbit, else None."""
    t1, m1, _ = reduce_to_fundamental(tau1)
    t2, m2, _ = reduce_to_fundamental(tau2)
    t1, n1 = _normalize_boundary(t1)
    t2, n2 = _normalize_boundary(t2)
    if t1 == t2:
        return (n2 * m2).inverse() * (n1 * m1)
    return None


def word_decompose(elem: PSLElement):
    """A generator word evaluating to ``elem`` in PSL.

    Euclidean reduction on the first column: repeatedly strip the nearest
    T-power and invert until the lower-left entry vanishes, then read off the
    remaining translation.  Any valid word is acceptable; this one has
    O(log |entries|) moves.
    """
    a, b, c, d = elem.rep.entries()
    word: list[tuple[str, int]] = []
    while c != 0:
        k = math.floor(Fraction(a, c) + Fraction(1, 2))
        a1, b1 = a - k * c, b - k * d
        a, b, c, d = -c, -d, a1, b1
        word.extend(t_moves(k))
        word.append(("S", 1))
    word.extend(t_moves(b if a == 1 else -b))
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
