"""Small finite permutation groups: conjugacy classes, normal subgroups,
quotients, composition series and Jordan-Hoelder factor multisets.

Elements are enumerated explicitly, by closure under the generators.  The
structure queries (normal subgroups, simplicity, composition series and
their factors) then run on integer indices, over a Cayley table that each
group builds on first use by breadth-first search over its generators
(:mod:`moonshine._cayley`).  Public methods still take and return
frozensets of ``Perm``.  Conjugacy classes stay on ``Perm``s, so groups too
large for a table (S8) still answer them.

Two budgets raise ``CapExceeded`` before memory runs out: ``CLOSURE_LIMIT``
bounds elements x degree while enumerating, and ``TABLE_LIMIT`` bounds the
table's order^2 entries.  The per-group ``element_cap`` (default 100000)
applies as well.  Composition-series factors are identified by (order,
abelian, simple): a valid isomorphism-type proxy for simple groups below
order 20160, where the first order collision between non-isomorphic simple
groups occurs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter


class CapExceeded(RuntimeError):
    """Enumeration or a Cayley table would pass an element cap or budget."""


class NotASubgroup(ValueError):
    """The given element set is not a subgroup."""


class NotNormal(ValueError):
    """The given subgroup is not normal."""


class OrderTooLarge(RuntimeError):
    """A composition factor is too large for order-based identification."""


class ClassMismatch(ValueError):
    """A class function is not defined on exactly the group's classes."""


JH_ORDER_LIMIT = 20160  # first order shared by non-isomorphic simple groups
# Elements x degree while enumerating: 2^24 tuple slots, about 130 MB.
# C4000 (16.0M) fits; C20000 would need about 3.2 GB.
CLOSURE_LIMIT = 2 ** 24
# Cayley table entries, order^2: S7 (25.4M) fits, A8 (406M) does not.
TABLE_LIMIT = 2 ** 25


class Perm:
    """Permutation of {0, ..., n-1}, stored as the tuple of images."""

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a permutation of 0..n-1")
        self.images = images
        self._hash = hash(images)

    @classmethod
    def _raw(cls, images):
        p = object.__new__(cls)
        p.images = images
        p._hash = hash(images)
        return p

    @classmethod
    def identity(cls, degree):
        return cls._raw(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree, *cycles):
        images = list(range(degree))
        for cycle in cycles:
            for i, pt in enumerate(cycle):
                images[pt] = cycle[(i + 1) % len(cycle)]
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __mul__(self, other):
        # (p * q)(i) = p(q(i)), composed at C speed by itemgetter
        q = other.images
        if len(q) > 1:
            return Perm._raw(itemgetter(*q)(self.images))
        return Perm._raw(self.images)

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm._raw(tuple(inv))

    def __call__(self, i):
        return self.images[i]

    def fixed_points(self) -> int:
        return sum(1 for i, j in enumerate(self.images) if i == j)

    def cycle_type(self):
        seen = [False] * len(self.images)
        lengths = []
        for i in range(len(self.images)):
            if seen[i]:
                continue
            n, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = self.images[j]
                n += 1
            lengths.append(n)
        return tuple(sorted(lengths, reverse=True))

    def order(self) -> int:
        return math.lcm(*self.cycle_type())

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        cycles = []
        seen = [False] * len(self.images)
        for i in range(len(self.images)):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc, j = [], i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            cycles.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(cycles) or "()"


def _closure(gens, degree, cap=None):
    """Subgroup generated by ``gens``: breadth-first closure under products.

    Raises CapExceeded past ``cap`` elements, or once elements x degree
    would pass CLOSURE_LIMIT.
    """
    room = CLOSURE_LIMIT // max(degree, 1)
    bound = room if cap is None else min(cap, room)
    ident = Perm.identity(degree)
    elems = {ident}
    frontier = [ident]
    gens = [g for g in gens if g != ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in elems:
                    if len(elems) >= bound:
                        if bound == cap:
                            raise CapExceeded(f"more than {cap} elements")
                        raise CapExceeded(
                            f"more than {room} elements of degree {degree}: elements x "
                            f"degree passes CLOSURE_LIMIT = {CLOSURE_LIMIT}")
                    elems.add(y)
                    new.append(y)
        frontier = new
    return frozenset(elems)


def _conj_classes_of(elements, gens):
    """Conjugacy classes of the group ``elements`` = <gens>, sorted by rep."""
    degree = len(next(iter(elements)).images)
    pairs = [(g, g.inverse()) for g in gens]
    seen = set()
    classes = []
    for x in sorted(elements):
        if x in seen:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            new = []
            for y in frontier:
                for g, gi in pairs:
                    z = g * y * gi
                    if z not in orbit:
                        orbit.add(z)
                        new.append(z)
            frontier = new
        seen |= orbit
        classes.append(frozenset(orbit))
    return classes


def _is_prime(n):
    return n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1))


def _coset_group(elements, gens, normal, element_cap):
    """Permutation group of the generators acting on the left cosets."""
    reps = []
    coset_index = {}
    for x in sorted(elements):
        if x in coset_index:
            continue
        idx = len(reps)
        reps.append(x)
        for h in normal:
            coset_index[x * h] = idx
    degree = len(reps)
    images = []
    for g in gens:
        images.append(Perm._raw(tuple(coset_index[g * rep] for rep in reps)))
    return PermGroup(max(degree, 1), images, element_cap=element_cap)


@dataclass(frozen=True)
class ConjClass:
    representative: Perm
    members: frozenset

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True, order=True)
class FactorDescriptor:
    """Isomorphism-type proxy for a composition factor."""

    order: int
    is_abelian: bool
    is_simple: bool


@dataclass(frozen=True)
class ClassFunction:
    """Rational-valued function on the conjugacy classes, keyed by class index."""

    values: dict


class PermGroup:
    """Finite permutation group given by generators on {0, ..., degree-1}.

    Elements are enumerated on first use; the object is immutable afterwards,
    so instances can be shared freely.
    """

    def __init__(self, degree, generators, element_cap=100000, name=None):
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self.degree = degree
        self.generators = generators
        self.element_cap = element_cap
        self.name = name or "G"
        self._elements = None
        self._classes = None
        self._cayley = None

    def __repr__(self):
        return f"PermGroup({self.name}, degree={self.degree})"

    @property
    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    @property
    def elements(self):
        if self._elements is None:
            self._elements = _closure(self.generators, self.degree, cap=self.element_cap)
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements)

    def _table(self):
        if self._cayley is None:
            n = len(self.elements)
            if n * n > TABLE_LIMIT:
                raise CapExceeded(f"order {n} needs a Cayley table of {n * n} entries; "
                                  f"TABLE_LIMIT is {TABLE_LIMIT}")
            # Imported on first use: without a bytecode cache, compiling the
            # index core costs every import of the package about 1 ms.
            from ._cayley import CayleyTable
            self._cayley = CayleyTable(self.elements, self.generators)
        return self._cayley

    def conjugacy_classes(self):
        if self._classes is None:
            sets = _conj_classes_of(self.elements, list(self.generators))
            self._classes = [ConjClass(min(s), s) for s in sets]
        return self._classes

    def _is_subgroup(self, subset) -> bool:
        if not subset or not subset <= self.elements:
            return False
        if self.identity not in subset:
            return False
        return all(a * b in subset for a in subset for b in subset)

    def is_normal(self, subset) -> bool:
        """Whether the subgroup ``subset`` is normal (conjugation-stable)."""
        h = frozenset(subset)
        if not self._is_subgroup(h):
            raise NotASubgroup("element set is not a subgroup")
        for g in self.generators:
            gi = g.inverse()
            if any(g * x * gi not in h for x in h):
                return False
        return True

    def normal_subgroups(self):
        """All normal subgroups, sorted by order and then by element set."""
        t = self._table()
        return [t.perms(s) for s in t.lattice(t.all)]

    def quotient_group(self, normal_subset) -> "PermGroup":
        """The quotient group, as the generator action on left cosets."""
        n = frozenset(normal_subset)
        if not self.is_normal(n):
            raise NotNormal("subgroup is not normal")
        return _coset_group(self.elements, list(self.generators), n, self.element_cap)

    def is_abelian(self) -> bool:
        return all(a * b == b * a for a in self.generators for b in self.generators)

    def is_simple(self) -> bool:
        """Whether the group has exactly the two trivial normal subgroups."""
        t = self._table()
        if len(t.all) == 1:
            raise ValueError("the trivial group is conventionally not simple")
        return len(t.lattice(t.all)) == 2

    def composition_series(self):
        """A chain [{e}, ..., G] with simple factors, chosen deterministically.

        Each step takes a maximal proper normal subgroup of the previous
        group; ties on order break to the lexicographically smallest element
        set.  The returned chain is validated: every step is normal in its
        parent and every factor is simple.
        """
        t = self._table()
        chain = [t.all]
        while len(chain[-1]) > 1:
            maximals = t.maximal_normals(chain[-1])
            best = max(len(s) for s in maximals)
            chain.append(min((s for s in maximals if len(s) == best), key=sorted))
        chain.reverse()
        self._validate_chain(chain)
        return [t.perms(s) for s in chain]

    def _validate_chain(self, chain):
        """Check a chain of index sets without the lattice that chose it.

        Each step must be a proper subgroup that is conjugation-stable under
        the generators of the next.  Each factor must be simple: of prime
        order, or such that every conjugacy class outside the smaller group
        generates the larger one together with it.
        """
        t = self._table()
        for prev, cur in zip(chain, chain[1:]):
            if not (prev < cur and t.is_normal_in(prev, cur)):
                raise AssertionError("chain step is not normal")
            if _is_prime(len(cur) // len(prev)):
                continue
            prev_gens = t.generators(prev)
            for cls in t.classes(cur - prev, t.generators(cur)):
                have = set(prev)
                t.grow(have, prev_gens, cls, stop=len(cur))
                if len(have) != len(cur):
                    raise AssertionError("chain factor is not simple")

    def all_composition_series(self):
        """Every composition series (all maximal-normal-subgroup choices)."""
        t = self._table()
        memo = {}

        def chains_for(s):
            if s not in memo:
                if len(s) == 1:
                    memo[s] = [(s,)]
                else:
                    memo[s] = [chain + (s,) for m in t.maximal_normals(s)
                               for chain in chains_for(m)]
            return memo[s]

        return [tuple(map(t.perms, chain)) for chain in chains_for(t.all)]

    def factor_descriptors(self, chain):
        """Descriptors of the consecutive quotients of a subgroup chain."""
        t = self._table()
        chain = [t.indices(s) for s in chain]
        return tuple(sorted(
            FactorDescriptor(len(cur) // len(prev), t.is_abelian_over(cur, prev), True)
            for prev, cur in zip(chain, chain[1:])))

    def jordan_holder_factors(self):
        """The factor multiset of any composition series, as a sorted tuple."""
        chain = self.composition_series()
        descs = self.factor_descriptors(chain)
        for d in descs:
            if d.order >= JH_ORDER_LIMIT:
                raise OrderTooLarge(f"factor order {d.order} >= {JH_ORDER_LIMIT}")
        return descs


def class_fn_inner(phi: ClassFunction, psi: ClassFunction, group: PermGroup) -> Fraction:
    """(1/|G|) sum over classes of |class| * phi * psi, exactly.

    This is the hermitian inner product of class functions restricted to
    rational values, where complex conjugation acts trivially.
    """
    classes = group.conjugacy_classes()
    wanted = set(range(len(classes)))
    if set(phi.values) != wanted or set(psi.values) != wanted:
        raise ClassMismatch("class functions must be defined on exactly the group's classes")
    total = Fraction(0)
    for i, c in enumerate(classes):
        total += c.size * Fraction(phi.values[i]) * Fraction(psi.values[i])
    return total / group.order


def permutation_character(group: PermGroup) -> ClassFunction:
    """Fixed-point count of each class representative in the natural action."""
    return ClassFunction({i: c.representative.fixed_points()
                          for i, c in enumerate(group.conjugacy_classes())})


def trivial_character(group: PermGroup) -> ClassFunction:
    return ClassFunction({i: 1 for i in range(len(group.conjugacy_classes()))})


def class_indicator(group: PermGroup, index: int) -> ClassFunction:
    """Characteristic function of the class with the given index."""
    k = len(group.conjugacy_classes())
    if not 0 <= index < k:
        raise ClassMismatch(f"class index {index} out of range")
    return ClassFunction({i: 1 if i == index else 0 for i in range(k)})


# -- standard families -------------------------------------------------------

def cyclic_group(n: int, element_cap=100000) -> PermGroup:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return PermGroup(1, [], element_cap=element_cap, name="C1")
    rot = Perm((i + 1) % n for i in range(n))
    return PermGroup(n, [rot], element_cap=element_cap, name=f"C{n}")


def dihedral_group(n: int, element_cap=100000) -> PermGroup:
    """Symmetries of a regular n-gon acting on its vertices (order 2n)."""
    if n < 3:
        raise ValueError("the vertex action needs n >= 3")
    rot = Perm((i + 1) % n for i in range(n))
    flip = Perm((n - i) % n for i in range(n))
    return PermGroup(n, [rot, flip], element_cap=element_cap, name=f"D{n}")


def symmetric_group(n: int, element_cap=100000) -> PermGroup:
    if n < 1:
        raise ValueError("n must be >= 1")
    gens = [Perm.from_cycles(n, (i, i + 1)) for i in range(n - 1)]
    return PermGroup(max(n, 1), gens, element_cap=element_cap, name=f"S{n}")


def alternating_group(n: int, element_cap=100000) -> PermGroup:
    if n < 1:
        raise ValueError("n must be >= 1")
    gens = [Perm.from_cycles(n, (0, 1, i)) for i in range(2, n)]
    return PermGroup(max(n, 1), gens, element_cap=element_cap, name=f"A{n}")
