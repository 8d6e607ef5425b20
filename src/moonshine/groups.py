"""Small finite permutation groups: conjugacy classes, normal subgroups,
quotients, composition series and Jordan-Hoelder factor multisets.

Elements are enumerated once, by breadth-first closure under the
generators, which also records each generator's right and left
multiplication maps on integer indices.  Elements are indexed in sorted
``Perm`` order, so the identity is 0 and sorted index sets order like the
element sets they stand for.  Only ``is_abelian`` calls ``Perm.__mul__``.
Conjugacy classes are orbits read off the maps, so groups too large for a
table (S8) still answer them.

Normality, quotients, normal subgroups, simplicity, composition series and
their factors run over a :class:`CayleyTable` that each group builds on
first use from its left maps, taking no ``Perm`` products: every row other
than the identity's is its BFS parent's row mapped through one generator's
map.  Subgroups grow coset by coset (Dimino's algorithm), two normal
subgroups join as their product set AB, and the normal lattice takes one
normal closure per cyclic subgroup (:meth:`CayleyTable.lattice`).  Each
step sub < s of a chain is checked once per table, for normality and an
abelian and a simple factor (:meth:`CayleyTable.factor`).  Public methods
take and return frozensets of ``Perm``; the table works on frozensets of
indices.  An abelian group builds no table for ``is_simple`` or
``jordan_holder_factors``: its factors are one C_p per prime p dividing the
order, with multiplicity, so both are read off the order.

``bytes.translate`` maps every byte through one 256-entry table.  So an
index map on at most ``BYTE_LIMIT`` = 256 points (closure images) or
elements (table rows) is kept as ``bytes``, and composing two of them is
one C call; past the limit both are tuples.

Three constant budgets raise ``CapExceeded`` before memory runs out:
``ELEMENT_LIMIT`` bounds a group's order and ``CLOSURE_LIMIT`` its elements
x degree while enumerating, and ``TABLE_LIMIT`` bounds the table's order^2
entries.  The family constructors compare their closed-form orders with the
first two before building a generator, so ``S100000`` is refused at once.
Composition-series factors are identified by (order, abelian, simple): a
valid isomorphism-type proxy for simple groups below order 20160, where the
first order collision between non-isomorphic simple groups occurs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, combinations
from operator import ge, gt, itemgetter, le, lt, methodcaller, mul

from ._errors import DomainError, MoonshineError
from ._record import Record, compare


class CapExceeded(MoonshineError, RuntimeError):
    """Enumeration or a Cayley table would pass one of the module's budgets."""


class NotASubgroup(MoonshineError, ValueError):
    """The given element set is not a subgroup."""


class NotNormal(MoonshineError, ValueError):
    """The given subgroup is not normal."""


class OrderTooLarge(MoonshineError, RuntimeError):
    """A composition factor is too large for order-based identification."""


class ClassMismatch(MoonshineError, ValueError):
    """A class function is not defined on exactly the group's classes."""


JH_ORDER_LIMIT = 20160  # first order shared by non-isomorphic simple groups
# Group order: S8 (40320) fits, S9 (362880) does not.
ELEMENT_LIMIT = 100000
# The two budgets below count entries, not bytes.  Peak RSS of one CLI call
# on the largest admitted inputs (Python 3.11, x86-64): C4096 classes 147 MB,
# C4096 factors 145 MB, S7 factors 215 MB, C4096 series 274 MB, D2896 factors
# 405 MB.
# Elements x degree while enumerating: C4096 (2^24) fits, C20000 (25 times
# as many entries) does not.
CLOSURE_LIMIT = 2 ** 24
# Cayley table entries, order^2: S7 (25.4M) and D2896 (33.5M) fit, A8 (406M)
# does not.
TABLE_LIMIT = 2 ** 25
BYTE_LIMIT = 256  # the size of a bytes.translate table


class Perm:
    """Permutation of {0, ..., n-1}, stored as the tuple of images."""

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        images = tuple(images)
        # 1.0 and True equal 1, so the sort test alone would pass them
        if not set(map(type, images)) <= {int} or sorted(images) != list(range(len(images))):
            raise DomainError("not a permutation of 0..n-1")
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
        """The product of disjoint ``cycles``: a point may appear only once."""
        images, seen = list(range(degree)), set()
        for cycle in cycles:
            for i, pt in enumerate(cycle):
                if type(pt) is not int or not 0 <= pt < degree:
                    raise DomainError(f"cycle point {pt!r} is not one of 0..{degree - 1}")
                if pt in seen:
                    raise DomainError(f"cycle point {pt} appears more than once")
                seen.add(pt)
                images[pt] = cycle[(i + 1) % len(cycle)]
        return cls._raw(tuple(images))

    @property
    def degree(self):
        return len(self.images)

    def __mul__(self, other):
        # (p * q)(i) = p(q(i)), composed at C speed by itemgetter
        p, q = self.images, other.images
        if len(p) != len(q):
            raise DomainError(f"degrees {len(p)} and {len(q)} differ")
        return Perm._raw(_take(p, q)) if q else self

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm._raw(tuple(inv))

    def __call__(self, i):
        if type(i) is not int or not 0 <= i < len(self.images):
            raise DomainError(f"point {i!r} is not one of 0..{len(self.images) - 1}")
        return self.images[i]

    def fixed_points(self) -> int:
        return sum(1 for i, j in enumerate(self.images) if i == j)

    def cycle_type(self):
        lengths = [len(c) for c in _cycles(self.images)]
        lengths += [1] * (len(self.images) - sum(lengths))
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
        images = self.images
        if len(_POINT_NAMES) < len(images):
            _POINT_NAMES.extend(map(str, range(len(_POINT_NAMES), len(images))))
        return "".join("(" + " ".join(_take(_POINT_NAMES, c)) + ")"
                       for c in _cycles(images)) or "()"


def _cycles(images):
    """Each cycle longer than 1 of the permutation with these ``images``, as
    a list of points starting from its least point, in the order of those
    points."""
    seen = [False] * len(images)
    for i in range(len(images)):
        if seen[i] or images[i] == i:
            continue
        cycle, j = [], i
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = images[j]
        yield cycle


# str(i) for every point 0, 1, ... of the largest degree a Perm was spelled
# out at: naming the points, not walking the cycles, was most of a repr's
# time, and one CLI call spells out every class representative.
_POINT_NAMES = []


def _take(seq, idx):
    """``tuple(seq[i] for i in idx)`` for a non-empty ``idx``, at C speed."""
    if len(idx) > 1:
        return itemgetter(*idx)(seq)
    return (seq[idx[0]],)


def _orbits(seeds, maps):
    """Orbits of the indices ``seeds`` under the index ``maps``, as sets, in
    the order of their first seeds; each is built only when asked for."""
    seen = set()
    for x in seeds:
        if x not in seen:
            orbit, frontier = {x}, [x]
            for y in frontier:
                for m in maps:
                    if m[y] not in orbit:
                        orbit.add(m[y])
                        frontier.append(m[y])
            seen |= orbit
            yield orbit


def _divisors(n):
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
    return sorted(out)


def _prime_factors(n):
    """The prime factors of ``n`` >= 1 with multiplicity, ascending, by trial
    division (n is at most ELEMENT_LIMIT)."""
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out + [n] if n > 1 else out


def _budget(degree):
    """The most elements a group on ``degree`` points may have, and the
    message that refuses one more: ELEMENT_LIMIT, or CLOSURE_LIMIT // degree
    where that is smaller."""
    room = CLOSURE_LIMIT // max(degree, 1)
    if ELEMENT_LIMIT <= room:
        return ELEMENT_LIMIT, f"more than ELEMENT_LIMIT = {ELEMENT_LIMIT} elements"
    return room, (f"more than {room} elements of degree {degree}: elements x "
                  f"degree passes CLOSURE_LIMIT = {CLOSURE_LIMIT}")


def _admit(degree, orders):
    """Refuse, as the closure would, a group on ``degree`` points whose order
    is the last of the non-decreasing ``orders``, reading no more of them
    than the budget needs."""
    bound, message = _budget(degree)
    if any(order > bound for order in orders):
        raise CapExceeded(message)


def _enumerate(gens, degree):
    """The frozenset of elements of <gens>, by breadth-first closure, and
    ``(elems, index, right, left)``: the elements in sorted ``Perm`` order,
    the index of each, and per non-identity generator s (keyed by index) the
    maps ``right[s][x]`` and ``left[s][x]``, indexing x * s and s * x.

    Up to BYTE_LIMIT points the search runs on image ``bytes``, keyed by
    them: g * x is x's bytes translated through g's table, and each ``Perm``
    is built once, after the search.  Past it the search keys ``Perm``
    objects, which keep the hash of their long image tuples, and composes
    x * g through one getter per generator.  No ``Perm.__mul__`` runs, and
    the maps of the other side follow the search tree: x = t * p gives
    x * s = t * (p * s), and x = p * t gives s * x = (s * p) * t.
    Raises CapExceeded once the group passes its :func:`_budget`.
    """
    bound, message = _budget(degree)
    ident = Perm.identity(degree)
    gens = list(dict.fromkeys(g for g in gens if g != ident))
    on_left = degree <= BYTE_LIMIT
    if on_left:
        # (g * x)(i) = g(x(i)): each image byte mapped through g's table.
        start = bytes(range(degree))
        steps = [methodcaller("translate", bytes.maketrans(start, bytes(g.images)))
                 for g in gens]
    else:
        # (x * g)(i) = x(g(i)): one getter per generator.  A Perm keeps its
        # hash; hashing a long image tuple again costs half a product.
        start = ident
        steps = [itemgetter(*g.images) for g in gens]
    found, seen = [start], {start: 0}  # in search order: found[j + 1] is gens[j]
    searched = [[] for _ in gens]
    tree = []  # found[i] is found[p] times gens[j] for (p, j) = tree[i - 1]
    for i, x in enumerate(found):
        for j, step in enumerate(steps):
            y = step(x) if on_left else Perm._raw(step(x.images))
            k = seen.setdefault(y, len(found))
            if k == len(found):
                if k >= bound:
                    raise CapExceeded(message)
                found.append(y)
                tree.append((i, j))
            searched[j].append(k)
    derived = [[m[0]] for m in searched]
    for d in derived:
        for p, j in tree:
            d.append(searched[j][d[p]])
    if on_left:
        right, left, images = derived, searched, found
    else:
        right, left, images = searched, derived, [p.images for p in found]
    # Relabel from search order to sorted order; bytes of values below 256
    # sort like tuples of them.
    order = sorted(range(len(found)), key=images.__getitem__)
    pos = sorted(range(len(found)), key=order.__getitem__)
    elems = [found[i] for i in order]
    if on_left:
        elems = [Perm._raw(tuple(x)) for x in elems]
    keys = [pos[j + 1] for j in range(len(gens))]

    def relabel(maps):
        return {s: _take(pos, _take(m, order)) for s, m in zip(keys, maps)}
    index = dict(zip(elems, range(len(elems))))
    return frozenset(index), (elems, index, relabel(right), relabel(left))


class ConjClass(Record):
    __slots__ = ("representative", "members")

    @property
    def size(self) -> int:
        return len(self.members)


class FactorDescriptor(Record):
    """Isomorphism-type proxy for a composition factor, ordered as the tuple
    (order, is_abelian, is_simple)."""

    __slots__ = ("order", "is_abelian", "is_simple")

    __lt__, __le__, __gt__, __ge__ = map(compare, (lt, le, gt, ge))


class ClassFunction(Record):
    """Rational-valued function on the conjugacy classes, keyed by class index."""

    __slots__ = ("values",)

    def __init__(self, values: dict):
        for i, v in values.items():
            if not isinstance(v, (int, Fraction)) or isinstance(v, bool):
                raise TypeError(f"class function value {v!r} at class {i} is not exact")
        super().__init__(values)


# -- the index core ----------------------------------------------------------

class CayleyTable:
    """Cayley table of a finite group, on integer indices.

    ``elems[i]`` is the i-th element in sorted ``Perm`` order,
    ``mul[x][y]`` indexes ``elems[x] * elems[y]`` and ``inv[x]`` indexes
    the inverse of ``elems[x]``.  The rows ``mul[x]`` are ``bytes`` up to
    BYTE_LIMIT elements and tuples past it.  Subgroups are frozensets of
    indices.
    """

    def __init__(self, elements, elems, index, left):
        """The group ``elements``, with ``elems`` and ``index`` as above and
        ``left[s][x]`` indexing ``elems[s] * elems[x]`` for each generator s."""
        n = len(elems)
        gens = sorted(left)
        as_bytes = n <= BYTE_LIMIT
        mul = [None] * n
        mul[0] = bytes(range(n)) if as_bytes else tuple(range(n))
        maps = {s: bytes(left[s]).ljust(BYTE_LIMIT, b"\0") for s in gens} if as_bytes else None
        tree = []
        queue = [0]
        for x in queue:
            for s in gens:
                y = left[s][x]
                if mul[y] is None:
                    # (s x) y = s (x y): the row of s x is the row of x mapped by s.
                    mul[y] = mul[x].translate(maps[s]) if as_bytes else _take(left[s], mul[x])
                    tree.append((y, x, s))
                    queue.append(y)
        gen_inv = {s: left[s].index(0) for s in gens}
        inv = [0] * n
        for y, x, s in tree:
            inv[y] = mul[inv[x]][gen_inv[s]]  # (s x)^-1 = x^-1 s^-1
        self.elems, self.index, self.mul, self.inv = elems, index, mul, inv
        self.all = frozenset(range(n))
        self._gens = {self.all: tuple(gens)}
        self._factors = {}
        self._perms = {self.all: elements}
        self._indices = {elements: self.all}

    def perms(self, s):
        """The element set that the index set ``s`` stands for."""
        out = self._perms.get(s)
        if out is None:
            out = self._perms[s] = frozenset(_take(self.elems, tuple(s)))
            self._indices[out] = s
        return out

    def indices(self, subset):
        """The index set of the element set ``subset``."""
        out = self._indices.get(subset)
        if out is None:
            try:
                out = frozenset(self.index[p] for p in subset)
            except KeyError:
                raise NotASubgroup("element set is not inside the group") from None
            self._indices[subset] = out
        return out

    def grow(self, have, gens, new, stop=None):
        """Extend the subgroup ``have`` = <gens>, in place, by each element of
        ``new`` in turn, stopping once it has ``stop`` elements; returns the
        generators used.

        Each step is Dimino's: the larger group is a union of left cosets
        t H of the group H before the step, found from the coset
        representatives times the generators.
        """
        mul = self.mul
        gens = list(gens)
        for x in new:
            if x in have:
                continue
            gens.append(x)
            members = tuple(have)
            reps = [0]
            for r in reps:
                for g in gens:
                    t = mul[g][r]
                    if t not in have:
                        have.update(_take(mul[t], members))
                        reps.append(t)
            if len(have) == stop:
                break
        return gens

    def generators(self, s):
        """A small generating set of the subgroup ``s``, greedy in index order.
        Raises NotASubgroup unless ``s`` is a subgroup, so only subgroups
        are cached."""
        gens = self._gens.get(s)
        if gens is None:
            have = {0}
            gens = tuple(self.grow(have, (), sorted(s), stop=len(s)))
            if have != s:
                raise NotASubgroup("element set is not a subgroup")
            self._gens[s] = gens
        return gens

    def classes(self, seeds, gens):
        """Orbits under conjugation by ``gens`` of the elements ``seeds``, built
        one at a time as they are asked for."""
        mul, inv = self.mul, self.inv
        # g y g^-1 = g (g y^-1)^-1, as a map on all indices at C speed
        return _orbits(seeds, [_take(mul[g], _take(inv, _take(mul[g], inv))) for g in gens])

    def is_normal_in(self, sub, s):
        """Whether ``sub`` is stable under conjugation by the generators of ``s``."""
        mul, inv = self.mul, self.inv
        for g in self.generators(s):
            row, gi = mul[g], inv[g]
            if any(mul[row[x]][gi] not in sub for x in sub):
                return False
        return True

    def is_abelian_over(self, s, sub):
        """Whether s/sub is abelian: every commutator of generators of s lies in sub."""
        mul, inv = self.mul, self.inv
        return all(mul[mul[mul[a][b]][inv[a]]][inv[b]] in sub
                   for a, b in combinations(self.generators(s), 2))

    def factor(self, sub, s):
        """The descriptor of s/sub, or None unless ``sub`` is a normal
        subgroup of the subgroup ``s``; each pair is checked once.

        An abelian s/sub is simple exactly when its order is prime.  A
        non-abelian one is simple when every conjugacy class of s outside
        ``sub`` generates s together with ``sub``, that is, when no element
        has a smaller normal closure.
        """
        key = (sub, s)
        if key not in self._factors:
            desc = None
            if sub <= s and self.is_normal_in(sub, s):
                order = len(s) // len(sub)
                abelian = self.is_abelian_over(s, sub)
                simple = (len(_prime_factors(order)) == 1 if abelian
                          else self._classes_generate(sub, s))
                desc = FactorDescriptor(order, abelian, simple)
            self._factors[key] = desc
        return self._factors[key]

    def _classes_generate(self, sub, s):
        """Whether each conjugacy class of s outside the normal subgroup
        ``sub`` generates s together with ``sub``."""
        sub_gens = self.generators(sub)
        for cls in self.classes(s - sub, self.generators(s)):
            have = set(sub)
            self.grow(have, sub_gens, cls, stop=len(s))
            if len(have) != len(s):
                return False
        return True

    def powers(self, x):
        """[x, x^2, ..., x^m], where m is the order of x and x^m is 0."""
        row, out = self.mul[x], [x]
        while out[-1]:
            out.append(row[out[-1]])
        return out

    def product(self, a, b):
        """The product set AB of two normal subgroups, which is their join."""
        mul = self.mul
        have = set(b)
        members = tuple(b)
        for x in a:
            if x not in have:
                have.update(_take(mul[x], members))
        return frozenset(have)

    def lattice(self, s):
        """All normal subgroups of the subgroup ``s``, by order, then by indices.

        Every normal subgroup is a join of normal closures of single
        conjugacy classes, so the lattice is the join-closure of those
        generators.  A class is closed only if it meets no generator of a
        cyclic group <x> whose class was closed before: each such x^j, with
        j prime to the order of x, generates <x>, so ncl(x^j) = ncl(x).
        Cyclic groups take a direct path through their divisor lattice; the
        search for an element of order |s| stops at a second element of
        order 2, which a cyclic group does not have.
        """
        n = len(s)
        if n == 1:
            return [s]
        involutions = 0
        for x in s:
            powers = self.powers(x)
            if len(powers) == n:  # x generates s
                return [frozenset(powers[n // d - 1:: n // d]) for d in _divisors(n)]
            if len(powers) == 2:
                involutions += 1
                if involutions == 2:
                    break
        closures, closed = set(), set()
        for cls in self.classes(s, self.generators(s)):
            if not closed.isdisjoint(cls):
                continue
            have = {0}
            self.grow(have, (), cls)
            closures.add(frozenset(have))
            powers = self.powers(next(iter(cls)))
            closed.update(p for j, p in enumerate(powers, 1) if math.gcd(j, len(powers)) == 1)
        normals = {frozenset({0})} | closures
        worklist = list(closures)
        while worklist:
            a = worklist.pop()
            for b in list(normals):
                if a <= b or b <= a:
                    continue
                join = self.product(a, b)
                if join not in normals:
                    normals.add(join)
                    worklist.append(join)
        return sorted(normals, key=lambda t: (len(t), sorted(t)))

    def maximal_normals(self, s):
        proper = [t for t in self.lattice(s) if len(t) < len(s)]
        return [t for t in proper
                if not any(len(u) > len(t) and t < u for u in proper)]


class PermGroup:
    """Finite permutation group given by generators on {0, ..., degree-1}.

    Elements are enumerated on first use; the object is immutable afterwards,
    so instances can be shared freely.
    """

    def __init__(self, degree, generators, name=None):
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise DomainError("generator degree mismatch")
        self.degree = degree
        self.generators = generators
        self.name = name or "G"
        self._elements = None
        self._maps = None
        self._classes = None
        self._cayley_table = None

    def __repr__(self):
        return f"PermGroup({self.name}, degree={self.degree})"

    @property
    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    @property
    def elements(self):
        if self._elements is None:
            self._elements, self._maps = _enumerate(self.generators, self.degree)
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements)

    def _table(self):
        if self._cayley_table is None:
            n = len(self.elements)
            if n * n > TABLE_LIMIT:
                raise CapExceeded(f"order {n} needs a Cayley table of {n * n} entries; "
                                  f"TABLE_LIMIT is {TABLE_LIMIT}")
            elems, index, _, left = self._maps
            self._cayley_table = CayleyTable(self.elements, elems, index, left)
        return self._cayley_table

    def conjugacy_classes(self):
        """Conjugacy classes, in the order of their least elements: orbits of
        x -> g x g^-1 = right[g]^-1[left[g][x]] over the generators g."""
        if self._classes is None:
            _ = self.elements
            elems, _, right, left = self._maps
            conj = [_take(sorted(range(len(r)), key=r.__getitem__), left[s])
                    for s, r in right.items()]
            self._classes = [ConjClass(elems[min(o)], frozenset(_take(elems, tuple(o))))
                             for o in _orbits(range(len(elems)), conj)]
        return self._classes

    def is_normal(self, subset) -> bool:
        """Whether the subgroup ``subset`` is normal (conjugation-stable)."""
        t = self._table()
        h = t.indices(frozenset(subset))
        t.generators(h)  # raises NotASubgroup unless h is a subgroup
        return t.is_normal_in(h, t.all)

    def normal_subgroups(self):
        """All normal subgroups, sorted by order and then by element set."""
        t = self._table()
        return [t.perms(s) for s in t.lattice(t.all)]

    def quotient_group(self, normal_subset) -> "PermGroup":
        """The quotient group, as the generator action on left cosets, which
        are numbered in the order of their least elements."""
        n = frozenset(normal_subset)
        if not self.is_normal(n):
            raise NotNormal("subgroup is not normal")
        t = self._table()
        members = tuple(t.indices(n))
        # x N, gathered from x's row, for each least x not yet in a coset
        coset, reps = {}, []
        for x in range(len(t.mul)):
            if x not in coset:
                coset.update(dict.fromkeys(_take(t.mul[x], members), len(reps)))
                reps.append(x)
        images = [Perm._raw(_take(coset, _take(t.mul[t.index[g]], reps)))
                  for g in self.generators]
        return PermGroup(len(reps), images)

    def is_abelian(self) -> bool:
        return all(a * b == b * a for a in self.generators for b in self.generators)

    def is_simple(self) -> bool:
        """Whether the group has exactly the two trivial normal subgroups: for
        an abelian group, whether its order is prime; otherwise decided by
        the table's step check (``CayleyTable.factor``) on G/{e}, where the
        identity has index 0."""
        n = self.order
        if n == 1:
            raise DomainError("the trivial group is conventionally not simple")
        if self.is_abelian():
            return len(_prime_factors(n)) == 1
        t = self._table()
        return t.factor(frozenset({0}), t.all).is_simple

    def _series(self):
        """The chain of ``composition_series`` as index sets, and each step's
        factor descriptor from the top down.  The table's own step check
        (``CayleyTable.factor``), not the lattice that chose the step, must
        find it normal with a simple factor, or AssertionError is raised."""
        t = self._table()
        chain, descs = [t.all], []
        while len(chain[-1]) > 1:
            maximals = t.maximal_normals(chain[-1])
            best = max(len(s) for s in maximals)
            sub = min((s for s in maximals if len(s) == best), key=sorted)
            desc = t.factor(sub, chain[-1])
            if desc is None:
                raise AssertionError("chain step is not normal")
            if not desc.is_simple:
                raise AssertionError("chain factor is not simple")
            chain.append(sub)
            descs.append(desc)
        chain.reverse()
        return chain, descs

    def composition_series(self):
        """A chain [{e}, ..., G] with simple factors, chosen deterministically.

        Each step takes a maximal proper normal subgroup of the previous
        group; ties on order break to the lexicographically smallest element
        set.  Every step is checked to be normal in its parent with a simple
        factor.
        """
        return list(map(self._table().perms, self._series()[0]))

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
        """Descriptors of the consecutive quotients of a subgroup chain; raises
        NotASubgroup or NotNormal unless each step is normal in the next."""
        t = self._table()
        chain = [t.indices(s) for s in chain]
        for s in chain:
            t.generators(s)  # raises NotASubgroup unless s is a subgroup
        descs = [t.factor(prev, cur) for prev, cur in zip(chain, chain[1:])]
        if None in descs:
            raise NotNormal("a chain step is not a normal subgroup of the next")
        return tuple(sorted(descs))

    def jordan_holder_factors(self):
        """The factor multiset of any composition series, as a sorted tuple;
        an abelian group's is read off its order, with no table."""
        if self.is_abelian():
            descs = tuple(FactorDescriptor(p, True, True) for p in _prime_factors(self.order))
        else:
            descs = tuple(sorted(self._series()[1]))
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

# Each constructor refuses a group past its budget by its closed-form order,
# before it builds a generator of n points.

def cyclic_group(n: int) -> PermGroup:
    if n < 1:
        raise DomainError("n must be >= 1")
    _admit(n, (n,))
    if n == 1:
        return PermGroup(1, [], name="C1")
    rot = Perm((i + 1) % n for i in range(n))
    return PermGroup(n, [rot], name=f"C{n}")


def dihedral_group(n: int) -> PermGroup:
    """Symmetries of a regular n-gon acting on its vertices (order 2n)."""
    if n < 3:
        raise DomainError("the vertex action needs n >= 3")
    _admit(n, (2 * n,))
    rot = Perm((i + 1) % n for i in range(n))
    flip = Perm((n - i) % n for i in range(n))
    return PermGroup(n, [rot, flip], name=f"D{n}")


def symmetric_group(n: int) -> PermGroup:
    if n < 1:
        raise DomainError("n must be >= 1")
    _admit(n, accumulate(range(1, n + 1), mul))
    gens = [Perm.from_cycles(n, (i, i + 1)) for i in range(n - 1)]
    return PermGroup(n, gens, name=f"S{n}")


def alternating_group(n: int) -> PermGroup:
    if n < 1:
        raise DomainError("n must be >= 1")
    _admit(n, (max(f // 2, 1) for f in accumulate(range(1, n + 1), mul)))
    gens = [Perm.from_cycles(n, (0, 1, i)) for i in range(2, n)]
    return PermGroup(n, gens, name=f"A{n}")
