"""Index core of :mod:`moonshine.groups`: a Cayley table, and the normal
subgroup lattice on integer indices.

Elements are indexed in sorted ``Perm`` order, so the identity is 0 and
sorted index sets order like the element sets they stand for.  The table
is filled by breadth-first search over left multiplication by the
generators, whose maps come from the group's closure: it takes no ``Perm``
products, and every row other than the identity's is its BFS parent's row
mapped through one generator's map.  Up to ``BYTE_LIMIT`` = 256 elements
a row is ``bytes`` and that map is one ``bytes.translate`` call; past it a
row is a tuple gathered from the map.  256 is the size of a translate
table: every index must fit in one byte.  Subgroups grow coset by coset
(Dimino's algorithm), and two normal subgroups join as their product set
AB.  The lattice takes one normal closure per cyclic subgroup, not per
conjugacy class: x^j generates <x> when j is prime to the order of x, so
ncl(x^j) = ncl(x), and a class that meets such an x^j of an earlier closed
class is skipped (D_n closes d(n) + 2 classes, not one per class).  A
cyclic group has at most one element of order 2, so the search for a
generator of a cyclic group stops at a second one.  Each step sub < s of
a chain is checked once per table, for normality, abelian and simple
factor (:meth:`CayleyTable.factor`).  ``PermGroup`` builds one table per
group on first use and converts to and from frozensets of ``Perm`` at its
public methods.
"""

from __future__ import annotations

import math
from itertools import combinations

from .groups import BYTE_LIMIT, FactorDescriptor, NotASubgroup, _orbits, _take


def _divisors(n):
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
    return sorted(out)


class CayleyTable:
    """Cayley table of a finite group, on integer indices.

    ``elems[i]`` is the i-th element in sorted ``Perm`` order,
    ``mul[x][y]`` indexes ``elems[x] * elems[y]`` and ``inv[x]`` indexes
    the inverse of ``elems[x]``.  The rows ``mul[x]`` are ``bytes`` up to
    BYTE_LIMIT = 256 elements, where every index fits a byte and one
    ``bytes.translate`` call builds each, and tuples past it.  Subgroups
    are frozensets of indices.
    """

    def __init__(self, elements, elems, index, left):
        """The group ``elements``, with ``elems`` and ``index`` as above and
        ``left[s][x]`` indexing ``elems[s] * elems[x]`` for each generator s."""
        n = len(elems)
        gens = sorted(left)
        # Up to BYTE_LIMIT elements a row is bytes, translated through the
        # generator's left map padded to a 256-byte table; past it a tuple.
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
        """Orbits under conjugation by ``gens`` of the elements ``seeds``."""
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
                simple = len(_divisors(order)) == 2 if abelian else self._classes_generate(sub, s)
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
