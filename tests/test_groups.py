"""Finite-group engine: classes, normal subgroups, quotients, composition
series, Jordan-Hoelder factors and class functions."""

import random
import time
from fractions import Fraction

import pytest

from moonshine import groups
from moonshine.groups import (
    CapExceeded,
    ClassMismatch,
    NotASubgroup,
    NotNormal,
    Perm,
    FactorDescriptor,
    PermGroup,
    alternating_group,
    class_fn_inner,
    class_indicator,
    cyclic_group,
    dihedral_group,
    permutation_character,
    symmetric_group,
    trivial_character,
)
from moonshine.groups import BYTE_LIMIT, TABLE_LIMIT, CayleyTable, _enumerate



# -- Perm-level oracles: the element-set routines the index core replaced ---

def _closure(gens, degree):
    """Subgroup generated by ``gens``: breadth-first closure under products."""
    ident = Perm.identity(degree)
    elems, frontier = {ident}, [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return frozenset(elems)


def _conj_classes_of(elements, gens):
    """Conjugacy classes of the group ``elements`` = <gens>, sorted by rep."""
    pairs = [(g, g.inverse()) for g in gens]
    seen, classes = set(), []
    for x in sorted(elements):
        if x in seen:
            continue
        orbit, frontier = {x}, [x]
        for y in frontier:
            for g, gi in pairs:
                z = g * y * gi
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        seen |= orbit
        classes.append(frozenset(orbit))
    return classes


def _set_key(subset):
    return tuple(sorted(p.images for p in subset))


def _oracle_class_unions(g):
    """Normal subgroups as the unions of conjugacy classes closed under
    products: complete, but exponential in the number of classes."""
    classes = g.conjugacy_classes()
    ident_class = next(c for c in classes if g.identity in c.members)
    others = [c for c in classes if c is not ident_class]
    found = []
    for mask in range(1 << len(others)):
        chosen = [c for i, c in enumerate(others) if mask >> i & 1]
        if g.order % (1 + sum(c.size for c in chosen)):
            continue
        union = frozenset().union(ident_class.members, *(c.members for c in chosen))
        if all(a * b in union for a in union for b in union):
            found.append(union)
    return sorted(found, key=lambda s: (len(s), _set_key(s)))


def _oracle_generating_set(elements):
    degree = len(next(iter(elements)).images)
    gens = []
    have = frozenset({Perm.identity(degree)})
    for x in sorted(elements):
        if len(have) == len(elements):
            break
        if x not in have:
            gens.append(x)
            have = _closure(gens, degree)
    return gens


def _oracle_lattice(elements):
    """Join-closure of the normal closures of the classes, joins taken as
    Perm closures (no cyclic shortcut)."""
    degree = len(next(iter(elements)).images)
    ident = frozenset({Perm.identity(degree)})
    if len(elements) == 1:
        return [ident]
    closures = {_closure(list(cls), degree)
                for cls in _conj_classes_of(elements, _oracle_generating_set(elements))}
    normals = {ident} | closures
    worklist = list(closures)
    while worklist:
        a = worklist.pop()
        for b in list(normals):
            if a <= b or b <= a:
                continue
            join = _closure(_oracle_generating_set(a) + _oracle_generating_set(b), degree)
            if join not in normals:
                normals.add(join)
                worklist.append(join)
    return sorted(normals, key=lambda s: (len(s), _set_key(s)))


def _oracle_maximal_normals(elements):
    proper = [s for s in _oracle_lattice(elements) if len(s) < len(elements)]
    return [s for s in proper if not any(len(t) > len(s) and s < t for t in proper)]


def _oracle_series(g):
    chain = [g.elements]
    while len(chain[-1]) > 1:
        maximals = _oracle_maximal_normals(chain[-1])
        best = max(len(s) for s in maximals)
        chain.append(min((s for s in maximals if len(s) == best), key=_set_key))
    return chain[::-1]


def _oracle_all_series(elements, memo):
    if elements not in memo:
        if len(elements) == 1:
            memo[elements] = [(elements,)]
        else:
            memo[elements] = [chain + (elements,)
                              for m in _oracle_maximal_normals(elements)
                              for chain in _oracle_all_series(m, memo)]
    return memo[elements]


def _oracle_quotient(elements, normal, gens):
    """The quotient as a permutation group: ``gens`` acting on left cosets."""
    reps, coset_index = [], {}
    for x in sorted(elements):
        if x not in coset_index:
            for h in normal:
                coset_index[x * h] = len(reps)
            reps.append(x)
    images = [Perm(coset_index[g * rep] for rep in reps) for g in gens]
    return PermGroup(len(reps), images)


def _oracle_descriptors(chain):
    return tuple(sorted(
        FactorDescriptor(len(cur) // len(prev),
                         _oracle_quotient(cur, prev, _oracle_generating_set(cur)).is_abelian(),
                         True)
        for prev, cur in zip(chain, chain[1:])))


def test_perm_basics():
    p = Perm.from_cycles(4, (0, 1, 2))
    q = Perm.from_cycles(4, (2, 3))
    assert (p * q)(2) == p(q(2))
    assert (p * p.inverse()) == Perm.identity(4)
    assert p.order() == 3
    assert q.fixed_points() == 2
    with pytest.raises(ValueError):
        Perm((0, 0, 1))
    assert Perm([0]) * Perm([0]) == Perm.identity(1)
    assert Perm([]) * Perm([]) == Perm.identity(0)
    assert Perm.from_cycles(4, (1,), (0, 3), (2,)) == Perm([3, 1, 2, 0])
    assert [p(i) for i in range(4)] == [1, 2, 0, 3]


@pytest.mark.parametrize("call", [
    lambda: Perm([1.0, 0.0]),
    lambda: Perm([0.0, 1.0]),
    lambda: Perm([False, True]),
    lambda: Perm.from_cycles(3, (0, 5)),
    lambda: Perm.from_cycles(3, (0, 1.0)),
    lambda: Perm([1, 0, 2]) * Perm([0]),
    lambda: Perm([1, 2, 0]) * Perm([1, 0]),
    lambda: Perm.from_cycles(3, (0, 1, 2), (0, 1, 2)),
    lambda: Perm.from_cycles(4, (0, 1), (1, 0)),
    lambda: Perm.from_cycles(3, (0, 1), (1, 2)),
    lambda: Perm([1, 2, 0])(-1),
    lambda: Perm([1, 2, 0])(-3),
    lambda: Perm([1, 2, 0])(3),
    lambda: Perm([1, 2, 0])(1.0),
    lambda: Perm([1, 2, 0])(True),
], ids=["float-images", "float-identity", "bool-images", "cycle-point-past-degree",
        "float-cycle-point", "shorter-right-factor", "degrees-differ",
        "repeated-cycle", "reversed-cycle", "overlapping-cycles",
        "image-of-minus-one", "image-of-minus-degree", "image-past-degree",
        "image-of-float", "image-of-bool"])
def test_perm_refuses_malformed_input(call):
    with pytest.raises(groups.DomainError):
        call()


def test_refusals_name_the_point():
    # Overlapping cycles once read as the last assignment, not their
    # product, and a negative point read the image tuple from its end.
    with pytest.raises(groups.DomainError, match="cycle point 1 appears more than once"):
        Perm.from_cycles(3, (0, 1), (1, 2))
    with pytest.raises(groups.DomainError, match="point -1 is not one of 0..2"):
        Perm([1, 2, 0])(-1)


def _cycle_text(p):
    """Disjoint cycle notation by a plain walk, naming each point by str()."""
    seen, out = set(), []
    for i in range(p.degree):
        if i not in seen and p(i) != i:
            cyc = [i]
            while p(cyc[-1]) != i:
                cyc.append(p(cyc[-1]))
            seen.update(cyc)
            out.append("(" + " ".join(str(j) for j in cyc) + ")")
    return "".join(out) or "()"


def test_perm_repr_names_points_at_every_degree():
    # Small, then large, then small again: the shared point names grow once
    # and still serve the smaller degrees.
    rng = random.Random(12)
    perms = [Perm.identity(1), Perm.from_cycles(4, (0, 1, 2)), Perm.identity(250)]
    for degree in (3, 250, 7, 1, 120, 251, 2):
        images = list(range(degree))
        rng.shuffle(images)
        perms.append(Perm(images))
    perms.append(cyclic_group(300).generators[0])
    for p in perms:
        assert repr(p) == _cycle_text(p)
    assert repr(Perm.from_cycles(12, (10, 11), (0, 5))) == "(0 5)(10 11)"


@pytest.mark.parametrize("group", [symmetric_group(5), dihedral_group(12)], ids=["S5", "D12"])
def test_cycle_type_and_order_match_powers(group):
    # p^k fixes point i exactly when k is a multiple of the length of i's
    # cycle, so the powers p, p^2, ..., e give each point's cycle length
    for p in group.elements:
        powers = [p]
        while powers[-1] != group.identity:
            powers.append(powers[-1] * p)
        assert p.order() == len(powers)
        lengths = [next(k for k, q in enumerate(powers, 1) if q(i) == i)
                   for i in range(p.degree)]
        expect = sorted((n for n in set(lengths) for _ in range(lengths.count(n) // n)),
                        reverse=True)
        assert p.cycle_type() == tuple(expect)
    for degree, cycle_type in ((0, ()), (1, (1,))):
        assert Perm.identity(degree).cycle_type() == cycle_type
        assert Perm.identity(degree).order() == 1


def test_constructor_orders():
    assert cyclic_group(12).order == 12
    assert cyclic_group(1).order == 1
    assert dihedral_group(5).order == 10
    assert alternating_group(5).order == 60
    assert alternating_group(2).order == 1
    assert symmetric_group(4).order == 24
    assert symmetric_group(1).order == 1


def test_enumeration_examples():
    trivial = PermGroup(1, [])
    assert trivial.elements == frozenset({Perm.identity(1)})
    assert cyclic_group(7).order == 7
    assert symmetric_group(4).order == 24


def test_element_cap(monkeypatch):
    s6 = symmetric_group(6)
    monkeypatch.setattr("moonshine.groups.ELEMENT_LIMIT", 100)
    with pytest.raises(CapExceeded, match="ELEMENT_LIMIT = 100"):
        _ = s6.order  # the closure refuses
    with pytest.raises(CapExceeded, match="ELEMENT_LIMIT = 100"):
        symmetric_group(6)  # the constructor refuses by the order 720
    assert symmetric_group(4).order == 24


def _refusal(build):
    try:
        build()
    except CapExceeded as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("limit, value", [("ELEMENT_LIMIT", 24), ("CLOSURE_LIMIT", 60)])
def test_family_budget_check_agrees_with_closure(monkeypatch, limit, value):
    # Under small limits each constructor refuses exactly the groups whose
    # closure refuses, with the same message, so the last admitted and the
    # first refused n agree in every family.
    families = [(cyclic_group, range(1, 30)), (dihedral_group, range(3, 16)),
                (symmetric_group, range(1, 7)), (alternating_group, range(1, 7))]
    built = [(maker, n, maker(n)) for maker, ns in families for n in ns]
    monkeypatch.setattr(f"moonshine.groups.{limit}", value)
    outcomes = set()
    for maker, n, g in built:
        refused = _refusal(lambda: maker(n))
        assert refused == _refusal(lambda: PermGroup(g.degree, g.generators).order), g.name
        assert refused is None or limit in refused
        outcomes.add((maker, refused is None))
    assert len(outcomes) == 8  # every family has admitted and refused members


def test_conjugacy_classes():
    c5 = cyclic_group(5)
    assert [c.size for c in c5.conjugacy_classes()] == [1] * 5
    s3 = symmetric_group(3)
    assert sorted(c.size for c in s3.conjugacy_classes()) == [1, 2, 3]
    a5 = alternating_group(5)
    assert sorted(c.size for c in a5.conjugacy_classes()) == [1, 12, 12, 15, 20]
    # identity class comes first and is a singleton
    assert a5.conjugacy_classes()[0].members == frozenset({a5.identity})


def test_conjugacy_classes_match_perm_oracle():
    groups = [cyclic_group(n) for n in range(1, 61)]
    groups += [dihedral_group(n) for n in range(3, 31)]
    groups += [alternating_group(n) for n in range(1, 8)]
    groups += [symmetric_group(n) for n in range(1, 8)]
    for g in groups:
        oracle = _conj_classes_of(g.elements, g.generators)
        assert [(c.representative, c.members) for c in g.conjugacy_classes()] == [
            (min(s), s) for s in oracle], g.name


def test_class_equation_randomized():
    rng = random.Random(3)
    cases = 0
    groups = [cyclic_group(n) for n in range(1, 140)]
    groups += [dihedral_group(n) for n in range(3, 70)]
    groups += [alternating_group(n) for n in range(3, 6)]
    groups += [symmetric_group(n) for n in range(2, 6)]
    rng.shuffle(groups)
    for g in groups:
        classes = g.conjugacy_classes()
        assert sum(c.size for c in classes) == g.order
        assert all(g.order % c.size == 0 for c in classes)
        ident = [c for c in classes if g.identity in c.members]
        assert len(ident) == 1 and ident[0].size == 1
        cases += 1
    assert cases >= 200


def test_is_normal():
    d5 = dihedral_group(5)
    assert d5.is_normal(frozenset({d5.identity}))
    assert d5.is_normal(d5.elements)
    reflection = next(p for p in sorted(d5.elements) if p.order() == 2)
    assert not d5.is_normal(frozenset({d5.identity, reflection}))
    rotations = frozenset(p for p in d5.elements if p.order() in (1, 5))
    assert d5.is_normal(rotations)


def test_is_normal_rejects_non_subgroups():
    s3 = symmetric_group(3)
    three_cycle = Perm.from_cycles(3, (0, 1, 2))
    with pytest.raises(NotASubgroup):
        s3.is_normal(frozenset({s3.identity, three_cycle}))
    with pytest.raises(NotASubgroup):
        s3.is_normal(frozenset())
    with pytest.raises(NotASubgroup):
        s3.factor_descriptors([frozenset({Perm.identity(4)}), s3.elements])


def test_factor_descriptors_rejects_empty_step():
    s3 = symmetric_group(3)
    with pytest.raises(NotASubgroup):
        s3.factor_descriptors([frozenset(), s3.elements])


def test_factor_descriptors_rejects_non_normal_step():
    # <(0 1)> is not normal in S3; its "factor" of order 3 is not a quotient
    s3 = symmetric_group(3)
    swap = frozenset({s3.identity, Perm.from_cycles(3, (0, 1))})
    with pytest.raises(NotNormal):
        s3.factor_descriptors([frozenset({s3.identity}), swap, s3.elements])
    with pytest.raises(NotNormal):
        s3.factor_descriptors([frozenset({s3.identity}), s3.elements, swap])


def test_factor_descriptors_check_simplicity():
    # A4 has the normal Klein four-group, and V4 has three subgroups of order
    # 2, so neither factor is simple, though both chains are normal.
    s4 = symmetric_group(4)
    e = frozenset({s4.identity})
    a4 = alternating_group(4).elements
    v4 = frozenset({s4.identity, Perm.from_cycles(4, (0, 1), (2, 3)),
                    Perm.from_cycles(4, (0, 2), (1, 3)), Perm.from_cycles(4, (0, 3), (1, 2))})
    assert s4.factor_descriptors([e, a4, s4.elements]) == (
        FactorDescriptor(2, True, True), FactorDescriptor(12, False, False))
    assert s4.factor_descriptors([e, v4, s4.elements]) == (
        FactorDescriptor(4, True, False), FactorDescriptor(6, False, False))
    assert s4.factor_descriptors([e, e, s4.elements])[0] == FactorDescriptor(1, True, False)


def test_factor_steps_are_checked_once_per_group(monkeypatch):
    d = dihedral_group(60)
    chains = d.all_composition_series()
    t = d._table()
    checked = []
    real = t.is_normal_in
    monkeypatch.setattr(t, "is_normal_in", lambda sub, s: checked.append((sub, s)) or real(sub, s))
    first = [d.factor_descriptors(chain) for chain in chains]
    d.composition_series()
    assert [d.factor_descriptors(chain) for chain in chains] == first
    steps = {(t.indices(a), t.indices(b)) for chain in chains for a, b in zip(chain, chain[1:])}
    assert sum(len(chain) - 1 for chain in chains) > len(steps)  # chains share steps
    assert sorted(checked, key=repr) == sorted(steps, key=repr)


def test_normal_subgroups():
    a5 = alternating_group(5)
    assert [len(s) for s in a5.normal_subgroups()] == [1, 60]
    c12 = cyclic_group(12)
    assert [len(s) for s in c12.normal_subgroups()] == [1, 2, 3, 4, 6, 12]
    s3 = symmetric_group(3)
    assert [len(s) for s in s3.normal_subgroups()] == [1, 3, 6]


def test_normal_subgroups_class_cap():
    # C21 has 21 classes, past the old 20-class cap of the subset method;
    # the lattice route has no such cap and finds the divisor subgroups.
    assert [len(s) for s in cyclic_group(21).normal_subgroups()] == [1, 3, 7, 21]


def test_normal_subgroups_cross_validation():
    # the class-subset oracle and the index lattice must agree
    for g in (symmetric_group(4), dihedral_group(6), cyclic_group(18),
              alternating_group(4), dihedral_group(9), alternating_group(5)):
        assert g.normal_subgroups() == _oracle_class_unions(g)


def test_quotient_group():
    c12 = cyclic_group(12)
    assert c12.quotient_group(frozenset({c12.identity})).order == 12
    assert c12.quotient_group(c12.elements).order == 1
    order3 = next(s for s in c12.normal_subgroups() if len(s) == 3)
    q = c12.quotient_group(order3)
    assert q.order == 4
    assert q.is_abelian()
    s4 = symmetric_group(4)
    a4 = next(s for s in s4.normal_subgroups() if len(s) == 12)
    assert s4.quotient_group(a4).order == 2


def test_quotient_generators_match_perm_oracle():
    for g in (symmetric_group(4), symmetric_group(5), dihedral_group(6), dihedral_group(9),
              cyclic_group(12), cyclic_group(18), alternating_group(4)):
        for normal in g.normal_subgroups():
            q = g.quotient_group(normal)
            oracle = _oracle_quotient(g.elements, normal, g.generators)
            assert (q.degree, q.generators) == (oracle.degree, oracle.generators), g.name


def test_quotient_requires_normal():
    d5 = dihedral_group(5)
    reflection = next(p for p in sorted(d5.elements) if p.order() == 2)
    with pytest.raises(NotNormal):
        d5.quotient_group(frozenset({d5.identity, reflection}))


def test_is_simple():
    assert alternating_group(5).is_simple()
    assert cyclic_group(7).is_simple()
    assert not cyclic_group(12).is_simple()
    assert not symmetric_group(4).is_simple()
    # works past the 20-class subset cap
    assert cyclic_group(23).is_simple()
    with pytest.raises(ValueError):
        cyclic_group(1).is_simple()
    # the table's step check agrees with counting the normal lattice
    families = [cyclic_group(n) for n in range(2, 201)]
    families += [dihedral_group(n) for n in range(3, 101)]
    families += [alternating_group(n) for n in range(3, 7)]
    families += [symmetric_group(n) for n in range(2, 6)]
    for g in families:
        assert g.is_simple() == (len(g.normal_subgroups()) == 2), g.name


def test_is_simple_abelian_needs_no_class_walk(monkeypatch):
    def refuse(self, sub, s):
        raise AssertionError("an abelian quotient walked its conjugacy classes")

    monkeypatch.setattr(CayleyTable, "_classes_generate", refuse)
    for n in (4, 6, 12, 49, 360, 4000):
        assert not cyclic_group(n).is_simple()
    assert cyclic_group(4001).is_simple()
    d6 = dihedral_group(6)
    assert [d.is_simple for d in d6.factor_descriptors(d6.composition_series())] == [True] * 3


@pytest.mark.parametrize("build, built, classes", [
    (lambda: symmetric_group(4), 2, 4), (lambda: dihedral_group(6), 1, 5),
    (lambda: symmetric_group(5), 2, 6), (lambda: alternating_group(4), 3, 3)],
    ids=["S4", "D6", "S5", "A4"])
def test_is_simple_stops_at_the_first_class_that_fails(monkeypatch, build, built, classes):
    # _orbits yields one class at a time, so the first class outside {e}
    # that does not generate the group decides, and no later class is built:
    # the conjugation maps are read only at the points of the yielded classes.
    g = build()
    orbits, yielded, read = groups._orbits, [], set()

    class Spied:
        def __init__(self, m):
            self.m = m

        def __getitem__(self, y):
            read.add(y)
            return self.m[y]

    def spy(seeds, maps):
        for orbit in orbits(seeds, list(map(Spied, maps))):
            yielded.append(orbit)
            yield orbit

    monkeypatch.setattr(groups, "_orbits", spy)
    assert not g.is_simple()
    assert len(yielded) == built
    assert read == set().union(*yielded)
    monkeypatch.undo()
    assert len(g.conjugacy_classes()) == classes + 1


def test_composition_series_examples():
    c12 = cyclic_group(12)
    chain = c12.composition_series()
    assert len(chain) == 4
    assert all(a < b for a, b in zip(chain, chain[1:]))  # strictly ascending
    assert len(chain[0]) == 1 and len(chain[-1]) == 12
    factors = sorted(len(b) // len(a) for a, b in zip(chain, chain[1:]))
    assert factors == [2, 2, 3]

    trivial = cyclic_group(1)
    assert trivial.composition_series() == [frozenset({trivial.identity})]

    s4 = symmetric_group(4)
    s4_factors = sorted(len(b) // len(a) for a, b in
                        zip(s4.composition_series(), s4.composition_series()[1:]))
    assert s4_factors == [2, 2, 2, 3]


def test_composition_series_deterministic():
    g = dihedral_group(6)
    assert g.composition_series() == g.composition_series()


def test_jordan_holder_examples():
    assert [d.order for d in cyclic_group(12).jordan_holder_factors()] == [2, 2, 3]
    assert (dihedral_group(5).jordan_holder_factors()
            == cyclic_group(10).jordan_holder_factors() )
    a5 = alternating_group(5).jordan_holder_factors()
    assert len(a5) == 1
    assert a5[0].order == 60 and not a5[0].is_abelian and a5[0].is_simple
    assert [d.order for d in symmetric_group(4).jordan_holder_factors()] == [2, 2, 2, 3]


def test_jordan_holder_factor_orders_multiply_to_group_order():
    for g in (cyclic_group(24), dihedral_group(12), symmetric_group(4),
              alternating_group(5), cyclic_group(30)):
        prod = 1
        for d in g.jordan_holder_factors():
            prod *= d.order
        assert prod == g.order


def test_non_characterisation_witness():
    # same factors, different groups
    for p in (3, 5, 7):
        dp = dihedral_group(p)
        c2p = cyclic_group(2 * p)
        assert dp.jordan_holder_factors() == c2p.jordan_holder_factors()
        assert not dp.is_abelian() and c2p.is_abelian()


def test_all_composition_series_c12():
    # exactly the three chains through C6/C4, with identical factor multisets
    c12 = cyclic_group(12)
    chains = c12.all_composition_series()
    assert len(chains) == 3
    multisets = {c12.factor_descriptors(chain) for chain in chains}
    assert len(multisets) == 1


def test_lagrange_consistency():
    for g in (symmetric_group(4), dihedral_group(10), alternating_group(5)):
        for s in g.normal_subgroups():
            assert g.order % len(s) == 0


def test_class_function_inner_products():
    s3 = symmetric_group(3)
    assert class_fn_inner(trivial_character(s3), trivial_character(s3), s3) == 1
    assert class_fn_inner(class_indicator(s3, 0), class_indicator(s3, 1), s3) == 0
    fix = permutation_character(s3)
    assert class_fn_inner(fix, trivial_character(s3), s3) == 1


def test_permutation_character_values():
    s3 = symmetric_group(3)
    fix = permutation_character(s3)
    classes = s3.conjugacy_classes()
    by_size = {c.size: i for i, c in enumerate(classes)}
    assert fix.values[by_size[1]] == 3      # identity fixes everything
    assert fix.values[by_size[3]] == 1      # a transposition fixes one point
    assert fix.values[by_size[2]] == 0      # a 3-cycle fixes nothing


def test_class_indicator_orthogonality_randomized():
    rng = random.Random(17)
    pool = [symmetric_group(3), symmetric_group(4), alternating_group(4),
            alternating_group(5), dihedral_group(6), dihedral_group(7),
            cyclic_group(9), cyclic_group(16)]
    cases = 0
    while cases < 200:
        g = rng.choice(pool)
        k = len(g.conjugacy_classes())
        i, j = rng.randrange(k), rng.randrange(k)
        inner = class_fn_inner(class_indicator(g, i), class_indicator(g, j), g)
        if i == j:
            assert inner == Fraction(g.conjugacy_classes()[i].size, g.order)
        else:
            assert inner == 0
        cases += 1


def test_class_mismatch():
    s3 = symmetric_group(3)
    s4 = symmetric_group(4)
    with pytest.raises(ClassMismatch):
        class_fn_inner(trivial_character(s3), trivial_character(s4), s3)


def test_dihedral_requires_three_vertices():
    with pytest.raises(ValueError):
        dihedral_group(2)


def test_against_sympy_oracle():
    from sympy.combinatorics.named_groups import (
        AlternatingGroup,
        CyclicGroup,
        DihedralGroup,
        SymmetricGroup,
    )

    pairs = [
        (symmetric_group(4), SymmetricGroup(4)),
        (symmetric_group(5), SymmetricGroup(5)),
        (alternating_group(5), AlternatingGroup(5)),
        (dihedral_group(6), DihedralGroup(6)),
        (dihedral_group(9), DihedralGroup(9)),
        (cyclic_group(18), CyclicGroup(18)),
    ]
    for ours, theirs in pairs:
        assert ours.order == theirs.order()
        assert (sorted(c.size for c in ours.conjugacy_classes())
                == sorted(len(c) for c in theirs.conjugacy_classes()))
        if theirs.is_solvable:  # sympy only builds series for solvable groups
            their_orders = sorted(h.order() for h in theirs.composition_series())
            our_orders = sorted(len(s) for s in ours.composition_series())
            assert our_orders == their_orders


# -- the index core ----------------------------------------------------------

def test_cayley_table_axioms():
    for g in (symmetric_group(4), dihedral_group(7), alternating_group(5)):
        t = g._table()
        n = g.order
        assert t.elems == sorted(g.elements) and t.elems[0] == g.identity
        assert all(t.index[p] == i for i, p in enumerate(t.elems))
        for x in range(n):
            assert t.elems[t.inv[x]] == t.elems[x].inverse()
            for y in range(n):
                assert t.mul[x][y] == t.index[t.elems[x] * t.elems[y]]
        elems, index, right, left = g._maps
        assert elems is t.elems and index is t.index
        assert sorted(right) == sorted(left) == sorted({index[p] for p in g.generators})
        for s in right:
            assert tuple(t.mul[s]) == tuple(left[s])
            for x in range(n):
                assert elems[right[s][x]] == elems[x] * elems[s]
                assert elems[left[s][x]] == elems[s] * elems[x]
    t = symmetric_group(5)._table()
    rng = random.Random(11)
    for _ in range(500):
        x, y, z = (rng.randrange(120) for _ in range(3))
        assert t.mul[t.mul[x][y]][z] == t.mul[x][t.mul[y][z]]
        assert t.mul[x][t.inv[x]] == t.mul[t.inv[x]][x] == 0


def test_one_enumeration_per_group(monkeypatch):
    # Each group enumerates once, and its closure composes images (bytes
    # up to BYTE_LIMIT points, tuples past it): elements, classes, the
    # table, the lattice and normality call no Perm.__mul__ at all.
    enumerations, products = [], 0
    mul = Perm.__mul__

    def counted(p, q):
        nonlocal products
        products += 1
        return mul(p, q)

    monkeypatch.setattr(Perm, "__mul__", counted)
    monkeypatch.setattr("moonshine.groups._enumerate",
                        lambda gens, degree: enumerations.append(degree) or _enumerate(gens, degree))
    for g in (symmetric_group(5), dihedral_group(100)):
        enumerations.clear()
        products = 0
        _ = g.elements
        g.conjugacy_classes()
        normals = g.normal_subgroups()
        assert all(g.is_normal(s) for s in normals)
        assert not g.is_normal(frozenset({g.identity, g.generators[-1]}))
        assert len(enumerations) == 1, g.name
        assert products == 0, g.name


@pytest.mark.parametrize("g, closures", [
    (dihedral_group(100), 11), (dihedral_group(64), 9), (dihedral_group(12), 8),
    (symmetric_group(5), 7)], ids=["D100", "D64", "D12", "S5"])
def test_one_normal_closure_per_cyclic_subgroup(monkeypatch, g, closures):
    # The whole group's generators are cached with the table, so every grow
    # call in the lattice is one normal closure: D_n closes d(n) + 2 classes
    # (one per rotation subgroup, two reflection classes), not one per class.
    t = g._table()
    grows = 0
    grow = t.grow

    def counted(*args, **kwargs):
        nonlocal grows
        grows += 1
        return grow(*args, **kwargs)

    monkeypatch.setattr(t, "grow", counted)
    normals = t.lattice(t.all)
    assert grows == closures, g.name
    assert normals == [t.indices(s) for s in _oracle_lattice(g.elements)], g.name


def test_table_budget_stops_normality_and_quotients():
    s8 = symmetric_group(8)
    a8 = alternating_group(8).elements
    for call in (s8.is_normal, s8.quotient_group):
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="TABLE_LIMIT"):
            call(a8)
        assert time.perf_counter() - start < 2.0


def test_index_core_matches_perm_oracle():
    groups = [cyclic_group(n) for n in range(1, 61)]
    groups += [dihedral_group(n) for n in list(range(3, 31)) + [36, 48]]
    groups += [alternating_group(n) for n in range(1, 7)]
    groups += [symmetric_group(n) for n in range(1, 6)]
    for g in groups:
        assert g.composition_series() == _oracle_series(g), g.name
        chains = g.all_composition_series()
        assert chains == _oracle_all_series(g.elements, {}), g.name
        for chain in chains:
            assert g.factor_descriptors(chain) == _oracle_descriptors(chain), g.name
        lattice = _oracle_lattice(g.elements)
        assert g.normal_subgroups() == lattice, g.name
        if g.order > 1:
            assert g.is_simple() == (len(lattice) == 2), g.name


def _s3_on_last_points(degree):
    """S3 on the last three of ``degree`` points, an order-6 group."""
    a, b, c = degree - 3, degree - 2, degree - 1
    return PermGroup(degree, [Perm.from_cycles(degree, (a, b)),
                              Perm.from_cycles(degree, (a, b, c))], name=f"S3/{degree}")


# Both sides of BYTE_LIMIT = 256, by degree (the closure's images) and by
# order (the table's rows): C255 and C256 are bytes throughout, C257 tuples
# throughout; D128 (order 256) and D129 (order 258) have a bytes closure
# and a bytes or a tuple table; A6 (order 360) has a bytes closure and a
# tuple table, and S3 on 257 points the other way round.
@pytest.mark.parametrize("build", [
    lambda: cyclic_group(255), lambda: cyclic_group(256), lambda: cyclic_group(257),
    lambda: dihedral_group(128), lambda: dihedral_group(129), lambda: alternating_group(6),
    lambda: _s3_on_last_points(257)],
    ids=["C255", "C256", "C257", "D128", "D129", "A6", "S3-on-257"])
def test_byte_limit_boundary_matches_perm_oracle(monkeypatch, build):
    g = build()
    steps = []
    methodcaller = groups.methodcaller
    monkeypatch.setattr(groups, "methodcaller",
                        lambda *args: steps.append(args[0]) or methodcaller(*args))
    elements = g.elements
    assert bool(steps) == (g.degree <= BYTE_LIMIT), g.name
    t = g._table()
    assert type(t.mul[0]) is (bytes if g.order <= BYTE_LIMIT else tuple), g.name
    rng = random.Random(g.order)
    for _ in range(300):
        x, y = rng.randrange(g.order), rng.randrange(g.order)
        assert t.elems[t.mul[x][y]] == t.elems[x] * t.elems[y], g.name
    assert elements == _closure(g.generators, g.degree), g.name
    assert [(c.representative, c.members) for c in g.conjugacy_classes()] == [
        (min(s), s) for s in _conj_classes_of(elements, g.generators)], g.name
    lattice = _oracle_lattice(elements)
    assert g.normal_subgroups() == lattice, g.name
    assert g.composition_series() == _oracle_series(g), g.name
    chains = g.all_composition_series()
    assert chains == _oracle_all_series(elements, {}), g.name
    for chain in chains:
        assert g.factor_descriptors(chain) == _oracle_descriptors(chain), g.name
    for normal in lattice:
        q = g.quotient_group(normal)
        oracle = _oracle_quotient(elements, normal, g.generators)
        assert (q.degree, q.generators) == (oracle.degree, oracle.generators), g.name


_V4 = [(), ((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]


@pytest.mark.parametrize("below_the_top, message", [
    ([()], "not simple"),  # S4/{e}, as if the lattice had nothing in between
    ([(), ((0, 1),)], "not normal"),  # <(0 1)>
    (_V4, "not simple"),  # S4/V4, isomorphic to S3
], ids=["trivial", "transposition", "klein-four"])
@pytest.mark.parametrize("method", ["composition_series", "jordan_holder_factors"])
def test_series_walk_rejects_a_wrong_lattice_choice(monkeypatch, below_the_top, message, method):
    # The series walk checks each chosen step with the table's own factor
    # check, so a lattice that offers a wrong maximal normal subgroup of S4
    # is caught, whichever public method walks the chain.
    s4 = symmetric_group(4)
    t = s4._table()
    wrong = t.indices(frozenset(Perm.from_cycles(4, *c) for c in below_the_top))
    maximal_normals = CayleyTable.maximal_normals
    monkeypatch.setattr(CayleyTable, "maximal_normals",
                        lambda self, s: [wrong] if s == self.all else maximal_normals(self, s))
    with pytest.raises(AssertionError, match=message):
        getattr(s4, method)()
    monkeypatch.undo()
    getattr(s4, method)()  # the lattice's own choices pass the same check


def test_jordan_holder_factors_converts_no_element_sets(monkeypatch):
    # The factors are read off the index chain: no index set becomes a set
    # of Perm, and no set of Perm an index set.
    def refuse(self, s):
        raise AssertionError("an element set was converted")

    monkeypatch.setattr(CayleyTable, "perms", refuse)
    monkeypatch.setattr(CayleyTable, "indices", refuse)
    for g, orders in ((symmetric_group(4), [2, 2, 2, 3]), (dihedral_group(12), [2, 2, 2, 3]),
                      (cyclic_group(60), [2, 2, 3, 5])):
        assert [d.order for d in g.jordan_holder_factors()] == orders, g.name


def _abelian(*orders):
    """C_n1 x C_n2 x ..., each factor a cycle on its own block of points."""
    blocks, start = [], 0
    for n in orders:
        blocks.append(tuple(range(start, start + n)))
        start += n
    return PermGroup(start, [Perm.from_cycles(start, b) for b in blocks],
                     name="x".join(f"C{n}" for n in orders))


def test_abelian_factors_match_the_chain_walk():
    # Read off the order, the factors equal those of the checked chain walk
    # over the table and of the Perm oracle on the same chain.
    abelian = [cyclic_group(n) for n in range(1, 201)]
    abelian += [alternating_group(n) for n in (1, 2, 3)] + [symmetric_group(n) for n in (1, 2)]
    abelian += [_abelian(*orders) for orders in ((2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 6))]
    for g in abelian:
        assert g.is_abelian(), g.name
        factors = g.jordan_holder_factors()
        assert g._cayley_table is None, g.name
        chain = g.composition_series()
        assert factors == g.factor_descriptors(chain) == _oracle_descriptors(chain), g.name
        if g.order > 1:
            assert g.is_simple() == (len(g.normal_subgroups()) == 2), g.name


def test_abelian_factors_and_simplicity_build_no_table(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("a Cayley table was built")

    monkeypatch.setattr(CayleyTable, "__init__", refuse)
    for g, orders in ((cyclic_group(1), []), (cyclic_group(2), [2]), (cyclic_group(12), [2, 2, 3]),
                      (cyclic_group(1000), [2, 2, 2, 5, 5, 5]), (cyclic_group(4001), [4001]),
                      (_abelian(2, 2), [2, 2]), (_abelian(2, 6), [2, 2, 3]),
                      (alternating_group(3), [3]), (symmetric_group(2), [2])):
        assert [d.order for d in g.jordan_holder_factors()] == orders, g.name
        if g.order > 1:
            assert g.is_simple() == (len(orders) == 1), g.name
    with pytest.raises(AssertionError, match="table was built"):
        symmetric_group(3).jordan_holder_factors()  # not abelian: the chain walk


def test_elementary_abelian_past_the_table_budget():
    g = _abelian(*[2] * 13)
    assert g.order ** 2 > TABLE_LIMIT
    assert g.jordan_holder_factors() == (FactorDescriptor(2, True, True),) * 13
    assert not g.is_simple()
    with pytest.raises(CapExceeded, match="TABLE_LIMIT"):
        g.composition_series()

