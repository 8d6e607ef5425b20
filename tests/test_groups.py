"""Finite-group engine: classes, normal subgroups, quotients, composition
series, Jordan-Hoelder factors and class functions."""

import random
from fractions import Fraction

import pytest

from moonshine.groups import (
    CapExceeded,
    ClassMismatch,
    NotASubgroup,
    NotNormal,
    Perm,
    FactorDescriptor,
    PermGroup,
    _closure,
    _conj_classes_of,
    alternating_group,
    class_fn_inner,
    class_indicator,
    cyclic_group,
    dihedral_group,
    permutation_character,
    symmetric_group,
    trivial_character,
)



# -- Perm-level oracles: the element-set routines the index core replaced ---

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


def _oracle_quotient(elements, normal):
    """The quotient as a permutation group: generators acting on left cosets."""
    reps, coset_index = [], {}
    for x in sorted(elements):
        if x not in coset_index:
            for h in normal:
                coset_index[x * h] = len(reps)
            reps.append(x)
    images = [Perm(coset_index[g * rep] for rep in reps)
              for g in _oracle_generating_set(elements)]
    return PermGroup(len(reps), images)


def _oracle_descriptors(chain):
    return tuple(sorted(
        FactorDescriptor(len(cur) // len(prev), _oracle_quotient(cur, prev).is_abelian(), True)
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


def test_element_cap():
    with pytest.raises(CapExceeded):
        _ = symmetric_group(6, element_cap=100).order


def test_conjugacy_classes():
    c5 = cyclic_group(5)
    assert [c.size for c in c5.conjugacy_classes()] == [1] * 5
    s3 = symmetric_group(3)
    assert sorted(c.size for c in s3.conjugacy_classes()) == [1, 2, 3]
    a5 = alternating_group(5)
    assert sorted(c.size for c in a5.conjugacy_classes()) == [1, 12, 12, 15, 20]
    # identity class comes first and is a singleton
    assert a5.conjugacy_classes()[0].members == frozenset({a5.identity})


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
    t = symmetric_group(5)._table()
    rng = random.Random(11)
    for _ in range(500):
        x, y, z = (rng.randrange(120) for _ in range(3))
        assert t.mul[t.mul[x][y]][z] == t.mul[x][t.mul[y][z]]
        assert t.mul[x][t.inv[x]] == t.mul[t.inv[x]][x] == 0


def test_index_core_matches_perm_oracle():
    groups = [cyclic_group(n) for n in range(1, 61)]
    groups += [dihedral_group(n) for n in range(3, 31)]
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


def test_validate_chain_rejects_bad_chains():
    s4 = symmetric_group(4)
    t = s4._table()
    e = frozenset({s4.identity})
    a4 = alternating_group(4).elements
    with pytest.raises(AssertionError, match="not simple"):
        s4._validate_chain([t.indices(e), t.indices(a4), t.all])
    swap = frozenset({s4.identity, Perm.from_cycles(4, (0, 1))})
    with pytest.raises(AssertionError, match="not normal"):
        s4._validate_chain([t.indices(e), t.indices(swap), t.all])
    s4._validate_chain([t.indices(s) for s in s4.composition_series()])
    c4 = cyclic_group(4)
    with pytest.raises(AssertionError, match="not simple"):
        c4._validate_chain([frozenset({0}), c4._table().all])
