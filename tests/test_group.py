from math import factorial, gcd
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge.atlas import build_alternating, build_psl2, build_symmetric
from designforge.errors import NotASubgroupElement, NotFound, OrbitOverflow
from designforge.group import (
    PermGroup,
    _Chain,
    centralizer,
    element_of_order,
    find_imprimitivity,
    index_set_action,
    orbit_with_stabilizer,
    orbit_with_transversal,
    schreier_stabilizer,
    subgroup_closure,
    transversal,
)
from designforge.perm import Permutation, parse_cycle_string
from oracles import (
    SCALAR_ACTIONS,
    bfs_orbit,
    bfs_orbits,
    block_system_by_union_find,
    conjugacy_class,
    naive_closure,
    named_action,
    named_row,
    orbit_with_stored_transversal,
    point_image,
    row_value,
    scalar_orbit,
    set_image,
    stored_schreier_stabilizer,
)


def sym(n):
    gens = [Permutation([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(Permutation(list(range(1, n)) + [0]))
    return PermGroup(gens, n)


def cyclic(n):
    return PermGroup([Permutation(list(range(1, n)) + [0])], n)


def dihedral(n):
    rot = Permutation(list(range(1, n)) + [0])
    ref = Permutation([(-i) % n for i in range(n)])
    return PermGroup([rot, ref], n)


def test_orders_of_known_groups():
    assert sym(5).order() == 120
    assert cyclic(12).order() == 12
    assert dihedral(9).order() == 18
    assert PermGroup([], 4).order() == 1


def test_trivial_group_contains_only_identity():
    G = PermGroup([], 3)
    assert Permutation.identity(3) in G
    assert Permutation([1, 0, 2]) not in G


@pytest.mark.parametrize("n", range(2, 7))
def test_symmetric_membership_exhaustive(n):
    from itertools import permutations

    G = sym(n)
    for images in permutations(range(n)):
        assert Permutation(images) in G


def test_membership_against_naive_closure():
    # every generated group of modest order: BSGS membership agrees with
    # brute-force closure
    cases = [
        dihedral(12),
        PermGroup([parse_cycle_string("(1,2,3)", 7), parse_cycle_string("(4,5,6,7)", 7)], 7),
        PermGroup([parse_cycle_string("(1,2)(3,4)", 6), parse_cycle_string("(1,3,5)", 6)], 6),
    ]
    for G in cases:
        elems = naive_closure(G.gens, G.degree)
        assert G.order() == len(elems)
        for x in elems:
            assert x in G


def _chain_snapshot(chain):
    return (
        list(chain.base),
        [list(gens) for gens in chain.level_gens],
        [list(trans.items()) for trans in chain.transversals],
        [list(inv.items()) for inv in chain.inverses],
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_extend_matches_naive_closure(data):
    # a group grown one generator at a time, in random order, has the
    # closure's order and members, and extend refuses exactly the generators
    # already members; every level keeps transversal entries mapping its base
    # point where they claim, with their inverses, and the same generator
    # list gives the same chain
    n = data.draw(st.integers(1, 8))
    G = PermGroup([], n)
    gens, elems = [], {Permutation.identity(n)}
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            g = data.draw(st.sampled_from(sorted(elems, key=lambda x: x.images)))
        else:
            g = Permutation(data.draw(st.permutations(list(range(n)))))
        assert G.extend(g) == (g not in elems)
        gens.append(g)
        elems = naive_closure(gens, n)
        assert G.order() == len(elems)
        assert all(x in G for x in elems)
        chain = G.chain
        for i, b in enumerate(chain.base):
            assert all(s.images[p] == p for s in chain.level_gens[i] for p in chain.base[:i])
            assert list(chain.inverses[i]) == list(chain.transversals[i])
            for pt, rep in chain.transversals[i].items():
                assert rep.images[b] == pt
                assert chain.inverses[i][pt] == rep.inverse()
        assert _chain_snapshot(PermGroup(gens, n).chain) == _chain_snapshot(chain)
    outsider = Permutation(data.draw(st.permutations(list(range(n)))))
    assert (outsider in G) == (outsider in elems)


@pytest.mark.parametrize(
    "images",
    [
        [(3, 1, 2, 0, 4), (2, 4, 3, 1, 0)],
        [(1, 0, 2, 3, 4), (4, 2, 3, 0, 1)],
        [(0, 4, 1, 6, 2, 3, 5), (4, 0, 6, 2, 5, 1, 3), (6, 4, 2, 1, 3, 0, 5)],
    ],
)
def test_every_schreier_pair_is_checked(images):
    # generating sets of S5 and S7 whose chain stops at half the order or
    # less when a level skips the pairs after one that failed to sift
    gens = [Permutation(x) for x in images]
    assert PermGroup(gens).order() == len(naive_closure(gens, len(images[0])))


def test_orbits_and_transitivity():
    G = PermGroup([parse_cycle_string("(1,2,3)", 5)], 5)
    assert G.orbits() == [[0, 1, 2], [3], [4]]
    assert not G.is_transitive()
    assert sym(4).is_transitive()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.lists(st.permutations(range(n)), max_size=3).map(lambda p: (n, p))))
def test_orbits_match_breadth_first_search(case):
    # any number of generators, none included, and with fixed points
    n, images = case
    gens = [Permutation(p) for p in images]
    G = PermGroup(gens, n)
    assert G.orbits() == bfs_orbits(gens, n)
    for x in range(n):
        assert G.orbit(x) == sorted(bfs_orbit(gens, x))
    assert G.is_transitive() == (len(bfs_orbit(gens, 0)) == n)


def test_point_stabilizer_order():
    G = sym(5)
    S = G.point_stabilizer(2)
    assert S.order() == 24
    assert all(g.images[2] == 2 for g in S.gens)


def test_pointwise_stabilizer():
    G = sym(6)
    S = G.pointwise_stabilizer([0, 1])
    assert S.order() == factorial(4)
    assert all(g.images[0] == 0 and g.images[1] == 1 for g in S.gens)


@pytest.mark.parametrize(
    "build",
    [lambda: build_symmetric(6), lambda: build_alternating(7), lambda: build_psl2(7)],
    ids=["S6", "A7", "PSL(2,7)"],
)
def test_pointwise_stabilizer_against_closure(build):
    G = build()
    elems = naive_closure(G.gens, G.degree)
    base = G.chain.base
    reused = [base[:k] for k in range(1, len(base) + 1)]
    fresh = [[base[1], base[0]], [G.degree - 1], [G.degree - 1, base[0]]]
    for points in reused + fresh:
        S = G.pointwise_stabilizer(points)
        if points in reused:
            assert list(S.gens) == (G.chain.level_gens + [[]])[len(points)]
        else:
            assert base[: len(points)] != points
        fixing = [x for x in elems if all(x.images[p] == p for p in points)]
        assert S.order() == len(fixing)
        assert all(x in S for x in fixing)
        assert all(all(g.images[p] == p for p in points) for g in S.gens)


def test_elements_enumeration_distinct():
    G = sym(4)
    elems = list(G.elements())
    assert len(elems) == 24 == len(set(elems))


def test_elements_cap():
    with pytest.raises(OrbitOverflow):
        list(sym(8).elements(cap=100))


def test_random_element_is_member_and_deterministic():
    rng_a, rng_b = Random(7), Random(7)
    G, H = dihedral(10), dihedral(10)
    a = [G.random_element(rng_a) for _ in range(5)]
    b = [H.random_element(rng_b) for _ in range(5)]
    assert a == b
    assert all(x in G for x in a)


def test_orbit_with_transversal_maps_base():
    G = sym(5)
    rows, images = orbit_with_transversal(G, (0,), named_action(G, "point"))
    orbit = rows[:, 0].tolist()
    assert sorted(orbit) == list(range(5))
    index = {pt: i for i, pt in enumerate(orbit)}
    ref_orbit, trans, ref_index, ref_images = orbit_with_stored_transversal(G, 0, point_image)
    assert (orbit, index, [tuple(col.tolist()) for col in images]) == (ref_orbit, ref_index, ref_images)
    for pt, u in trans.items():
        assert u.images[0] == pt
    assert [col.tolist() for col in images] == [[index[g.images[pt]] for pt in orbit] for g in G.gens]


def test_orbit_stabilizer_identity_point_action():
    G = sym(6)
    orbit, stab = orbit_with_stabilizer(G, (3,), named_action(G, "point"))
    assert len(orbit) * stab.order() == G.order()
    assert all(g.images[3] == 3 for g in stab.gens)


def test_orbit_stabilizer_set_action():
    G = sym(5)
    orbit, stab = orbit_with_stabilizer(G, (0, 1), named_action(G, "set"))
    assert len(orbit) == 10
    assert stab.order() == 12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_stabilizer_product_identity(data):
    n = data.draw(st.integers(3, 8))
    k = data.draw(st.integers(1, 3))
    gens = [
        Permutation(data.draw(st.permutations(list(range(n))))) for _ in range(k)
    ]
    gens = [g for g in gens if not g.is_identity()] or [Permutation.identity(n)]
    G = PermGroup(gens, n)
    kind = data.draw(st.sampled_from(["point", "set", "conj"]))
    if kind == "point":
        value = data.draw(st.integers(0, n - 1))
    elif kind == "set":
        size = data.draw(st.integers(1, n))
        value = tuple(sorted(data.draw(st.permutations(list(range(n))))[:size]))
    else:
        value = data.draw(st.sampled_from(gens))
    orbit, stab = orbit_with_stabilizer(G, named_row(kind, value), named_action(G, kind))
    assert len(orbit) * stab.order() == G.order()


def stabilizer_cases(groups, seed, per_group):
    """(G, action kind, value) triples as criterion 10(a) draws them."""
    rng = Random(seed)
    for G in groups:
        for _ in range(per_group):
            kind = rng.choice(["point", "set", "conj"])
            if kind == "point":
                value = rng.randrange(G.degree)
            elif kind == "set":
                value = tuple(sorted(rng.sample(range(G.degree), rng.randrange(1, G.degree + 1))))
            else:
                value = G.random_element(rng)
            yield G, kind, value


def test_schreier_stabilizer_root_0_matches_stored_transversal():
    # from root 0 the search over the tables meets the stored transversal's
    # entries and Schreier generators in the same order: the same generators
    groups = [cyclic(12), dihedral(10), sym(5), sym(6), build_alternating(6), build_psl2(7), build_psl2(9)]
    for G, kind, value in stabilizer_cases(groups, 1729, 6):
        orbit, images = orbit_with_transversal(G, named_row(kind, value), named_action(G, kind))
        ref_orbit, trans, _, ref_images = orbit_with_stored_transversal(G, value, SCALAR_ACTIONS[kind])
        assert [row_value(kind, row) for row in orbit.tolist()] == ref_orbit
        assert [tuple(col.tolist()) for col in images] == ref_images
        expected = stored_schreier_stabilizer(G, ref_orbit, trans, ref_images)
        assert schreier_stabilizer(G, orbit, images).gens == expected.gens, (kind, value)


def test_stabilizer_on_orbit_matches_acting():
    # the stabilizer's generators as orbit permutations, composed from the
    # tables along the Schreier tree, against each generator acting on
    # every orbit element
    groups = [cyclic(12), dihedral(10), sym(5), build_alternating(6), build_psl2(7), build_psl2(9)]
    for G, kind, value in stabilizer_cases(groups, 99, 6):
        orbit, stab, on_orbit = orbit_with_stabilizer(G, named_row(kind, value), named_action(G, kind), on_orbit=True)
        assert stab.gens == orbit_with_stabilizer(G, named_row(kind, value), named_action(G, kind))[1].gens
        ref_orbit, ref_index, _ = scalar_orbit(G, value, SCALAR_ACTIONS[kind])
        assert len(on_orbit) == len(stab.gens)
        for s, perm in zip(stab.gens, on_orbit):
            sinv = s.inverse()
            assert perm.tolist() == [ref_index[SCALAR_ACTIONS[kind](v, s, sinv)] for v in ref_orbit], (kind, value)


def test_transversal_matches_stored_transversal():
    # the entries read off the tables along the Schreier tree are the ones
    # the scalar loop stores, and from any root each carries the root to
    # its element
    groups = [cyclic(12), dihedral(10), sym(5), build_alternating(6), build_psl2(7), build_psl2(9)]
    rng = Random(5)
    for G, kind, value in stabilizer_cases(groups, 31, 6):
        act = SCALAR_ACTIONS[kind]
        orbit, images = orbit_with_transversal(G, named_row(kind, value), named_action(G, kind))
        ref_orbit, trans, _, _ = orbit_with_stored_transversal(G, value, act)
        assert transversal(G, images, range(len(orbit))) == [trans[v] for v in ref_orbit], (kind, value)
        root = rng.randrange(len(orbit))
        for v, u in zip(ref_orbit, transversal(G, images, range(len(orbit)), root=root)):
            assert act(ref_orbit[root], u, u.inverse()) == v, (kind, value, root)


def test_schreier_stabilizer_every_root_matches_closure():
    # the stabilizer of each orbit element is the set of group elements
    # fixing it, on groups of order at most 720
    groups = [dihedral(10), sym(4), build_alternating(5), build_psl2(7), sym(6)]
    for G, kind, value in stabilizer_cases(groups, 7, 4):
        elems = naive_closure(G.gens, G.degree)
        act = SCALAR_ACTIONS[kind]
        orbit, images = orbit_with_transversal(G, named_row(kind, value), named_action(G, kind))
        for j, v in enumerate(row_value(kind, row) for row in orbit.tolist()):
            fixing = {x for x in elems if act(v, x, x.inverse()) == v}
            stab = schreier_stabilizer(G, orbit, images, root=j)
            assert set(stab.elements()) == fixing, (kind, value, j)


def _orbit_cases(seed):
    """(G, kind, value) triples for the orbit property test: points, sorted
    tuples and permutations under conjugation, the last also on groups of
    degree above 256, whose rows are uint16."""
    rng = Random(seed)
    small = [cyclic(12), dihedral(10), sym(5), sym(6), build_alternating(6), build_psl2(7), build_psl2(9), build_psl2(27)]
    for G in small:
        for kind in ("point", "set", "conj"):
            for _ in range(3):
                yield G, kind, _draw(rng, G, kind)
    for G in (dihedral(300), dihedral(257)):
        for kind in ("point", "set", "conj", "conj"):
            yield G, kind, _draw(rng, G, kind)


def _draw(rng, G, kind):
    if kind == "point":
        return rng.randrange(G.degree)
    if kind == "set":
        return tuple(sorted(rng.sample(range(G.degree), rng.randrange(1, min(G.degree, 6) + 1))))
    return G.random_element(rng)


def test_frontier_orbit_matches_scalar_loop():
    # the level-by-level orbit names its elements in the scalar loop's order
    # and gives the same generator tables
    seen = set()
    for G, kind, value in _orbit_cases(2015):
        rows, images = orbit_with_transversal(G, named_row(kind, value), named_action(G, kind))
        ref_orbit, _, ref_images = scalar_orbit(G, value, SCALAR_ACTIONS[kind])
        assert [row_value(kind, row) for row in rows.tolist()] == ref_orbit, (kind, value)
        assert [tuple(col.tolist()) for col in images] == ref_images, (kind, value)
        if kind == "conj":
            seen.add(rows.dtype)
    assert seen == {np.dtype(np.uint8), np.dtype(np.uint16)}


def test_frontier_orbit_of_trivial_group():
    rows, images = orbit_with_transversal(PermGroup([], 4), (2,), named_action(PermGroup([], 4), "point"))
    assert rows.tolist() == [[2]] and images == []


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_index_set_action_matches_set_image(data):
    # the shared sorted-tuple action on generator image tables against the
    # point-by-point rule
    n = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, 3))
    gens = [Permutation(data.draw(st.permutations(list(range(n))))) for _ in range(k)]
    action = index_set_action([g.images for g in gens])
    for _ in range(5):
        size = data.draw(st.integers(0, n))
        value = tuple(sorted(data.draw(st.permutations(list(range(n))))[:size]))
        for k, g in enumerate(gens):
            ginv = g.inverse()
            row = action(np.array([value], dtype=np.int64).reshape(1, size), k)[0]
            assert tuple(row.tolist()) == set_image(value, g, ginv)


def test_centralizer_and_class():
    G = sym(5)
    g = parse_cycle_string("(1,2)(3,4)", 5)
    C = centralizer(G, g)
    cls = conjugacy_class(G, g)
    assert len(cls) * C.order() == 120
    assert len(cls) == 15
    assert all(g.conjugate(x) == g for x in C.gens)


def test_element_of_order_with_tags():
    G = sym(6)
    g = element_of_order(G, 2, fixed_points=4)
    assert g.order() == 2 and len(g.fixed_points()) == 4
    h = element_of_order(G, 2, fixed_points=0)
    assert h.order() == 2 and len(h.fixed_points()) == 0
    with pytest.raises(NotFound):
        element_of_order(G, 7, budget=50)


def m11():
    gens = ["(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)"]
    return PermGroup([parse_cycle_string(c, 11) for c in gens], 11)


def _assert_inverses_stored(chain):
    for trans, inv in zip(chain.transversals, chain.inverses):
        assert list(inv) == list(trans)
        assert all(inv[pt] == rep.inverse() for pt, rep in trans.items())


@pytest.mark.parametrize(
    "build, order",
    [(lambda: build_psl2(13), 1092), (m11, 7920), (lambda: build_alternating(7), 2520)],
    ids=["PSL(2,13)", "M11", "A7"],
)
def test_rebased_chain(build, order):
    # a chain rebuilt on given base points, stopped at the known order, is
    # the same group: its order, membership on members and non-members, and
    # the pointwise stabilizers of a chain built in full on those points
    G = build()
    assert G.order() == order
    _assert_inverses_stored(G.chain)
    rng = Random(5)
    members = [G.random_element(rng) for _ in range(20)]
    others = []
    for _ in range(20):
        images = list(range(G.degree))
        rng.shuffle(images)
        others.append(Permutation(images))
    for _ in range(6):
        points = rng.sample(range(G.degree), rng.randrange(1, 4))
        R = G.rebased(points)
        assert R.chain.base[: len(points)] == points
        assert R.order() == order
        assert all(x in R for x in members)
        assert [x in R for x in others] == [x in G for x in others]
        _assert_inverses_stored(R.chain)
        full = _Chain(G.degree, G.gens, base_hint=points)
        level = (full.level_gens + [[]])[len(points)]
        assert G.pointwise_stabilizer(points).order() == PermGroup(level, G.degree).order()
    # growing a rebuilt chain verifies in full
    outsider = next(x for x in others if x not in G)
    R = G.rebased(rng.sample(range(G.degree), 2))
    assert R.extend(outsider)
    assert R.order() == PermGroup(list(G.gens) + [outsider]).order()
    _assert_inverses_stored(R.chain)


def imprimitivity_by_union_find(gens, alpha, delta):
    """What find_imprimitivity returns for the one candidate delta, from
    the union-find oracle: None when the partition is trivial, else delta
    and the least point of each point's cell."""
    cells = block_system_by_union_find(gens, alpha, delta)
    n = gens[0].degree
    if not 1 < len(cells) < n:
        return None
    labels = [0] * n
    for cell in cells:
        for x in cell:
            labels[x] = cell[0]
    return delta, labels


def imprimitivity(gens, alpha, delta):
    found = find_imprimitivity([np.array(g.images) for g in gens], alpha, [delta])
    return None if found is None else (found[0], found[1].tolist())


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 16).flatmap(lambda n: st.tuples(
    st.lists(st.permutations(range(n)), min_size=1, max_size=3),
    st.integers(0, n - 1),
    st.integers(0, n - 1),
)))
def test_minimal_block_system_matches_union_find(case):
    images, alpha, delta = case
    gens = [Permutation(p) for p in images]
    assert imprimitivity(gens, alpha, delta) == imprimitivity_by_union_find(gens, alpha, delta)


def test_minimal_block_system_on_dihedral_actions():
    # D_2m on m points has a block system for every divisor of m: merging
    # 0 and d gives the cosets of the multiples of gcd(m, d)
    for m in (12, 30, 64):
        rot = Permutation([(i + 1) % m for i in range(m)])
        ref = Permutation([(-i) % m for i in range(m)])
        for d in range(1, m):
            expected = imprimitivity_by_union_find([rot, ref], 0, d)
            assert imprimitivity([rot, ref], 0, d) == expected
            assert (expected is None) == (gcd(m, d) == 1)


def test_subgroup_closure_rejects_outsiders():
    G = PermGroup([parse_cycle_string("(1,2,3)", 4)], 4)
    with pytest.raises(NotASubgroupElement):
        subgroup_closure(G, [parse_cycle_string("(1,2)", 4)])


def test_minimal_block_system_cyclic():
    G = cyclic(6)
    assert imprimitivity(G.gens, 0, 3) == (3, [0, 1, 2, 0, 1, 2])
    assert imprimitivity(G.gens, 0, 2) == (2, [0, 1, 0, 1, 0, 1])


def test_find_imprimitivity():
    G = cyclic(6)
    delta, labels = find_imprimitivity([np.array(g.images) for g in G.gens], 0, [3])
    assert delta == 3 and labels.tolist() == [0, 1, 2, 0, 1, 2]
    # the natural S5 action is primitive
    assert find_imprimitivity([np.array(g.images) for g in sym(5).gens], 0, range(1, 5)) is None


def test_orbit_cap_enforced():
    G = sym(10)
    with pytest.raises(OrbitOverflow):
        orbit_with_transversal(G, tuple(range(5)), named_action(G, "set"), cap=10)
