import gc
import hashlib
import weakref
from itertools import permutations
from math import factorial, gcd
from random import Random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from designforge.atlas import (
    build_alternating,
    build_psl2,
    build_symmetric,
    frobenius_on_projline,
    mathieu_group,
    normalizer_of_cyclic,
)
from designforge.construct import coset_action
from designforge.errors import NotASubgroupElement, NotFound, OrbitOverflow
from designforge.group import (
    PermGroup,
    _Chain,
    _SchreierTree,
    centralizer,
    element_of_order,
    find_imprimitivity,
    index_set_action,
    normalizing_map_check,
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
    # already members; every level's tree edges and transversal entries map
    # points where they claim, with their inverses, and the same generator
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
        # a bound the group has reached is its order
        assert G.order_bound in (None, len(elems))
        assert all(x in G for x in elems)
        chain = G.chain
        _assert_levels(chain)
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


def _assert_levels(chain):
    """Each level's generators fix the base points before it, each tree edge
    parent -k-> pt is generator k taking parent to pt, and each transversal
    entry maps the base point to its point, with its inverse beside it."""
    for i, (b, gens, tree) in enumerate(zip(chain.base, chain.level_gens, chain.trees)):
        assert all(s.images[p] == p for s in gens for p in chain.base[:i])
        assert tree[b] is None
        assert all(gens[k].images[parent] == pt for pt, (parent, k) in list(tree.items())[1:])
        trans, inv = chain.transversals[i], chain.inverses[i]
        assert list(trans) == list(inv) == list(tree)
        for pt, rep in trans.items():
            assert rep.images[b] == pt
            assert inv[pt] == rep.inverse()


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
    _assert_levels(G.chain)
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
        _assert_levels(R.chain)
        full = _Chain(G.degree, G.gens, base_hint=points)
        level = (full.level_gens + [[]])[len(points)]
        assert G.pointwise_stabilizer(points).order() == PermGroup(level, G.degree).order()
    # growing a rebuilt chain verifies in full
    outsider = next(x for x in others if x not in G)
    R = G.rebased(rng.sample(range(G.degree), 2))
    assert R.extend(outsider)
    assert R.order() == PermGroup(list(G.gens) + [outsider]).order()
    _assert_levels(R.chain)


# The first 16 hex digits of the sha256 of repr(_chain_snapshot(chain)) for
# each group's chain and for its chain rebased on [degree - 1, 3], recorded
# from a chain that multiplied out every transversal entry and inverse as it
# grew: reading them off the Schreier trees gives the same chains.
CHAIN_DIGESTS = [
    ("M22", lambda: mathieu_group(22), "2fbb054aaddc7546", "1f9a24d0bf30ca63"),
    ("M23", lambda: mathieu_group(23), "d1c3d06334c2e59b", "559e6e48d3900b59"),
    ("M24", lambda: mathieu_group(24), "1c71479ca8458378", "3c52f1e856f21282"),
    ("PSL(2,7)", lambda: build_psl2(7), "694e7cbf0ee5cbe1", "3602e76581140b69"),
    ("PSL(2,8)", lambda: build_psl2(8), "3878958ace0bdd70", "19614abc6f3ccc29"),
    ("PSL(2,9)", lambda: build_psl2(9), "22a71c7a2ca1ac45", "00a89eec29eaf98d"),
    ("PSL(2,25)", lambda: build_psl2(25), "f924a3c77b144006", "152f72a428373c02"),
    ("PSL(2,27)", lambda: build_psl2(27), "c678ddffd0161cc6", "1fc2c40f7e3fc818"),
    ("PSL(2,49)", lambda: build_psl2(49), "4ed4572706e3e041", "6d0348b3cb28997d"),
]


def _chain_digest(G):
    return hashlib.sha256(repr(_chain_snapshot(G.chain)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("build, digest, rebased_digest", [c[1:] for c in CHAIN_DIGESTS], ids=[c[0] for c in CHAIN_DIGESTS])
def test_chain_digests(build, digest, rebased_digest):
    G = build()
    assert _chain_digest(G) == digest
    assert _chain_digest(G.rebased([G.degree - 1, 3])) == rebased_digest


def test_prefix_sharing_rebase_digest():
    # PSL(2,27) rebased on its own first base point and 5: the first level
    # is copied, and the rest built from that level's generators
    G = build_psl2(27)
    assert _chain_digest(G.rebased(G.chain.base[:1] + [5])) == "7c6bb71e494dd525"


ATLAS_GROUPS = [
    lambda: build_psl2(7),
    lambda: build_psl2(8),
    lambda: build_psl2(9),
    lambda: build_alternating(7),
    lambda: build_symmetric(6),
    m11,
    lambda: mathieu_group(22),
]


def _groups_and_points():
    """A group from the atlas or one generated by random permutations of at
    most 9 points, and a point list whose first 1 or 2 points are the
    first of the group's base and whose next point, if any, is not."""

    @st.composite
    def draw(draw):
        if draw(st.booleans()):
            G = draw(st.sampled_from(ATLAS_GROUPS))()
        else:
            n = draw(st.integers(2, 9))
            perms = st.lists(st.permutations(list(range(n))), min_size=1, max_size=3)
            G = PermGroup([Permutation(p) for p in draw(perms)], n)
        base = G.chain.base
        assume(base)
        p = draw(st.integers(1, min(2, len(base))))
        rest = [x for x in range(G.degree) if x not in base[: p + 1]]
        return G, base[:p] + draw(st.lists(st.sampled_from(rest), unique=True, max_size=3))

    return draw()


def _orbit_sets(chain):
    return [set(tree) for tree in chain.trees]


@settings(max_examples=60, deadline=None)
@given(_groups_and_points(), st.integers(0, 2**32))
def test_prefix_sharing_rebase_matches_full_build(case, seed):
    # a rebase that copies the levels on the shared base prefix agrees
    # with a chain built in full on the same points: base and orbits on
    # the given points, order, and members. Past the given
    # points, Schreier-Sims picks base points as the first points its
    # residues move, which need not be a full build's (base [0, 2, 1, 5,
    # 4, 3] against [0, 2, 1, 5, 3, 4] on points [0, 2]); a full build on
    # the rebased chain's whole base gives its every orbit
    G, points = case
    R = G.rebased(points)
    full = _Chain(G.degree, G.gens, base_hint=points)
    k = len(points)
    assert R.chain.base[:k] == full.base[:k] == points
    assert _orbit_sets(R.chain)[:k] == _orbit_sets(full)[:k]
    assert _orbit_sets(R.chain) == _orbit_sets(_Chain(G.degree, G.gens, base_hint=R.chain.base))
    assert R.order() == full.order() == G.order()
    rng = Random(seed)
    members = [G.random_element(rng) for _ in range(20)]
    # 20 non-members of 400 random permutations, or as many as there are
    others = (Permutation(rng.sample(range(G.degree), G.degree)) for _ in range(400))
    others = [x for x in others if x not in G][:20]
    assert all(x in R for x in members)
    assert not any(x in R for x in others)
    _assert_levels(R.chain)


@pytest.mark.parametrize("build", [lambda: build_psl2(27), m11, lambda: build_alternating(7)], ids=["PSL(2,27)", "M11", "A7"])
def test_rebased_chains_share_nothing(build):
    # a rebase copies the levels it keeps: extending the rebased group
    # leaves the group's chain as it was, and extending the group leaves
    # the rebased chain as it was
    G = build()
    points = G.chain.base[:2] + [x for x in range(G.degree) if x not in G.chain.base[:3]][:1]
    outsider = Permutation(list(range(1, G.degree)) + [0])
    if outsider in G:
        outsider = Permutation([1, 0] + list(range(2, G.degree)))
    assert outsider not in G
    before = _chain_snapshot(G.chain)
    R = G.rebased(points)
    assert R.extend(outsider)
    _assert_levels(R.chain)
    assert _chain_snapshot(G.chain) == before
    R = G.rebased(points)
    rebased = _chain_snapshot(R.chain)
    assert G.extend(outsider)
    _assert_levels(G.chain)
    assert _chain_snapshot(R.chain) == rebased
    # a rebase read only after its group grew keeps the levels it copied
    R = build().rebased(points)
    G = build()
    S = G.rebased(points)
    assert G.extend(outsider)
    assert _chain_snapshot(S.chain) == _chain_snapshot(R.chain)


def test_coset_image_chain_digest():
    # PSL(2,27) on the 378 cosets of the normalizer of an element of order 13
    G = build_psl2(27)
    image = coset_action(G, normalizer_of_cyclic(G, element_of_order(G, 13))).group
    assert _chain_digest(image) == "56290e3e12669520"


@pytest.mark.parametrize(
    "group, subgroup, image_order",
    [
        (build_symmetric, ["(1,2,3,4)", "(1,3)"], 6),  # D8
        (build_alternating, ["(1,2)(3,4)", "(1,3)(2,4)"], 3),  # V4
        (build_symmetric, ["(1,2,3)", "(2,3,4)"], 2),  # A4
        (build_symmetric, ["(1,2)(3,4)", "(1,3)(2,4)"], 6),  # V4
        (build_symmetric, ["(1,2)"], 24),  # faithful
    ],
    ids=["S4/D8", "A4/V4", "S4/A4", "S4/V4", "S4/S2"],
)
def test_coset_image_order_bound(group, subgroup, image_order):
    # |G| bounds the order of G's image on cosets; an unfaithful action's
    # image never reaches it and is verified in full: its order and members
    # are the closure's
    G = group(4)
    image = coset_action(G, PermGroup([parse_cycle_string(c, 4) for c in subgroup], 4)).group
    assert image.order_bound == G.order()
    elems = naive_closure(image.gens, image.degree)
    assert image.order() == len(elems) == image_order
    if image.degree <= 6:
        everything = [Permutation(x) for x in permutations(range(image.degree))]
        assert [x in image for x in everything] == [x in elems for x in everything]


@pytest.mark.parametrize(
    "build, g, order",
    [
        (lambda: build_alternating(5), parse_cycle_string("(1,2)", 5), 120),
        (lambda: build_psl2(9), frobenius_on_projline(9, 1), 720),
        # (1,2)(3,4,5) has order 6, but its square is in A_n: m = 2
        (lambda: build_alternating(5), parse_cycle_string("(1,2)(3,4,5)", 5), 120),
        (lambda: build_alternating(7), parse_cycle_string("(1,2)(3,4,5)", 7), 5040),
        # the trivial group: m is the order of g
        (lambda: PermGroup([], 6), parse_cycle_string("(1,2)(3,4,5)", 6), 6),
    ],
    ids=["A5+(1,2)", "PSL(2,9)+frobenius", "A5+(1,2)(3,4,5)", "A7+(1,2)(3,4,5)", "1+(1,2)(3,4,5)"],
)
def test_extend_by_normalizing_element(build, g, order):
    # <K, g> has order |K| m, m the order of gK, when g normalizes K: that
    # is the new bound, the chain stops there, and it is the chain a full
    # build from the same generators gives
    K = build()
    assert normalizing_map_check(K, g)
    assert K.extend(g)
    assert K.order() == K.order_bound == order
    assert _chain_snapshot(K.chain) == _chain_snapshot(_Chain(K.degree, K.gens))
    _assert_levels(K.chain)


def test_extend_a40_by_odd_element_checks_no_schreier_pair(monkeypatch):
    # an odd element of order 2310 = 2*3*5*7*11 normalizes A_40 with m = 2:
    # the chain reaches 40! as the new generator is added, before any
    # Schreier generator is checked
    G = build_alternating(40)
    assert G.order() == factorial(40) // 2
    g = Permutation.from_cycles(40, [(0, 1), (2, 3, 4), range(5, 10), range(10, 17), range(17, 28)])
    assert g.order() == 2310

    def unchecked(chain, i):
        raise AssertionError("a Schreier generator was checked")

    monkeypatch.setattr(_Chain, "_unsifted_schreier", unchecked)
    assert G.extend(g)
    assert G.order() == G.order_bound == factorial(40)


def test_trees_are_freed_without_the_cycle_collector():
    # a step that held its tree's owner would make a reference cycle, and
    # every chain and Schreier tree would wait for a collection to be freed
    G = build_psl2(9)
    orbit, images = orbit_with_transversal(G, (0, 1), index_set_action([g.images for g in G.gens]))
    gc.disable()
    try:
        stab = schreier_stabilizer(G, orbit, images, on_orbit=True)[0]
        chain = stab.chain
        chain.sift(G.gens[0])
        refs = [weakref.ref(chain), weakref.ref(chain.transversals[0]), weakref.ref(chain.inverses[0])]
        del stab, chain
        assert [r() for r in refs] == [None, None, None]
        tree = _SchreierTree(G, images, 0)
        edge = next(tree.revisits())
        tree.generator(*edge), tree.orbit_generator(*edge)
        refs = [weakref.ref(tree.entries), weakref.ref(tree.orbit_entries)]
        del tree
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_extend_by_member_and_by_non_normalizing_element():
    G = build_psl2(7)
    R = G.rebased([7, 3])
    assert R.order_bound == R.order() == 168
    # a member: False, with the group and its bound unchanged
    assert not R.extend(G.random_element(Random(3)))
    assert R.gens == G.gens and R.order() == R.order_bound == 168
    # a transposition of the projective line does not normalize PSL(2,7):
    # no bound, and the chain is verified in full, to S8
    t = Permutation([1, 0] + list(range(2, 8)))
    assert not normalizing_map_check(R, t)
    assert R.extend(t)
    assert R.order_bound is None and R.order() == factorial(8)
    assert _chain_snapshot(R.chain) == _chain_snapshot(_Chain(8, R.gens, base_hint=[7, 3]))
    # below its bound, extend keeps it: here a point stabilizer of S5, grown
    # by an element of it that does not normalize the group so far
    H = PermGroup([parse_cycle_string("(1,2,3)", 5)], 5, order_bound=24)
    assert H.extend(parse_cycle_string("(1,4)", 5))
    assert H.order_bound == 24 == len(naive_closure(H.gens, 5)) == H.order()
    # with no bound, a non-normalizing element gets none
    H = PermGroup([parse_cycle_string("(1,2,3)", 5)], 5)
    assert H.extend(parse_cycle_string("(1,4)", 5))
    assert H.order_bound is None and H.order() == 24


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
