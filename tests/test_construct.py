from random import Random

import pytest

from designforge.atlas import (
    build_alternating,
    build_pgammal2,
    build_psl2,
    build_symmetric,
    diagonal_map_on_projline,
    embed_pgl2,
    frobenius_on_projline,
    mathieu_group,
    normalizer_of_cyclic,
    point_stabilizer_subgroup,
)
from designforge.autsearch import lift_test_method2
from designforge.casestudies import _a6_second_s4
from designforge.construct import (
    coset_action,
    method1_design,
    method2_design,
    perm_char_value,
    stabilizer_orbits,
)
from designforge.design import DesignParams
from designforge.group import PermGroup, centralizer, element_of_order, schreier_stabilizer
from designforge.perm import Permutation, parse_cycle_string
from oracles import (
    block_orbit_bfs,
    conjugacy_class,
    coset_action_by_conjugation,
    coset_fixed_points_by_conjugation,
    coset_fixed_points_by_sifting,
    faithfulness_check,
    induced_perm_by_normalizer_scan,
    scalar_orbit,
)


def test_stabilizer_orbits_sorted():
    G = build_psl2(7)
    orbits = stabilizer_orbits(G, 0)
    assert orbits[0] == [0]
    assert [len(o) for o in orbits] == [1, 7]


def test_method1_natural_alternating():
    # A6 acting on 6 points: the point stabilizer is transitive on the rest
    G = build_alternating(6)
    M1 = method1_design(G)
    assert M1.params == DesignParams(1, 6, 6, 5, 5)
    assert M1.design.b == 6
    assert M1.delta == (1, 2, 3, 4, 5)


def test_method1_orbit_selectors():
    G = build_psl2(9)
    M1 = method1_design(G, alpha=0, orbit_size=9)
    assert M1.params == DesignParams(1, 10, 10, 9, 9)
    with pytest.raises(ValueError):
        method1_design(G, orbit_size=4)
    with pytest.raises(ValueError):
        method1_design(G, orbit_index=10)


def test_method1_requires_transitive():
    G = PermGroup([parse_cycle_string("(1,2,3)", 5)], 5)
    with pytest.raises(ValueError):
        method1_design(G)


def test_method1_blocks_are_group_translates():
    G = build_symmetric(5)
    M1 = method1_design(G)
    base = set(M1.delta)
    blocks = {tuple(sorted(g.images[p] for p in base)) for g in G.elements()}
    assert blocks == set(M1.design.blocks)


def test_coset_action_matches_index():
    G = build_psl2(9)
    M = embed_pgl2(3, "squared")
    ca = coset_action(G, M)
    assert ca.group.degree == G.order() // M.order() == 15
    assert ca.group.is_transitive()
    # point 0 is M itself, named by its least element
    start = next(x for x, i in ca.index_of.items() if i == 0)
    assert start in M


def test_coset_action_large_subgroup():
    # |Stab(22)| = 443520, and the action on its 23 cosets is the natural one
    G = mathieu_group(23)
    ca = coset_action(G, point_stabilizer_subgroup(G, 22))
    assert ca.group.degree == 23
    assert ca.group.order() == G.order() == 10200960
    for m in (1, 2, 3, 4, 5, 6, 7, 8, 11, 14, 15, 23):
        g = element_of_order(G, m)
        assert ca.fixed_point_count(g) == len(g.fixed_points())


def test_coset_action_not_self_normalizing():
    # <g> of order 5 in A5 has normalizer D10, so its 12 cosets are not its
    # 6 conjugates
    G = build_alternating(5)
    g = element_of_order(G, 5)
    M = PermGroup([g], G.degree)
    ca = coset_action(G, M)
    assert ca.group.degree == 12
    cls = set(conjugacy_class(G, g))
    in_class = sum(x in cls for x in M.elements())
    expected = centralizer(G, g).order() * in_class // M.order()
    assert perm_char_value(G, M, g) == expected == 2
    assert coset_fixed_points_by_conjugation(ca, g) == 2


def _psl27_normalizer():
    G = build_psl2(27)
    return G, normalizer_of_cyclic(G, element_of_order(G, 13))


def _a5_c5():
    # <g> of order 5 has normalizer D10 in A5: not self-normalizing
    G = build_alternating(5)
    return G, PermGroup([element_of_order(G, 5)], G.degree)


@pytest.mark.parametrize(
    "pair, outer",
    [
        (_psl27_normalizer, [frobenius_on_projline(27), diagonal_map_on_projline(27)]),
        (_a5_c5, [Permutation([1, 0, 2, 3, 4])]),
    ],
    ids=["psl2-27-N13", "A5-C5"],
)
def test_coset_points_match_sifting_and_normalizer_scan(pair, outer):
    # fixed points of group elements and of permutations outside G, and the
    # maps induced by elements of G, by maps normalizing G and by random
    # permutations, against the conjugate-and-sift count and the scan for
    # the y with y phi^-1 normalizing M
    G, M = pair()
    ca = coset_action(G, M)
    rng = Random(2)
    n = G.degree
    elems = list(G.gens) + list(M.gens) + [G.random_element(rng) for _ in range(12)]
    others = [Permutation(rng.sample(range(n), n)) for _ in range(4)]
    counts = []
    for g in elems + outer + others:
        counts.append(ca.fixed_point_count(g))
        assert counts[-1] == coset_fixed_points_by_sifting(ca, g)
    assert sum(counts[: len(elems)]) > 0
    induced = []
    for phi in elems[:6] + outer + [x * y for x in outer for y in elems[:2]] + others:
        induced.append(ca.induced_perm(phi))
        assert induced[-1] == induced_perm_by_normalizer_scan(ca, phi)
    assert all(pi is not None for pi in induced[: 6 + 3 * len(outer)])


def _a9_pgammal():
    return build_alternating(9), build_pgammal2(8)


def _psl25_pgl5():
    return build_psl2(25), embed_pgl2(5, "squared")


@pytest.mark.parametrize("pair", [_psl27_normalizer, _a5_c5, _a9_pgammal, _psl25_pgl5, _a6_second_s4])
def test_coset_orbit_matches_scalar_loop(pair):
    # the row-by-row coset action through the frontier orbit names the
    # cosets in the scalar loop's order, with the same generator tables
    G, M = pair()
    ca = coset_action(G, M)
    least = ca.subgroup.chain.least_in_coset
    orbit, index, tables = scalar_orbit(G, least(G.identity()), lambda v, g, ginv: least(v * g))
    assert list(ca.index_of) == orbit
    assert list(ca.index_of.values()) == list(range(len(orbit)))
    assert [g.images for g in ca.group.gens] == tables


def test_coset_fixed_points_match_oracles_psl25():
    # the 65 cosets of PGL(2,5) in PSL(2,25): fixed cosets found by point
    # lookups against both fixed-point oracles, for members of G and outsiders
    G, M = _psl25_pgl5()
    ca = coset_action(G, M)
    rng = Random(11)
    n = G.degree
    elems = list(G.gens) + list(M.gens) + [G.random_element(rng) for _ in range(10)]
    others = [Permutation(rng.sample(range(n), n)) for _ in range(3)]
    counts = [ca.fixed_point_count(g) for g in elems + others]
    assert counts == [coset_fixed_points_by_sifting(ca, g) for g in elems + others]
    assert counts[:6] == [coset_fixed_points_by_conjugation(ca, g) for g in elems[:6]]
    assert max(counts) > 0


def _a6_borel():
    return build_alternating(6), point_stabilizer_subgroup(build_psl2(5), 0)


@pytest.mark.parametrize(
    "pair, phi, induces",
    [
        (_psl27_normalizer, lambda: frobenius_on_projline(27), True),
        (_a6_second_s4, lambda: Permutation([1, 0, 2, 3, 4, 5]), True),
        # the S9-class of PGammaL(2,8) splits into two A9-classes
        (_a9_pgammal, lambda: Permutation([1, 0] + list(range(2, 9))), False),
        (lambda: _psl_pgl_pair(3, "squared"), lambda: frobenius_on_projline(9), True),
        (lambda: _psl_pgl_pair(3, "non-squared"), lambda: frobenius_on_projline(9), True),
        (lambda: _psl_pgl_pair(5, "squared"), lambda: frobenius_on_projline(25), True),
        (lambda: _psl_pgl_pair(5, "non-squared"), lambda: frobenius_on_projline(25), True),
        (_a6_borel, lambda: Permutation([1, 0, 2, 3, 4, 5]), True),
    ],
    ids=[
        "psl2-27-N13", "A6-S4", "A9-PGammaL28", "psl2-9-squared", "psl2-9-non-squared",
        "psl2-25-squared", "psl2-25-non-squared", "A6-Stab_PSL(2,5)",
    ],
)
def test_coset_action_matches_conjugation(pair, phi, induces):
    # for self-normalizing M the cosets and the conjugates of M correspond:
    # same points in the same order, same generator tables, same induced
    # permutation of a map normalizing G (a field automorphism, or an odd
    # permutation for A_n)
    G, M = pair()
    phi = phi()
    images, induced_perm = coset_action_by_conjugation(G, M)
    ca = coset_action(G, M)
    assert ca.group.gens == PermGroup([Permutation(col) for col in images], len(images[0])).gens
    expected = induced_perm(phi)
    assert (expected is not None) == induces
    assert ca.induced_perm(phi) == expected


def test_coset_action_faithful_for_simple_group():
    G = build_psl2(9)
    ca = coset_action(G, embed_pgl2(3, "squared"))
    assert faithfulness_check(G, ca.induced_perm, samples=50)


def test_method2_basic_parameters():
    G = build_psl2(9)
    M = point_stabilizer_subgroup(G, 0)
    g = element_of_order(M, 2)
    D2 = method2_design(G, M, g)
    assert D2.params.v == len(conjugacy_class(G, g))
    assert D2.design.b == G.order() // M.order()
    assert D2.params.lam == D2.params.b * D2.params.k // D2.params.v
    # base block = class elements lying inside M
    assert all(D2.class_table[i] in M for i in D2.base_block)


def test_method2_rejects_bad_element():
    G = build_psl2(5)
    M = point_stabilizer_subgroup(G, 0)
    with pytest.raises(ValueError):
        method2_design(G, M, Permutation.identity(G.degree))
    outsider = next(x for x in conjugacy_class(G, element_of_order(G, 2)) if x not in M)
    with pytest.raises(ValueError):
        method2_design(G, M, outsider)


def test_method2_block_transversal_translates_base():
    # the oracle's transversal entry u_j carries the base block to block j,
    # and the stabilizer of block j, from root j, fixes it
    G = build_psl2(5)
    M = point_stabilizer_subgroup(G, 0)
    g = element_of_order(M, 2)
    D2 = method2_design(G, M, g)
    blocks = D2.design.blocks
    _, trans = block_orbit_bfs(D2)
    for j, blk in enumerate(blocks):
        pi = D2.induced_point_perm(trans[blk])
        assert tuple(sorted(pi[p] for p in D2.base_block)) == blk
        stab = schreier_stabilizer(G, blocks, D2.block_images, root=j)
        assert stab.order() == M.order()
        for x in stab.gens:
            pi = D2.induced_point_perm(x)
            assert tuple(sorted(pi[p] for p in blk)) == blk


def test_method2_induced_point_perm():
    G = build_psl2(9)
    M = point_stabilizer_subgroup(G, 0)
    g = element_of_order(M, 2)
    D2 = method2_design(G, M, g)
    x = G.gens[0]
    pi = D2.induced_point_perm(x)
    assert pi is not None
    assert all(
        D2.class_table[pi.images[i]] == D2.class_table[i].conjugate(x)
        for i in range(D2.params.v)
    )


def test_method2_conjugator_of_other_degree_is_rejected():
    G = build_psl2(9)
    M = point_stabilizer_subgroup(G, 0)
    D2 = method2_design(G, M, element_of_order(M, 2))
    phi = Permutation(range(11))
    with pytest.raises(ValueError):
        D2.induced_point_perm(phi)
    with pytest.raises(ValueError):
        lift_test_method2(D2, phi)


@pytest.mark.parametrize(
    "build, build_parent, pt, order, fixed",
    [
        (lambda: mathieu_group(22), None, 21, 3, 4),
        (lambda: mathieu_group(23), None, 22, 3, 5),
        (lambda: build_psl2(9), None, 0, 2, None),
        # Stab_PSL(2,5)(0) inside A6 has a point-stabilizer recipe but is not
        # Stab_A6(0): its base block {g, g^-1} is 2 of the 12 class elements
        # fixing 0, so it must be sifted
        (lambda: build_alternating(6), lambda: build_psl2(5), 0, 5, None),
    ],
    ids=["M22", "M23", "psl2:9", "A6-Stab_PSL(2,5)"],
)
def test_method2_point_stabilizer_base_block_matches_sift(build, build_parent, pt, order, fixed):
    # M = Stab_G(pt) finds its base block by a fixed-point test; the block
    # must be the class elements that sift through M's chain
    G = build()
    M = point_stabilizer_subgroup(G if build_parent is None else build_parent(), pt)
    g = element_of_order(M, order, fixed_points=fixed)
    design = method2_design(G, M, g)
    assert design.base_block.tolist() == [i for i, h in enumerate(design.class_table) if h in M]


def test_perm_char_point_stabilizer():
    G = build_psl2(9)
    M = point_stabilizer_subgroup(G, 0)
    g = element_of_order(M, 2)
    assert perm_char_value(G, M, g) == len(g.fixed_points())
    # Stab_PSL(2,5)(0) is not Stab_A6(0): an involution lies in 4 of its
    # conjugates but fixes 2 points
    G = build_alternating(6)
    M = point_stabilizer_subgroup(build_psl2(5), 0)
    g = element_of_order(M, 2)
    assert perm_char_value(G, M, g) == coset_action(G, M).fixed_point_count(g) == 4


def test_perm_char_intransitive_point_stabilizer():
    # G = S3 x S2 on {0,1,2} and {3,4}: the cosets of Stab(0) are 0's orbit
    G = PermGroup([Permutation.from_cycles(5, c) for c in ([(0, 1, 2)], [(0, 1)], [(3, 4)])], 5)
    M = point_stabilizer_subgroup(G, 0)
    for cycles, fixed in (([(0, 1), (3, 4)], 1), ([(3, 4)], 3), ([(0, 1, 2)], 0)):
        assert perm_char_value(G, M, Permutation.from_cycles(5, cycles)) == fixed


def test_perm_char_equals_replication():
    # the replication number of a Method-2 design is 1_M^G(g)
    G = build_psl2(9)
    M = embed_pgl2(3, "squared")
    ca = coset_action(G, M)
    g = element_of_order(M, 2)
    D2 = method2_design(G, M, g)
    assert D2.params.lam == perm_char_value(G, M, g, coset=ca)


def _psl_pgl_pair(q, variant):
    return build_psl2(q * q), embed_pgl2(q, variant)


@pytest.mark.parametrize(
    "pair",
    [
        lambda: _psl_pgl_pair(3, "squared"),
        lambda: _psl_pgl_pair(3, "non-squared"),
        lambda: _psl_pgl_pair(5, "squared"),
        lambda: _psl_pgl_pair(5, "non-squared"),
        _a6_second_s4,
    ],
    ids=["psl2-9-squared", "psl2-9-non-squared", "psl2-25-squared", "psl2-25-non-squared", "A6-S4"],
)
def test_coset_fixed_points_match_conjugation(pair):
    # one element of each order of G and of M, counted through the
    # cosets' least elements and by conjugating every element of every
    # conjugate of M
    G, M = pair()
    ca = coset_action(G, M)
    reps = {}
    for x in list(M.elements()) + list(G.elements()):
        reps.setdefault((x in M, x.order()), x)
    for g in reps.values():
        assert ca.fixed_point_count(g) == coset_fixed_points_by_conjugation(ca, g)


def test_faithfulness_detects_kernel():
    G = build_symmetric(4)

    def collapse(x):
        # quotient onto S3 via the Klein-four kernel: kills some elements
        return Permutation.identity(4) if x.order() == 2 and not x.fixed_points() else x

    assert not faithfulness_check(G, collapse, samples=200)
