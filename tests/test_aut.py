import inspect
import sys
from itertools import combinations
from math import factorial
from random import Random

import pytest

from designforge import cli
from designforge.atlas import build_alternating, build_psl2, point_stabilizer_subgroup
from designforge.autsearch import (
    aut_group,
    expand_class_perm,
    fixes_every_block,
    is_design_automorphism,
    kernel_generators,
    lift_test_method1,
    lift_test_method2,
    reduction_kernel_order,
    verify_kernel_intersection,
    verify_kernel_quotient,
)
from designforge.construct import method1_design, method2_design
from designforge.design import IncidenceStructure, reduce_design, validate_1design, write_design
from designforge.errors import BudgetExceeded, InvalidGenerators
from designforge.group import PermGroup, element_of_order, normalizing_map_check
from designforge.perm import Permutation

FANO = IncidenceStructure(
    7,
    [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)],
)


from oracles import brute_force_aut_order, oracle_aut_order


def random_structure(rng, max_v=12):
    v = rng.randrange(3, max_v + 1)
    nb = rng.randrange(2, 7)
    blocks = []
    while len(blocks) < nb:
        size = rng.randrange(1, v)
        blocks.append(tuple(sorted(rng.sample(range(v), size))))
    covered = {p for blk in blocks for p in blk}
    blocks.append(tuple(sorted(set(range(v)) - covered | {0})))
    return IncidenceStructure(v, blocks)


def test_fano_automorphism_group():
    res = aut_group(FANO)
    assert res.order == 168
    assert res.complete
    assert res.point_transitive and res.block_transitive
    assert all(is_design_automorphism(FANO, p) for p in res.point_gens)


def test_aut_generators_act_on_points_and_blocks():
    res = aut_group(FANO)
    for g in res.generators:
        assert g.degree == FANO.v + FANO.b


def test_brute_force_matches_search_small():
    D = IncidenceStructure(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
    assert brute_force_aut_order(D) == aut_group(D).order


def test_aut_order_is_order_of_point_gens():
    # the order comes from the group grown during the search; a chain built
    # afresh from the generators it reports must agree
    rng = Random(7)
    for D in [FANO] + [random_structure(rng, max_v=9) for _ in range(40)]:
        res = aut_group(D)
        assert PermGroup(res.point_gens, D.v).order() == res.order


def test_oracle_agrees_on_known_cases():
    assert oracle_aut_order(FANO) == 168
    complete = IncidenceStructure(5, list(combinations(range(5), 2)))
    assert oracle_aut_order(complete) == factorial(5)
    assert aut_group(complete).order == factorial(5)


def test_aut_search_vs_oracle_random_corpus():
    rng = Random(2024)
    for _ in range(150):
        D = random_structure(rng, max_v=9)
        assert aut_group(D).order == oracle_aut_order(D), D.blocks


def test_known_group_must_be_automorphisms():
    rotation = Permutation([0, 2, 3, 4, 5, 6, 1])  # not an automorphism
    good = aut_group(FANO).point_gens[0]
    assert aut_group(FANO, known=PermGroup([good], 7)).order == 168
    with pytest.raises(InvalidGenerators):
        aut_group(FANO, known=PermGroup([good, rotation], 7))
    with pytest.raises(InvalidGenerators):
        aut_group(FANO, known=PermGroup([], 8))


def test_known_group_gives_oracle_orders():
    # seeded with the trivial group and with the group of a random subset of
    # the unseeded generators, the search still finds all of Aut(D)
    rng = Random(99)
    for _ in range(200):
        D = random_structure(rng, max_v=9)
        expected = brute_force_aut_order(D) if D.v <= 6 else oracle_aut_order(D)
        plain = aut_group(D)
        subset = [g for g in plain.point_gens if rng.random() < 0.5]
        for known in (PermGroup([], D.v), PermGroup(subset, D.v)):
            res = aut_group(D, known=known)
            assert res.complete and res.order == expected, D.blocks
            assert PermGroup(res.point_gens, D.v).order() == res.order
            assert [j.tolist() for j in res.known_block_images] == [D.table.images(g).tolist() for g in known.gens]
        assert aut_group(D).known_block_images == []


def test_aut_respects_multiplicity():
    # the repeated block breaks the symmetry that swaps the two pairs
    D1 = IncidenceStructure(4, [(0, 1), (0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)])
    D2 = IncidenceStructure(4, [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)])
    assert aut_group(D2).order > aut_group(D1).order
    assert aut_group(D1).order == oracle_aut_order(D1)


def test_aut_budget_marks_incomplete():
    G = build_psl2(9)
    D = method1_design(G).design
    res = aut_group(D, budget=3)
    assert not res.complete
    assert all(is_design_automorphism(D, p) for p in res.point_gens)


def test_deep_search_exits_as_budget_exceeded(tmp_path, capsys):
    # 60 twin points: refinement cannot split them, so the search goes one
    # level deeper per point, past a recursion limit set a little above the
    # current stack
    D = IncidenceStructure(60, [tuple(range(60))])
    path = tmp_path / "twins.design"
    write_design(path, D)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        with pytest.raises(BudgetExceeded, match="recursion limit"):
            aut_group(D)
        assert cli.main(["aut", "--design", str(path)]) == 3
    finally:
        sys.setrecursionlimit(limit)
    assert "budget exceeded: search tree deeper" in capsys.readouterr().err


def test_kernel_of_reduction():
    D = IncidenceStructure(
        6, [(0, 1, 2, 3), (2, 3, 4, 5), (0, 1, 4, 5), (0, 1, 2, 3), (2, 3, 4, 5), (0, 1, 4, 5)]
    )
    R = reduce_design(D)
    assert reduction_kernel_order(R) == 2**3
    gens = kernel_generators(R)
    for g in gens:
        assert is_design_automorphism(D, g)
        assert fixes_every_block(D, g)
    assert PermGroup(gens, D.v).order() == 8


def test_expand_class_perm():
    D = IncidenceStructure(
        6, [(0, 1, 2, 3), (2, 3, 4, 5), (0, 1, 4, 5), (0, 1, 2, 3), (2, 3, 4, 5), (0, 1, 4, 5)]
    )
    R = reduce_design(D)
    sigma = aut_group(R.quotient).point_gens[0]
    lifted = expand_class_perm(R, sigma)
    assert is_design_automorphism(D, lifted)


def test_verify_kernel_quotient_small():
    D = IncidenceStructure(
        6, [(0, 1, 2, 3), (2, 3, 4, 5), (0, 1, 4, 5), (0, 1, 2, 3), (2, 3, 4, 5), (0, 1, 4, 5)]
    )
    R = reduce_design(D)
    rep = verify_kernel_quotient(D, R)
    assert rep.complete and rep.product_ok
    assert rep.quotient_lifts_ok and rep.kernel_fixes_blocks
    assert rep.kernel_order == 8
    assert rep.aut_full.order == rep.kernel_order * rep.aut_quotient.order


def test_normalizing_map_check():
    G = build_psl2(9)
    from designforge.atlas import frobenius_on_projline

    assert normalizing_map_check(G, frobenius_on_projline(9))
    # a transposition of two projective points does not normalize PSL(2,9)
    assert not normalizing_map_check(G, Permutation([1, 0] + list(range(2, 10))))


def test_lift_method1_natural():
    G = build_alternating(6)
    dsn = method1_design(G)
    swap = Permutation([1, 0, 2, 3, 4, 5])
    assert normalizing_map_check(G, swap)
    assert lift_test_method1(dsn, swap)


def test_lift_method2():
    from designforge.atlas import diagonal_map_on_projline, frobenius_on_projline

    G = build_psl2(9)
    M = point_stabilizer_subgroup(G, 0)
    g = element_of_order(M, 2)
    dsn = method2_design(G, M, g)
    frob = frobenius_on_projline(9)
    assert lift_test_method2(dsn, frob) == is_lift_by_hand(dsn, frob)
    assert lift_test_method2(dsn, frob)
    # inner maps always lift
    assert all(lift_test_method2(dsn, x) for x in G.gens)


def is_lift_by_hand(dsn, phi):
    pi = dsn.induced_point_perm(phi)
    if pi is None:
        return False
    return is_design_automorphism(dsn.design, pi)


def test_verify_kernel_intersection():
    G = build_psl2(9)
    M = point_stabilizer_subgroup(G, 0)
    g = element_of_order(M, 2)
    dsn = method2_design(G, M, g)
    from designforge.atlas import frobenius_on_projline

    rep = verify_kernel_intersection(dsn, [frobenius_on_projline(9)] + list(G.gens))
    assert rep.ok
    assert all(rep.lifted)


def test_verify_kernel_intersection_agrees_with_lift_test():
    # on the PGL(2,3) class design the diagonal map preserves the class but
    # does not lift, and maps that lift move some block
    from designforge.atlas import diagonal_map_on_projline, embed_pgl2, frobenius_on_projline

    G = build_psl2(9)
    M = embed_pgl2(3, "squared")
    dsn = method2_design(G, M, element_of_order(M, 2))
    diag, frob = diagonal_map_on_projline(9), frobenius_on_projline(9)
    phis = [diag, frob, diag * frob] + list(G.gens)
    rep = verify_kernel_intersection(dsn, phis)
    assert rep.lifted == [lift_test_method2(dsn, phi) for phi in phis]
    assert rep.lifted[:2] == [False, True]
    assert rep.ok and rep.moves_block[0] is None and rep.moves_block[1] is True
