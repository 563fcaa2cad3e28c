"""The Method 2 orbit tables against direct conjugation (tests/oracles.py):
same block order, same generator images, same block stabilizers, same
centralizers."""

from random import Random

import numpy as np
import pytest

from designforge.atlas import build_psl2, embed_pgl2
from designforge.casestudies import mathieu_design
from designforge.construct import method2_design
from designforge.design import reduce_design
from designforge.group import centralizer, element_of_order, index_set_action, schreier_stabilizer
from designforge.perm import Permutation
from oracles import (
    block_orbit_bfs,
    class_index,
    class_table_by_conjugation,
    conjugate_index_set,
    image_indices,
    induced_dual_point_gens,
    orbit_with_stored_transversal,
    scalar_orbit,
)


def psl2_9_pgl2_squared():
    G = build_psl2(9)
    M = embed_pgl2(3, "squared")
    return method2_design(G, M, element_of_order(M, 2))


DESIGNS = {
    "psl2-9-pgl2-squared-ord2": psl2_9_pgl2_squared,
    "m22-point-stabilizer-ord2": lambda: mathieu_design(22, 2),
}


@pytest.fixture(scope="module", params=sorted(DESIGNS))
def design(request):
    return DESIGNS[request.param]()


def test_block_order_and_transversal_match_bfs(design):
    # the stabilizer of block j is M^u, u the BFS transversal entry with
    # base block^u = block j
    blocks, trans = block_orbit_bfs(design)
    assert design.design.blocks == blocks
    assert design.design.table.mult.tolist() == [1] * len(blocks)
    M = design.M
    for j, blk in enumerate(blocks):
        stab = schreier_stabilizer(design.G, blocks, design.block_images, root=j)
        u = trans[blk]
        uinv = u.inverse()
        assert stab.order() == M.order()
        assert all(m.conjugate(u, uinv) in stab for m in M.gens)


def test_class_views_match_scalar_orbit(design):
    # the class table's elements, its lookups and its conjugate lookups
    # read the one orbit table; the scalar loop builds the class as
    # Permutation objects
    G = design.G
    elems, index, tables = scalar_orbit(G, design.g, Permutation.conjugate)
    assert len(design.class_table) == len(elems)
    assert [design.class_table[i] for i in range(len(elems))] == elems
    assert design.class_table.find(list(index)).tolist() == list(index.values())
    assert class_index(design) == index
    assert [tuple(col.tolist()) for col in design.class_images] == tables
    swap = Permutation([1, 0] + list(range(2, G.degree)))
    others = [h.conjugate(swap) for h in elems[:40]]
    assert (design.class_table.find(others) >= 0).tolist() == [h in index for h in others]
    assert not all(h in index for h in others)
    rng = Random(3)
    points = np.arange(len(elems))
    for x in (*G.gens, G.random_element(rng), Permutation(rng.sample(range(G.degree), G.degree))):
        xinv = x.inverse()
        old = image_indices(elems, index, Permutation.conjugate, x, xinv, points)
        new = design.class_table.conjugate_indices(x, xinv, points)
        assert new.tolist() == [-1 if j is None else j for j in old]


def test_class_table_matches_conjugation(design):
    assert [tuple(col.tolist()) for col in design.class_images] == class_table_by_conjugation(design)


def test_block_table_matches_conjugation(design):
    blocks, cls = design.design.blocks, class_index(design)
    index = {blk: j for j, blk in enumerate(blocks)}
    expected = [
        tuple(index[conjugate_index_set(design, cls, blk, g, g.inverse())] for blk in blocks)
        for g in design.G.gens
    ]
    assert [tuple(col.tolist()) for col in design.block_images] == expected
    assert [Permutation(col.tolist()) for col in design.block_images] == induced_dual_point_gens(design)


def test_index_set_action_reads_generator_tables(design):
    act, cls = index_set_action(design.class_images), class_index(design)
    for k, x in enumerate(design.G.gens):
        xinv = x.inverse()
        images = act(design.design.rows[:5], k)
        for blk, img in zip(design.design.blocks[:5], images.tolist()):
            assert tuple(img) == conjugate_index_set(design, cls, blk, x, xinv)


def test_induced_point_perm_matches_conjugation(design):
    G, elems, cls = design.G, design.class_table, class_index(design)
    _, class_trans, _, _ = orbit_with_stored_transversal(G, elems[0], Permutation.conjugate)
    _, block_trans = block_orbit_bfs(design)
    u = class_trans[elems[-1]]
    w = block_trans[design.design.blocks[-1]]
    for x in (*design.G.gens, u, w):
        xinv = x.inverse()
        pi = design.induced_point_perm(x)
        assert [(j,) for j in pi.images] == [
            conjugate_index_set(design, cls, (i,), x, xinv) for i in range(design.params.v)
        ]
    # a transposition normalizes neither PSL(2,9) nor M22: it leaves the class
    swap = Permutation([1, 0] + list(range(2, design.G.degree)))
    assert (design.class_table.find([h.conjugate(swap) for h in elems]) < 0).any()
    assert design.induced_point_perm(swap) is None


def test_point_centralizers_match_centralizer(design):
    R = reduce_design(design.design, design.params)
    i_class = R.class_points(0)
    cents = design.point_centralizers(i_class)
    for i, C in zip(i_class, cents):
        y = design.class_table[i]
        assert C.order() == centralizer(design.G, y).order()
        assert all(h * y == y * h for h in C.gens)

