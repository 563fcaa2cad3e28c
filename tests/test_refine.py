"""The automorphism search's integer-key refinement and row lookups against
the structured-row ranking they replaced (tests/oracles.py)."""

from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from designforge.atlas import build_psl2, embed_pgl2, normalizer_of_cyclic
from designforge.autsearch import _lex_rank, _Search, aut_group, is_design_automorphism
from designforge.casestudies import mathieu_design
from designforge.construct import coset_action, method1_design, method2_design
from designforge.design import IncidenceStructure, dual_design, reduce_design
from designforge.group import (
    ElementTable,
    PermGroup,
    RowIndex,
    element_of_order,
    orbit_minima,
    orbit_with_transversal,
)
from designforge.perm import Permutation

from oracles import image_indices, refine_structured

RAGGED = IncidenceStructure(
    9,
    [(0, 1, 2), (0, 1, 2), (3, 4), (0, 3, 5, 6), (1, 4, 5), (2, 6), (2, 6), (0,), (4, 5, 6),
     (7, 8), (7, 8), (1, 7), (2, 8)],
)


def _psl2_9_design():
    M = embed_pgl2(3, "squared")
    return method2_design(build_psl2(9), M, element_of_order(M, 2)).design


def _mathieu_22_3_dual():
    design = mathieu_design(22, 3)
    return dual_design(reduce_design(design.design, design.params).quotient)


def _coset_378_design():
    G = build_psl2(27)
    ca = coset_action(G, normalizer_of_cyclic(G, element_of_order(G, 13)))
    return method1_design(ca.group, 0, orbit_size=13, orbit_index=0, coset=ca).design


DESIGNS = {
    "psl2:9": _psl2_9_design,
    "mathieu-22-3-dual": _mathieu_22_3_dual,
    "coset-378": _coset_378_design,
    "ragged-repeated": lambda: RAGGED,
}


def _colourings(search, rng, count):
    """Random starting colourings, coarse and fine, of points and blocks."""
    out = [(search.pcolor0, search.bcolor0)]
    for i in range(count):
        ncp = rng.choice([1, 2, 3, search.v])
        ncb = rng.choice([1, 2, 5])
        pcolor = np.array([rng.randrange(ncp) for _ in range(search.v)], dtype=np.int64)
        bcolor = np.array([rng.randrange(ncb) for _ in range(search.nb)], dtype=np.int64)
        out.append((pcolor * 7 + 3, search.bcolor0 * ncb + bcolor))
    return out


def _moved(search, pcolor, bcolor, perm):
    """The colouring carried along an automorphism of the structure."""
    images = np.array(perm.images)
    j = search.block_images(images)
    pc = np.empty_like(pcolor)
    pc[images] = pcolor
    bc = np.empty_like(bcolor)
    bc[j] = bcolor
    return pc, bc


@pytest.fixture(scope="module", params=sorted(DESIGNS))
def structure(request):
    return DESIGNS[request.param]()


def test_refine_matches_structured_oracle(structure):
    search = _Search(structure, budget=10**6)
    rng = Random(11)
    auts = aut_group(structure).point_gens[:2]
    new_invs, old_invs = [], []
    for pcolor, bcolor in _colourings(search, rng, 8):
        # a colouring and its images under automorphisms
        group = [(pcolor, bcolor)] + [_moved(search, pcolor, bcolor, g) for g in auts]
        invs = []
        for pc0, bc0 in group:
            pc, bc, inv = search.refine(pc0, bc0)
            opc, obc, oinv = refine_structured(search, pc0, bc0)
            # the same colour numbers, so the same partitions
            assert np.array_equal(pc, opc)
            assert np.array_equal(bc, obc)
            invs.append(inv)
            old_invs.append(oinv)
        assert len(set(invs)) == 1
        new_invs.extend(invs)
    # the invariants compare equal exactly when the oracle's do
    for i in range(len(new_invs)):
        for j in range(len(new_invs)):
            assert (new_invs[i] == new_invs[j]) == (old_invs[i] == old_invs[j])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda c: arrays(
            np.int64,
            st.tuples(st.integers(1, 25), st.just(c)),
            elements=st.one_of(st.integers(0, 3), st.integers(0, 2**62)),
        )
    )
)
def test_lex_rank_matches_unique_rows(rows):
    rank, first = _lex_rank(rows)
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    assert np.array_equal(rank, inverse.ravel())
    assert np.array_equal(rows[first], uniq)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda c: st.tuples(*[
            arrays(np.int64, st.tuples(st.integers(1, 30), st.just(c)), elements=st.integers(0, 4))
        ] * 2)
    ),
    st.booleans(),
)
def test_row_index_finds_exactly(tables, collide):
    table, queries = tables
    index = RowIndex(table)
    if collide:
        # every key equal: only the full-row comparison can tell rows apart
        index.weights[:] = 0
        index.keys[:] = 0
    found = index.find(np.vstack([queries, table]))
    first = {}
    for i, row in enumerate(map(tuple, table)):
        first.setdefault(row, []).append(i)
    for row, j in zip(map(tuple, np.vstack([queries, table])), found):
        if row in first:
            assert j in first[row]
        else:
            assert j == -1


def test_conjugate_indices_match_image_indices():
    G = build_psl2(9)
    elems, index, _ = orbit_with_transversal(G, element_of_order(G, 3), Permutation.conjugate)
    conjugators = list(G.gens) + [G.gens[0] * G.gens[1]]
    table = ElementTable(elems)
    rng = Random(5)
    n = elems[0].degree
    points = np.arange(len(elems))
    others = [Permutation(rng.sample(range(n), n)) for _ in range(4)]
    found = []
    for x in conjugators + others:
        xinv = x.inverse()
        old = image_indices(elems, index, Permutation.conjugate, x, xinv, points)
        new = table.conjugate_indices(x, xinv, points)
        assert new.tolist() == [-1 if j is None else j for j in old]
        found.extend(new.tolist())
    assert -1 in found and max(found) >= 0


def test_element_table_degree_300_matches_image_indices():
    # above degree 256 the table packs its rows with np.array, not bytes()
    rng = Random(7)
    n = 300
    gens = [Permutation(rng.sample(range(n), n)) for _ in range(2)]
    elems = [Permutation(range(n))] + gens + [gens[0] * gens[1], gens[1] * gens[0]]
    index = {h: i for i, h in enumerate(elems)}
    table = ElementTable(elems)
    assert table.images.tolist() == [list(h.images) for h in elems]
    points = np.arange(len(elems))
    found = []
    for x in gens + [gens[0] * gens[1], Permutation(rng.sample(range(n), n))]:
        xinv = x.inverse()
        old = image_indices(elems, index, Permutation.conjugate, x, xinv, points)
        new = table.conjugate_indices(x, xinv, points)
        assert new.tolist() == [-1 if j is None else j for j in old]
        found.extend(new.tolist())
    assert -1 in found and max(found) >= 1


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.lists(st.permutations(range(n)), max_size=3).map(lambda p: (n, p))))
def test_orbit_minima_matches_orbits(case):
    n, perms = case
    least = orbit_minima([np.array(p) for p in perms], n)
    expected = [0] * n
    for orb in PermGroup([Permutation(p) for p in perms], n).orbits():
        for x in orb:
            expected[x] = orb[0]
    assert least.tolist() == expected


def _block_images_by_sorting(D, perm):
    """Old per-block image lookup: each distinct block's index, or None."""
    mult = D.block_multiset()
    dblocks = sorted(mult)
    where = {blk: j for j, blk in enumerate(dblocks)}
    out = []
    for blk in dblocks:
        img = tuple(sorted(perm[p] for p in blk))
        if mult.get(img) != mult[blk]:
            return None
        out.append(where[img])
    return out


def test_block_images_match_sorting(structure):
    search = _Search(structure, budget=10)
    rng = Random(3)
    perms = aut_group(structure).point_gens[:3]
    perms += [Permutation(rng.sample(range(structure.v), structure.v)) for _ in range(3)]
    for perm in perms:
        j = search.block_images(np.array(perm.images))
        old = _block_images_by_sorting(structure, perm)
        assert (j is None) == (old is None) == (not is_design_automorphism(structure, perm))
        if old is not None:
            assert j.tolist() == old
