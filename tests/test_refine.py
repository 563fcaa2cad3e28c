"""The automorphism search's integer-key refinement and row lookups against
the structured-row ranking and the block-by-block loops they replaced
(tests/oracles.py)."""

from random import Random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from designforge.atlas import build_psl2, embed_pgl2, normalizer_of_cyclic
from designforge.autsearch import (
    _Search,
    aut_group,
    fixes_every_block,
    is_design_automorphism,
    lift_test_method1,
)
from designforge.casestudies import mathieu_design
from designforge.construct import coset_action, method1_design, method2_design
from designforge.design import IncidenceStructure, _incidence_rows, dual_design, reduce_design
from designforge.group import (
    ElementTable,
    RowIndex,
    element_of_order,
    lex_rank,
    orbit_minima,
    row_dtype,
)
from designforge.perm import Permutation

from oracles import (
    block_images_by_sorting,
    bfs_orbits,
    fixes_every_block_by_sets,
    image_indices,
    incidence_lists,
    is_automorphism_by_multiset,
    refine_structured,
    scalar_orbit,
    table_structure,
)

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
    return method1_design(ca.group, 0, orbit_size=13, orbit_index=0).design


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
    j = search.table.images(perm)
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


def _drawn_structure(data):
    """A small structure with ragged and repeated blocks, and points in no
    block."""
    used = data.draw(st.integers(1, 8))
    v = used + data.draw(st.integers(0, 3))  # points past `used` lie in no block
    block = st.lists(st.integers(0, used - 1), min_size=1, max_size=used, unique=True)
    blocks = data.draw(st.lists(block, min_size=1, max_size=12))
    blocks += data.draw(st.lists(st.sampled_from(blocks), max_size=3))
    return IncidenceStructure(v, blocks)


@seed(24)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_refine_matches_structured_oracle_on_random_structures(data):
    # refine stops at the first step that splits nothing: from drawn
    # colourings, and from each of those individualized at every point of
    # its target cell as the search does, it gives the oracle's colours,
    # and invariants that compare equal exactly when the oracle's do. The
    # invariant depends on the stable colouring alone, however refine got
    # there: refining it again gives it back, with the same invariant
    search = _Search(_drawn_structure(data), budget=10**6)
    v, nb = search.v, search.nb
    starts = [(search.pcolor0, search.bcolor0)]
    for _ in range(data.draw(st.integers(0, 3))):
        pcolor = np.array(data.draw(st.lists(st.integers(0, 3), min_size=v, max_size=v)))
        bcolor = np.array(data.draw(st.lists(st.integers(0, 2), min_size=nb, max_size=nb)))
        starts.append((pcolor, search.bcolor0 * 3 + bcolor))
    new_invs, old_invs = [], []

    def check(pc0, bc0):
        pc, bc, inv = search.refine(pc0, bc0)
        opc, obc, oinv = refine_structured(search, pc0, bc0)
        assert np.array_equal(pc, opc)
        assert np.array_equal(bc, obc)
        again = search.refine(pc, bc)
        assert np.array_equal(again[0], pc) and np.array_equal(again[1], bc) and again[2] == inv
        new_invs.append(inv)
        old_invs.append(oinv)
        return pc, bc

    for pc0, bc0 in starts:
        pc, bc = check(pc0, bc0)
        for x in search.target_cell(pc) or ():
            check(search.individualize(pc, x), bc)
    for i in range(len(new_invs)):
        for j in range(len(new_invs)):
            assert (new_invs[i] == new_invs[j]) == (old_invs[i] == old_invs[j])


@seed(27)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_search_incidence_matches_block_lists(data):
    # the search's incidence index (design._incidence_rows over its block
    # table): each point's blocks in increasing order, padded with nb to the
    # most blocks any point meets, on ragged and repeated blocks and points
    # in no block
    search = _Search(_drawn_structure(data), budget=1)
    through = incidence_lists(table_structure(search))
    degrees = [len(blks) for blks in through]
    assert search.incidence.shape == (search.v, search.rmax)
    assert search.rmax == max(degrees)
    for row, blks in zip(search.incidence.tolist(), through):
        assert row == blks + [search.nb] * (search.rmax - len(blks))
    assert _incidence_rows(search.table.rows, search.v)[1].tolist() == degrees


@seed(21)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_point_signatures_rank_alike(data):
    # a point's incidence row (nub - colour of each of its blocks, largest
    # first, padded with 0) and its dense row of block-colour counts rank
    # the points alike, on ragged and repeated blocks and points in no block,
    # with nub above rmax (where refine takes the incidence rows) and at or
    # below it (where it takes the counts)
    search = _Search(_drawn_structure(data), budget=1)
    v = search.v
    rmax = search.rmax
    above = data.draw(st.booleans())
    nub = data.draw(st.integers(rmax + 1, rmax + 4) if above else st.integers(1, max(rmax, 1)))
    bcolor = np.array(data.draw(st.lists(st.integers(0, nub - 1), min_size=search.nb, max_size=search.nb)))
    pcolor = np.array(data.draw(st.lists(st.integers(0, 2), min_size=v, max_size=v)))
    incidence = search._incidence_rows(pcolor, bcolor, nub)
    counts = search._count_rows(pcolor, bcolor, nub)
    assert incidence.shape == (v, 1 + rmax)
    for got, want in zip(lex_rank(incidence), lex_rank(counts)):
        assert np.array_equal(got, want)


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
@example(np.zeros((0, 3), dtype=np.int64))
@example(np.array([[5, 2**62]]))
@example(np.full((4, 2), 7))
def test_lex_rank_matches_unique_rows(rows):
    rank, first = lex_rank(rows)
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


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([np.uint8, np.uint16]), st.integers(1, 11), st.data())
def test_row_index_narrow_rows_find_exactly(dtype, width, data):
    # rows whose bytes are no whole number of 64-bit words are keyed with a
    # zero-padded last word; a query out of the dtype's range is no row
    values = st.integers(0, 3) | st.integers(0, np.iinfo(dtype).max)
    table = data.draw(arrays(dtype, (data.draw(st.integers(1, 30)), width), elements=values))
    queries = data.draw(arrays(np.int64, (data.draw(st.integers(0, 10)), width), elements=values | st.integers(0, 70000)))
    found = RowIndex(table).find(np.vstack([queries, table]))
    rows = [tuple(r) for r in table.tolist()]
    for row, j in zip(np.vstack([queries, table]).tolist(), found.tolist()):
        assert (rows[j] == tuple(row)) if j >= 0 else (tuple(row) not in rows)


def test_conjugate_indices_match_image_indices():
    G = build_psl2(9)
    elems, index, _ = scalar_orbit(G, element_of_order(G, 3), Permutation.conjugate)
    conjugators = list(G.gens) + [G.gens[0] * G.gens[1]]
    table = ElementTable(np.array([h.images for h in elems], dtype=row_dtype(G.degree)))
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
    # above degree 256 the rows are uint16, not uint8
    rng = Random(7)
    n = 300
    gens = [Permutation(rng.sample(range(n), n)) for _ in range(2)]
    elems = [Permutation(range(n))] + gens + [gens[0] * gens[1], gens[1] * gens[0]]
    index = {h: i for i, h in enumerate(elems)}
    table = ElementTable(np.array([h.images for h in elems], dtype=row_dtype(n)))
    assert table.images.dtype == np.uint16
    assert list(table) == elems
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
    for orb in bfs_orbits([Permutation(p) for p in perms], n):
        for x in orb:
            expected[x] = orb[0]
    assert least.tolist() == expected


def _random_structure(rng):
    """A structure with ragged and repeated blocks: the translates of one or
    two random blocks under the cycle (0 1 ... v-1), and copies of some of
    them, which may break that symmetry. Returns it with the cycle; or,
    half the time, with a twin point v added, lying in exactly the blocks
    through 0, and the swap of 0 and v, which fixes every block."""
    v = rng.randint(3, 6)
    base = [rng.sample(range(v), rng.randint(1, v - 1)) for _ in range(rng.randint(1, 2))]
    blocks = [tuple((p + s) % v for p in blk) for blk in base for s in range(v)]
    blocks += rng.sample(blocks, rng.randint(0, 2))
    if rng.random() < 0.5:
        return IncidenceStructure(v, blocks), Permutation(list(range(1, v)) + [0])
    blocks = [blk + (v,) if 0 in blk else blk for blk in blocks]
    return IncidenceStructure(v + 1, blocks), Permutation([v] + list(range(1, v)) + [0])


def _test_perms(D, rng, extra=()):
    """Automorphisms, their products, random permutations and extra ones."""
    perms = aut_group(D).point_gens[:3] + list(extra)
    perms += [a * b for a in perms for b in perms][:6]
    return perms + [Permutation(rng.sample(range(D.v), D.v)) for _ in range(3)]


def _check_block_images(D, perms):
    for perm in perms:
        j = D.table.images(perm)
        old = block_images_by_sorting(D, perm)
        auto = is_automorphism_by_multiset(D, perm)
        assert (j is None) == (old is None) == (not auto)
        if old is not None:
            assert j.tolist() == old
        assert is_design_automorphism(D, perm) == auto
        assert fixes_every_block(D, perm) == fixes_every_block_by_sets(D, perm)
        assert lift_test_method1(SimpleNamespace(design=D), perm) == auto


def test_block_images_match_sorting(structure):
    rng = Random(3)
    _check_block_images(structure, _test_perms(structure, rng))


def test_block_images_match_sorting_on_random_structures():
    rng = Random(17)
    seen = set()
    for _ in range(60):
        D, special = _random_structure(rng)
        perms = _test_perms(D, rng, [special])
        _check_block_images(D, perms)
        assert not lift_test_method1(SimpleNamespace(design=D), None)
        for p in perms:
            distinct = set(D.blocks)
            keeps_set = {tuple(sorted(p[x] for x in blk)) for blk in distinct} == distinct
            seen.add((fixes_every_block(D, p), is_design_automorphism(D, p), keeps_set))
    # block-fixing maps, automorphisms that move blocks, maps that keep the
    # set of blocks but not their multiplicities, and maps that keep neither
    assert seen == {(True, True, True), (False, True, True), (False, False, True), (False, False, False)}


def test_block_images_reject_other_degree():
    D = RAGGED
    for n in (D.v - 1, D.v + 1):
        with pytest.raises(ValueError, match="degree mismatch"):
            D.table.images(Permutation.identity(n))
        with pytest.raises(ValueError):
            is_design_automorphism(D, Permutation.identity(n))
