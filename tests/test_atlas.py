import hashlib
from math import gcd

import pytest

from designforge import atlas
from designforge.atlas import (
    build_alternating,
    build_pgammal2,
    build_psl2,
    build_symmetric,
    diagonal_map_on_projline,
    embed_pgl2,
    frobenius_on_projline,
    load_group,
    mathieu_group,
    normalizer_of_cyclic,
    point_stabilizer_subgroup,
)
from designforge.errors import InvalidField, InvalidGenerators
from designforge.group import element_of_order
from oracles import conjugacy_class, write_generator_file


@pytest.mark.parametrize(
    "q,order",
    [(2, 6), (3, 12), (4, 60), (5, 60), (7, 168), (8, 504), (9, 360), (11, 660)],
)
def test_psl2_orders(q, order):
    G = build_psl2(q)
    assert q * (q * q - 1) // gcd(2, q - 1) == order  # |PSL(2,q)|
    assert G.order() == order
    assert G.degree == q + 1
    assert G.is_transitive()


def test_psl2_rejects_non_prime_power():
    with pytest.raises(InvalidField):
        build_psl2(6)


def test_psl2_point_stabilizer_order():
    # the point stabilizer in PSL(2,q) has order q(q-1)/gcd(2, q-1)
    for q in (5, 7, 9):
        G = build_psl2(q)
        S = G.point_stabilizer(0)
        assert S.order() == q * (q - 1) // gcd(2, q - 1)


@pytest.mark.parametrize("q", [3, 5])
def test_embed_pgl2_order_and_containment(q):
    big = build_psl2(q * q)
    for variant in ("squared", "non-squared"):
        H = embed_pgl2(q, variant)
        assert H.degree == q * q + 1
        assert H.order() == q * (q * q - 1)
        assert all(g in big for g in H.gens)


def test_embed_pgl2_variants_not_conjugate_in_psl():
    # the two embeddings fix different subline point sets, and no element
    # of PSL(2,9) maps one fixed-point-free variant onto the other's orbit
    # structure; cheapest check: orbit partitions of the two copies differ
    q = 3
    a = embed_pgl2(q, "squared")
    b = embed_pgl2(q, "non-squared")
    sizes_a = sorted(len(o) for o in a.orbits())
    sizes_b = sorted(len(o) for o in b.orbits())
    assert sizes_a == sizes_b  # same abstract action ...
    assert a.orbits() != b.orbits()  # ... on different point sets


def test_embed_pgl2_rejects_bad_variant():
    with pytest.raises(ValueError):
        embed_pgl2(3, "both")


def test_frobenius_normalizes_psl():
    q = 9
    G = build_psl2(q)
    f = frobenius_on_projline(q)
    assert f.order() == 2
    assert not f.is_identity()
    assert all(g.conjugate(f) in G for g in G.gens)


def test_diagonal_map_normalizes_psl():
    q = 9
    G = build_psl2(q)
    d = diagonal_map_on_projline(q)
    assert d not in G
    assert all(g.conjugate(d) in G for g in G.gens)


def test_build_pgammal2():
    # PGammaL(2,8) = PSL(2,8) extended by the field automorphisms
    G = build_pgammal2(8)
    assert G.order() == 504 * 3
    assert G.degree == 9
    H = build_pgammal2(9)
    assert H.order() == 360 * 2 * 2


# sha256 prefixes of the generator image tuples, read before the field moved
# to integers with log tables; reports number classes by these images
GOLDEN_IMAGES = [
    ("psl2", 4, "61cc7be89805e333"),
    ("pgammal2", 4, "3731541c39d7ecff"),
    ("frobenius", 4, "b94d399e0d73da79"),
    ("psl2", 5, "cb3f7be674ade5cb"),
    ("pgammal2", 5, "f5cdc3939471750d"),
    ("frobenius", 5, "a44e487ac2f5cdaa"),
    ("diagonal", 5, "1c0d9742e7af0703"),
    ("psl2", 7, "c42ab07945d84900"),
    ("pgammal2", 7, "a4676a8da024b27b"),
    ("frobenius", 7, "70bb5bc3e90221cd"),
    ("diagonal", 7, "f7b743f1c3f55d24"),
    ("psl2", 8, "c02930fab562ee01"),
    ("pgammal2", 8, "6c72272a1cd2cbec"),
    ("frobenius", 8, "cacf5ac3d04d11a9"),
    ("psl2", 9, "e4757e28f4a4d032"),
    ("pgammal2", 9, "122d851c9247d359"),
    ("frobenius", 9, "f9bf886df6054442"),
    ("diagonal", 9, "667f5049cad19c97"),
    ("psl2", 25, "657df14732783814"),
    ("pgammal2", 25, "173c1358adc1fabd"),
    ("frobenius", 25, "025d14d9a5668574"),
    ("diagonal", 25, "c67c683f46b6b905"),
    ("psl2", 27, "5b66992206793577"),
    ("pgammal2", 27, "0c89b7c17856d101"),
    ("frobenius", 27, "82360f6d94ddaf7a"),
    ("diagonal", 27, "24c5c58f93499478"),
    ("psl2", 49, "bd8ca38e106f45b3"),
    ("pgammal2", 49, "f6b879a6953c0061"),
    ("frobenius", 49, "aaa8b8dd75ae6486"),
    ("diagonal", 49, "c8bcd0369bb04aed"),
    ("embed_pgl2:squared", 3, "1a44c44dd2827c20"),
    ("embed_pgl2:non-squared", 3, "38c73969f552b8e0"),
    ("embed_pgl2:squared", 5, "366f7dc1c041502a"),
    ("embed_pgl2:non-squared", 5, "4ccae27e67c04ffe"),
    ("embed_pgl2:squared", 7, "90440afa40fa6563"),
    ("embed_pgl2:non-squared", 7, "c1a1616913e73225"),
    ("embed_pgl2:squared", 9, "24ce483415d92bcc"),
    ("embed_pgl2:non-squared", 9, "c26d67f16c08682f"),
]


def _generators(name, q):
    if name.startswith("embed_pgl2:"):
        return embed_pgl2(q, name.split(":")[1]).gens
    builders = {"psl2": build_psl2, "pgammal2": build_pgammal2}
    if name in builders:
        return builders[name](q).gens
    return [{"frobenius": frobenius_on_projline, "diagonal": diagonal_map_on_projline}[name](q)]


@pytest.mark.parametrize("name,q,digest", GOLDEN_IMAGES, ids=["%s-%d" % row[:2] for row in GOLDEN_IMAGES])
def test_generator_images_are_pinned(name, q, digest):
    images = repr(tuple(tuple(g.images) for g in _generators(name, q)))
    assert hashlib.sha256(images.encode()).hexdigest()[:16] == digest


def test_symmetric_and_alternating():
    assert build_symmetric(5).order() == 120
    A = build_alternating(6)
    assert A.order() == 360
    assert all(sum(len(c) - 1 for c in g.cycles()) % 2 == 0 for g in A.gens)


def test_symmetric_small_degrees():
    S1 = build_symmetric(1)
    assert (S1.degree, S1.order(), S1.gens) == (1, 1, ())
    assert build_symmetric(2).order() == 2
    for n in (0, -1):
        with pytest.raises(ValueError):
            build_symmetric(n)


@pytest.mark.parametrize("n,order", [(22, 443520), (23, 10200960), (24, 244823040)])
def test_mathieu_orders(n, order):
    G = mathieu_group(n)
    assert G.degree == n
    assert G.order() == order
    assert G.is_transitive()


def test_mathieu_point_stabilizer_chain():
    # the one-point stabilizer of M24 has the order of M23
    G = mathieu_group(24)
    assert G.point_stabilizer(0).order() == 10200960


def test_mathieu_rejects_unknown_degree():
    with pytest.raises(ValueError):
        mathieu_group(12)


def test_mathieu_checks_shipped_generators(monkeypatch):
    monkeypatch.setitem(atlas._MATHIEU_ORDERS, 22, 2 * 443520)
    with pytest.raises(InvalidGenerators):
        mathieu_group(22)


def test_mathieu_involution_class_size():
    G = mathieu_group(22)
    g = element_of_order(G, 2, fixed_points=6)
    assert len(conjugacy_class(G, g)) == 1155


def test_load_group_roundtrip(tmp_path):
    G = build_psl2(7)
    path = tmp_path / "psl27.gens"
    write_generator_file(path, G.degree, G.gens)
    H = load_group(path)
    assert H.degree == 8 and H.order() == 168


def test_point_stabilizer_subgroup_has_recipe():
    G = build_psl2(5)
    M = point_stabilizer_subgroup(G, 0)
    assert M.order() == 10
    assert M.recipe.kind == "point-stabilizer"


def test_normalizer_of_cyclic():
    # N_G(<g>) for a 13-cycle subgroup of PSL(2,27) is dihedral of order 26;
    # compared with {x : g^x in <g>} over all 9828 elements
    G = build_psl2(27)
    g = element_of_order(G, 13)
    N = normalizer_of_cyclic(G, g)
    powers = {g**i for i in range(13)}
    expected = {x for x in G.elements() if g.conjugate(x) in powers}
    assert N.order() == len(expected) == 26
    assert all(x in expected for x in N.gens)
    assert all(x in N for x in expected)
