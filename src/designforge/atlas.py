"""Constructors for the concrete groups the case studies use.

PSL(2,q) and PGL(2,q) act on the projective line PG(1,q); the Mathieu
groups are ingested from generator files shipped under data/.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .errors import InvalidField, InvalidGenerators
from .gf import FieldElem, FieldSpec, field_make, frobenius, is_square, subfield_embedding
from .group import (
    ElementTable,
    PermGroup,
    conjugation_action,
    index_set_action,
    orbit_with_stabilizer,
    orbit_with_transversal,
)
from .perm import Permutation, read_generator_file


@dataclass(frozen=True)
class GroupRecipe:
    """Reproducible description of how a group was built."""

    name: str
    kind: str
    params: dict = field(default_factory=dict)

    def to_dict(self):
        return {"name": self.name, "kind": self.kind, "params": dict(self.params)}


def _with_recipe(G: PermGroup, recipe: GroupRecipe) -> PermGroup:
    G.recipe = recipe
    return G


def _factor_prime_power(q: int):
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise InvalidField("%d is not a prime power" % q)
            return p, k
    raise InvalidField("bad prime power %d" % q)


# -- the projective line ----------------------------------------------------


class ProjectiveLine:
    """PG(1,q): points (x:1) indexed by x.to_int(), plus (1:0) at index q."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.size = spec.size + 1
        self.finite = [spec.from_int(n) for n in range(spec.size)]

    def index(self, x: FieldElem, y: FieldElem) -> int:
        if y.is_zero():
            if x.is_zero():
                raise ValueError("(0:0) is not a projective point")
            return self.spec.size
        return (x / y).to_int()

    def moebius_perm(self, mat) -> Permutation:
        """Permutation induced by the matrix [[a,b],[c,d]] on row vectors."""
        a, b, c, d = mat
        imgs = []
        for x in self.finite:
            imgs.append(self.index(x * a + c, x * b + d))
        imgs.append(self.index(a, b))  # image of (1:0)
        return Permutation(imgs)


# -- PSL / PGL constructors -------------------------------------------------


def build_psl2(q: int) -> PermGroup:
    """PSL(2,q) on the q+1 points of PG(1,q)."""
    p, k = _factor_prime_power(q)
    spec = field_make(p, k)
    line = ProjectiveLine(spec)
    one, zero = spec.one, spec.zero
    gens = []
    for i in range(k):
        e = spec.elem(tuple(1 if j == i else 0 for j in range(k)))
        gens.append(line.moebius_perm((one, e, zero, one)))
    gens.append(line.moebius_perm((zero, one, -one, zero)))
    G = PermGroup(gens, line.size)
    return _with_recipe(G, GroupRecipe("PSL(2,%d)" % q, "psl2", {"q": q}))


def psl2_order(q: int) -> int:
    return q * (q * q - 1) // gcd(2, q - 1)


def embed_pgl2(q: int, variant: str = "squared") -> PermGroup:
    """A maximal PGL(2,q) inside PSL(2,q^2), acting on PG(1,q^2).

    variant 'squared' is the subfield copy (its unipotents are squares in
    GF(q^2)); 'non-squared' is its conjugate by diag(nu,1) for a non-square
    nu, which is not PSL(2,q^2)-conjugate to the first.
    """
    if variant not in ("squared", "non-squared"):
        raise ValueError("variant must be 'squared' or 'non-squared'")
    p, k = _factor_prime_power(q)
    if p == 2:
        raise InvalidField("q must be odd")
    small = field_make(p, k)
    big = field_make(p, 2 * k)
    emb = subfield_embedding(small, big)
    line = ProjectiveLine(big)
    one, zero = big.one, big.zero
    mats = []
    for i in range(k):
        e = emb[small.elem(tuple(1 if j == i else 0 for j in range(k)))]
        mats.append((one, e, zero, one))
    mats.append((zero, one, -one, zero))
    rho = emb[small.generator()]
    mats.append((rho, zero, zero, one))
    gens = [line.moebius_perm(m) for m in mats]
    if variant == "non-squared":
        nu = next(a for a in (big.from_int(n) for n in range(1, big.size)) if not is_square(a))
        h = line.moebius_perm((nu, zero, zero, one))
        hinv = h.inverse()
        gens = [g.conjugate(h, hinv) for g in gens]
    G = PermGroup(gens, line.size)
    return _with_recipe(
        G, GroupRecipe("PGL(2,%d) in PSL(2,%d)" % (q, q * q), "pgl2-in-psl2sq", {"q": q, "variant": variant})
    )


def build_pgammal2(q: int) -> PermGroup:
    """PΓL(2,q) on PG(1,q): PGL(2,q) extended by the field automorphisms."""
    p, k = _factor_prime_power(q)
    gens = list(build_psl2(q).gens)
    if p != 2:
        gens.append(diagonal_map_on_projline(q))
    if k > 1:
        gens.append(frobenius_on_projline(q, 1))
    G = PermGroup(gens, q + 1)
    return _with_recipe(G, GroupRecipe("PGammaL(2,%d)" % q, "pgammal2", {"q": q}))


def frobenius_on_projline(q: int, i: int = 1) -> Permutation:
    """The permutation of PG(1,q) induced by x -> x^(p^i)."""
    p, k = _factor_prime_power(q)
    spec = field_make(p, k)
    imgs = [frobenius(spec.from_int(n), i).to_int() for n in range(spec.size)]
    imgs.append(spec.size)
    return Permutation(imgs)


def diagonal_map_on_projline(q: int) -> Permutation:
    """Permutation of PG(1,q) from diag(nu,1), nu the least non-square.

    Normalizes PSL(2,q) and realizes the diagonal outer automorphism.
    """
    p, k = _factor_prime_power(q)
    if p == 2:
        raise InvalidField("q must be odd")
    spec = field_make(p, k)
    line = ProjectiveLine(spec)
    nu = next(a for a in (spec.from_int(n) for n in range(1, spec.size)) if not is_square(a))
    return line.moebius_perm((nu, spec.zero, spec.zero, spec.one))


# -- symmetric / alternating ------------------------------------------------


def build_symmetric(n: int) -> PermGroup:
    gens = [Permutation([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(Permutation(list(range(1, n)) + [0]))
    G = PermGroup(gens, n)
    return _with_recipe(G, GroupRecipe("S%d" % n, "symmetric", {"n": n}))


def build_alternating(n: int) -> PermGroup:
    if n < 3:
        raise ValueError("need n >= 3")
    three_cycle = Permutation([1, 2, 0] + list(range(3, n)))
    if n % 2 == 1:
        big = Permutation(list(range(1, n)) + [0])
    else:
        big = Permutation([0] + list(range(2, n)) + [1])
    G = PermGroup([three_cycle, big], n)
    return _with_recipe(G, GroupRecipe("A%d" % n, "alternating", {"n": n}))


# -- ingestion --------------------------------------------------------------

_MATHIEU_ORDERS = {24: 244823040, 23: 10200960, 22: 443520}


def load_group(path) -> PermGroup:
    degree, gens = read_generator_file(path)
    G = PermGroup(gens, degree)
    return _with_recipe(G, GroupRecipe("file:%s" % path, "from-file", {"path": str(path)}))


def mathieu_group(n: int) -> PermGroup:
    """The shipped Mathieu group M_n for n in {22, 23, 24}."""
    if n not in _MATHIEU_ORDERS:
        raise ValueError("only M22, M23, M24 are shipped")
    ref = importlib.resources.files("designforge.data") / ("m%d.gens" % n)
    with importlib.resources.as_file(ref) as path:
        degree, gens = read_generator_file(path)
    G = PermGroup(gens, degree)
    if G.order() != _MATHIEU_ORDERS[n]:
        raise InvalidGenerators(
            "shipped M%d generators give order %d, expected %d" % (n, G.order(), _MATHIEU_ORDERS[n])
        )
    return _with_recipe(G, GroupRecipe("M%d" % n, "from-file", {"n": n}))


# -- derived subgroups ------------------------------------------------------


def point_stabilizer_subgroup(G: PermGroup, pt: int) -> PermGroup:
    """Stabilizer of a point; maximal when G is primitive on its domain."""
    if not 0 <= pt < G.degree:
        raise ValueError("point %d is not in range(%d)" % (pt, G.degree))
    S = G.point_stabilizer(pt)
    name = G.recipe
    S.recipe = GroupRecipe(
        "Stab(%s, %d)" % (name.name if name else "G", pt),
        "point-stabilizer",
        {"point": pt, "parent": name.to_dict() if name else None},
    )
    return S


def normalizer_of_cyclic(G: PermGroup, g: Permutation) -> PermGroup:
    """N_G(<g>): the stabilizer, in g's class orbit, of the set of generators
    g^i of <g> (i prime to |g|) that lie in that class."""
    n = g.order()
    cls, images = orbit_with_transversal(G, g.images, conjugation_action(G))
    found = ElementTable(cls).find([g**i for i in range(1, n) if gcd(i, n) == 1])
    _, stab = orbit_with_stabilizer(G, np.sort(found[found >= 0]), index_set_action(images))
    name = G.recipe
    stab.recipe = GroupRecipe(
        "N(%s, <ord-%d>)" % (name.name if name else "G", g.order()),
        "normalizer-of-cyclic",
        {"element_order": g.order(), "parent": name.to_dict() if name else None},
    )
    return stab
