"""Constructors for the concrete groups the case studies use.

PSL(2,q) and PGL(2,q) act on the projective line PG(1,q), whose points are
(x:1) at index x, a field element of gf as an integer, and (1:0) at index
q; each generator is the Moebius map of one matrix. The Mathieu groups are
ingested from generator files shipped under data/.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .errors import InvalidField, InvalidGenerators
from .gf import field_make, subfield_embedding
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


def _moebius(F, a, b, c, d) -> Permutation:
    """The permutation of PG(1,q) that the matrix [[a,b],[c,d]] over the
    field F induces on row vectors: (x:1) is point x, (1:0) is point q."""
    q = F.size

    def point(x, y):
        return q if y == 0 else F.mul(x, F.inv(y))

    finite = [point(F.add(F.mul(x, a), c), F.add(F.mul(x, b), d)) for x in range(q)]
    return Permutation(finite + [point(a, b)])


def _least_non_square(F) -> int:
    return next(a for a in range(1, F.size) if not F.is_square(a))


# -- PSL / PGL constructors -------------------------------------------------


def build_psl2(q: int) -> PermGroup:
    """PSL(2,q) on the q+1 points of PG(1,q)."""
    p, k = _factor_prime_power(q)
    F = field_make(p, k)
    gens = [_moebius(F, 1, p**i, 0, 1) for i in range(k)]
    gens.append(_moebius(F, 0, 1, F.neg(1), 0))
    G = PermGroup(gens, q + 1)
    return _with_recipe(G, GroupRecipe("PSL(2,%d)" % q, "psl2", {"q": q}))


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
    gens = [_moebius(big, 1, emb[p**i], 0, 1) for i in range(k)]
    gens.append(_moebius(big, 0, 1, big.neg(1), 0))
    gens.append(_moebius(big, emb[small.generator], 0, 0, 1))
    if variant == "non-squared":
        h = _moebius(big, _least_non_square(big), 0, 0, 1)
        hinv = h.inverse()
        gens = [g.conjugate(h, hinv) for g in gens]
    G = PermGroup(gens, q * q + 1)
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
    F = field_make(*_factor_prime_power(q))
    return Permutation([F.frobenius(x, i) for x in range(q)] + [q])


def diagonal_map_on_projline(q: int) -> Permutation:
    """Permutation of PG(1,q) from diag(nu,1), nu the least non-square.

    Normalizes PSL(2,q) and realizes the diagonal outer automorphism.
    """
    p, k = _factor_prime_power(q)
    if p == 2:
        raise InvalidField("q must be odd")
    F = field_make(p, k)
    return _moebius(F, _least_non_square(F), 0, 0, 1)


# -- symmetric / alternating ------------------------------------------------


def build_symmetric(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("need n >= 1")
    gens = [Permutation([1, 0] + list(range(2, n)))] if n > 1 else []
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
