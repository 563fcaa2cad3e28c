"""The two design constructions: stabilizer-orbit translates (Method 1)
and conjugacy-class blocks cut out by maximal-subgroup conjugates
(Method 2)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import DesignParams, IncidenceStructure, validate_1design
from .errors import InternalInconsistency
from .group import (
    ElementTable,
    PermGroup,
    conjugation_action,
    index_set_action,
    orbit_with_transversal,
    schreier_stabilizer,
)
from .perm import Permutation


def stabilizer_orbits(G: PermGroup, alpha: int):
    """All orbits of the point stabilizer G_alpha, sorted by (size, least
    point) for deterministic addressing."""
    stab = G.point_stabilizer(alpha)
    orbits = stab.orbits()
    return sorted(orbits, key=lambda o: (len(o), o[0]))


# -- coset actions ----------------------------------------------------------


@dataclass
class CosetAction:
    """The action of G on the right cosets of a subgroup M, each named by its
    least element on M's chain built on G's base, which is a member of that
    coset. Faithful whenever G is simple and M is proper (kernel = core of
    M = 1)."""

    subgroup: PermGroup
    group: PermGroup  # image of G in Sym(index)
    index_of: dict  # least element u of a coset Mu -> its point

    def point(self, z: Permutation):
        """The point of the coset Mz; None when z is not in G."""
        return self.index_of.get(self.subgroup.chain.least_in_coset(z))

    def induced_perm(self, phi: Permutation):
        """Point permutation induced by a permutation phi normalizing G: the
        coset Mu goes to M y u^phi, My the first coset fixed by every
        generator of M^phi. Then M^phi <= M^y, so the two are equal. None
        when no coset is fixed or phi does not normalize G. Each u and y is
        the least element of its coset."""
        phinv = phi.inverse()
        gens = [h.conjugate(phi, phinv) for h in self.subgroup.gens]
        y = next((y for y, i in self.index_of.items() if all(self.point(y * h) == i for h in gens)), None)
        if y is None:
            return None
        imgs = [self.point(y * u.conjugate(phi, phinv)) for u in self.index_of]
        return None if None in imgs else Permutation(imgs)

    def fixed_point_count(self, g: Permutation) -> int:
        """1_M^G(g): the number of cosets Mu that g fixes, i.e. with Mug = Mu,
        u the least element of its coset, each asked through point."""
        return sum(self.point(u * g) == i for u, i in self.index_of.items())


def coset_action(G: PermGroup, M: PermGroup) -> CosetAction:
    """Action of G on the right cosets of M, as the orbit of M's least
    element under right multiplication."""
    M = PermGroup(M.gens, G.degree, base_hint=G.chain.base)
    least = M.chain.least_in_coset

    def on_cosets(rows, k):
        g = G.gens[k]
        return np.array([least(Permutation._trusted(tuple(u)) * g).images for u in rows.tolist()], rows.dtype)

    orbit, images = orbit_with_transversal(G, least(G.identity()).images, on_cosets)
    image = PermGroup([Permutation(col.tolist()) for col in images], len(orbit))
    index_of = {Permutation._trusted(tuple(u)): i for i, u in enumerate(orbit.tolist())}
    return CosetAction(subgroup=M, group=image, index_of=index_of)


# -- Method 1 ---------------------------------------------------------------


@dataclass
class Method1Design:
    design: IncidenceStructure
    params: DesignParams
    G: PermGroup  # the acting group, in the representation carrying the design
    alpha: int
    delta: tuple


def method1_design(
    G: PermGroup,
    alpha: int = 0,
    orbit_size: int = None,
    orbit_index: int = 0,
) -> Method1Design:
    """Blocks are the G-translates of a chosen nontrivial G_alpha-orbit."""
    if not 0 <= alpha < G.degree:
        raise ValueError("point %d is not in range(%d)" % (alpha, G.degree))
    if orbit_index < 0:
        raise ValueError("orbit index must be at least 0, not %d" % orbit_index)
    if not G.is_transitive():
        raise ValueError("group must be transitive on its domain")
    orbits = [o for o in stabilizer_orbits(G, alpha) if o != [alpha]]
    if orbit_size is not None:
        orbits = [o for o in orbits if len(o) == orbit_size]
    if orbit_index >= len(orbits):
        raise ValueError("no stabilizer orbit with that selector")
    delta = tuple(orbits[orbit_index])
    on_sets = index_set_action([g.images for g in G.gens])
    block_orbit = orbit_with_transversal(G, delta, on_sets)[0]
    if len(block_orbit) != G.degree:
        raise InternalInconsistency(
            "expected %d distinct blocks, found %d" % (G.degree, len(block_orbit))
        )
    D = IncidenceStructure._trusted(G.degree, block_orbit.astype(np.int64))
    params = validate_1design(D)
    if (params.k, params.lam) != (len(delta), len(delta)):
        raise InternalInconsistency("parameters disagree with the construction")
    return Method1Design(design=D, params=params, G=G, alpha=alpha, delta=delta)


# -- Method 2 ---------------------------------------------------------------


@dataclass
class Method2Design:
    design: IncidenceStructure
    params: DesignParams
    G: PermGroup
    M: PermGroup
    g: Permutation
    class_table: ElementTable  # the class orbit: row i the images of class element i
    class_images: list  # per generator of G: class index -> index of its conjugate
    base_block: np.ndarray  # the class indices of the elements in M
    block_images: list  # per generator of G: block index -> index of its image

    def induced_point_perm(self, phi: Permutation):
        """Point map induced by conjugation by phi; None if the class is not
        preserved. The generators of G have theirs in class_images."""
        imgs = self.class_table.conjugate_indices(phi, phi.inverse(), slice(None))
        return None if (imgs < 0).any() else Permutation(imgs.tolist())

    def point_centralizers(self, points):
        """C_G of the class elements at the given indices, each the stabilizer
        of its point in the class orbit."""
        return [schreier_stabilizer(self.G, self.class_table, self.class_images, root=i) for i in points]


def _stabilized_point(G: PermGroup, M: PermGroup):
    """The point pt with M = Stab_G(pt), or None. The point comes from M's
    recipe, which does not record G, so it is checked: M's generators lie in
    G and fix pt, and |M| = |G| / |pt^G|."""
    recipe = M.recipe
    if recipe is None or recipe.kind != "point-stabilizer":
        return None
    pt = recipe.params["point"]
    if any(x.images[pt] != pt or x not in G for x in M.gens):
        return None
    if G.order() != M.order() * len(G.orbit(pt)):
        return None
    return pt


def method2_design(G: PermGroup, M: PermGroup, g: Permutation) -> Method2Design:
    """Points are the conjugacy class of g; the base block is its
    intersection with M, and blocks are the G-translates."""
    if g.is_identity():
        raise ValueError("g must be a nonidentity element of M")
    if g not in M:
        raise ValueError("g is not a member of M")
    table, class_images = orbit_with_transversal(G, g.images, conjugation_action(G))
    pt = _stabilized_point(G, M)
    if pt is not None:
        # M is all of G fixing pt, and the class lies in G; this column test
        # stays because a batched sift of the class through M's chain took
        # the M23 design from 76 to 142 ms (2-core Xeon VM)
        base_block = np.flatnonzero(table[:, pt] == pt)
    else:
        base_block = np.array(
            [i for i, h in enumerate(table.tolist()) if Permutation._trusted(tuple(h)) in M], dtype=np.int64
        )
    if not len(base_block):
        raise InternalInconsistency("class does not meet M")
    blocks, block_images = orbit_with_transversal(G, base_block, index_set_action(class_images))
    expected_b = G.order() // M.order()
    if len(blocks) != expected_b:
        raise InternalInconsistency(
            "expected %d blocks (= |G:M|), found %d" % (expected_b, len(blocks))
        )
    D = IncidenceStructure._trusted(len(table), blocks.astype(np.int64))
    params = validate_1design(D)
    if params.k != len(base_block):
        raise InternalInconsistency("block size changed along the orbit")
    return Method2Design(
        design=D,
        params=params,
        G=G,
        M=M,
        g=g,
        class_table=ElementTable(table),
        class_images=class_images,
        base_block=base_block,
        block_images=block_images,
    )


# -- permutation character ---------------------------------------------------


def perm_char_value(G: PermGroup, M: PermGroup, g: Permutation, coset: CosetAction = None) -> int:
    """1_M^G(g): the number of cosets Mu with g in M^u, counted as fixed
    points of g on the cosets of M."""
    if coset is None:
        coset = coset_action(G, M)
    return coset.fixed_point_count(g)
