"""Permutation groups with a base and strong generating set.

A group's Schreier-Sims chain grows only through _Chain.extend, one
generator at a time, and grows incrementally: each level keeps every
transversal entry it has, with its inverse, so sifting never inverts a
permutation, and each (orbit point, level generator) Schreier pair is
checked once.  An entry u*s gets its inverse as s^-1 * u^-1, a product of
inverses already at hand.  The chain is built deterministically: base
points are chosen greedily as the first point moved by each new strong
generator, orbits are extended breadth-first in insertion order.  Identical
generator lists therefore always produce identical chains.

PermGroup.rebased(points) rebuilds a group's chain on a base that starts
with the given points.  The group's own chain certifies its order, so the
rebuild stops as soon as its transversal lengths multiply to that order
(Schreier-Sims with a known order; Seress, Permutation Group Algorithms,
2003, section 4.5).  Pointwise stabilizers off the group's base and the
automorphism search's known group are rebuilt this way.

Many elements at once go through numpy: ElementTable holds permutations as
the rows of an int array and conjugates them together, RowIndex finds rows
by a hashed key checked in full, and orbit_minima labels the orbits of
permutations given as arrays: PermGroup's orbits on points all read it.
"""

from __future__ import annotations

from random import Random

import numpy as np

from .errors import (
    InvalidGenerators,
    NotASubgroupElement,
    NotFound,
    OrbitOverflow,
)
from .perm import Permutation

DEFAULT_ORBIT_CAP = 1 << 24


class _Chain:
    """Base, per-level strong generators, and transversals kept with their
    inverses.

    A level only grows: its transversal keeps every entry it has, and each
    (orbit point, level generator) pair is checked as a Schreier generator
    once.
    """

    def __init__(self, degree, gens, base_hint=(), order=None):
        self.degree = degree
        self.base = []
        self.level_gens = []  # level i: generators of the stabilizer of base[:i]
        self.transversals = []  # level i: point -> perm mapping base[i] to point
        self.inverses = []  # level i: point -> inverse of its transversal entry
        self._checked = []  # level i: point -> how many level generators it has checked
        # the group's certified order, known only while the chain is built
        self._target = order
        for b in base_hint:
            self._new_level(b)
        for g in gens:
            self.extend(g)
        self._target = None

    def _first_moved(self, g):
        for i, j in enumerate(g.images):
            if i != j:
                return i
        raise AssertionError("identity has no moved point")

    def _orbit(self, level):
        """Extend the fundamental orbit and transversal of a level to its
        current generators, keeping the entries already there."""
        trans = self.transversals[level]
        inv = self.inverses[level]
        gens = [(s, s.inverse()) for s in self.level_gens[level]]
        queue = list(trans)
        for pt in queue:
            rep, rinv = trans[pt], inv[pt]
            for s, sinv in gens:
                img = s.images[pt]
                if img not in trans:
                    trans[img] = rep * s
                    inv[img] = sinv * rinv
                    queue.append(img)

    def _new_level(self, point):
        identity = Permutation.identity(self.degree)
        self.base.append(point)
        self.level_gens.append([])
        self.transversals.append({point: identity})
        self.inverses.append({point: identity})
        self._checked.append({})

    def sift(self, g, start=0):
        """Strip g through the chain; return (residue, failure level).

        The residue is the identity (and the level is len(base)) iff g is a
        member of the group generated below `start`.
        """
        h = g
        for level in range(start, len(self.base)):
            img = h.images[self.base[level]]
            if img == self.base[level]:
                continue
            inv = self.inverses[level].get(img)
            if inv is None:
                return h, level
            h = h * inv
        return h, len(self.base)

    def extend(self, g) -> bool:
        """Add the generator g; False, with the chain unchanged, when g is
        already a member."""
        residue, level = self.sift(g)
        if residue.is_identity():
            return False
        self._add(residue, 0, level)
        self._verify(level)
        return True

    def _add(self, h, first, level):
        """Add h, which fixes base[:level], to levels first..level."""
        if level == len(self.base):
            self._new_level(self._first_moved(h))
        for j in range(first, level + 1):
            self.level_gens[j].append(h)
            self._orbit(j)

    def _verify(self, i):
        """Schreier-Sims from level i up to level 0: every Schreier generator
        of a level must sift through the levels below it.

        While a chain is built to a known order, it stops once the
        transversal lengths multiply to that order. Each level's orbit lies
        in the true fundamental orbit, so the product never exceeds |G|, and
        when it equals |G| every level's generators generate the true
        stabilizer: the pairs left unchecked would all sift."""
        while i >= 0:
            if self._target is not None and self.order() == self._target:
                return
            found = self._unsifted_schreier(i)
            if found is None:
                i -= 1
                continue
            residue, level = found
            self._add(residue, i + 1, level)
            i = level

    def _unsifted_schreier(self, i):
        """(residue, level) of the first unchecked Schreier generator of
        level i that does not sift to the identity, or None.

        A pair that sifted to the identity once always will: its transversal
        entries are kept and the levels below only grow.
        """
        trans = self.transversals[i]
        inv = self.inverses[i]
        gens = self.level_gens[i]
        checked = self._checked[i]
        for pt, rep in trans.items():
            for k in range(checked.get(pt, 0), len(gens)):
                s = gens[k]
                residue, level = self.sift(rep * s * inv[s.images[pt]], i + 1)
                if not residue.is_identity():
                    return residue, level
                checked[pt] = k + 1
        return None

    def least_in_coset(self, x):
        """The least element of the right coset Hx, H this chain's group: the
        one with lexicographically least base images. Each level moves x to
        t * x, t the transversal entry whose point has the least image."""
        for b, trans in zip(self.base, self.transversals):
            p = min(trans, key=x.images.__getitem__)
            if p != b:
                x = trans[p] * x
        return x

    def order(self):
        n = 1
        for trans in self.transversals:
            n *= len(trans)
        return n


class PermGroup:
    """A finite permutation group given by generators."""

    def __init__(self, gens, degree=None, base_hint=()):
        gens = list(gens)
        if degree is None:
            if not gens:
                raise InvalidGenerators("need a degree for the trivial group")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise InvalidGenerators(
                    "generator degree %d != group degree %d" % (g.degree, degree)
                )
        self.degree = degree
        self.gens = tuple(g for g in gens if not g.is_identity())
        self._base_hint = tuple(base_hint)
        self._chain = None
        self.recipe = None  # a GroupRecipe when the atlas built the group

    @property
    def chain(self) -> _Chain:
        if self._chain is None:
            self._chain = _Chain(self.degree, self.gens, self._base_hint)
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def __contains__(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        residue, level = self.chain.sift(g)
        return residue.is_identity()

    def extend(self, g: Permutation) -> bool:
        """Add the generator g, growing the chain in place; False, with the
        group unchanged, when g is already a member."""
        if g.degree != self.degree:
            raise InvalidGenerators("generator degree %d != group degree %d" % (g.degree, self.degree))
        if not self.chain.extend(g):
            return False
        self.gens += (g,)
        self._pr_state = None  # restart product replacement with the new generator
        return True

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def orbit_minima(self):
        """The least point of each point's orbit, as an int array."""
        return orbit_minima([np.array(g.images) for g in self.gens], self.degree)

    def orbit(self, point: int):
        """The orbit of point, sorted."""
        least = self.orbit_minima()
        return np.flatnonzero(least == least[point]).tolist()

    def orbits(self):
        """All orbits on points, each sorted, ordered by least element."""
        out = {}
        for x, least in enumerate(self.orbit_minima().tolist()):
            out.setdefault(least, []).append(x)
        return list(out.values())

    def is_transitive(self) -> bool:
        return not self.orbit_minima().any()

    def rebased(self, points) -> "PermGroup":
        """This group on a chain whose base starts with points. The chain is
        built by Schreier-Sims that stops at this group's order, which its
        own chain certifies."""
        G = PermGroup(self.gens, self.degree, base_hint=points)
        G._chain = _Chain(self.degree, self.gens, G._base_hint, order=self.order())
        return G

    def pointwise_stabilizer(self, points) -> "PermGroup":
        """Subgroup fixing every listed point: a level of this group's chain
        when its base starts with the points, else of its rebased chain."""
        points = list(points)
        chain = self.chain
        if chain.base[: len(points)] != points:
            chain = self.rebased(points).chain
        if len(points) == len(chain.base):
            return PermGroup([], self.degree)
        return PermGroup(chain.level_gens[len(points)], self.degree)

    def point_stabilizer(self, point: int) -> "PermGroup":
        return self.pointwise_stabilizer([point])

    def elements(self, cap=1 << 20):
        """All group elements by transversal products (order must be <= cap)."""
        if self.order() > cap:
            raise OrbitOverflow("group order %d exceeds cap %d" % (self.order(), cap))
        out = [Permutation.identity(self.degree)]
        for trans in self.chain.transversals:
            out = [rep * g for rep in trans.values() for g in out]
        return out

    def random_element(self, rng: Random) -> Permutation:
        """Product-replacement step; deterministic for a seeded Random."""
        if not self.gens:
            return self.identity()
        state = getattr(self, "_pr_state", None)
        if state is None:
            state = list(self.gens) * max(1, (11 // len(self.gens)) + 1)
            for _ in range(50):
                _pr_mix(state, rng)
            self._pr_state = state
        _pr_mix(state, rng)
        return state[rng.randrange(len(state))]

    def __repr__(self):
        return "PermGroup(degree=%d, ngens=%d)" % (self.degree, len(self.gens))


def _pr_mix(state, rng):
    i = rng.randrange(len(state))
    j = rng.randrange(len(state))
    while j == i:
        j = rng.randrange(len(state))
    if rng.random() < 0.5:
        state[i] = state[i] * state[j]
    else:
        state[i] = state[j] * state[i]


# ---------------------------------------------------------------------------
# Group actions


def index_set_action(gens, tables):
    """Action on sorted tuples of indices for the generators gens, each
    mapping index i to entry i of its table in tables: its images on points,
    or its column of the tables orbit_with_transversal returns."""
    columns = dict(zip(gens, tables))

    def apply(value, x, xinv):
        return tuple(sorted(map(columns[x].__getitem__, value)))

    return apply


def orbit_with_transversal(G: PermGroup, value, action, cap=DEFAULT_ORBIT_CAP):
    """Orbit of value under G, with generator images.

    action(value, g, ginv) is the image of value under a generator g of G,
    given with its inverse: Permutation.conjugate for conjugation, or
    index_set_action for sorted tuples.

    Returns (orbit list in discovery order, dict value -> its orbit index,
    and one tuple per generator of G holding the orbit index of each orbit
    element's image under that generator). The tables hold the transversal:
    schreier_stabilizer rebuilds its entries from them when it needs them.
    """
    gens = [(g, g.inverse()) for g in G.gens]
    index = {value: 0}
    images = [[] for _ in gens]
    queue = [value]
    for v in queue:
        for (g, ginv), col in zip(gens, images):
            img = action(v, g, ginv)
            j = index.get(img)
            if j is None:
                if len(queue) >= cap:
                    raise OrbitOverflow("orbit exceeds cap %d" % cap)
                j = index[img] = len(queue)
                queue.append(img)
            col.append(j)
    return queue, index, [tuple(col) for col in images]


def lex_rank(rows):
    """Dense lexicographic ranks of the rows of a 2-D non-negative int array,
    and the index of the first row of each rank.

    Each row is ranked as one np.void item of its big-endian 8-byte words:
    big-endian bytes compare as the numbers do, so a 1-D np.unique orders
    the items as the rows, lexicographically."""
    rows = np.ascontiguousarray(rows, dtype=">u8")
    keys = rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel()
    _, first, rank = np.unique(keys, return_index=True, return_inverse=True)
    return rank.ravel(), first


class RowIndex:
    """The rows of a 2-D int array, found by a 64-bit key: a fixed random
    linear form of the row, wrapping modulo 2**64. A row found by its key
    is compared in full, so that keys which collide cost another probe,
    never a wrong answer.

    Exact keys, one np.void item of big-endian words per row as lex_rank
    ranks them, need no weights and no probe loop, but sort and search
    slower: with them, in-process on a 2-core Xeon VM (best of 3), the
    (22,3) Mathieu row's search took 129 ms instead of 120 ms and
    casestudies._dual_block_imprimitivity 18.6 ms instead of 12.0 ms."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.int64)
        rng = Random(0)  # not numpy.random, whose import costs about 6 MiB
        self.weights = np.array([rng.getrandbits(62) for _ in range(self.rows.shape[1])])
        keys = self.rows @ self.weights
        self.order = np.argsort(keys)
        self.keys = keys[self.order]

    def find(self, rows):
        """The table index of each given row, -1 where it is not a row."""
        rows = np.asarray(rows, dtype=np.int64)
        keys = rows @ self.weights
        out = np.full(len(rows), -1, dtype=np.int64)
        todo = np.argsort(keys)  # sorted queries search faster
        pos = np.searchsorted(self.keys, keys[todo])
        while len(todo):
            live = pos < len(self.keys)
            todo, pos = todo[live], pos[live]
            live = self.keys[pos] == keys[todo]
            todo, pos = todo[live], pos[live]
            idx = self.order[pos]
            hit = (self.rows[idx] == rows[todo]).all(axis=1)
            out[todo[hit]] = idx[hit]
            todo, pos = todo[~hit], pos[~hit] + 1
        return out


class ElementTable:
    """Permutations of one degree as the rows of an int array, so that many
    of them are conjugated and looked up at once."""

    def __init__(self, elems):
        if elems[0].degree <= 256:
            # bytes() packs each image tuple in one call: on the 12 320 rows
            # of the (22,3) Mathieu row a median of 5.5-5.8 ms, against
            # 13.8-14.0 ms for np.array (2-core Xeon VM)
            table = np.frombuffer(b"".join([bytes(g.images) for g in elems]), dtype=np.uint8)
            self.images = table.reshape(len(elems), -1).astype(np.int64)
        else:
            self.images = np.array([g.images for g in elems], dtype=np.int64)
        self.index = RowIndex(self.images)

    def conjugate_indices(self, x: Permutation, xinv: Permutation, points):
        """Table indices of the conjugates by x of the elements at the given
        indices (an index array or a slice), -1 where a conjugate is not in
        the table."""
        if x.degree != self.images.shape[1]:
            raise ValueError("degree mismatch: %d ^ %d" % (self.images.shape[1], x.degree))
        xs, xi = np.array(x.images), np.array(xinv.images)
        return self.index.find(xs[self.images[points][:, xi]])


def orbit_minima(images, n: int):
    """The least point of each point's orbit under the group generated by
    permutations of range(n), given as int arrays.

    A breadth-first search in Python gives the same orbits: on the 6160
    reduced points of the (22,3) Mathieu row it took 3.3 ms against 0.3 ms
    here (2-core Xeon VM)."""
    least = np.arange(n)
    while True:
        new = least
        for img in images:
            new = np.minimum(new, new[img])
            new[img] = np.minimum(new[img], new)
        new = new[new]
        if np.array_equal(new, least):
            return least
        least = new


def orbit_with_stabilizer(G: PermGroup, value, action):
    """Orbit and stabilizer under action(value, g, ginv); |orbit| * |stab| =
    |G| always holds."""
    orbit, _, images = orbit_with_transversal(G, value, action)
    return orbit, schreier_stabilizer(G, orbit, images)


def schreier_stabilizer(G: PermGroup, orbit, images, root=0) -> PermGroup:
    """Stabilizer of orbit[root], from the generator tables of its orbit as
    orbit_with_transversal returns them.

    A breadth-first search from root over the tables makes the transversal
    entry u g of an orbit element when it first reaches it along g from an
    element with entry u (the Schreier tree of Sims's orbit algorithm). Each
    edge v -g-> w it meets again gives the Schreier generator u_v g u_w^-1,
    and one group is extended by these until the orbit-stabilizer identity
    certifies it complete: its order is |G| / |orbit|.
    """
    target = G.order() // len(orbit)
    if target * len(orbit) != G.order():
        raise AssertionError("orbit size does not divide group order")
    stab = PermGroup([], G.degree)
    trans = {root: G.identity()}
    queue = [root]
    for v in queue:
        u = trans[v]
        for g, col in zip(G.gens, images):
            if stab.order() == target:
                return stab
            w = col[v]
            uw = trans.get(w)
            if uw is None:
                trans[w] = u * g
                queue.append(w)
            else:
                stab.extend(u * g * uw.inverse())
    if stab.order() != target:
        raise AssertionError("Schreier generation did not reach stabilizer order")
    return stab


def centralizer(G: PermGroup, g: Permutation) -> PermGroup:
    """C_G(g), the stabilizer of g under conjugation."""
    _, stab = orbit_with_stabilizer(G, g, Permutation.conjugate)
    return stab


def conjugacy_class(G: PermGroup, g: Permutation):
    return orbit_with_transversal(G, g, Permutation.conjugate)[0]


def element_of_order(G: PermGroup, m: int, fixed_points=None, seed=0, budget=4000):
    """A group element of order exactly m, deterministically for a given seed;
    with fixed_points given, one that fixes exactly that many points, which
    tells apart classes of equal element order."""
    if m < 1:
        raise ValueError("element order must be at least 1, not %d" % m)
    if m == 1:
        return G.identity()
    rng = Random(seed)

    def matches(x):
        return x.order() == m and (fixed_points is None or len(x.fixed_points()) == fixed_points)

    candidates = list(G.gens)
    for _ in range(budget):
        for x in candidates:
            d = x.order()
            if d % m == 0:
                y = x ** (d // m)
                if matches(y):
                    return y
        candidates = [G.random_element(rng)]
    raise NotFound("no element of order %d found within budget" % m)


def minimal_block_system(gens, alpha: int, delta: int):
    """Finest invariant partition merging alpha and delta, for the group
    generated by gens acting on 0..n-1 (assumed transitive).

    Returns the partition as a list of sorted cells, ordered by least
    element; the partition is trivial iff it has a single cell or all cells
    are singletons.
    """
    return _cells(_block_labels([np.array(g.images) for g in gens], alpha, delta))


def _block_labels(images, alpha: int, delta: int):
    """The least point of each point's cell in the finest partition that
    merges alpha and delta and is invariant under the permutations given as
    int arrays.

    Label propagation: x ~ lab[x] forces g(x) ~ g(lab[x]), so for each
    generator in turn the larger root of each such pair in two cells is
    hooked to the least root it must join, and labels jump to their roots,
    until a sweep over the generators changes nothing. Every merge is
    forced, so that fixed point is the finest invariant partition. A
    union-find over point pairs gives the same cells (tests/oracles.py), but
    on the 6160 dual blocks of the (22,3) Mathieu row it took 6.7 ms,
    against 2.2 ms here (best of 9, 2-core Xeon VM)."""
    lab = np.arange(len(images[0]))
    lab[max(alpha, delta)] = min(alpha, delta)
    while True:
        swept = lab
        for img in images:
            a, b = lab[img], lab[img[lab]]
            split = a != b
            if not split.any():
                continue
            a, b = a[split], b[split]
            lab = lab.copy()
            np.minimum.at(lab, np.maximum(a, b), np.minimum(a, b))
            while True:
                jumped = lab[lab]
                if np.array_equal(jumped, lab):
                    break
                lab = jumped
        if np.array_equal(lab, swept):
            return lab


def _cells(labels):
    """The cells of a labelled partition, each sorted, ordered by label."""
    order = np.argsort(labels, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), len(order)]
    order = order.tolist()
    return [order[i:j] for i, j in zip(cuts, cuts[1:])]


def find_imprimitivity(images, alpha: int, candidates):
    """First candidate point whose merge with alpha yields a nontrivial
    invariant partition, with that partition; None if all are trivial. The
    group is generated by permutations of range(n) given as int arrays."""
    n = len(images[0])
    for delta in candidates:
        if delta == alpha:
            continue
        labels = _block_labels(images, alpha, delta)
        if 1 < np.count_nonzero(labels == np.arange(n)) < n:
            return delta, _cells(labels)
    return None


def normalizing_map_check(G: PermGroup, phi: Permutation) -> bool:
    """Whether conjugation by phi maps G to itself."""
    if phi.degree != G.degree:
        return False
    phinv = phi.inverse()
    return all(g.conjugate(phi, phinv) in G for g in G.gens)


def subgroup_closure(G: PermGroup, elems) -> PermGroup:
    """Smallest subgroup of G containing elems."""
    elems = list(elems)
    for x in elems:
        if x not in G:
            raise NotASubgroupElement("element %s not in group" % x)
    return PermGroup(elems, G.degree)

