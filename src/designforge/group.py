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
automorphism search's known group are rebuilt this way, and so is the
stabilizer schreier_stabilizer grows to the order orbit-stabilizer gives it.

Orbits are tables of rows: orbit_with_transversal runs Sims's orbit
algorithm one breadth-first level at a time, acting on the whole frontier
with each generator in one numpy step (conjugation_action on image rows,
index_set_action on sorted index tuples, or a row-by-row function), and
names new rows in the order the one-element-at-a-time loop would.  A class
orbit is one uint8 array up to degree 256 (uint16 or int64 above), which
ElementTable wraps as a sequence of Permutations without copying.

Many elements at once go through numpy: ElementTable conjugates its rows
together, RowIndex finds rows by a hashed key checked in full, and
orbit_minima labels the orbits of permutations given as arrays:
PermGroup's orbits on points all read it.
"""

from __future__ import annotations

from functools import cached_property
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
        return _cells(self.orbit_minima())

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


def row_dtype(bound: int):
    """The narrowest unsigned dtype of the orbit rows holding values in
    range(bound): uint8 up to 256, uint16 up to 65536, else int64."""
    if bound <= 1 << 8:
        return np.uint8
    if bound <= 1 << 16:
        return np.uint16
    return np.int64


def conjugation_action(G: PermGroup):
    """Action of G's generators by conjugation on permutations given as their
    image rows: row x goes to x^g = g^-1 x g, the row gs[x[ginv]]."""
    dtype = row_dtype(G.degree)
    gens = [np.array(g.images, dtype=dtype) for g in G.gens]
    invs = [np.argsort(g) for g in gens]

    def apply(rows, k):
        return gens[k][rows[:, invs[k]]]

    return apply


def index_set_action(tables):
    """Action on sorted rows of indices: generator k maps index i to entry i
    of tables[k], its image tuple on points or its column of the tables
    orbit_with_transversal returns."""
    tables = [np.asarray(t) for t in tables]

    def apply(rows, k):
        return np.sort(tables[k][rows], axis=1)

    return apply


def orbit_with_transversal(G: PermGroup, value, action, cap=DEFAULT_ORBIT_CAP):
    """Orbit of the row value under G, with generator images.

    action(rows, k) gives the images of a 2-D int array of orbit rows under
    the generator G.gens[k], one row each: conjugation_action for
    permutations, index_set_action for sorted tuples, or any function that
    maps the rows one by one.

    Sims's orbit algorithm, one breadth-first level at a time: each
    generator acts on the whole frontier at once, and the images are
    scanned in (row, generator) order, each named by its bytes in a dict
    that lives only for the call, so that new elements get their indices in
    the order of the scalar loop that takes one element and one generator
    at a time (tests/oracles.py). On the 56 672-element class of the M23
    design of the stab command that loop took 0.40 s and this takes
    0.043 s (in-process, best of 3, 2-core Xeon VM).

    Returns (the orbit as a 2-D array, row i its element of index i, in the
    dtype the action's images come in; and one int array per generator of G
    holding the orbit index of each orbit element's image under that
    generator). The tables hold the transversal: schreier_stabilizer rebuilds
    its entries from them when it needs them.
    """
    ngens = len(G.gens)
    frontier = np.asarray(value)[None, :]
    if not ngens:
        return frontier, []
    index, levels, cols = {}, [], []
    setdefault = index.setdefault
    while len(frontier):
        imgs = np.stack([action(frontier, k) for k in range(ngens)], axis=1)
        if not levels:
            frontier = frontier.astype(imgs.dtype)
            index[frontier.tobytes()] = 0
        levels.append(frontier)
        imgs = imgs.reshape(-1, frontier.shape[1])
        known = len(index)
        found = np.array([setdefault(key, len(index)) for key in _row_keys(imgs)])
        if len(index) > cap:
            raise OrbitOverflow("orbit exceeds cap %d" % cap)
        cols.append(found.reshape(-1, ngens))
        # a new element's first image is where its index exceeds every
        # index scanned before it
        before = np.maximum.accumulate(np.concatenate(([known - 1], found[:-1])))
        frontier = imgs[found > before]
    images = np.ascontiguousarray(np.concatenate(cols).T, dtype=row_dtype(len(index)))
    return np.concatenate(levels), list(images)


def _row_keys(rows):
    """The bytes of each row of a 2-D array."""
    if not rows.shape[1]:
        return [b""] * len(rows)
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


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
    linear form of the row's bytes read as 64-bit words (zero-padded),
    wrapping modulo 2**64, so that a uint8 row of 23 entries takes three
    products and an int64 row one per entry. A row found by its key is
    compared in full, so that keys which collide cost another probe, never
    a wrong answer.

    Exact keys, one np.void item of big-endian words per row as lex_rank
    ranks them, need no weights and no probe loop, but sort and search
    slower: with them, in-process on a 2-core Xeon VM (best of 3), the
    (22,3) Mathieu row's search took 129 ms instead of 120 ms and
    casestudies._dual_block_imprimitivity 18.6 ms instead of 12.0 ms."""

    def __init__(self, rows):
        self.rows = np.asarray(rows)
        words = _words(self.rows)
        # not numpy.random, whose import costs about 6 MiB
        self.weights = np.frombuffer(Random(0).randbytes(8 * words.shape[1]), dtype=np.uint64).copy()
        keys = words @ self.weights
        self.order = np.argsort(keys)
        self.keys = keys[self.order]

    def find(self, rows):
        """The table index of each given row, -1 where it is not a row."""
        rows = np.asarray(rows).reshape(-1, self.rows.shape[1])
        keys = _words(rows.astype(self.rows.dtype, copy=False)) @ self.weights
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


def _words(rows):
    """The bytes of each row of a 2-D array as uint64 words, the last one
    zero-padded."""
    rows = np.ascontiguousarray(rows)
    n, width = len(rows), rows.shape[1] * rows.itemsize
    words = -(-width // 8)
    if width % 8:
        padded = np.zeros((n, 8 * words), np.uint8)
        padded[:, :width] = rows.view(np.uint8).reshape(n, width)
        rows = padded
    return rows.view(np.uint64).reshape(n, words)


class ElementTable:
    """Permutations of one degree as the rows of an int array, so that many
    of them are conjugated and looked up at once; a sequence of
    Permutations, each built when it is read."""

    def __init__(self, images):
        self.images = images

    @cached_property
    def index(self) -> "RowIndex":
        """A RowIndex over the rows, built on first use."""
        return RowIndex(self.images)

    def __len__(self):
        return len(self.images)

    def __getitem__(self, i) -> Permutation:
        return Permutation._trusted(tuple(self.images[i].tolist()))

    def find(self, perms):
        """The table index of each given permutation, -1 where it is not in
        the table."""
        return self.index.find([p.images for p in perms])

    def conjugate_indices(self, x: Permutation, xinv: Permutation, points):
        """Table indices of the conjugates by x of the elements at the given
        indices (an index array or a slice), -1 where a conjugate is not in
        the table."""
        if x.degree != self.images.shape[1]:
            raise ValueError("degree mismatch: %d ^ %d" % (self.images.shape[1], x.degree))
        xs, xi = np.array(x.images, dtype=self.images.dtype), np.array(xinv.images)
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


def orbit_with_stabilizer(G: PermGroup, value, action, on_orbit=False):
    """The orbit of the row value under action, as orbit_with_transversal
    returns it, and its stabilizer; |orbit| * |stab| = |G| always holds.
    With on_orbit, also the stabilizer's generators acting on the orbit, as
    schreier_stabilizer gives them."""
    orbit, images = orbit_with_transversal(G, value, action)
    if on_orbit:
        return (orbit, *schreier_stabilizer(G, orbit, images, on_orbit=True))
    return orbit, schreier_stabilizer(G, orbit, images)


def schreier_stabilizer(G: PermGroup, orbit, images, root=0, on_orbit=False):
    """Stabilizer of orbit[root], from the generator tables of its orbit as
    orbit_with_transversal returns them.

    It is extended by the Schreier generators of a _SchreierTree, in the
    order its search meets them, until the orbit-stabilizer identity
    certifies it complete: its order is |G| / |orbit|. Schreier-Sims stops
    there too, as in PermGroup.rebased.

    With on_orbit it returns (the stabilizer, each of its generators as a
    permutation of the orbit: an int array, entry i the index of orbit[i]'s
    image), composed from the tables along the tree instead of looked up.
    This stays because looking the (22,3) Mathieu row's dual-block
    stabilizer generators up with IncidenceStructure.table.images took
    3.8 ms against 0.65 ms (2-core Xeon VM), and cut that benchmark
    workload's traced coverage to 0.945-0.950, under its 0.95 floor.
    """
    target = G.order() // len(orbit)
    if target * len(orbit) != G.order():
        raise AssertionError("orbit size does not divide group order")
    stab = PermGroup([], G.degree)
    chain = stab.chain
    chain._target = target
    tree = _SchreierTree(G, images, root)
    edges = tree.revisits()
    kept = []
    while chain.order() < target:
        edge = next(edges, None)
        if edge is None:
            raise AssertionError("Schreier generation did not reach stabilizer order")
        if stab.extend(tree.generator(*edge)):
            kept.append(edge)
    chain._target = None
    if on_orbit:
        return stab, [tree.orbit_generator(*edge) for edge in kept]
    return stab


def transversal(G: PermGroup, images, points, root=0):
    """The transversal entry u_w of each orbit index w in points: the element
    of G, a product of its generators along the Schreier tree grown from
    root over the generator tables of an orbit, that carries orbit[root] to
    orbit[w]."""
    tree = _SchreierTree(G, images, root)
    for _ in tree.revisits():  # grow the whole tree
        pass
    return [tree.entry(w) for w in points]


class _SchreierTree:
    """The Schreier tree of Sims's orbit algorithm, grown by a breadth-first
    search from root over the generator tables of an orbit.

    The search reaches each orbit element first along an edge v -k-> w,
    which gives w the transversal entry u_w = u_v g_k. Each edge it meets
    again gives the Schreier generator u_v g_k u_w^-1. An entry is
    multiplied out only when a Schreier generator needs it, along its tree
    path: most elements the search reaches never need theirs."""

    def __init__(self, G: PermGroup, images, root):
        self.gens, self.images, self.root = G.gens, images, root
        self.parent = {root: None}  # orbit index -> (tree parent, generator index)
        self.entries = {root: G.identity()}
        self.orbit_entries = {}

    def revisits(self):
        """(v, k, w) for each edge v -k-> w that reaches an element already
        in the tree, in the order of the search."""
        queue = [self.root]
        for v in queue:
            for k, col in enumerate(self.images):
                w = col.item(v)
                if w not in self.parent:
                    self.parent[w] = (v, k)
                    queue.append(w)
                else:
                    yield v, k, w

    def _grow(self, w, known, step):
        """known[w], grown by step along the tree path from an element in
        known."""
        path = []
        while w not in known:
            path.append(w)
            w = self.parent[w][0]
        u = known[w]
        for w in reversed(path):
            u = known[w] = step(u, self.parent[w][1])
        return u

    def _times(self, u, k):
        return u * self.gens[k]

    def _then(self, p, k):
        return self.images[k][p]

    def entry(self, w) -> Permutation:
        """The transversal entry u_w of an element the search has reached."""
        return self._grow(w, self.entries, self._times)

    def generator(self, v, k, w) -> Permutation:
        """The Schreier generator u_v g_k u_w^-1 of the edge v -k-> w."""
        return self.entry(v) * self.gens[k] * self.entry(w).inverse()

    def orbit_generator(self, v, k, w):
        """The same generator as a permutation of the orbit's indices."""
        self.orbit_entries.setdefault(self.root, np.arange(len(self.images[0])))
        uv, uw = self._grow(v, self.orbit_entries, self._then), self._grow(w, self.orbit_entries, self._then)
        inv = np.empty_like(uw)
        inv[uw] = np.arange(len(uw))
        return inv[self.images[k][uv]]


def centralizer(G: PermGroup, g: Permutation) -> PermGroup:
    """C_G(g), the stabilizer of g under conjugation."""
    _, stab = orbit_with_stabilizer(G, g.images, conjugation_action(G))
    return stab


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
    """The cells of a partition labelled by non-negative ints, each sorted,
    ordered by label; an empty list when there are no points."""
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1)).tolist()
    order = order.tolist()
    return [order[i:j] for i, j in zip(starts, starts[1:] + [len(order)])]


def find_imprimitivity(images, alpha: int, candidates):
    """First candidate point whose merge with alpha yields a nontrivial
    invariant partition, with that partition as the least point of each
    point's cell (an int array); None if all are trivial. The group is
    generated by permutations of range(n) given as int arrays."""
    n = len(images[0])
    for delta in candidates:
        if delta == alpha:
            continue
        labels = _block_labels(images, alpha, delta)
        if 1 < np.count_nonzero(labels == np.arange(n)) < n:
            return delta, labels
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

