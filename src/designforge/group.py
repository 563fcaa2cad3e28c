"""Permutation groups with a base and strong generating set.

A group's Schreier-Sims chain grows only through _Chain.extend, one
generator at a time, and grows incrementally.  Each level keeps its Schreier
tree: every point of its fundamental orbit, with the point it was first
reached from and the level generator that took it there.  A transversal
entry, or its inverse, is multiplied out along its point's tree path only
when a sift, a Schreier generator or least_in_coset first needs it, and is
kept from then on, so sifting never inverts a permutation (_TreeProducts,
which _SchreierTree shares).  Each (orbit point, level generator) Schreier
pair is checked once, and a pair that is a tree edge, whose Schreier
generator is the identity, is skipped.  The chain is built
deterministically: base points are chosen greedily as the first point moved
by each new strong generator, orbits are extended breadth-first in insertion
order.  Identical generator lists therefore always produce identical chains.
A rebased chain keeps copies of the old chain's levels on the base prefix
the two share, and only the levels after it are built, from the generators
of the stabilizer of that prefix (_Chain.shared_prefix); with no point
shared, it is the chain its generator list and base points give.

PermGroup.order_bound is the one place an order is certified or bounded: a
number the group's order does not exceed, at which Schreier-Sims stops.  The
transversal lengths never multiply to more than the order, so when they
reach the bound the chain is complete and the order certified (Schreier-Sims
with a known order; Seress, Permutation Group Algorithms, 2003, section
4.5).  Four callers set it:
  - PermGroup.rebased, to the group's own order, which its chain certifies;
    pointwise stabilizers off the group's base and the automorphism
    search's known group are rebuilt this way, each below the base prefix
    it shares with the group's chain: the searches of the examples command
    start where their known group's base does, and keep its first level of
    378 points;
  - schreier_stabilizer, to |G| / |orbit| by orbit-stabilizer;
  - construct.coset_action, to |G|, which bounds the order of any image of
    G; an unfaithful action never reaches it and runs the full check;
  - PermGroup.extend(g), when g normalizes the group K, to |K| m, m the
    order of gK.

Orbits are tables of rows: orbit_with_transversal runs Sims's orbit
algorithm one breadth-first level at a time, acting on the whole frontier
with each generator in one numpy step (conjugation_action on image rows,
index_set_action on sorted index tuples, or the coset action's least
elements), and names new rows in the order the one-element-at-a-time loop
would.  A class orbit is one uint8 array up to degree 256 (uint16 or int64
above), which ElementTable wraps as a sequence of Permutations without
copying.

Many elements at once go through numpy: ElementTable conjugates its rows
together, RowIndex finds rows by a hashed key checked in full, and
orbit_minima labels the orbits of permutations given as arrays:
PermGroup's orbits on points all read it.
"""

from __future__ import annotations

from collections.abc import Mapping
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


class _TreeProducts(Mapping):
    """The products along a Schreier tree, one per node: the root's is
    value, and a node's is step(its parent's, the index of the generator on
    the edge between them).

    tree maps each node to (parent node, generator index), the root to None.
    Its owner grows it, and this mapping reads it: its keys are the tree's
    nodes, in the tree's order, and a node's product is multiplied out along
    its tree path when it is first read, then kept with those of the nodes
    on the path."""

    def __init__(self, tree, root, value, step):
        self.tree = tree
        self.known = {root: value}
        self.step = step

    def __getitem__(self, w):
        known = self.known
        u = known.get(w)
        if u is None:
            tree = self.tree
            path = []
            while w not in known:
                path.append(w)
                w = tree[w][0]
            u = known[w]
            for w in reversed(path):
                u = known[w] = self.step(u, tree[w][1])
        return u

    def __iter__(self):
        return iter(self.tree)

    def __len__(self):
        return len(self.tree)

    def __contains__(self, w):
        return w in self.tree


class _Chain:
    """Base, per-level strong generators, and per-level Schreier trees.

    trees[i] maps each point of level i's fundamental orbit to (the point it
    was first reached from, the index in level_gens[i] of the generator that
    took it there), the base point to None, in breadth-first order.
    transversals[i] and inverses[i] read the entries that map base[i] to
    each orbit point, and their inverses, off that tree, each multiplied out
    when first read: the 13 chains on 378 points that the examples command
    rebases for its automorphism searches copy their first level and, of the
    346 entries and inverses of the levels they build, multiply out 92.

    A level only grows: its tree keeps every point it has, and each (orbit
    point, level generator) pair is checked as a Schreier generator once.
    extend(g, bound) stops Schreier-Sims when the transversal lengths
    multiply to bound, an upper bound on the order. PermGroup.order_bound is
    the one place a bound is kept; rebased, schreier_stabilizer,
    construct.coset_action and PermGroup.extend set it (module docstring).

    least_in_coset maps a whole table of image rows to the least elements
    of their cosets, one level at a time, over arrays of each level's orbit
    and entries that it builds once and drops when the chain grows;
    construct.CosetAction names its cosets by it.
    """

    def __init__(self, degree, gens, base_hint=(), bound=None):
        self.degree = degree
        self.base = []
        self.level_gens = []  # level i: generators of the stabilizer of base[:i]
        self.level_invs = []  # level i: their inverses
        self.trees = []  # level i: orbit point -> (tree parent, generator index)
        self.transversals = []  # level i: point -> perm mapping base[i] to point
        self.inverses = []  # level i: point -> inverse of its transversal entry
        self._checked = []  # level i: point -> how many level generators it has checked
        self._coset_levels = None  # least_in_coset's arrays, dropped when the chain grows
        self._build(gens, base_hint, bound)

    def _build(self, gens, base_hint, bound, first=0):
        """New levels on base_hint[first:] below the first levels, then the
        generators gens added by Schreier-Sims that stops at bound; with
        first > 0 they generate the stabilizer of base[:first]."""
        for b in base_hint[first:]:
            self._new_level(b)
        for g in gens:
            self.extend(g, bound, first)

    def _first_moved(self, g):
        for i, j in enumerate(g.images):
            if i != j:
                return i
        raise AssertionError("identity has no moved point")

    def _orbit(self, level):
        """Extend the Schreier tree of a level to its current generators,
        keeping the points already there."""
        tree = self.trees[level]
        gens = [s.images for s in self.level_gens[level]]
        queue = list(tree)
        for pt in queue:
            for k, s in enumerate(gens):
                img = s[pt]
                if img not in tree:
                    tree[img] = (pt, k)
                    queue.append(img)

    def _copy_level(self, chain, i):
        """Append a copy of level i of chain: its base point, generators and
        inverses, Schreier tree, kept products and checked counts, in lists
        and dicts of its own, so that growing either chain leaves the other
        as it was."""
        self._new_level(chain.base[i])
        self.level_gens[-1].extend(chain.level_gens[i])
        self.level_invs[-1].extend(chain.level_invs[i])
        self.trees[-1].update(chain.trees[i])
        self.transversals[-1].known.update(chain.transversals[i].known)
        self.inverses[-1].known.update(chain.inverses[i].known)
        self._checked[-1].update(chain._checked[i])

    def _new_level(self, point):
        identity = Permutation.identity(self.degree)
        gens, invs, tree = [], [], {point: None}
        self.base.append(point)
        self.level_gens.append(gens)
        self.level_invs.append(invs)
        self.trees.append(tree)
        # an entry u*s has the inverse s^-1 * u^-1
        self.transversals.append(_TreeProducts(tree, point, identity, lambda u, k: u * gens[k]))
        self.inverses.append(_TreeProducts(tree, point, identity, lambda u, k: invs[k] * u))
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
            inverses = self.inverses[level]
            inv = inverses.known.get(img)  # a kept inverse, without a method call
            if inv is None:
                if img not in inverses:
                    return h, level
                inv = inverses[img]
            h = h * inv
        return h, len(self.base)

    def extend(self, g, bound, first=0) -> bool:
        """Add the generator g; False, with the chain unchanged, when g is
        already a member. Schreier-Sims stops when the order reaches bound.

        With first > 0, g fixes base[:first], and levels 0..first-1 are
        already complete for a group that holds g: g joins only the levels
        from first on, and only those are verified."""
        residue, level = self.sift(g, first)
        if residue.is_identity():
            return False
        self._add(residue, first, level)
        self._verify(level, bound, first)
        return True

    def shared_prefix(self, points):
        """What a chain of this group whose base starts with points keeps
        of this one: None when the two bases share no first point, else
        (a chain of copies of this chain's levels on the prefix that the
        bases share, the generators of the next level, the stabilizer of
        that prefix), for _build to complete on points.

        The stabilizer of the prefix is the same group in both chains, so
        each copied level keeps its checked counts: a Schreier pair that
        sifted through this chain's levels below it sifts through the new
        ones. Its copies share no list or dict with this chain, so growing
        either chain leaves the other as it was."""
        p = 0
        while p < min(len(points), len(self.base)) and points[p] == self.base[p]:
            p += 1
        if not p:
            return None
        chain = _Chain(self.degree, ())
        for i in range(p):
            chain._copy_level(self, i)
        return chain, list(self.level_gens[p]) if p < len(self.base) else []

    def _add(self, h, first, level):
        """Add h, which fixes base[:level], to levels first..level."""
        if level == len(self.base):
            self._new_level(self._first_moved(h))
        self._coset_levels = None
        hinv = h.inverse()
        for j in range(first, level + 1):
            self.level_gens[j].append(h)
            self.level_invs[j].append(hinv)
            self._orbit(j)

    def _verify(self, i, bound, first=0):
        """Schreier-Sims from level i up to level first: every Schreier
        generator of a level must sift through the levels below it.

        It stops once the transversal lengths multiply to bound, an upper
        bound on |G|. Each level's orbit lies in the true fundamental orbit,
        so the product never exceeds |G|, and when it equals the bound, it
        equals |G| and every level's generators generate the true
        stabilizer: the pairs left unchecked would all sift."""
        while i >= first:
            if bound is not None and self.order() == bound:
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
        entries never change and the levels below only grow. A tree edge
        pt -k-> img gives the identity, since u_img = u_pt * s_k.
        """
        tree = self.trees[i]
        trans = self.transversals[i]
        inv = self.inverses[i]
        gens = self.level_gens[i]
        checked = self._checked[i]
        for pt in tree:
            for k in range(checked.get(pt, 0), len(gens)):
                s = gens[k]
                img = s.images[pt]
                if tree[img] != (pt, k):
                    residue, level = self.sift(trans[pt] * s * inv[img], i + 1)
                    if not residue.is_identity():
                        return residue, level
                checked[pt] = k + 1
        return None

    def least_in_coset(self, rows):
        """The least element of each right coset Hx, H this chain's group and
        x a row of the 2-D int array rows (its images): the element with
        lexicographically least base images. Each level moves every x to
        t * x, t the transversal entry whose point has the least image under
        x, the rows of one level at a time.

        The levels are read as arrays: for each level whose orbit is more
        than its base point, the orbit points and the rows of their
        transversal entries, every entry multiplied out. They are built on
        the first call and kept until the chain grows."""
        levels = self._coset_levels
        if levels is None:
            levels = self._coset_levels = [
                (np.fromiter(trans, np.intp, len(trans)), np.array([trans[p].images for p in trans], dtype=np.intp))
                for trans in self.transversals
                if len(trans) > 1
            ]
        for pts, entries in levels:
            t = entries[np.argmin(rows[:, pts], axis=1)]
            rows = np.take_along_axis(rows, t, axis=1)
        return rows

    def order(self):
        n = 1
        for tree in self.trees:
            n *= len(tree)
        return n


class PermGroup:
    """A finite permutation group given by generators.

    order_bound, when given, is a number that the group's order does not
    exceed, nor that of any group extend grows it into while its order is
    below the bound; Schreier-Sims stops when the order reaches it."""

    def __init__(self, gens, degree=None, base_hint=(), order_bound=None):
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
        self.order_bound = order_bound
        self._chain = None
        self._prefix = None  # rebased's start for the chain, _Chain.shared_prefix
        self.recipe = None  # a GroupRecipe when the atlas built the group

    @property
    def chain(self) -> _Chain:
        if self._chain is None:
            if self._prefix is None:
                self._chain = _Chain(self.degree, self.gens, self._base_hint, self.order_bound)
            else:
                chain, gens = self._prefix
                chain._build(gens, self._base_hint, self.order_bound, len(chain.base))
                self._chain, self._prefix = chain, None
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
        group unchanged, when g is already a member.

        Below order_bound, Schreier-Sims stops at it. A group at its bound,
        or with none, has its order certified by its chain; then the new
        order is bounded only when g normalizes the group K: |<K, g>| is
        |K| m, m the order of gK in <K, g>/K, and that is the new bound.
        Otherwise the chain is verified in full."""
        if g.degree != self.degree:
            raise InvalidGenerators("generator degree %d != group degree %d" % (g.degree, self.degree))
        chain = self.chain
        bound = self.order_bound
        if bound is None or chain.order() >= bound:
            if chain.sift(g)[0].is_identity():
                return False
            bound = chain.order() * self._coset_order(g) if normalizing_map_check(self, g) else None
        if not chain.extend(g, bound):
            return False
        self.order_bound = bound
        self.gens += (g,)
        self._pr_state = None  # restart product replacement with the new generator
        return True

    def _coset_order(self, g: Permutation) -> int:
        """The order of gK in <K, g>/K, K this group and g a normalizer of
        it: the least m with g^m in K, which divides the order d of g, found
        by dividing each prime p out of d while g^(d/p) stays in K."""
        chain = self.chain
        d = g.order()
        for p in _prime_factors(d):
            while d % p == 0 and chain.sift(g ** (d // p))[0].is_identity():
                d //= p
        return d

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
        """This group on a chain whose base starts with points. The chain
        keeps copies of this group's levels on the prefix that its base and
        points share, and is built, when first read, on the rest of points
        by Schreier-Sims from the stabilizer of that prefix (all of this
        group when they share no point), which stops at this group's order,
        certified by its own chain. Extending either group afterwards leaves
        the other as it was."""
        G = PermGroup(self.gens, self.degree, base_hint=points, order_bound=self.order())
        G._prefix = self.chain.shared_prefix(points)
        return G

    def pointwise_stabilizer(self, points) -> "PermGroup":
        """Subgroup fixing every listed point: a level of this group's chain
        when its base starts with the points, else of its rebased chain,
        which keeps the levels on the prefix the two share."""
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


def _prime_factors(n: int):
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


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
    permutations, index_set_action for sorted tuples, or any function of
    the rows, such as construct.coset_action's.

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
    certifies it complete: its order is |G| / |orbit|, the stabilizer's
    order_bound, at which Schreier-Sims stops.

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
    stab = PermGroup([], G.degree, order_bound=target)
    tree = _SchreierTree(G, images, root)
    edges = tree.revisits()
    kept = []
    while stab.order() < target:
        edge = next(edges, None)
        if edge is None:
            raise AssertionError("Schreier generation did not reach stabilizer order")
        if stab.extend(tree.generator(*edge)):
            kept.append(edge)
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
    return [tree.entries[w] for w in points]


class _SchreierTree:
    """The Schreier tree of Sims's orbit algorithm, grown by a breadth-first
    search from root over the generator tables of an orbit.

    The search reaches each orbit element first along an edge v -k-> w,
    which gives w the transversal entry u_w = u_v g_k. Each edge it meets
    again gives the Schreier generator u_v g_k u_w^-1. An entry is
    multiplied out only when a Schreier generator needs it, along its tree
    path (_TreeProducts, as a _Chain level's): most elements the search
    reaches never need theirs."""

    def __init__(self, G: PermGroup, images, root):
        gens = self.gens = G.gens
        self.images, self.root = images, root
        self.parent = {root: None}  # orbit index -> (tree parent, generator index)
        # steps that do not hold self, so that a tree is freed without the
        # cycle collector
        self.entries = _TreeProducts(self.parent, root, G.identity(), lambda u, k: u * gens[k])

    @cached_property
    def orbit_entries(self):
        """The entries as permutations of the orbit's indices."""
        images = self.images
        return _TreeProducts(self.parent, self.root, np.arange(len(images[0])), lambda p, k: images[k][p])

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

    def generator(self, v, k, w) -> Permutation:
        """The Schreier generator u_v g_k u_w^-1 of the edge v -k-> w."""
        return self.entries[v] * self.gens[k] * self.entries[w].inverse()

    def orbit_generator(self, v, k, w):
        """The same generator as a permutation of the orbit's indices."""
        uv, uw = self.orbit_entries[v], self.orbit_entries[w]
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

