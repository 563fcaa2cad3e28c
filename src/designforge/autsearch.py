"""Automorphism groups of incidence structures, plus lift tests deciding
which normalizing maps of the acting group carry over to the design.

The search runs on the colored bipartite incidence graph: alternating
point/block color refinement, individualization backtracking, pruning by
path invariants and by orbits of the automorphisms found so far.

A caller that already holds automorphisms passes them as a group, `known`
(for a design built by a group action, that group). Each of its generators
is checked to be an automorphism, and at the first leaf the search group
becomes `known` rebased on the first path, so orbit pruning starts from it
rather than from the trivial group: the known-subgroup pruning of nauty and
Traces (McKay & Piperno, "Practical graph isomorphism, II", 2014). The
rebase keeps `known`'s levels on the base prefix the first path shares
with its base, and builds only the rest (PermGroup.rebased): a first path
that starts at the first base point, as every one of the examples command
does, keeps that level of 378 points. Pruning by the orbits of any group of
automorphisms is sound, so a complete search still finds all of Aut(D).

Refinement alternates a block step and a point step and stops at the first
step after the first block step that splits nothing; the argument is at the
loop in _Search.refine. The invariant is the one a last round that splits
nothing would give, so node counts stay those of a refinement that always
ends with such a round.

Refinement ranks integer signature tables with group.lex_rank: rows of
non-negative integers, written as big-endian words and ranked as one np.void
item each by a 1-D np.unique, which orders them lexicographically. Colour
numbers so depend only on signature values, never on labels. Refinement
runs on the rows of the structure's BlockTable, whose images check a
candidate leaf, extend a generator to the blocks, and answer
is_design_automorphism, fixes_every_block and lift_test_method1.

A block's signature is its colour and the sorted colours of its points. A
point's is its colour and the block colours it meets, in one of two
encodings that rank alike: when every point meets fewer blocks than there
are block colours, the row of its own incidences, nub - colour per block
sorted descending (nub the number of block colours), padded with 0 to the
most blocks any point meets; otherwise the dense count of each block
colour. nauty, Traces and bliss likewise refine over the incidences a
point has. On the 378-point PSL(2,27) coset designs, whose points meet 13
of up to 380 block colours, the incidence rows took refine from 0.18 to
0.06 s of the in-process examples command (cProfile, 2-core Xeon VM). A
dense dual, such as (24,3)'s with 24 points of 28 336 blocks each, keeps
the counts until its blocks split into more colours than that: 35 of the
69 point rankings of the (24,3) search, the other 34 taking rows of 28 337
columns in place of the 1 + nub the counts would take.
Both encodings gather the block colours through one incidence index, each
point's blocks padded with the number of blocks: design._incidence_rows,
the one derivation of each point's blocks, which dual_design and
reduce_design read too, builds it once per search from the table's rows.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from math import factorial

import numpy as np

from .design import IncidenceStructure, ReducedStructure, _incidence_rows
from .errors import BudgetExceeded, InvalidGenerators
from .group import PermGroup, lex_rank
from .perm import Permutation


@dataclass
class AutResult:
    """Automorphism group of an incidence structure.

    generators act on points ⊎ distinct blocks (points first, then the
    distinct blocks in their search ordering); point_gens are the
    restrictions to points, which determine the block parts.
    known_block_images holds, for each generator of the known group the
    search was seeded with, its BlockTable.images.
    """

    generators: list
    point_gens: list
    order: int
    point_transitive: bool
    block_transitive: bool
    complete: bool
    nodes: int
    known_block_images: list = field(default_factory=list)


class _Budget(Exception):
    pass


def _renumbered(rows):
    """Signature rows, one per colour in colour order, with their colour
    column set to the colours they were ranked to."""
    rows[:, 0] = np.arange(len(rows))
    return rows


class _Search:
    """One backtracking run over individualized point colorings."""

    def __init__(self, D: IncidenceStructure, budget: int, known: PermGroup = None):
        self.v = D.v
        self.budget = budget
        self.nodes = 0
        # ragged blocks are padded with a virtual point of sentinel color
        self.table = table = D.table
        self.nb = len(table.rows)
        # each point's blocks in increasing order, padded with nb
        self.incidence = _incidence_rows(table.rows, self.v)[0]
        self.rmax = self.incidence.shape[1]
        self.bcolor0 = lex_rank(np.column_stack([(table.rows < self.v).sum(axis=1), table.mult]))[0]
        self.pcolor0 = np.zeros(self.v, dtype=np.int64)
        # search state
        self.first_invs = {}
        self.first_base = []
        self.first_leaf = None
        # automorphisms known or found so far; at the first leaf it is rebased
        # on the first path, keeping the levels on the base prefix the two
        # share, so each depth's stabilizer is a level of its chain
        self.group = PermGroup([], self.v) if known is None else known
        self._stab_cache = {}

    # -- refinement ---------------------------------------------------------

    def refine(self, pcolor, bcolor):
        """Refine to a stable coloring; returns (pcolor, bcolor, invariant)."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise _Budget()
        pcolor = np.unique(pcolor, return_inverse=True)[1].ravel()
        bcolor = np.unique(bcolor, return_inverse=True)[1].ravel()
        ncp = pcolor.max() + 1
        bcolor, bsig, bfirst = self._block_step(pcolor, bcolor)
        # Alternate point and block steps, and stop at the first step, after
        # the first block step, that splits nothing: the colouring is then
        # stable. A point step cannot split when the block colours have not
        # changed since the previous point step, nor a block step when the
        # point colours have not changed since the previous block step; so
        # after a step that split nothing, the other splits nothing either.
        # The invariant hashes the rows that a round splitting nothing in
        # both steps would rank: those of the step that split nothing, and
        # those of the step before it with their colour column renumbered
        # to the colours that step gave.
        while True:
            nub = len(bfirst)
            # Both point encodings rank the rows alike. Take count vectors
            # c > d, first differing at colour j: their incidence rows agree
            # on the colours below j, then c's shows nub - j where d's shows
            # a later colour's smaller value or the pad 0. Each encoding is
            # one-to-one for a given nub, so colours, invariants and the
            # search stay the same; the incidence rows are narrower when
            # every point meets fewer blocks than there are block colours.
            point_rows = self._incidence_rows if self.rmax < nub else self._count_rows
            psig = point_rows(pcolor, bcolor, nub)
            pcolor, pfirst = lex_rank(psig)
            if len(pfirst) == ncp:
                psig, bsig = psig[pfirst], _renumbered(bsig[bfirst])
                break
            ncp = len(pfirst)
            bcolor, bsig, bfirst = self._block_step(pcolor, bcolor)
            if len(bfirst) == nub:
                psig, bsig = _renumbered(psig[pfirst]), bsig[bfirst]
                break
        inv = hash((ncp, nub, psig.tobytes(), bsig.tobytes()))
        return pcolor, bcolor, inv

    def _block_step(self, pcolor, bcolor):
        """A block's signature, its colour and the sorted colours of its
        points, ranked: (the new block colours, the signature rows, the
        first row of each colour)."""
        # point colors shifted by one, so that the pad, 0, sorts first
        pc_ext = np.append(pcolor + 1, 0)
        bsig = np.column_stack([bcolor, np.sort(pc_ext[self.table.rows], axis=1)])
        bcolor, bfirst = lex_rank(bsig)
        return bcolor, bsig, bfirst

    def _count_rows(self, pcolor, bcolor, nub):
        """Point signatures as dense rows: the point's colour, then how many
        of its blocks have each of the nub block colours."""
        psig = np.empty((self.v, 1 + nub), dtype=">u8")
        psig[:, 0] = pcolor
        # each point's block colours, the pad as colour nub, offset by point
        keys = np.append(bcolor, nub)[self.incidence]
        keys += np.arange(self.v)[:, None] * (nub + 1)
        psig[:, 1:] = np.bincount(keys.ravel(), minlength=self.v * (nub + 1)).reshape(self.v, nub + 1)[:, :nub]
        return psig

    def _incidence_rows(self, pcolor, bcolor, nub):
        """Point signatures from the points' incidences: the point's colour,
        then nub - colour for each of its blocks, largest first, padded with
        0 to rmax, the most blocks any point meets."""
        neg = np.append(bcolor - nub, 0)[self.incidence]
        neg.sort(axis=1)
        psig = np.empty((self.v, 1 + self.rmax), dtype=">u8")
        psig[:, 0] = pcolor
        psig[:, 1:] = -neg
        return psig

    def individualize(self, pcolor, x):
        out = pcolor * 2
        out[x] += 1
        return out

    def target_cell(self, pcolor):
        """Members of the smallest (then least-colored) non-singleton point
        cell, or None when the point coloring is discrete; pcolor holds the
        dense colours refine gives."""
        counts = np.bincount(pcolor)
        counts[counts < 2] = self.v + 1
        c = int(np.argmin(counts))
        if counts[c] > self.v:
            return None
        return np.flatnonzero(pcolor == c).tolist()

    # -- candidate handling -------------------------------------------------

    def _leaf(self, pcolor, dev_level):
        if self.first_leaf is None:
            self.first_leaf = np.argsort(pcolor)  # color -> point
            self.group = self.group.rebased(self.first_base)
            return None
        images = np.empty(self.v, dtype=np.int64)
        images[self.first_leaf] = np.argsort(pcolor)
        perm = Permutation(images.tolist())
        if not perm.is_identity() and self.table.images(perm) is not None:
            if self.group.extend(perm):
                self._stab_cache.clear()
            return dev_level
        return None

    def _orbit_reps_filter(self, depth):
        """The least point of each point's orbit under automorphisms fixing
        the first `depth` base points; used to skip equivalent candidates."""
        rep = self._stab_cache.get(depth)
        if rep is None:
            stab = self.group.pointwise_stabilizer(self.first_base[:depth])
            rep = stab.orbit_minima().tolist()
            self._stab_cache[depth] = rep
        return rep

    # -- the backtrack tree -------------------------------------------------

    def run(self):
        pcolor, bcolor, inv = self.refine(self.pcolor0, self.bcolor0)
        self._rec(pcolor, bcolor, inv, 0, True, None)

    def _rec(self, pcolor, bcolor, inv, depth, on_first, dev_level):
        if on_first:
            self.first_invs[depth] = inv
        elif inv != self.first_invs.get(depth):
            return None
        cell = self.target_cell(pcolor)
        if cell is None:
            return self._leaf(pcolor, dev_level)
        if on_first:
            x = cell[0]
            self.first_base.append(x)
            pc, bc, iv = self.refine(self.individualize(pcolor, x), bcolor)
            self._rec(pc, bc, iv, depth + 1, True, None)
            tried = [x]
            for y in cell[1:]:
                rep = self._orbit_reps_filter(depth)
                if any(rep[y] == rep[t] for t in tried):
                    continue
                tried.append(y)
                pc, bc, iv = self.refine(self.individualize(pcolor, y), bcolor)
                self._rec(pc, bc, iv, depth + 1, False, depth)
            return None
        for y in cell:
            pc, bc, iv = self.refine(self.individualize(pcolor, y), bcolor)
            r = self._rec(pc, bc, iv, depth + 1, False, dev_level)
            if r is not None:
                return r  # an automorphism was found; abandon this subtree
        return None


def aut_group(D: IncidenceStructure, budget: int = 10**6, known: PermGroup = None) -> AutResult:
    """Full automorphism group of D, or the subgroup found before the node
    budget ran out (flagged incomplete). known, a group of automorphisms of
    D, seeds the search; InvalidGenerators when one of its generators is
    not one. The search takes a Python frame per level: BudgetExceeded when
    its tree is deeper than the recursion limit."""
    known_gens = () if known is None else known.gens
    # each known generator's block images, kept for the block parts below
    images = {g: D.table.images(g) for g in known_gens} if known is None or known.degree == D.v else None
    if images is None or any(j is None for j in images.values()):
        raise InvalidGenerators("the known group is not a group of automorphisms of the design")
    search = _Search(D, budget, known)
    complete = True
    try:
        search.run()
    except _Budget:
        complete = False
    except RecursionError:
        raise BudgetExceeded("search tree deeper than the recursion limit %d" % sys.getrecursionlimit()) from None
    K = search.group
    point_gens = list(K.gens)
    # each generator extended to the distinct blocks, numbered from v on
    for g in point_gens:
        if g not in images:
            images[g] = D.table.images(g)
    gens = [Permutation(g.images + tuple((images[g] + D.v).tolist())) for g in point_gens]
    block_transitive = False
    if point_gens:
        full = PermGroup(gens, D.v + search.nb)
        block_transitive = len(full.orbit(D.v)) == search.nb
    return AutResult(
        generators=gens,
        point_gens=point_gens,
        order=K.order(),
        point_transitive=K.is_transitive(),
        block_transitive=block_transitive,
        complete=complete,
        nodes=search.nodes,
        known_block_images=[images[g] for g in known_gens],
    )


# -- the block-fixing kernel and the quotient identity -----------------------


def reduction_kernel_order(R: ReducedStructure) -> int:
    """Order of the product of the symmetric groups on the point classes:
    the block-fixing kernel inside the automorphism group."""
    return factorial(R.class_size) ** len(R.classes)


def kernel_generators(R: ReducedStructure):
    """Permutations generating the full symmetric group on each point class
    (identity elsewhere)."""
    gens = []
    for cls in R.classes:
        if len(cls) < 2:
            continue
        images = list(range(R.parent.v))
        images[cls[0]], images[cls[1]] = cls[1], cls[0]
        gens.append(Permutation(images))
        if len(cls) > 2:
            images = list(range(R.parent.v))
            for a, b in zip(cls, cls[1:] + cls[:1]):
                images[a] = b
            gens.append(Permutation(images))
    return gens


def expand_class_perm(R: ReducedStructure, sigma: Permutation) -> Permutation:
    """Lift a permutation of the point classes to a point permutation,
    matching classes in sorted order."""
    images = [0] * R.parent.v
    for i, cls in enumerate(R.classes):
        target = R.classes[sigma[i]]
        for a, b in zip(cls, target):
            images[a] = b
    return Permutation(images)


def is_design_automorphism(D: IncidenceStructure, perm: Permutation) -> bool:
    return D.table.images(perm) is not None


def fixes_every_block(D: IncidenceStructure, perm: Permutation) -> bool:
    j = D.table.images(perm)
    return j is not None and np.array_equal(j, np.arange(len(j)))


@dataclass
class QuotientReport:
    aut_full: AutResult
    aut_quotient: AutResult
    kernel_order: int
    product_ok: bool
    quotient_lifts_ok: bool
    kernel_fixes_blocks: bool
    complete: bool


def verify_kernel_quotient(D: IncidenceStructure, R: ReducedStructure, budget: int = 10**6) -> QuotientReport:
    """Check |Aut(D)| = (∏|class|!) · |Aut(D/I)|, that quotient
    automorphisms lift, and that the class-symmetry kernel consists of
    block-fixing automorphisms."""
    full = aut_group(D, budget)
    quot = aut_group(R.quotient, budget)
    korder = reduction_kernel_order(R)
    complete = full.complete and quot.complete
    product_ok = complete and full.order == korder * quot.order
    lifts_ok = all(
        is_design_automorphism(D, expand_class_perm(R, sigma)) for sigma in quot.point_gens
    )
    kernel_ok = all(
        is_design_automorphism(D, g) and fixes_every_block(D, g)
        for g in kernel_generators(R)
    )
    return QuotientReport(
        aut_full=full,
        aut_quotient=quot,
        kernel_order=korder,
        product_ok=product_ok,
        quotient_lifts_ok=lifts_ok,
        kernel_fixes_blocks=kernel_ok,
        complete=complete,
    )


# -- lifting normalizing maps ------------------------------------------------


def lift_test_method1(design, pi: Permutation) -> bool:
    """Whether pi, the point map a normalizing map induces on a
    stabilizer-orbit design, permutes the design's blocks. On the natural
    domain pi is the map itself; on cosets it is the coset action's
    `induced_perm`, None when the points are not preserved."""
    return pi is not None and is_design_automorphism(design.design, pi)


def lift_test_method2(design, phi: Permutation) -> bool:
    """Whether phi preserves the point class and carries the base block to a
    block of a conjugacy-class design."""
    return _carries_base_block(design, design.induced_point_perm(phi))


def _carries_base_block(design, pi) -> bool:
    """Whether pi, None when the class is not preserved, maps the base block to a block."""
    return pi is not None and design.design.table.index.find([np.sort(np.take(pi.images, design.base_block))])[0] >= 0


@dataclass
class IntersectionReport:
    lifted: list  # per map: whether it lifted
    moves_block: list  # per lifted nonidentity map: whether some block moves
    ok: bool  # no lifted nonidentity map fixes every block


def verify_kernel_intersection(design, phis) -> IntersectionReport:
    """Check that no nonidentity lifted map lies in the block-fixing kernel:
    each must move at least one block."""
    D = design.design
    lifted = []
    moves = []
    ok = True
    for phi in phis:
        pi = design.induced_point_perm(phi)
        good = _carries_base_block(design, pi)
        lifted.append(good)
        if not good or pi.is_identity():
            moves.append(None)
            continue
        moved = not fixes_every_block(D, pi)
        moves.append(moved)
        if not moved:
            ok = False
    return IntersectionReport(lifted=lifted, moves_block=moves, ok=ok)
