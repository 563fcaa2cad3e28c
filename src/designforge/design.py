"""Incidence structures: 1-design validation, t-design counting, duals,
and the block-intersection reduction."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

from .errors import (
    BudgetExceeded,
    NonUniformBlockSize,
    NonUniformReplication,
    NotTDesign,
    PartitionViolation,
)
from .group import RowIndex


@dataclass(frozen=True)
class DesignParams:
    t: int
    v: int
    b: int
    k: int
    lam: int

    @property
    def r(self):
        """Replication number; equals lam for t = 1."""
        return self.b * self.k // self.v

    def as_tuple(self):
        return (self.t, self.v, self.k, self.lam)


class IncidenceStructure:
    """Points 0..v-1 and a list of blocks (sorted point tuples).

    The block list may repeat a block; multiplicity is tracked by position.
    """

    def __init__(self, v: int, blocks):
        if v <= 0:
            raise ValueError("need at least one point")
        blocks = [tuple(sorted(b)) for b in blocks]
        if not blocks:
            raise ValueError("block list must be nonempty")
        for b in blocks:
            if not b:
                raise ValueError("empty block")
            if b[0] < 0 or b[-1] >= v:
                raise ValueError("block %r out of range [0,%d)" % (b, v))
            if len(set(b)) != len(b):
                raise ValueError("repeated point inside block %r" % (b,))
        self.v = v
        self.blocks = blocks

    @property
    def b(self):
        return len(self.blocks)

    def block_multiset(self):
        out = {}
        for blk in self.blocks:
            out[blk] = out.get(blk, 0) + 1
        return out

    def point_degrees(self):
        deg = [0] * self.v
        for blk in self.blocks:
            for p in blk:
                deg[p] += 1
        return deg

    def incidence_lists(self):
        """Per-point lists of incident block indices, computed in one sweep."""
        through = [[] for _ in range(self.v)]
        for i, blk in enumerate(self.blocks):
            for p in blk:
                through[p].append(i)
        return through

    @cached_property
    def table(self) -> "BlockTable":
        """The distinct blocks as a BlockTable, built on first use."""
        return BlockTable(self)

    def __eq__(self, other):
        return (
            isinstance(other, IncidenceStructure)
            and self.v == other.v
            and sorted(self.blocks) == sorted(other.blocks)
        )

    def __repr__(self):
        return "IncidenceStructure(v=%d, b=%d)" % (self.v, self.b)


class BlockTable:
    """The distinct blocks of a structure in sorted(block_multiset()) order:
    rows, the blocks as int rows padded with v; mult, their multiplicities;
    and a RowIndex over the rows."""

    def __init__(self, D: IncidenceStructure):
        mult = D.block_multiset()
        blocks = sorted(mult)
        self.v = D.v
        self.rows = np.full((len(blocks), max(map(len, blocks))), D.v, dtype=np.int64)
        for j, blk in enumerate(blocks):
            self.rows[j, : len(blk)] = blk
        self.mult = np.array([mult[b] for b in blocks], dtype=np.int64)
        self.index = RowIndex(self.rows)

    def images(self, perm):
        """The index of each distinct block's image under the point
        permutation perm, or None when some image is not a block of the same
        multiplicity."""
        if perm.degree != self.v:
            raise ValueError("degree mismatch: %d points, permutation of %d" % (self.v, perm.degree))
        rows = np.sort(np.append(perm.images, self.v)[self.rows], axis=1)
        j = self.index.find(rows)
        if (j < 0).any() or (self.mult[j] != self.mult).any():
            return None
        return j


def validate_1design(D: IncidenceStructure) -> DesignParams:
    """Check constant block size and constant replication."""
    sizes = {len(b) for b in D.blocks}
    if len(sizes) != 1:
        raise NonUniformBlockSize("block sizes %s" % sorted(sizes))
    k = sizes.pop()
    degrees = D.point_degrees()
    if len(set(degrees)) != 1:
        raise NonUniformReplication("replication varies: %s" % sorted(set(degrees)))
    r = degrees[0]
    if r == 0:
        raise NonUniformReplication("isolated points")
    return DesignParams(t=1, v=D.v, b=D.b, k=k, lam=r)


def t_design_lambda(D: IncidenceStructure, t: int, budget: int = 10**8) -> int:
    """lambda_t if every t-subset of points lies in the same number of
    blocks (with multiplicity); raises NotTDesign with a witness pair."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if any(len(b) < t for b in D.blocks):
        raise ValueError("t exceeds the minimum block size")
    work = sum(comb(len(b), t) for b in D.blocks)
    if work > budget:
        raise BudgetExceeded("t-subset tally needs %d increments" % work)
    tally = {}
    for blk in D.blocks:
        for sub in combinations(blk, t):
            tally[sub] = tally.get(sub, 0) + 1
    counts = set(tally.values())
    total = comb(D.v, t)
    if len(counts) == 1 and len(tally) == total:
        return counts.pop()
    if len(tally) < total:
        # some t-subset is uncovered; find one as a witness
        covered = set(tally)
        missing = next(s for s in combinations(range(D.v), t) if s not in covered)
        witness_hi = max(tally, key=tally.get)
        raise NotTDesign((missing, witness_hi), (0, tally[witness_hi]))
    lo = min(tally, key=tally.get)
    hi = max(tally, key=tally.get)
    raise NotTDesign((lo, hi), (tally[lo], tally[hi]))


def dual_design(D: IncidenceStructure) -> IncidenceStructure:
    """Transpose the incidence relation.

    Dual points are block instances, dual blocks the beta_x sets; repeated
    points of D therefore yield repeated dual blocks, preserving multiset
    structure.
    """
    through = D.incidence_lists()
    for x, lst in enumerate(through):
        if not lst:
            raise ValueError("point %d lies in no block; dual undefined" % x)
    return IncidenceStructure(D.b, [tuple(lst) for lst in through])


@dataclass
class ReducedStructure:
    parent: IncidenceStructure
    classes: list  # sorted point tuples partitioning [0, v)
    class_of: list  # point -> class index
    quotient: IncidenceStructure
    class_size: int
    params: DesignParams

    @property
    def trivial(self):
        return self.class_size == 1


def reduce_design(D: IncidenceStructure, params: DesignParams = None) -> ReducedStructure:
    """Quotient by the partition I_x = intersection of all blocks through x.

    Two points share a class iff they lie in exactly the same blocks, which
    for a 1-design is the same as lying in each other's block intersection.
    """
    if params is None:
        params = validate_1design(D)
    through = D.incidence_lists()
    sig_to_class = {}
    class_of = [0] * D.v
    classes = []
    for x in range(D.v):
        sig = tuple(through[x])
        idx = sig_to_class.get(sig)
        if idx is None:
            idx = len(classes)
            sig_to_class[sig] = idx
            classes.append([])
        class_of[x] = idx
        classes[idx].append(x)
    sizes = {len(c) for c in classes}
    if len(sizes) != 1:
        raise PartitionViolation("I-class sizes vary: %s" % sorted(sizes))
    size = sizes.pop()
    if params.k % size != 0:
        raise PartitionViolation("class size %d does not divide k=%d" % (size, params.k))
    qblocks = []
    for blk in D.blocks:
        cls = sorted({class_of[p] for p in blk})
        if len(cls) * size != len(blk):
            raise PartitionViolation("block %r is not a union of classes" % (blk,))
        qblocks.append(tuple(cls))
    quotient = IncidenceStructure(len(classes), qblocks)
    qparams = validate_1design(quotient)
    if (qparams.v, qparams.k, qparams.lam) != (params.v // size, params.k // size, params.lam):
        raise PartitionViolation("quotient parameters disagree with reduction")
    return ReducedStructure(
        parent=D,
        classes=[tuple(c) for c in classes],
        class_of=class_of,
        quotient=quotient,
        class_size=size,
        params=qparams,
    )


# -- file format ------------------------------------------------------------


def write_design(path, D: IncidenceStructure, params: DesignParams = None, comments=()):
    with open(path, "w") as fh:
        for c in comments:
            fh.write("# %s\n" % c)
        fh.write("design %d %d\n" % (D.v, D.b))
        if params is not None:
            fh.write("%d %d %d\n" % (params.t, params.k, params.lam))
        for blk in D.blocks:
            fh.write(" ".join(str(p) for p in blk) + "\n")


def read_design(path):
    """Returns (IncidenceStructure, DesignParams or None)."""
    header = None
    rows = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                parts = line.split()
                if parts[0] != "design" or len(parts) != 3:
                    raise ValueError("expected 'design v b' header, got %r" % line)
                header = (int(parts[1]), int(parts[2]))
                if min(header) < 1:
                    raise ValueError("need at least one point and one block, got %r" % line)
                continue
            rows.append(tuple(int(x) for x in line.split()))
    if header is None:
        raise ValueError("empty design file")
    v, b = header
    params = None
    if len(rows) == b + 1:
        params = list(rows.pop(0))
    if len(rows) != b:
        raise ValueError("expected %d blocks, found %d" % (b, len(rows)))
    blocks = rows
    D = IncidenceStructure(v, blocks)
    dp = None
    if params is not None:
        if len(params) != 3:
            raise ValueError("expected a 't k lam' params line, got %r" % (params,))
        t, k, lam = params
        dp = DesignParams(t=t, v=v, b=b, k=k, lam=lam)
        try:
            ok = all(len(blk) == k for blk in D.blocks) and t_design_lambda(D, t) == lam
        except NotTDesign:
            ok = False
        if not ok:
            raise ValueError(
                "params line %d %d %d does not match the %d blocks"
                " (or the header's block count is wrong)" % (t, k, lam, b)
            )
    return D, dp
