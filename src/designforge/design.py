"""Incidence structures: 1-design validation, t-design counting, duals,
and the block-intersection reduction.

A structure holds its blocks once, as rows: a (b, k_max) int64 array, row i
block i's points in increasing order, a short block padded with v. The
operations compute on the rows with numpy, grouping rows by group.lex_rank;
t_design_lambda keeps a dict tally, so its witnesses follow insertion order."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import (
    BudgetExceeded,
    NonUniformBlockSize,
    NonUniformReplication,
    NotTDesign,
    PartitionViolation,
)
from .group import RowIndex, lex_rank


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


class IncidenceStructure:
    """Points 0..v-1 and b blocks, held as rows (see above). A block may
    repeat; multiplicity is tracked by position."""

    def __init__(self, v: int, blocks):
        if v <= 0:
            raise ValueError("need at least one point")
        blocks = list(blocks)
        if not blocks:
            raise ValueError("block list must be nonempty")
        sizes = np.fromiter(map(len, blocks), np.int64, len(blocks))
        real = np.arange(sizes.max()) < sizes[:, None]
        rows = np.full(real.shape, v, dtype=np.int64)
        rows[real] = np.fromiter(chain.from_iterable(blocks), np.int64, int(sizes.sum()))
        bad = (sizes == 0) | (((rows < 0) | (rows >= v)) & real).any(axis=1)
        rows.sort(axis=1)
        bad |= ((rows[:, 1:] == rows[:, :-1]) & (rows[:, 1:] < v)).any(axis=1)
        if bad.any():
            blk = tuple(sorted(blocks[int(np.argmax(bad))]))
            if not blk:
                raise ValueError("empty block")
            if blk[0] < 0 or blk[-1] >= v:
                raise ValueError("block %r out of range [0,%d)" % (blk, v))
            raise ValueError("repeated point inside block %r" % (blk,))
        self.v, self.rows = v, rows

    @classmethod
    def _trusted(cls, v: int, rows) -> "IncidenceStructure":
        """A structure from rows known to be sorted and padded with v."""
        D = object.__new__(cls)
        D.v, D.rows = v, rows
        return D

    @property
    def b(self):
        return len(self.rows)

    @property
    def blocks(self):
        """The blocks as sorted point tuples, for tests and library users."""
        return [tuple(p for p in row if p < self.v) for row in self.rows.tolist()]

    def block_sizes(self):
        """The number of points of each block, as an int array."""
        return (self.rows < self.v).sum(axis=1)

    @cached_property
    def table(self) -> "BlockTable":
        """The distinct blocks as a BlockTable, built on first use."""
        return BlockTable(self)

    def __eq__(self, other):
        return (
            isinstance(other, IncidenceStructure)
            and self.v == other.v
            and np.array_equal(self.table.rows, other.table.rows)
            and np.array_equal(self.table.mult, other.table.mult)
        )

    def __repr__(self):
        return "IncidenceStructure(v=%d, b=%d)" % (self.v, self.b)


class BlockTable:
    """The distinct blocks of a structure in the order of their point tuples:
    rows, the structure's rows of those blocks; mult, their multiplicities;
    and a RowIndex over the rows."""

    def __init__(self, D: IncidenceStructure):
        # points shifted by one, so that the pad, 0, sorts first
        rank, first = lex_rank(np.where(D.rows < D.v, D.rows + 1, 0))
        self.v = D.v
        self.rows = D.rows[first]
        self.mult = np.bincount(rank)
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


def _distinct(values):
    """The distinct values of a non-negative int array, in increasing order
    (np.unique without return values imports numpy.ma, about 1 MiB)."""
    return np.flatnonzero(np.bincount(values))


def validate_1design(D: IncidenceStructure) -> DesignParams:
    """Check constant block size and constant replication."""
    sizes = _distinct(D.block_sizes())
    if len(sizes) != 1:
        raise NonUniformBlockSize("block sizes %s" % sizes.tolist())
    degrees = _distinct(np.bincount(D.rows.ravel(), minlength=D.v + 1)[: D.v])
    if len(degrees) != 1:
        raise NonUniformReplication("replication varies: %s" % degrees.tolist())
    if degrees[0] == 0:
        raise NonUniformReplication("isolated points")
    return DesignParams(t=1, v=D.v, b=D.b, k=int(sizes[0]), lam=int(degrees[0]))


def t_design_lambda(D: IncidenceStructure, t: int, budget: int = 10**8) -> int:
    """lambda_t if every t-subset of points lies in the same number of
    blocks (with multiplicity); raises NotTDesign with a witness pair."""
    if t < 1:
        raise ValueError("t must be >= 1")
    sizes = D.block_sizes().tolist()
    if min(sizes) < t:
        raise ValueError("t exceeds the minimum block size")
    work = sum(comb(k, t) for k in sizes)
    if work > budget:
        raise BudgetExceeded("t-subset tally needs %d increments" % work)
    tally = {}
    # rows as tuples, not lists: the garbage collector stops tracking tuples of ints
    for row, k in zip(zip(*D.rows.T.tolist()), sizes):
        for sub in combinations(row[:k], t):
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


def _incidence_rows(block_rows, v):
    """Per point of [0, v), the indices of the block rows through it in
    increasing order, as rows padded with len(block_rows); and the number of
    blocks through each point. The one derivation of each point's blocks, for
    dual_design, reduce_design and the automorphism search (autsearch._Search).
    Each sorted incidence's block comes from its position in the rows, by
    division when no row is padded, so beside the result it holds one int64
    array of the incidences, and copies the points only for padded rows."""
    sizes = (block_rows < v).sum(axis=1)
    full = (sizes == block_rows.shape[1]).all()
    points = block_rows.ravel() if full else block_rows[block_rows < v]
    degrees = np.bincount(points, minlength=v)
    # a stable sort by point keeps each point's block indices increasing
    order = np.argsort(points, kind="stable")
    del points
    if full:
        order //= block_rows.shape[1]
    else:
        order = np.searchsorted(np.cumsum(sizes), order, side="right")
    slots = np.arange(degrees.max()) < degrees[:, None]
    rows = np.full(slots.shape, len(block_rows), dtype=np.int64)
    rows[slots] = order
    return rows, degrees


def dual_design(D: IncidenceStructure) -> IncidenceStructure:
    """Transpose the incidence relation.

    Dual points are block instances, dual blocks the beta_x sets; repeated
    points of D therefore yield repeated dual blocks, preserving multiset
    structure.
    """
    rows, degrees = _incidence_rows(D.rows, D.v)
    if not degrees.all():
        raise ValueError("point %d lies in no block; dual undefined" % np.argmin(degrees))
    return IncidenceStructure._trusted(D.b, rows)


@dataclass
class ReducedStructure:
    parent: IncidenceStructure
    labels: np.ndarray  # point -> class index, an int array
    quotient: IncidenceStructure
    class_size: int
    params: DesignParams

    @cached_property
    def classes(self) -> list:
        """Sorted point tuples partitioning [0, v), built on first use, since
        most callers read only labels or class_points."""
        # tuples straight from the columns, with no list per class to collect
        return list(zip(*np.argsort(self.labels, kind="stable").reshape(-1, self.class_size).T.tolist()))

    def class_points(self, x: int) -> list:
        """The points of x's class, sorted."""
        return np.flatnonzero(self.labels == self.labels[x]).tolist()


def reduce_design(D: IncidenceStructure, params: DesignParams = None) -> ReducedStructure:
    """Quotient by the partition I_x = intersection of all blocks through x.

    Two points share a class iff they lie in exactly the same blocks, which
    for a 1-design is the same as lying in each other's block intersection.
    Classes are numbered in the order of their least points.
    """
    if params is None:
        params = validate_1design(D)
    rank, first = lex_rank(_incidence_rows(D.rows, D.v)[0])
    n = len(first)
    class_of = np.argsort(np.argsort(first))[rank]
    sizes = _distinct(np.bincount(class_of))
    if len(sizes) != 1:
        raise PartitionViolation("I-class sizes vary: %s" % sizes.tolist())
    size = int(sizes[0])
    if params.k % size != 0:
        raise PartitionViolation("class size %d does not divide k=%d" % (size, params.k))
    # each class lies whole in the blocks it meets, so a block's classes,
    # sorted with the pad (class n) last, repeat each class size times
    qrows = np.append(class_of, n)[D.rows]
    qrows.sort(axis=1)
    quotient = IncidenceStructure._trusted(n, np.ascontiguousarray(qrows[:, ::size]))
    qparams = validate_1design(quotient)
    if (qparams.v, qparams.k, qparams.lam) != (params.v // size, params.k // size, params.lam):
        raise PartitionViolation("quotient parameters disagree with reduction")
    return ReducedStructure(
        parent=D,
        labels=class_of,
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
        for row in D.rows.tolist():
            fh.write(" ".join(str(p) for p in row if p < D.v) + "\n")


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
    # checked before anything of length v is allocated
    incidences = sum(map(len, rows))
    if v > incidences:
        raise ValueError("%d points but only %d incidences: some point lies on no block" % (v, incidences))
    D = IncidenceStructure(v, rows)
    dp = None
    if params is not None:
        if len(params) != 3:
            raise ValueError("expected a 't k lam' params line, got %r" % (params,))
        t, k, lam = params
        dp = DesignParams(t=t, v=v, b=b, k=k, lam=lam)
        try:
            ok = (D.block_sizes() == k).all() and t_design_lambda(D, t) == lam
        except NotTDesign:
            ok = False
        if not ok:
            raise ValueError(
                "params line %d %d %d does not match the %d blocks"
                " (or the header's block count is wrong)" % (t, k, lam, b)
            )
    return D, dp
