"""Permutations on 0..n-1 and the generator file format.

A permutation is stored as its image tuple: p maps i to p.images[i].
Products compose left to right, i.e. (p * q)(i) = q(p(i)), so that the
exponent notation i^p = p(i) behaves as usual in permutation group texts.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter


def _take(seq, idx) -> tuple:
    """The tuple (seq[i] for i in idx)."""
    if len(idx) > 1:
        return itemgetter(*idx)(seq)
    return tuple(seq[i] for i in idx)


class Permutation:
    """An immutable bijection on [0, n).

    The constructor validates its input.  Products, inverses, conjugates and
    powers of valid permutations are valid by construction and skip that
    check through _trusted.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        images = tuple(images)
        if set(images) != set(range(len(images))):
            raise ValueError("not a permutation of 0..n-1: %r" % (images,))
        self.images = images
        self._hash = None

    @classmethod
    def _trusted(cls, images: tuple) -> "Permutation":
        """A permutation from an image tuple known to be a bijection."""
        p = object.__new__(cls)
        p.images = images
        p._hash = None
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._trusted(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        imgs = list(range(n))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:]):
                imgs[a] = b
            if cycle:
                imgs[cycle[-1]] = cycle[0]
        return cls(imgs)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __getitem__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(other.images) != len(self.images):
            raise ValueError("degree mismatch: %d * %d" % (self.degree, other.degree))
        return Permutation._trusted(_take(other.images, self.images))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "Permutation":
        imgs = [0] * len(self.images)
        for i, j in enumerate(self.images):
            imgs[j] = i
        return Permutation._trusted(tuple(imgs))

    def conjugate(self, x: "Permutation", xinv: "Permutation" = None) -> "Permutation":
        """Return self^x = x^-1 * self * x."""
        if len(x.images) != len(self.images):
            raise ValueError("degree mismatch: %d ^ %d" % (self.degree, x.degree))
        if xinv is None:
            xinv = x.inverse()
        return Permutation._trusted(_take(x.images, _take(self.images, xinv.images)))

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.images)
        return h

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def cycles(self, include_fixed: bool = False):
        """Cycle decomposition, each cycle starting at its least point."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i]:
                continue
            cycle = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                seen[j] = True
                cycle.append(j)
                j = self.images[j]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()), 1)

    def fixed_points(self):
        return [i for i, j in enumerate(self.images) if i == j]

    def __repr__(self):
        return "Permutation(%r)" % (list(self.images),)

    def __str__(self):
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(%s)" % ",".join(str(p + 1) for p in c) for c in cycles)


_CYCLE_RE = re.compile(r"\(([0-9, ]*)\)")


def parse_cycle_string(s: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation like (1,2,3)(4,5)."""
    stripped = re.sub(r"\s", "", s)
    if not re.fullmatch(r"(\(\d+(,\d+)*\))*|\(\)", stripped):
        raise ValueError("bad cycle notation: %r" % s)
    cycles = []
    for m in _CYCLE_RE.finditer(stripped):
        body = m.group(1)
        if not body:
            continue
        pts = [int(x) - 1 for x in body.split(",")]
        if any(p < 0 or p >= degree for p in pts):
            raise ValueError("point out of range in %r for degree %d" % (s, degree))
        if len(set(pts)) != len(pts):
            raise ValueError("repeated point in cycle %r" % s)
        cycles.append(pts)
    return Permutation.from_cycles(degree, cycles)


# The largest degree a generator file may declare: each permutation line
# allocates lists of the declared length, so a short file must not be able
# to declare an unbounded one.
MAX_FILE_DEGREE = 100_000


def read_generator_file(path) -> tuple[int, list[Permutation]]:
    """Read the generator file format.

    First non-comment line is ``degree n``, with n at most MAX_FILE_DEGREE.
    Every following line is one permutation, either in 1-based cycle
    notation or as ``img: i0 i1 ...`` (0-based image list).  Lines starting
    with ``#`` are comments.
    """
    degree = None
    gens = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if degree is None:
                m = re.fullmatch(r"degree\s+(\d+)", line)
                if not m:
                    raise ValueError("expected 'degree n' header, got %r" % line)
                degree = int(m.group(1))
                if degree > MAX_FILE_DEGREE:
                    raise ValueError("degree %d exceeds the limit %d" % (degree, MAX_FILE_DEGREE))
                continue
            if line.startswith("img:"):
                imgs = [int(x) for x in line[4:].split()]
                if len(imgs) != degree:
                    raise ValueError("image list length %d != degree %d" % (len(imgs), degree))
                gens.append(Permutation(imgs))
            else:
                gens.append(parse_cycle_string(line, degree))
    if degree is None:
        raise ValueError("empty generator file %s" % path)
    return degree, gens
