"""Independent test oracles, kept free of the package's search machinery."""

import dataclasses
from itertools import combinations, permutations
from math import comb
from random import Random
from types import SimpleNamespace

import numpy as np

from designforge.design import DesignParams
from designforge.errors import (
    NonUniformBlockSize,
    NonUniformReplication,
    NotTDesign,
    OrbitOverflow,
    PartitionViolation,
)
from designforge.group import PermGroup, conjugation_action, index_set_action, normalizing_map_check
from designforge.perm import Permutation


# -- incidence structures as tuple loops, the reference for design.py's rows


def structure_blocks(v, blocks):
    """The blocks as IncidenceStructure takes them: each sorted into a
    tuple, and checked one at a time for being empty, out of range or
    repeating a point (ValueError)."""
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
    return blocks


def block_multiset(D):
    """Each distinct block -> its multiplicity, in first-occurrence order."""
    out = {}
    for blk in D.blocks:
        out[blk] = out.get(blk, 0) + 1
    return out


def point_degrees(D):
    deg = [0] * D.v
    for blk in D.blocks:
        for p in blk:
            deg[p] += 1
    return deg


def incidence_lists(D):
    """Per point, the indices of the blocks through it, in increasing order."""
    through = [[] for _ in range(D.v)]
    for i, blk in enumerate(D.blocks):
        for p in blk:
            through[p].append(i)
    return through


def block_table_by_sorting(D):
    """The distinct blocks in sorted(block_multiset()) order as rows padded
    with v, and their multiplicities."""
    mult = block_multiset(D)
    blocks = sorted(mult)
    width = max(map(len, blocks))
    return [list(b) + [D.v] * (width - len(b)) for b in blocks], [mult[b] for b in blocks]


def validate_1design_by_tuples(D):
    """Constant block size and constant replication, block by block."""
    sizes = {len(b) for b in D.blocks}
    if len(sizes) != 1:
        raise NonUniformBlockSize("block sizes %s" % sorted(sizes))
    k = sizes.pop()
    degrees = point_degrees(D)
    if len(set(degrees)) != 1:
        raise NonUniformReplication("replication varies: %s" % sorted(set(degrees)))
    r = degrees[0]
    if r == 0:
        raise NonUniformReplication("isolated points")
    return DesignParams(t=1, v=D.v, b=D.b, k=k, lam=r)


def t_design_lambda_by_tuples(D, t):
    """lambda_t by a dict tally over the block tuples, NotTDesign with the
    same witnesses as design.t_design_lambda (no budget)."""
    tally = {}
    for blk in D.blocks:
        for sub in combinations(blk, t):
            tally[sub] = tally.get(sub, 0) + 1
    counts = set(tally.values())
    total = comb(D.v, t)
    if len(counts) == 1 and len(tally) == total:
        return counts.pop()
    if len(tally) < total:
        covered = set(tally)
        missing = next(s for s in combinations(range(D.v), t) if s not in covered)
        witness_hi = max(tally, key=tally.get)
        raise NotTDesign((missing, witness_hi), (0, tally[witness_hi]))
    lo = min(tally, key=tally.get)
    hi = max(tally, key=tally.get)
    raise NotTDesign((lo, hi), (tally[lo], tally[hi]))


def dual_by_tuples(D):
    """The dual's blocks: each point's incidence list, as a tuple."""
    through = incidence_lists(D)
    for x, lst in enumerate(through):
        if not lst:
            raise ValueError("point %d lies in no block; dual undefined" % x)
    return [tuple(lst) for lst in through]


def reduce_by_tuples(D, params=None):
    """(classes, class_of, quotient blocks, quotient params) of
    design.reduce_design, classes numbered by first point in a dict of
    incidence tuples, and the same PartitionViolation messages."""
    if params is None:
        params = validate_1design_by_tuples(D)
    sig_to_class = {}
    class_of = [0] * D.v
    classes = []
    for x, sig in enumerate(incidence_lists(D)):
        idx = sig_to_class.setdefault(tuple(sig), len(classes))
        if idx == len(classes):
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
    quotient = SimpleNamespace(v=len(classes), b=len(qblocks), blocks=qblocks)
    qparams = validate_1design_by_tuples(quotient)
    if (qparams.v, qparams.k, qparams.lam) != (params.v // size, params.k // size, params.lam):
        raise PartitionViolation("quotient parameters disagree with reduction")
    return [tuple(c) for c in classes], class_of, qblocks, qparams


def naive_closure(gens, degree, cap=100000):
    """Brute-force element enumeration; independent oracle for small groups."""
    ident = Permutation.identity(degree)
    seen = {ident}
    queue = [ident]
    for x in queue:
        for g in gens:
            y = x * g
            if y not in seen:
                if len(seen) >= cap:
                    raise OrbitOverflow("closure exceeds cap")
                seen.add(y)
                queue.append(y)
    return seen


def brute_force_aut_order(D):
    """Count all point permutations preserving the block multiset.

    Exponential; an independent check for small structures.
    """
    mult = block_multiset(D)
    count = 0
    for images in permutations(range(D.v)):
        ok = True
        for blk, m in mult.items():
            if mult.get(tuple(sorted(images[p] for p in blk))) != m:
                ok = False
                break
        if ok:
            count += 1
    return count


def oracle_aut_order(D):
    """Backtracking point-image assignment, independent of the search code.

    Prunes only on degree sequence and pairwise co-occurrence counts, so it
    shares no machinery with the color-refinement engine under test.
    """
    v = D.v
    pair = [[0] * v for _ in range(v)]
    for blk in D.blocks:
        for a, b in combinations(blk, 2):
            pair[a][b] += 1
            pair[b][a] += 1
    deg = point_degrees(D)
    multiset = block_multiset(D)

    count = 0

    def extend(images, used):
        nonlocal count
        x = len(images)
        if x == v:
            mapped = {}
            for blk in D.blocks:
                key = tuple(sorted(images[p] for p in blk))
                mapped[key] = mapped.get(key, 0) + 1
            if mapped == multiset:
                count += 1
            return
        for y in range(v):
            if y in used or deg[y] != deg[x]:
                continue
            if any(pair[x][z] != pair[y][images[z]] for z in range(x)):
                continue
            images.append(y)
            used.add(y)
            extend(images, used)
            images.pop()
            used.remove(y)

    extend([], set())
    return count


# -- block images one block at a time, the reference for BlockTable.images


def is_automorphism_by_multiset(D, perm):
    """Whether perm maps each distinct block to a block of the same
    multiplicity, block by block through the block multiset."""
    mult = block_multiset(D)
    return all(mult.get(tuple(sorted(perm[p] for p in blk))) == m for blk, m in mult.items())


def fixes_every_block_by_sets(D, perm):
    """Whether perm maps each distinct block to itself, block by block."""
    return all(tuple(sorted(perm[p] for p in blk)) == blk for blk in set(D.blocks))


def block_images_by_sorting(D, perm):
    """Each distinct block's index in sorted(block_multiset()), looked up one
    image at a time; None when some image is not a block of the same
    multiplicity."""
    mult = block_multiset(D)
    dblocks = sorted(mult)
    where = {blk: j for j, blk in enumerate(dblocks)}
    out = []
    for blk in dblocks:
        img = tuple(sorted(perm[p] for p in blk))
        if mult.get(img) != mult[blk]:
            return None
        out.append(where[img])
    return out


# -- orbits by breadth-first search, the reference for PermGroup.orbit_minima


def bfs_orbit(gens, point):
    """The orbit of point under gens, in breadth-first discovery order."""
    orb = {point}
    queue = [point]
    for pt in queue:
        for g in gens:
            img = g.images[pt]
            if img not in orb:
                orb.add(img)
                queue.append(img)
    return queue


def bfs_orbits(gens, degree):
    """All orbits on range(degree), each sorted, ordered by least element."""
    seen = set()
    out = []
    for pt in range(degree):
        if pt not in seen:
            orb = bfs_orbit(gens, pt)
            seen.update(orb)
            out.append(sorted(orb))
    return out


def block_system_by_union_find(gens, alpha, delta):
    """Finest gens-invariant partition merging alpha and delta, by a
    union-find over point pairs: the reference for the label propagation
    of group.find_imprimitivity. Cells sorted, ordered by least element."""
    n = gens[0].degree
    parent = list(range(n))

    def find(a):
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    pairs = [(alpha, delta)]
    parent[find(delta)] = find(alpha)
    while pairs:
        a, b = pairs.pop()
        for g in gens:
            ra, rb = find(g.images[a]), find(g.images[b])
            if ra != rb:
                parent[rb] = ra
                pairs.append((ra, rb))
    cells = {}
    for x in range(n):
        cells.setdefault(find(x), []).append(x)
    return sorted(cells.values())


# -- actions, one value at a time


def point_image(value, g, ginv):
    return g.images[value]


def set_image(value, g, ginv):
    """A sorted point tuple mapped by g point by point: the reference for
    index_set_action on generator image tables."""
    return tuple(sorted(g.images[i] for i in value))


SCALAR_ACTIONS = {"point": point_image, "set": set_image, "conj": Permutation.conjugate}


def named_action(G, kind):
    """The action of G's generators on rows of points, sorted point tuples or
    permutations (by conjugation), by the name 'point', 'set' or 'conj', as
    orbit_with_transversal takes it."""
    if kind == "conj":
        return conjugation_action(G)
    return index_set_action([g.images for g in G.gens])


def named_row(kind, value):
    """A point, sorted point tuple or permutation as an orbit row."""
    if kind == "point":
        return (value,)
    return value.images if kind == "conj" else value


def row_value(kind, row):
    """An orbit row, given as a list, back as the value named_row took."""
    if kind == "point":
        return row[0]
    return Permutation(row) if kind == "conj" else tuple(row)


# -- the scalar orbit loop, the reference for group.orbit_with_transversal


def scalar_orbit(G, value, action):
    """Sims's orbit algorithm one element and one generator at a time:
    action(value, g, ginv) is the image of a value under a generator g of G.
    Returns (orbit list in discovery order, dict value -> its orbit index,
    and one tuple per generator of G holding the orbit index of each orbit
    element's image under that generator)."""
    gens = [(g, g.inverse()) for g in G.gens]
    index = {value: 0}
    images = [[] for _ in gens]
    queue = [value]
    for v in queue:
        for (g, ginv), col in zip(gens, images):
            img = action(v, g, ginv)
            j = index.get(img)
            if j is None:
                j = index[img] = len(queue)
                queue.append(img)
            col.append(j)
    return queue, index, [tuple(col) for col in images]


def conjugacy_class(G, g):
    """The class of g in G as Permutations, in the orbit order of
    scalar_orbit under conjugation."""
    return scalar_orbit(G, g, Permutation.conjugate)[0]


# -- orbits with a stored transversal, the reference for schreier_stabilizer


def orbit_with_stored_transversal(G, value, action):
    """The orbit of value as scalar_orbit finds it, with one stored
    transversal entry per orbit element: returns (orbit, dict value ->
    u with value^u = that element, dict value -> orbit index, generator
    tables)."""
    gens = [(g, g.inverse()) for g in G.gens]
    trans = {value: Permutation.identity(G.degree)}
    index = {value: 0}
    images = [[] for _ in gens]
    queue = [value]
    for v in queue:
        rep = trans[v]
        for (g, ginv), col in zip(gens, images):
            img = action(v, g, ginv)
            if img not in index:
                index[img] = len(queue)
                trans[img] = rep * g
                queue.append(img)
            col.append(index[img])
    return queue, trans, index, [tuple(col) for col in images]


def stored_schreier_stabilizer(G, orbit, trans, images):
    """The stabilizer of orbit[0], extended by the Schreier generator of every
    (orbit element, generator) pair in orbit order, read from the stored
    transversal, until its order is |G| / |orbit|."""
    target = G.order() // len(orbit)
    stab = PermGroup([], G.degree)
    for i, v in enumerate(orbit):
        for g, col in zip(G.gens, images):
            if stab.order() == target:
                return stab
            stab.extend(trans[v] * g * trans[orbit[col[i]]].inverse())
    assert stab.order() == target
    return stab


# -- Method 2 actions by direct conjugation, the reference for the orbit tables


def image_indices(orbit, index, action, x, xinv, points):
    """Orbit indices of the images under x of the orbit elements at the given
    indices, None where an image leaves the orbit: x applied to one element
    at a time by action(value, x, xinv)."""
    return [index.get(action(orbit[i], x, xinv)) for i in points]


def class_index(design):
    """{class element: its index} of a Method 2 design, a dict of
    Permutations read from its class table, not looked up through the
    table's RowIndex."""
    return {h: i for i, h in enumerate(design.class_table)}


def conjugate_index_set(design, index, value, x, xinv):
    """The sorted class-index tuple value, conjugated by x element by
    element; index is the design's class_index."""
    elems = design.class_table
    return tuple(sorted(index[elems[i].conjugate(x, xinv)] for i in value))


def block_orbit_bfs(design):
    """Method 2 block list and block transversal by the hand-written
    breadth-first search, conjugating every block element by every generator."""
    G = design.G
    base_block = tuple(design.base_block.tolist())
    index = class_index(design)
    trans = {base_block: G.identity()}
    queue = [base_block]
    for blk in queue:
        rep = trans[blk]
        for x in G.gens:
            img = conjugate_index_set(design, index, blk, x, x.inverse())
            if img not in trans:
                trans[img] = rep * x
                queue.append(img)
    return queue, trans


def class_table_by_conjugation(design):
    """Per generator of G, the class index of each class element's conjugate."""
    elems, idx = design.class_table, class_index(design)
    out = []
    for g in design.G.gens:
        ginv = g.inverse()
        out.append(tuple(idx[h.conjugate(g, ginv)] for h in elems))
    return out


def induced_dual_point_gens(design):
    """Permutations the generators of G induce on the dual points (the blocks
    of the class design, in block order), by conjugation."""
    index = {blk: j for j, blk in enumerate(design.design.blocks)}
    cls = class_index(design)
    out = []
    for g in design.G.gens:
        ginv = g.inverse()
        out.append(Permutation(index[conjugate_index_set(design, cls, blk, g, ginv)]
                               for blk in design.design.blocks))
    return out


def coset_fixed_points_by_conjugation(ca, g):
    """Cosets Mu of a coset action fixed by g, counted as the conjugates
    M^u, u the least element of each coset, that contain g; each conjugate
    is built by conjugating every element of M."""
    elems = ca.subgroup.elements()
    return sum(g in {x.conjugate(u) for x in elems} for u in ca.index_of)


def coset_fixed_points_by_sifting(ca, g):
    """Cosets Mu fixed by g, counted as the least elements u with u g u^-1
    in M, each tested by a sift through M's chain."""
    return sum(g.conjugate(u.inverse(), u) in ca.subgroup for u in ca.index_of)


def induced_perm_by_normalizer_scan(ca, phi):
    """The point permutation a coset action's induced_perm returns, with y
    found by scanning the cosets' least elements for the first one with
    y phi^-1 normalizing M, and each image coset looked up by its least
    element."""
    M = ca.subgroup
    phinv = phi.inverse()
    y = next((y for y in ca.index_of if normalizing_map_check(M, y * phinv)), None)
    if y is None:
        return None
    least = M.chain.least_in_coset
    imgs = [ca.index_of.get(least(y * u.conjugate(phi, phinv))) for u in ca.index_of]
    return None if None in imgs else Permutation(imgs)


def coset_action_by_conjugation(G, M):
    """G acting by conjugation on the conjugates of M's element set, found by
    a hand-written breadth-first search from M: the action on the cosets of
    M when M is self-normalizing.

    Returns (one image tuple per generator of G, and a map phi -> the point
    permutation conjugation by phi induces, or None when phi does not
    permute the conjugates)."""

    def conj(pts, x, xinv):
        return frozenset(h.conjugate(x, xinv) for h in pts)

    start = frozenset(M.elements())
    index = {start: 0}
    queue = [start]
    gens = [(g, g.inverse()) for g in G.gens]
    images = [[] for _ in gens]
    for pts in queue:
        for (g, ginv), col in zip(gens, images):
            img = conj(pts, g, ginv)
            if img not in index:
                index[img] = len(queue)
                queue.append(img)
            col.append(index[img])

    def induced_perm(phi):
        phinv = phi.inverse()
        imgs = [index.get(conj(pts, phi, phinv)) for pts in queue]
        return None if None in imgs else Permutation(imgs)

    return [tuple(col) for col in images], induced_perm


def faithfulness_check(G, induce, samples: int = 100, seed: int = 0) -> bool:
    """Whether the action given by `induce` (element -> point permutation)
    is faithful on generators and random nonidentity words."""
    rng = Random(seed)
    tested = list(G.gens)
    for _ in range(samples):
        x = G.random_element(rng)
        if not x.is_identity():
            tested.append(x)
    return all(not induce(x).is_identity() for x in tested)


# -- colour refinement by structured-row ranking, the reference for _Search.refine


def refine_structured(search, pcolor, bcolor):
    """The automorphism search's colour refinement as it ranked signature rows
    with np.unique(axis=0): returns (pcolor, bcolor, invariant) like
    _Search.refine, without counting a node."""
    pcolor = np.unique(pcolor, return_inverse=True)[1].ravel()
    bcolor = np.unique(bcolor, return_inverse=True)[1].ravel()
    ncp, ncb = pcolor.max() + 1, bcolor.max() + 1
    while True:
        pc_ext = np.append(pcolor, -1)
        sig = np.column_stack([bcolor, np.sort(pc_ext[search.table.rows], axis=1)])
        ub, bcolor = np.unique(sig, axis=0, return_inverse=True)
        bcolor = bcolor.ravel()
        counts = np.zeros((search.v, len(ub)), dtype=np.int64)
        np.add.at(counts, (search.pt_idx, bcolor[search.blk_idx]), 1)
        sig = np.column_stack([pcolor, counts])
        up, pcolor = np.unique(sig, axis=0, return_inverse=True)
        pcolor = pcolor.ravel()
        if len(up) == ncp and len(ub) == ncb:
            break
        ncp, ncb = len(up), len(ub)
    inv = hash((ncp, ncb, up.tobytes(), ub.tobytes()))
    return pcolor, bcolor, inv


# -- finite fields as digit lists, the reference for gf's log tables


def field_digits(F, n):
    """The F.k base-F.p digits of n, the coefficients of the polynomial
    that n stands for, constant term first."""
    out = []
    for _ in range(F.k):
        n, d = divmod(n, F.p)
        out.append(d)
    return out


def field_number(F, digits):
    n = 0
    for d in reversed(digits):
        n = n * F.p + d % F.p
    return n


def field_add_by_digits(F, a, b):
    return field_number(F, [x + y for x, y in zip(field_digits(F, a), field_digits(F, b))])


def field_mul_by_digits(F, a, b):
    """a * b as the schoolbook product of the digit lists, reduced modulo
    the monic F.modulus by rewriting x^k as minus its lower terms."""
    prod = [0] * (2 * F.k)
    for i, x in enumerate(field_digits(F, a)):
        for j, y in enumerate(field_digits(F, b)):
            prod[i + j] += x * y
    for top in reversed(range(F.k, 2 * F.k)):
        for i in range(F.k):
            prod[top - F.k + i] -= prod[top] * F.modulus[i]
    return field_number(F, prod[: F.k])


# -- report conversion, the reference for cli._dumps


def jsonable(obj):
    """A report as json.dumps takes it: dataclasses as dicts of their fields,
    tuples as lists, dict keys as str."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


# -- generator files


def write_generator_file(path, degree, gens, comments=()):
    """Generators in cycle notation, as perm.read_generator_file reads them
    back bit-exactly."""
    with open(path, "w") as fh:
        for c in comments:
            fh.write("# %s\n" % c)
        fh.write("degree %d\n" % degree)
        for g in gens:
            fh.write("%s\n" % g)
