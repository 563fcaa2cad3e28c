import dataclasses
from collections import Counter
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge.design import (
    DesignParams,
    IncidenceStructure,
    dual_design,
    read_design,
    reduce_design,
    t_design_lambda,
    validate_1design,
    write_design,
)
from designforge.errors import (
    BudgetExceeded,
    DesignForgeError,
    NonUniformBlockSize,
    NonUniformReplication,
    NotTDesign,
    PartitionViolation,
)
from oracles import (
    block_multiset,
    block_table_by_sorting,
    dual_by_tuples,
    incidence_lists,
    point_degrees,
    reduce_by_tuples,
    structure_blocks,
    t_design_lambda_by_tuples,
    validate_1design_by_tuples,
)

FANO = IncidenceStructure(
    7,
    [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)],
)


def test_constructor_normalizes_and_validates():
    D = IncidenceStructure(4, [(2, 0, 1), (1, 2, 3)])
    assert D.blocks == [(0, 1, 2), (1, 2, 3)]
    with pytest.raises(ValueError):
        IncidenceStructure(3, [(0, 3)])
    with pytest.raises(ValueError):
        IncidenceStructure(3, [(0, 0)])
    with pytest.raises(ValueError):
        IncidenceStructure(3, [])
    with pytest.raises(ValueError):
        IncidenceStructure(0, [(0,)])


def test_multiplicity_tracking():
    D = IncidenceStructure(3, [(0, 1), (0, 1), (1, 2)])
    assert D.b == 3
    assert D.table.mult.tolist() == [2, 1]
    assert D.table.rows.tolist() == [[0, 1], [1, 2]]
    assert block_multiset(D) == {(0, 1): 2, (1, 2): 1}
    assert incidence_lists(D)[1] == [0, 1, 2]


def test_validate_1design_fano():
    params = validate_1design(FANO)
    assert params == DesignParams(1, 7, 7, 3, 3)
    assert params.r == 3


def test_validate_rejects_non_uniform():
    with pytest.raises(NonUniformBlockSize):
        validate_1design(IncidenceStructure(3, [(0, 1), (0, 1, 2)]))
    with pytest.raises(NonUniformReplication):
        validate_1design(IncidenceStructure(3, [(0, 1), (0, 2), (0, 1)]))
    with pytest.raises(NonUniformReplication):
        validate_1design(IncidenceStructure(4, [(0, 1), (0, 1)]))


def test_fano_is_2_design():
    assert t_design_lambda(FANO, 1) == 3
    assert t_design_lambda(FANO, 2) == 1
    with pytest.raises(NotTDesign):
        t_design_lambda(FANO, 3)


def test_t_design_witness_reports_counts():
    D = IncidenceStructure(4, [(0, 1), (0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)])
    with pytest.raises(NotTDesign) as exc:
        t_design_lambda(D, 2)
    clo, chi = exc.value.counts
    assert clo < chi and chi == 2
    assert len(exc.value.witness) == 2


def test_t_design_budget_and_bounds():
    with pytest.raises(BudgetExceeded):
        t_design_lambda(FANO, 2, budget=5)
    with pytest.raises(ValueError):
        t_design_lambda(FANO, 0)
    with pytest.raises(ValueError):
        t_design_lambda(FANO, 4)


def test_complete_design_lambdas():
    # all 3-subsets of a 6-set form a t-design for every t <= 3
    D = IncidenceStructure(6, list(combinations(range(6), 3)))
    assert t_design_lambda(D, 1) == 10
    assert t_design_lambda(D, 2) == 4
    assert t_design_lambda(D, 3) == 1


def test_dual_design_fano_is_self_dual_shape():
    dual = dual_design(FANO)
    assert (dual.v, dual.b) == (7, 7)
    assert validate_1design(dual) == DesignParams(1, 7, 7, 3, 3)
    assert dual_design(dual) == FANO


def test_dual_preserves_multiplicity():
    D = IncidenceStructure(3, [(0, 1), (0, 1), (0, 2), (1, 2), (0, 2), (1, 2)])
    dual = dual_design(D)
    assert dual.v == 6 and dual.b == 3
    assert dual.table.mult.tolist() == [1, 1, 1]
    # repeated points on the dual side come from equal incidence lists
    D2 = IncidenceStructure(4, [(0, 1, 2, 3), (0, 1, 2, 3), (0, 1), (2, 3)])
    dd = dual_design(D2)
    assert dd.table.mult.max() == 2


def test_reduce_design_pairs_into_classes():
    # points {0,1}, {2,3}, {4,5} always appear together
    D = IncidenceStructure(
        6, [(0, 1, 2, 3), (2, 3, 4, 5), (0, 1, 4, 5), (0, 1, 2, 3), (2, 3, 4, 5), (0, 1, 4, 5)]
    )
    R = reduce_design(D)
    assert R.class_size == 2
    assert R.classes == [(0, 1), (2, 3), (4, 5)]
    assert R.params == DesignParams(1, 3, 6, 2, 4)
    assert all(R.labels[p] == i for i, cls in enumerate(R.classes) for p in cls)


def test_reduce_design_trivial_when_classes_are_singletons():
    R = reduce_design(FANO)
    assert R.class_size == 1 and R.quotient == FANO


def test_reduce_design_partition_violation():
    # a uniform 1-design whose identical-incidence classes have unequal sizes
    D = IncidenceStructure(5, [(0, 1, 4), (0, 2, 3), (0, 2, 3), (1, 2, 4), (1, 3, 4)])
    validate_1design(D)
    with pytest.raises(PartitionViolation):
        reduce_design(D)


def test_write_read_roundtrip(tmp_path):
    path = tmp_path / "fano.design"
    params = validate_1design(FANO)
    write_design(path, FANO, params, comments=["projective plane of order 2"])
    D, dp = read_design(path)
    assert D == FANO and dp == DesignParams(1, 7, 7, 3, 3)


def test_read_without_params_and_with_multiplicity(tmp_path):
    path = tmp_path / "d.design"
    D0 = IncidenceStructure(3, [(0, 1), (0, 1), (1, 2)])
    write_design(path, D0)
    D, dp = read_design(path)
    assert dp is None and D.b == 3 and D.table.mult.tolist() == [2, 1]


def test_read_rejects_malformed(tmp_path):
    path = tmp_path / "bad.design"
    path.write_text("blocks 3 1\n0 1\n")
    with pytest.raises(ValueError):
        read_design(path)
    path.write_text("design 3 2\n0 1\n")
    with pytest.raises(ValueError):
        read_design(path)
    path.write_text("# nothing\n")
    with pytest.raises(ValueError):
        read_design(path)
    # a header of -1 blocks once took the missing params line for present
    for header in ("design 0 -1\n\n", "design 3 0\n1 1 1\n"):
        path.write_text(header)
        with pytest.raises(ValueError):
            read_design(path)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_dual_involution_property(data):
    v = data.draw(st.integers(2, 6))
    nb = data.draw(st.integers(1, 6))
    blocks = [
        tuple(sorted(data.draw(st.sets(st.integers(0, v - 1), min_size=1, max_size=v))))
        for _ in range(nb)
    ]
    D = IncidenceStructure(v, blocks)
    covered = {p for blk in blocks for p in blk}
    if len(covered) < v:
        with pytest.raises(ValueError):
            dual_design(D)
        return
    assert dual_design(dual_design(D)) == D


def _random_structure(rng):
    """v and a block list: cyclic 1-designs and random ragged blocks, with
    repeated blocks, points blown up into twin classes (now and then of
    unequal sizes), a point in no block, and now and then an empty,
    out-of-range or repeated-point block."""
    m = rng.randrange(1, 7)
    if rng.random() < 0.5:
        base = rng.sample(range(m), rng.randrange(1, m + 1))
        blocks = [[(p + i) % m for p in base] for i in range(m)] * rng.randrange(1, 3)
    else:
        blocks = [rng.sample(range(m), rng.randrange(1, m + 1)) for _ in range(rng.randrange(1, 7))]
        blocks += rng.sample(blocks, rng.randrange(len(blocks) + 1))
    s = rng.randrange(1, 4)
    copies = [s + (rng.random() < 0.1) for _ in range(m)]
    starts = [sum(copies[:p]) for p in range(m)]
    v = sum(copies)
    label = rng.sample(range(v), v)
    blocks = [[label[starts[p] + j] for p in blk for j in range(copies[p])] for blk in blocks]
    for blk in blocks:
        rng.shuffle(blk)
    v += rng.random() < 0.2
    if rng.random() < 0.15:
        bad = rng.choice([[], [v], [-1, 0], [0, 0], [v - 1, v - 1]])
        blocks.insert(rng.randrange(len(blocks) + 1), bad)
    return v, blocks


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except (DesignForgeError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None), getattr(exc, "counts", None)


def _reduced(D, params=None):
    R = reduce_design(D, params)
    assert all(type(p) is int for c in R.classes for p in c)
    return R.classes, R.labels.tolist(), R.quotient.blocks, R.params


# error messages the random structures must meet
_CASES = ("empty block", "out of range", "repeated point", "I-class sizes vary", "does not divide", "quotient parameters")


def test_rows_match_tuple_oracles():
    # the row arithmetic of design.py against the tuple loops it replaced
    rng = Random(14)
    seen = Counter()
    for _ in range(600):
        v, blocks = _random_structure(rng)
        expected = _outcome(structure_blocks, v, blocks)
        got = _outcome(IncidenceStructure, v, blocks)
        if expected[0] != "ok":
            assert got == expected
            seen[next(c for c in _CASES if c in expected[1])] += 1
            continue
        D = got[1]
        assert (D.v, D.b, D.blocks) == (v, len(blocks), expected[1])
        assert (D.table.rows.tolist(), D.table.mult.tolist()) == block_table_by_sorting(D)
        seen["repeated blocks"] += D.table.mult.max() > 1
        seen["ragged"] += len(set(map(len, D.blocks))) > 1
        params = _outcome(validate_1design, D)
        assert params == _outcome(validate_1design_by_tuples, D)
        if params[0] == "ok":
            assert all(type(x) is int for x in dataclasses.astuple(params[1]))
            assert point_degrees(D) == [params[1].lam] * v
        dual = _outcome(dual_design, D)
        if dual[0] == "ok":
            dual = "ok", dual[1].blocks
            assert dual[1] == [tuple(lst) for lst in incidence_lists(D)]
        assert dual == _outcome(dual_by_tuples, D)
        reduced = _outcome(_reduced, D)
        assert reduced == _outcome(reduce_by_tuples, D)
        seen["twins" if reduced[0] == "ok" and len(reduced[1][0][0]) > 1 else reduced[0]] += 1
        # parameters that need not fit D reach the later checks of the reduction
        other = DesignParams(1, v, D.b, rng.randrange(1, 5), rng.randrange(1, 3))
        if params[0] == "ok" and rng.random() < 0.5:
            other = params[1]
        reduced = _outcome(_reduced, D, other)
        assert reduced == _outcome(reduce_by_tuples, D, other)
        seen[next(c for c in _CASES if c in reduced[1]) if reduced[0] is PartitionViolation else reduced[0]] += 1
        for t in range(1, min(3, *map(len, D.blocks)) + 1):
            lam = _outcome(t_design_lambda, D, t)
            assert lam == _outcome(t_design_lambda_by_tuples, D, t)
            seen[lam[0]] += 1
    met = {"repeated blocks", "ragged", "twins", NonUniformBlockSize, NonUniformReplication, NotTDesign}
    assert met | set(_CASES) <= set(+seen), seen
