import pytest

from designforge import casestudies
from designforge.atlas import (
    build_alternating,
    build_psl2,
    embed_pgl2,
    normalizer_of_cyclic,
    point_stabilizer_subgroup,
)
from designforge.autsearch import aut_group
from designforge.casestudies import (
    claim,
    class_stabilizer_report,
    mathieu_design,
    run_coset_orbit_family,
    run_mathieu_row,
    run_psl_family,
    run_small_designs,
    stab_claims,
)
from designforge.construct import coset_action, method1_design, method2_design
from designforge.design import DesignParams, dual_design, reduce_design
from designforge.group import PermGroup, element_of_order
from designforge.perm import Permutation


def test_claim_shape():
    c = claim("x", 1, 1)
    assert c["pass"] and c["claim"] == "x"
    assert not claim("y", 1, 2)["pass"]


def test_psl_family_q3_all_claims_pass():
    report = run_psl_family(3)
    records = report["records"]
    # both embedded copies, three element orders each
    assert len(records) == 6
    assert {r.variant for r in records} == {"squared", "non-squared"}
    for rec in records:
        assert all(c["pass"] for c in rec.claims), [c for c in rec.claims if not c["pass"]]


def test_psl_family_q3_known_parameters():
    report = run_psl_family(3)
    by_kind = {r.kind: r for r in report["records"] if r.variant == "squared"}
    inv, unip, ss = by_kind["involution"], by_kind["unipotent"], by_kind["semisimple"]
    assert inv.design_params == DesignParams(1, 45, 15, 9, 3)
    assert inv.i_size == 3 and inv.s_order == 24
    assert unip.design_params == DesignParams(1, 40, 15, 8, 3)
    assert unip.i_size == 2 and unip.s_order == 18
    # the disputed remark is reported, never asserted
    assert unip.notes["claimed_borel_order"] == 36
    assert unip.notes["observed_stab_order"] == 18
    # order-4 semisimple class with replication 1: the intersection class
    # degenerates to a whole block
    assert ss.g_order == 4
    assert ss.design_params == DesignParams(1, 90, 15, 6, 1)
    assert ss.i_size == 6
    assert ss.reduced_params == DesignParams(1, 15, 15, 1, 1)


def test_psl_family_variants_agree():
    report = run_psl_family(3)
    keyed = {}
    for rec in report["records"]:
        keyed.setdefault((rec.kind, rec.g_order), []).append(rec)
    for pair in keyed.values():
        assert len(pair) == 2
        a, b = pair
        assert a.design_params == b.design_params
        assert a.i_size == b.i_size and a.perm_char == b.perm_char


def test_stabilizer_report_psl29_involution():
    G = build_psl2(9)
    M = embed_pgl2(3, "squared")
    dsn = method2_design(G, M, element_of_order(M, 2))
    rep = class_stabilizer_report(dsn)
    assert rep.i_size == 3
    assert rep.centralizer_order == 8
    assert rep.s_order == 24
    assert rep.a_strategy == "element-intersection"
    assert rep.a_order == 4
    assert rep.h_order == 24
    assert all(c["pass"] for c in stab_claims(rep))


@pytest.mark.parametrize("order, a_order", [(2, 2), (5, 10)])
def test_stabilizer_report_point_stabilizer_recipe_of_other_group(order, a_order):
    # Stab_PSL(2,5)(0) carries a point-stabilizer recipe but is not Stab_A6(0),
    # so A_x must come from the conjugates of M, not from x's fixed points
    G = build_alternating(6)
    M = point_stabilizer_subgroup(build_psl2(5), 0)
    rep = class_stabilizer_report(method2_design(G, M, element_of_order(M, order)))
    assert rep.a_strategy == "element-intersection"
    assert rep.a_order == a_order
    assert rep.class_meet_ok
    assert all(c["pass"] for c in stab_claims(rep))


def test_stabilizer_report_intransitive_point_stabilizer():
    # G = S3 x S2 on {0,1,2} and {3,4}, M = Stab(0), x = (1 2): of the
    # conjugates Stab(0), Stab(1), Stab(2) only M contains x, so A_x = M,
    # though x also fixes 3 and 4
    G = PermGroup([Permutation.from_cycles(5, c) for c in ([(0, 1, 2)], [(0, 1)], [(3, 4)])], 5)
    M = point_stabilizer_subgroup(G, 0)
    rep = class_stabilizer_report(method2_design(G, M, Permutation.from_cycles(5, [(1, 2)])))
    assert rep.a_strategy == "pointwise-stabilizer"
    assert rep.a_order == M.order() == 4
    assert all(c["pass"] for c in stab_claims(rep))


def test_stabilizer_report_point_stabilizer_strategy():
    G = build_psl2(9)
    M = point_stabilizer_subgroup(G, 0)
    dsn = method2_design(G, M, element_of_order(M, 2))
    rep = class_stabilizer_report(dsn)
    assert rep.a_strategy == "pointwise-stabilizer"
    assert all(c["pass"] for c in stab_claims(rep))


def test_mathieu_design_rejects_unknown_row():
    with pytest.raises(ValueError):
        mathieu_design(22, 5)


def test_mathieu_row_22_involution():
    row = run_mathieu_row(22, 2)
    assert row.design_params == DesignParams(1, 1155, 22, 315, 6)
    assert row.i_size == 15
    assert (row.dual_params.v, row.dual_params.b, row.dual_params.k) == (22, 77, 6)
    assert row.t == 3 and row.lambda_t == 1
    assert row.aut_complete and row.aut_order == 887040
    assert row.block_stab_order == 5760
    assert all(c["pass"] for c in row.claims), [c for c in row.claims if not c["pass"]]


def test_mathieu_row_incomplete_budget_fallback():
    row = run_mathieu_row(22, 2, aut_budget=3)
    assert not row.aut_complete
    names = {c["claim"] for c in row.claims}
    assert "group-embeds-in-dual-aut" in names
    assert all(c["pass"] for c in row.claims), [c for c in row.claims if not c["pass"]]


@pytest.fixture(scope="module")
def design_22_3():
    return mathieu_design(22, 3)


def test_mathieu_row_22_order_three(design_22_3):
    # the dual-block stabilizer and the imprimitivity of the dual blocks,
    # both read through the dual's block table
    row = run_mathieu_row(22, 3, design=design_22_3)
    assert row.aut_complete and row.aut_order == 887040
    assert row.block_stab_order == 72 and row.block_transitive
    assert row.imprimitivity_cells == 1540
    assert all(c["pass"] for c in row.claims), [c for c in row.claims if not c["pass"]]


def test_seeded_search_takes_fewer_nodes(design_22_3):
    # the acting group seeds the search: the same orders from fewer nodes,
    # on the (22,3) dual and on each of the 13 PSL(2,27) coset designs
    R = reduce_design(design_22_3.design, design_22_3.params)
    T = dual_design(R.quotient)
    G_dual = PermGroup([Permutation(col.tolist()) for col in design_22_3.block_images], T.v)
    seeded, plain = aut_group(T, known=G_dual), aut_group(T)
    assert seeded.order == plain.order == 887040
    assert seeded.nodes < plain.nodes
    G = build_psl2(27)
    ca = coset_action(G, normalizer_of_cyclic(G, element_of_order(G, 13)))
    for i in range(13):
        D = method1_design(ca.group, 0, orbit_size=13, orbit_index=i).design
        seeded, plain = aut_group(D, known=ca.group), aut_group(D)
        assert seeded.order == plain.order and seeded.nodes < plain.nodes


def test_coset_orbit_family_census():
    report = run_coset_orbit_family(sample=2)
    assert report["orbit_census"] == {1: 1, 13: 13, 26: 8}
    assert report["normalizer_order"] == 26
    assert report["frobenius_normalizes"]
    assert sum(report["frobenius_lifts"]) == 1
    assert all(c["pass"] for c in report["claims"]), [c for c in report["claims"] if not c["pass"]]
    assert len(report["aut_orders"]) == 2


def test_small_designs():
    out = run_small_designs()
    assert all(c["pass"] for c in out["natural"]["claims"])
    assert all(c["pass"] for c in out["cosets15"]["claims"])
    assert all(c["pass"] for c in out["cosets120"]["claims"])
    assert out["natural"]["aut_order"] == 720
    assert out["cosets15"]["aut_order"] == 20160
    assert "aut_order" not in out["cosets120"]  # stretch not requested


def test_search_node_counts_are_pinned(monkeypatch, design_22_3):
    # the nodes of every automorphism search the examples command and the
    # (22,3) and (24,2) rows run, as recorded before the point signatures
    # were built from each point's incidences; a change of encoding that
    # ranks the points differently would show here
    nodes = []

    def recorded(*args, **kwargs):
        res = aut_group(*args, **kwargs)
        nodes.append(res.nodes)
        return res

    monkeypatch.setattr(casestudies, "aut_group", recorded)
    run_coset_orbit_family()
    assert nodes == [4] * 10 + [8, 4, 4]
    nodes.clear()
    run_small_designs(stretch_budget=10**5)
    assert nodes == [7, 6, 10]
    nodes.clear()
    run_mathieu_row(22, 3, design=design_22_3)
    run_mathieu_row(24, 2)
    assert nodes == [9, 26]
