"""The ten acceptance criteria, one test per criterion.

Each test prints exactly one `CRITERION n: PASS/FAIL` line on the terminal
(bypassing capture) so the outcome is visible in any pytest run.
"""

import time
from math import factorial
from random import Random

import pytest

from designforge.atlas import (
    build_alternating,
    build_pgammal2,
    build_psl2,
    build_symmetric,
    diagonal_map_on_projline,
    embed_pgl2,
    frobenius_on_projline,
    normalizer_of_cyclic,
)
from designforge.autsearch import (
    aut_group,
    lift_test_method1,
    lift_test_method2,
    verify_kernel_quotient,
)
from designforge.casestudies import (
    class_stabilizer_report,
    mathieu_design,
    run_coset_orbit_family,
    run_mathieu_row,
    run_psl_family,
    run_small_designs,
)
from designforge.construct import method1_design, method2_design
from designforge.design import DesignParams, IncidenceStructure, reduce_design
from designforge.group import (
    PermGroup,
    element_of_order,
    orbit_with_stabilizer,
)
from designforge.perm import Permutation
from oracles import incidence_lists, naive_closure, named_action, named_row, oracle_aut_order

MATHIEU_KEYS = [(24, 2), (24, 3), (23, 2), (23, 3), (22, 2), (22, 3)]


def report(capsys, num, description, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            desc = description() if callable(description) else description
            print("CRITERION %2d: FAIL — %s" % (num, desc))
        raise
    with capsys.disabled():
        desc = description() if callable(description) else description
        print("CRITERION %2d: PASS — %s" % (num, desc))


def claims_by_name(claims):
    return {c["claim"]: c for c in claims}


# -- shared heavy fixtures -----------------------------------------------------


@pytest.fixture(scope="module")
def ex46():
    t0 = time.monotonic()
    G = build_psl2(9)
    M = embed_pgl2(3, "squared")
    g = element_of_order(M, 2)
    design = method2_design(G, M, g)
    R = reduce_design(design.design, design.params)
    return {"design": design, "R": R, "seconds": time.monotonic() - t0}


@pytest.fixture(scope="module")
def ex46_quotient(ex46):
    t0 = time.monotonic()
    rep = verify_kernel_quotient(ex46["design"].design, ex46["R"])
    return {"report": rep, "seconds": time.monotonic() - t0}


@pytest.fixture(scope="module")
def mathieu_data():
    out = {}
    for n, o in MATHIEU_KEYS:
        t0 = time.monotonic()
        design = mathieu_design(n, o)
        row = run_mathieu_row(n, o, aut_budget=10**7, design=design)
        out[(n, o)] = {
            "design": design,
            "row": row,
            "seconds": time.monotonic() - t0,
        }
    return out


@pytest.fixture(scope="module")
def psl_designs():
    """All Method-2 designs for q in {3, 5}, both embedded subgroup copies,
    one representative per admissible element order."""
    t0 = time.monotonic()
    designs = {}
    for q in (3, 5):
        G = build_psl2(q * q)
        orders = [2, q] + sorted(
            d for m in (q - 1, q + 1) for d in range(3, m + 1) if m % d == 0
        )
        for variant in ("squared", "non-squared"):
            M = embed_pgl2(q, variant)
            for d in orders:
                g = element_of_order(M, d)
                designs[(q, variant, d)] = method2_design(G, M, g)
    return {"designs": designs, "seconds": time.monotonic() - t0}


@pytest.fixture(scope="module")
def psl_families():
    t0 = time.monotonic()
    fams = {q: run_psl_family(q) for q in (3, 5)}
    return {"families": fams, "seconds": time.monotonic() - t0}


@pytest.fixture(scope="module")
def coset_family():
    return run_coset_orbit_family(aut_budget=10**6)


@pytest.fixture(scope="module")
def small_designs():
    return run_small_designs(aut_budget=10**6, stretch_budget=2 * 10**5)


# -- the criteria ---------------------------------------------------------------


def test_criterion_01(capsys, ex46):
    def body():
        design, R = ex46["design"], ex46["R"]
        assert design.params == DesignParams(1, 45, 15, 9, 3)
        assert design.design.b == 15
        assert R.class_size == 3
        assert R.params == DesignParams(1, 15, 15, 3, 3)
        assert ex46["seconds"] < 5.0, "construction took %.1fs" % ex46["seconds"]

    report(
        capsys, 1,
        "conjugacy-class design from PSL(2,9): 1-(45,9,3), 15 blocks, "
        "|I|=3, quotient 1-(15,3,3)",
        body,
    )


def test_criterion_02(capsys, ex46_quotient):
    def body():
        rep = ex46_quotient["report"]
        assert rep.complete
        assert rep.aut_quotient.order == 720
        assert rep.aut_full.order == 6**15 * 720
        assert rep.product_ok and rep.quotient_lifts_ok and rep.kernel_fixes_blocks
        assert ex46_quotient["seconds"] < 60.0, (
            "search took %.1fs" % ex46_quotient["seconds"]
        )

    report(
        capsys, 2,
        "quotient identity |Aut(D)| = 6^15 * |Aut(D_I)| with |Aut(D_I)| = 720",
        body,
    )


def test_criterion_03(capsys, mathieu_data):
    def body():
        expected = {
            (24, 2): (15, (24, 759, 8), 5, 1),
            (24, 3): (2, (24, 113344, 6), 5, 16),
            (23, 2): (15, (23, 253, 7), 4, 1),
            (23, 3): (2, (23, 28336, 5), 4, 16),
            (22, 2): (15, (22, 77, 6), 3, 1),
            (22, 3): (2, (22, 6160, 4), 3, 16),
        }
        for key in MATHIEU_KEYS:
            row = mathieu_data[key]["row"]
            i, dual, t, lam = expected[key]
            assert row.i_size == i, key
            assert (row.dual_params.v, row.dual_params.b, row.dual_params.k) == dual, key
            assert (row.t, row.lambda_t) == (t, lam), key
            assert mathieu_data[key]["seconds"] < 600, (
                "%s took %.0fs" % (key, mathieu_data[key]["seconds"])
            )

    report(
        capsys, 3,
        "all six Mathieu rows: |I| in {15,2}; duals are the 5-/4-/3-designs "
        "on 24/23/22 points with exact lambda_t",
        body,
    )


def test_criterion_04(capsys, mathieu_data):
    flag = {"fallback": False}

    def body():
        expected = {24: 244823040, 23: 10200960, 22: 887040}
        small = {(24, 2), (23, 2), (22, 2)}
        for key in MATHIEU_KEYS:
            row = mathieu_data[key]["row"]
            if row.aut_complete:
                assert row.aut_order == expected[key[0]], key
            else:
                assert key not in small, "small row must complete: %r" % (key,)
                flag["fallback"] = True
                names = claims_by_name(row.claims)
                assert names["group-embeds-in-dual-aut"]["pass"], key
                assert names["group-transitive-on-dual-points"]["pass"], key
                assert names["group-order-divides-dual-aut"]["pass"], key

    def describe():
        suffix = (
            " (structural fallback engaged on budget-bound rows)"
            if flag["fallback"]
            else ""
        )
        return "dual automorphism orders 244823040 / 10200960 / 887040" + suffix

    report(capsys, 4, describe, body)


def test_criterion_05(capsys, mathieu_data):
    def body():
        expected = {
            (24, 2): 322560, (24, 3): 2160,
            (23, 2): 40320, (23, 3): 360,
            (22, 2): 5760, (22, 3): 72,
        }
        for key in MATHIEU_KEYS:
            row = mathieu_data[key]["row"]
            assert row.block_stab_order == expected[key], key
            assert row.block_transitive, key

    report(
        capsys, 5,
        "dual-block stabilizer orders 322560/2160/40320/360/5760/72 "
        "via orbit-stabilizer",
        body,
    )


def test_criterion_06(capsys, psl_designs, mathieu_data):
    def body():
        cases = list(psl_designs["designs"].items()) + [
            (key, mathieu_data[key]["design"]) for key in MATHIEU_KEYS
        ]
        for key, design in cases:
            rep = class_stabilizer_report(design, compute_h=False)
            assert rep.product_ok, (key, rep)
            assert rep.orbit_is_class, (key, rep)
            assert rep.centralizer_contained, (key, rep)
            assert rep.a_order is not None, (key, rep.a_strategy)
            assert rep.class_meet_ok, (key, rep)

    report(
        capsys, 6,
        "stabilizer identities |S_x| = |C_G(x)|·|I_x|, x^{S_x} = I_x, "
        "C_G(x) <= S_x, x^{S_x} = A_x ∩ x^G on every class design",
        body,
    )


def test_criterion_07(capsys, psl_families):
    degenerate = []

    def body():
        fams = psl_families["families"]
        for q in (3, 5):
            records = fams[q]["records"]
            assert len(records) == (6 if q == 3 else 10)
            for rec in records:
                bad = [c for c in rec.claims if not c["pass"]]
                assert not bad, (q, rec.variant, rec.kind, bad)
                if rec.kind == "involution":
                    assert rec.i_size == (3 if q == 3 else 1)
                elif rec.kind == "unipotent":
                    assert rec.i_size == q - 1
                elif rec.design_params.lam == 1:
                    # replication 1 forces I_x = the single block through x,
                    # so the inverse-pair form of the reduction cannot hold;
                    # the corrected containment claims were checked above
                    names = claims_by_name(rec.claims)
                    assert "replication-one-class-is-block" in names
                    assert "inverse-pair-inside-class" in names
                    degenerate.append((q, rec.variant, rec.g_order))
                else:
                    names = claims_by_name(rec.claims)
                    assert names["intersection-class-is-inverse-pair"]["pass"]
        assert psl_families["seconds"] < 120, (
            "families took %.0fs" % psl_families["seconds"]
        )

    def describe():
        suffix = (
            " [flag: inverse-pair degenerates to a whole block on the "
            "replication-1 classes %s]" % sorted(set(degenerate))
            if degenerate
            else ""
        )
        return (
            "PSL(2,q^2) class-design parameters and reductions at q=3,5 for both subgroup copies, "
            "replication = coset fixed-point count throughout" + suffix
        )

    report(capsys, 7, describe, body)


def test_criterion_08(capsys, coset_family, small_designs):
    stretch = {}

    def body():
        names = claims_by_name(coset_family["claims"])
        assert names["orbit-census"]["pass"]
        assert coset_family["aut_complete"]
        assert names["aut-order-distribution"]["pass"]
        assert all(c["pass"] for c in small_designs["natural"]["claims"])
        assert all(c["pass"] for c in small_designs["cosets15"]["claims"])
        assert small_designs["natural"]["aut_order"] == 720
        assert small_designs["cosets15"]["aut_order"] == 20160
        assert all(c["pass"] for c in small_designs["cosets120"]["claims"])
        rec = small_designs["cosets120"]
        # the large automorphism order is a stretch goal: report, don't block
        stretch["complete"] = rec.get("aut_complete", False)
        stretch["order"] = rec.get("aut_order")
        if stretch["complete"]:
            assert stretch["order"] == 348364800

    def describe():
        suffix = (
            " [stretch: Aut order %d confirmed]" % stretch["order"]
            if stretch.get("complete")
            else " [stretch Aut search did not finish within budget; non-blocking]"
        )
        return (
            "orbit census {13x13, 8x26} with Aut distribution {12x9828, 1x58968}; "
            "small-design Aut orders 720 and 20160; 1-(120,56,56) parameters"
            + suffix
        )

    report(capsys, 8, describe, body)


def test_criterion_09(capsys, ex46, coset_family):
    def body():
        design = ex46["design"]
        G = design.G
        rng = Random(0)
        for _ in range(100):
            assert lift_test_method2(design, G.random_element(rng))
        assert lift_test_method2(design, frobenius_on_projline(9))
        assert not lift_test_method2(design, diagonal_map_on_projline(9))
        assert not lift_test_method2(
            design, diagonal_map_on_projline(9) * frobenius_on_projline(9)
        )
        # a stabilizer-orbit design: inner maps lift there as well
        A6 = build_alternating(6)
        d1 = method1_design(A6)
        for _ in range(100):
            assert lift_test_method1(d1, A6.random_element(rng))
        # the order-3 field map lifts on exactly one of the thirteen designs,
        # the one with the larger automorphism group
        assert coset_family["frobenius_normalizes"]
        names = claims_by_name(coset_family["claims"])
        assert names["frobenius-lift-count"]["pass"]
        assert names["frobenius-lifts-on-largest-aut"]["pass"]

    report(
        capsys, 9,
        "lift tests: inner maps always lift; the field map lifts on the "
        "PSL(2,9) class design and on exactly one PSL(2,27) orbit design",
        body,
    )


# -- criterion 10 helpers --------------------------------------------------------


def _group_pool():
    def cyc(n):
        return PermGroup([Permutation(list(range(1, n)) + [0])], n)

    def dih(n):
        return PermGroup(
            [Permutation(list(range(1, n)) + [0]), Permutation([(-i) % n for i in range(n)])],
            n,
        )

    pool = [
        cyc(12), dih(9), dih(10), dih(12),
        build_symmetric(4), build_symmetric(5), build_symmetric(6),
        build_alternating(5), build_alternating(6),
        embed_pgl2(3, "squared"), embed_pgl2(3, "non-squared"),
        embed_pgl2(5, "squared"), embed_pgl2(5, "non-squared"),
        build_pgammal2(8), build_pgammal2(9),
    ]
    pool.extend(build_psl2(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13))
    pool.append(normalizer_of_cyclic(build_psl2(27), element_of_order(build_psl2(27), 13)))
    return pool


def _random_structure(rng):
    """A covered incidence structure on <= 12 points whose guaranteed
    symmetry (same-incidence point classes) stays brute-forceable."""
    while True:
        v = rng.randrange(3, 13)
        nb = rng.randrange(2, 8)
        blocks = [set() for _ in range(nb)]
        for p in range(v):
            for b in rng.sample(range(nb), rng.randrange(1, min(nb, 3) + 1)):
                blocks[b].add(p)
        blocks = [tuple(sorted(b)) for b in blocks if b]
        if not blocks:
            continue
        D = IncidenceStructure(v, blocks)
        sig = {}
        for p, lst in enumerate(incidence_lists(D)):
            sig.setdefault(tuple(lst), []).append(p)
        bound = 1
        for cls in sig.values():
            bound *= factorial(len(cls))
        if bound <= 20160:
            return D


def test_criterion_10(capsys):
    def body():
        pool = _group_pool()
        # (a) orbit-stabilizer product identity on 200 random pairs
        rng = Random(1729)
        for _ in range(200):
            G = rng.choice(pool)
            kind = rng.choice(["point", "set", "conj"])
            if kind == "point":
                value = rng.randrange(G.degree)
            elif kind == "set":
                size = rng.randrange(1, G.degree + 1)
                value = tuple(sorted(rng.sample(range(G.degree), size)))
            else:
                value = G.random_element(rng)
            orbit, stab = orbit_with_stabilizer(G, named_row(kind, value), named_action(G, kind))
            assert len(orbit) * stab.order() == G.order(), (getattr(G, "recipe", None), kind, value)
        # (b) membership vs brute-force closure on every pool group <= 5000
        for G in pool:
            if G.order() > 5000:
                continue
            elems = naive_closure(G.gens, G.degree)
            assert len(elems) == G.order(), getattr(G, "recipe", None)
            assert all(x in G for x in elems), getattr(G, "recipe", None)
        # (c) automorphism search vs the independent backtracking oracle
        rng = Random(99)
        for _ in range(1000):
            D = _random_structure(rng)
            assert aut_group(D).order == oracle_aut_order(D), D.blocks

    report(
        capsys, 10,
        "property suites: 200 orbit-stabilizer identities, brute-force "
        "membership on all groups of order <= 5000, automorphism search vs "
        "an independent oracle on 1000 random structures",
        body,
    )
