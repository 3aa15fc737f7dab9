"""Equivalence decisions, realization, consistency, and the bounded oracle."""

import random
import tracemalloc
from dataclasses import replace

import pytest

from shellmoves.algebra import LaurentPoly
from shellmoves.diagram import isomorphic, parse_gauss_code, swap_components
from shellmoves.equiv import bfs_witness, check_consistency, s_equivalent
from shellmoves.errors import (
    BudgetExceeded,
    ComponentCountMismatch,
    ConstraintViolated,
    NegativeLambda,
    NotRealizable,
    WrongComponentCount,
)
from shellmoves.invariants import profile, writhe_polynomial
from shellmoves.moves import (apply_move, random_walk, site_from_text,
                              site_to_text)
from shellmoves.normal_form import (
    build_link_diagram,
    build_link_form,
    canonical_form,
    encode_snail,
    realize_knot,
    realize_link,
)

from conftest import (assert_link_targets_hit, random_diagram,
                      random_link_targets, random_link_with_lambda)

EMPTY = "circles: 1\ncircle 1:"
FREE = "circles: 1\nchord g +\ncircle 1: g< g>"


def test_equiv_empty_vs_free_chord():
    v = s_equivalent(parse_gauss_code(EMPTY), parse_gauss_code(FREE))
    assert v.equivalent and bool(v)


def test_equiv_distinguishes_snails():
    v = s_equivalent(encode_snail("self", 1, 2), encode_snail("self", 1, 3))
    assert not v.equivalent
    assert "writhe polynomial" in v.reason


def test_equiv_reference_vs_rebuilt(reference_link):
    rebuilt = build_link_form(canonical_form(profile(reference_link)))
    assert s_equivalent(reference_link, rebuilt).equivalent


def test_equiv_component_count_mismatch():
    with pytest.raises(ComponentCountMismatch):
        s_equivalent(parse_gauss_code(EMPTY),
                     parse_gauss_code("circles: 2\ncircle 1:\ncircle 2:"))


def test_equiv_lambda_mismatch():
    A = parse_gauss_code("circles: 2\nchord g +\ncircle 1: g<\ncircle 2: g>")
    B = parse_gauss_code("circles: 2\nchord g -\ncircle 1: g<\ncircle 2: g>")
    v = s_equivalent(A, B)
    assert not v.equivalent and "virtual linking number" in v.reason


def test_negative_lambda_link_is_equivalent_to_its_walk(reference_link):
    A = swap_components(reference_link)
    B, _ = random_walk(A, 20, seed=3, chord_cap=45)
    assert profile(A).lam == -2
    assert s_equivalent(A, B).equivalent


def test_negative_lambda_reason_names_the_component_as_profile_does():
    # the index-5 snail sits on component 1 of A, where invariants lists it
    A = swap_components(build_link_diagram({}, {5: 1}, {0: 2}, {}))
    B = swap_components(build_link_diagram({}, {}, {0: 2}, {}))
    assert profile(A).lam == -2 and profile(A).jn1 == {1: -5, 5: 1}
    assert profile(A).jn2 == {}
    assert s_equivalent(A, B).reason == \
        "component-1 index writhe mismatch at n=5: 1 vs 0"


def test_negative_lambda_reason_prints_linking_numbers_as_profile_does():
    A = swap_components(build_link_diagram({}, {}, {0: 2}, {}))
    B = swap_components(build_link_diagram({}, {}, {0: 3}, {0: 1}))
    pa, pb = profile(A), profile(B)
    assert (pa.lam, pa.lk12, pa.lk21) == (-2, 0, 2)
    assert (pb.lam, pb.lk12, pb.lk21) == (-2, 1, 3)
    assert s_equivalent(A, B).reason == \
        "linking number mismatch: (0, 2) vs (1, 3)"


def test_equiv_reports_first_failing_slot():
    A = build_link_diagram({3: 1}, {}, {0: 1, 1: 1}, {0: 2})
    B = build_link_diagram({3: 2}, {}, {0: 1, 1: 1}, {0: 2})
    v = s_equivalent(A, B)
    assert not v.equivalent
    assert "component-1" in v.reason and "n=3" in v.reason


def test_equiv_linking_class_clause():
    A = build_link_diagram({}, {}, {0: 1, 3: 1}, {0: 2})
    B = build_link_diagram({}, {}, {0: 1, 1: 1}, {0: 2})
    v = s_equivalent(A, B)
    assert not v.equivalent and "linking class" in v.reason


def test_equiv_shell_sum_clause():
    # a self snail at index -1 only touches the shell slots {1, -1} of a
    # lambda = 2 link, so every other clause agrees and the shell sum decides
    A = build_link_diagram({}, {}, {0: 2}, {})
    B = build_link_diagram({-1: 1}, {}, {0: 2}, {})
    va, vb = profile(A), profile(B)
    assert va.invariant_jn1() == vb.invariant_jn1()
    assert va.linking_class == vb.linking_class
    assert va.shell_sum != vb.shell_sum
    v = s_equivalent(A, B)
    assert not v.equivalent and "shell sum" in v.reason


def test_equiv_is_an_equivalence_relation_on_random_diagrams():
    rng = random.Random(61)
    pool = [random_diagram(rng, 2, 5) for _ in range(12)]
    pool += [random_walk(G, 12, seed=i, chord_cap=25)[0]
             for i, G in enumerate(pool)]
    for A in pool:
        assert s_equivalent(A, A).equivalent
    for A in pool:
        for B in pool:
            assert s_equivalent(A, B).equivalent == \
                s_equivalent(B, A).equivalent
    for A in pool:
        for B in pool:
            for C in pool:
                if s_equivalent(A, B).equivalent and \
                        s_equivalent(B, C).equivalent:
                    assert s_equivalent(A, C).equivalent


def test_walked_diagrams_stay_equivalent():
    rng = random.Random(62)
    for run in range(40):
        G = random_diagram(rng, rng.choice((1, 2)), 6)
        H, _ = random_walk(G, 25, seed=run, chord_cap=30)
        assert s_equivalent(G, H).equivalent


# -- realization ---------------------------------------------------------------


def test_realize_knot_zero():
    assert len(realize_knot(LaurentPoly())) == 0


def test_realize_knot_reference_polynomial(reference_knot):
    f = LaurentPoly({-1: 1, 1: -2, 3: 1})
    G = realize_knot(f)
    assert writhe_polynomial(G) == f
    assert s_equivalent(G, reference_knot).equivalent


def test_realize_knot_rejections():
    with pytest.raises(NotRealizable, match="value at 1"):
        realize_knot(LaurentPoly({1: 1}))
    with pytest.raises(NotRealizable, match="derivative at 1"):
        realize_knot(LaurentPoly({1: 2, 0: -2}))


def test_realize_knot_random_targets():
    rng = random.Random(63)
    for _ in range(150):
        a = {n: rng.randint(-3, 3) for n in rng.sample(range(-5, 7), 4)
             if n not in (0, 1)}
        f = LaurentPoly(a)
        f = f + LaurentPoly({1: -f.derivative_at_one()})
        f = f + LaurentPoly({0: -f.eval_at_one()})
        assert f.eval_at_one() == 0 and f.derivative_at_one() == 0
        assert writhe_polynomial(realize_knot(f)) == f


def test_realize_link_all_zero():
    G = realize_link(0, {}, {}, {}, {})
    assert G.mu == 2 and len(G) == 0


def test_realize_link_sum_mismatch_names_clause_a():
    with pytest.raises(ConstraintViolated, match=r"\(a\)"):
        realize_link(0, {}, {}, {0: 1}, {})
    with pytest.raises(ConstraintViolated, match=r"\(a\)"):
        realize_link(2, {}, {}, {0: 1, 1: 1}, {0: 1})


def test_realize_link_huge_lambda_is_rejected_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ConstraintViolated, match=r"\(a\)"):
            realize_link(10 ** 6, {}, {}, {0: 1}, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_realize_link_weight_mismatch_names_clause_b():
    with pytest.raises(ConstraintViolated, match=r"\(b\)"):
        realize_link(0, {2: 1}, {}, {}, {})
    with pytest.raises(ConstraintViolated, match=r"\(b\)"):
        realize_link(3, {2: 1}, {}, {0: 3}, {})


def test_realize_link_negative_lambda():
    with pytest.raises(NegativeLambda):
        realize_link(-2, {}, {}, {}, {})


def test_realize_link_lambda_one_linking_pair():
    G = realize_link(1, {}, {}, {0: 1}, {})
    pr = profile(G)
    assert (pr.lk12, pr.lk21) == (1, 0)
    G = realize_link(1, {}, {}, {0: -2}, {})
    pr = profile(G)
    assert (pr.lk12, pr.lk21) == (-2, -3)


def test_realize_link_lambda_one_rejects_wrong_second_number():
    with pytest.raises(ConstraintViolated, match=r"\(a\)"):
        realize_link(1, {}, {}, {0: 2}, {0: 2})


@pytest.mark.parametrize("lam", [0, 1, 2, 3])
def test_realize_link_random_targets_reprofile_exactly(lam):
    rng = random.Random(64 + lam)
    for _ in range(60):
        assert_link_targets_hit(lam, *random_link_targets(rng, lam))


# -- consistency ------------------------------------------------------------------


def test_consistency_holds_on_random_diagrams():
    rng = random.Random(65)
    for _ in range(250):
        lam = rng.choice([0, 0, 2, 3, -2])
        pr = profile(random_link_with_lambda(rng, lam))
        assert check_consistency(pr)


def test_consistency_breaks_under_derivative_tweak():
    pr = profile(build_link_diagram({}, {}, {0: 1, 2: -1}, {1: 0}))
    assert pr.lam == 0
    assert not check_consistency(replace(pr, f_prime=pr.f_prime + 1))


def test_consistency_is_mod_lambda(reference_link):
    pr = profile(reference_link)
    assert check_consistency(pr)
    assert check_consistency(replace(pr, f_prime=pr.f_prime + pr.lam))
    assert not check_consistency(replace(pr, f_prime=pr.f_prime + 1))


def test_consistency_undefined_for_unit_lambda():
    G = parse_gauss_code("circles: 2\nchord g +\ncircle 1: g<\ncircle 2: g>")
    with pytest.raises(ValueError):
        check_consistency(profile(G))


def test_consistency_needs_a_link_profile(reference_knot):
    with pytest.raises(WrongComponentCount,
                       match="^consistency needs a 2-circle profile$"):
        check_consistency(profile(reference_knot))


# -- bounded oracle ----------------------------------------------------------------


def test_witness_identity_is_empty_trace():
    G = parse_gauss_code(FREE)
    assert bfs_witness(G, G, 6, 8) == []


def test_witness_free_chord_to_empty():
    A, B = parse_gauss_code(FREE), parse_gauss_code(EMPTY)
    tr = bfs_witness(A, B, 6, 8)
    assert tr is not None and len(tr) == 1 and tr[0].kind == "R1_delete"
    tr2 = bfs_witness(B, A, 6, 8)
    assert tr2 is not None and len(tr2) == 1 and tr2[0].kind == "R1_insert"


def test_witness_one_shell_swap_found_within_depth_two():
    G = encode_snail("self", 1, 2)
    H, trace = random_walk(G, 1, seed=4, chord_cap=8)
    assert trace[0].kind == "S2_insert"
    tr = bfs_witness(G, H, 2, 8, node_budget=50000)
    assert tr is not None and 1 <= len(tr) <= 2
    cur = G
    for site in tr:
        cur = apply_move(cur, site)
    assert isomorphic(cur, H)


# G = a< b< a> b> (a +, b -) and H = G plus a TI kink t> t<: H is one
# deletion from G, but the finders list R1 insertions only as IT, so from G
# it takes this macro, a tfirst R2 insertion and a deletion (a finder that
# also listed TI would make it one move)
TI_KINK_MACRO = {"+": "R2_insert @ 1:0 1:0 anti - tfirst\nR1_delete @ 1:1",
                 "-": "R2_insert @ 1:0 1:0 anti + tfirst\nR1_delete @ 1:1"}


@pytest.mark.parametrize("sign", ["+", "-"])
def test_a_ti_kink_is_one_deletion_away_but_two_moves_to_insert(sign):
    G = parse_gauss_code("circles: 1\nchord a +\nchord b -\n"
                         "circle 1: a< b< a> b>")
    H = parse_gauss_code("circles: 1\nchord a +\nchord b -\n"
                         f"chord t {sign}\ncircle 1: a< b< a> b> t> t<")
    assert bfs_witness(G, H, 1, 4) is None
    assert [site_to_text(s) for s in bfs_witness(H, G, 1, 3)] == [
        "R1_delete @ 1:4"]
    trace = bfs_witness(G, H, 2, 5)
    assert "\n".join(map(site_to_text, trace)) == TI_KINK_MACRO[sign]
    cur = G
    for line in TI_KINK_MACRO[sign].splitlines():
        cur = apply_move(cur, site_from_text(line))
    assert isomorphic(cur, H)


def test_witness_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        bfs_witness(encode_snail("self", 1, 2), encode_snail("self", 1, 3),
                    6, 8, node_budget=50)


def test_witness_none_when_graph_exhausted():
    # cap at the current size and forbid growth: from a free chord only the
    # empty diagram is reachable, so a 2-chord target is out of reach
    A = parse_gauss_code(FREE)
    B = parse_gauss_code(
        "circles: 1\nchord g +\nchord h -\ncircle 1: g< h< g> h>")
    assert bfs_witness(A, B, 4, 1, node_budget=10000) is None


def test_witness_rejects_cap_below_start_size():
    # deletions alone join the pair, but the start is already over the cap
    A = parse_gauss_code("circles: 1\nchord x +\nchord y -\n"
                         "circle 1: x< x> y< y>")
    B = parse_gauss_code(EMPTY)
    with pytest.raises(ValueError, match="chord_cap below current chord count"):
        bfs_witness(A, B, 3, 1)
    assert [s.kind for s in bfs_witness(A, B, 3, 2)] == ["R1_delete"] * 2


def test_witness_mu_mismatch():
    with pytest.raises(ComponentCountMismatch):
        bfs_witness(parse_gauss_code(EMPTY),
                    parse_gauss_code("circles: 2\ncircle 1:\ncircle 2:"), 2, 4)


def test_witness_traces_connect_equivalent_diagrams_only():
    rng = random.Random(66)
    pool = [parse_gauss_code(EMPTY), parse_gauss_code(FREE),
            encode_snail("self", 1, 1), encode_snail("self", -1, 1),
            encode_snail("self", 1, 2)]
    for A in pool:
        for B in pool:
            try:
                tr = bfs_witness(A, B, 3, 6, node_budget=4000)
            except BudgetExceeded:
                continue
            if tr is None:
                continue
            assert s_equivalent(A, B).equivalent
            cur = A
            for site in tr:
                cur = apply_move(cur, site)
            assert isomorphic(cur, B)
