"""Acceptance suite: one test per shipping criterion, exact tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one status line per
criterion.
"""

import random
import time

from shellmoves.algebra import LaurentPoly, gamma_class
from shellmoves.diagram import isomorphic, parse_gauss_code
from shellmoves.equiv import bfs_witness, check_consistency, s_equivalent
from shellmoves.errors import BudgetExceeded, ConstraintViolated, NotRealizable
from shellmoves.invariants import profile, writhe_polynomial
from shellmoves.moves import apply_move, random_walk
from shellmoves.normal_form import (
    build_knot_form,
    build_link_form,
    canonical_form,
    realize_knot,
    realize_link,
)

from conftest import (
    REFERENCE_KNOT_CODE,
    REFERENCE_LINK_SNAILS,
    assert_link_targets_hit,
    chord_type,
    link_from_snails,
    pool_pairs,
    random_canonical_form,
    random_diagram,
    random_link_targets,
    random_link_with_lambda,
)
from reference import ref_nonself_writhe_tables


def _report(n, text):
    print(f"\ncriterion {n}: PASS ({text})")


def test_criterion_1_reference_link_writhes():
    t0 = time.time()
    G = link_from_snails(**REFERENCE_LINK_SNAILS)
    pr = profile(G)
    assert (pr.lk12, pr.lk21) == (3, 1)
    assert pr.lam == 2
    assert pr.invariant_jn1() == {2: 2, 3: -1}
    assert pr.invariant_jn2() == {-1: 2}
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, f"reference link invariants exact, {elapsed:.3f}s")


def test_criterion_2_reference_link_linking_class():
    t0 = time.time()
    G = link_from_snails(**REFERENCE_LINK_SNAILS)
    # the undressed chord from circle 1 to circle 2 gives the book tables
    gamma0 = next(c for c in G.signs if chord_type(G, c) == (1, 2)
                  and f"{c}s1" not in G.signs)
    t12, t21 = ref_nonself_writhe_tables(G, gamma0)
    assert t12 == {-1: 1, 0: 1, 4: 1}
    assert t21 == {2: 2, 3: -1}
    want = gamma_class(2, LaurentPoly({-1: 1, 0: 1, 4: 1}),
                       LaurentPoly({2: 2, 3: -1}))
    assert profile(G).linking_class == want
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(2, f"nonself index tables and twist class exact, {elapsed:.3f}s")


def test_criterion_3_reference_knot():
    t0 = time.time()
    G = parse_gauss_code(REFERENCE_KNOT_CODE)
    pr = profile(G)
    assert pr.writhe == LaurentPoly({-1: 1, 1: -2, 3: 1})
    assert pr.odd_writhe == 0
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(3, f"five-chord knot writhe polynomial exact, {elapsed:.3f}s")


def test_criterion_4_move_invariance_fuzz():
    t0 = time.time()
    rng = random.Random(2024)
    runs = 0
    for mu in (1, 2):
        for _ in range(500):
            G = random_diagram(rng, mu, 12)
            before = profile(G)
            H, trace = random_walk(G, 30, seed=rng.randrange(10**9),
                                   chord_cap=40)
            assert len(trace) == 30
            assert profile(H) == before
            runs += 1
    elapsed = time.time() - t0
    assert runs == 1000 and elapsed < 60.0
    _report(4, f"{runs} random 30-step walks preserve the profile, "
            f"{elapsed:.1f}s")


def test_criterion_5_knot_writhe_identities():
    rng = random.Random(2025)
    for _ in range(500):
        G = random_diagram(rng, 1, 10)
        pr = profile(G)
        assert pr.writhe.eval_at_one() == 0
        assert pr.writhe.derivative_at_one() == 0
        J = pr.n_writhes
        assert J.get(1, 0) == -sum(n * v for n, v in J.items() if n != 1)
    _report(5, "500 random knots satisfy the writhe identities exactly")


def test_criterion_6_linking_consistency():
    rng = random.Random(2026)
    for lam_choices in ([0], [2, 3, -2, -3]):
        for _ in range(500):
            G = random_link_with_lambda(rng, rng.choice(lam_choices))
            assert check_consistency(profile(G))
    _report(6, "consistency congruence holds on 500 random links per regime")


def test_criterion_7_normal_form_roundtrip():
    rng = random.Random(2027)
    for lam in (0, 1, 2, 3):
        for _ in range(500):
            sf = random_canonical_form(rng, lam)
            assert canonical_form(profile(build_link_form(sf))) == sf
    for _ in range(500):
        a = {n: rng.randint(-3, 3) for n in rng.sample(range(-6, 8), 4)
             if n not in (0, 1)}
        a = {n: v for n, v in a.items() if v}
        pr = profile(build_knot_form(a))
        assert canonical_form(pr).a == a
        assert pr.n_writhes.get(1, 0) == -sum(n * v for n, v in a.items())
    _report(7, "500 canonical snail forms per regime round-trip exactly")


def test_criterion_8_oracle_concordance():
    t0 = time.time()
    found = missed = skipped = 0
    for A, B in pool_pairs():
        expected = s_equivalent(A, B).equivalent
        try:
            trace = bfs_witness(A, B, 6, 8, node_budget=9000)
        except BudgetExceeded:
            skipped += 1
            continue
        if trace is None:
            missed += expected  # absence certified, soft log only
            continue
        # hard requirement: a found trace implies equivalence...
        assert expected, "oracle found a path between distinct classes"
        # ...and replays to the target
        cur = A
        for site in trace:
            cur = apply_move(cur, site)
        assert isomorphic(cur, B)
        found += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(8, f"{found} witnesses replayed, {skipped} budget-capped, "
            f"{missed} certified-absent logged, {elapsed:.1f}s")


def test_criterion_9_realization():
    rng = random.Random(2028)
    # 200 valid targets per constructor, re-profiled exactly
    for _ in range(200):
        assert_link_targets_hit(0, *random_link_targets(rng, 0))
    for _ in range(200):
        assert_link_targets_hit(1, *random_link_targets(rng, 1))
    for _ in range(200):
        lam = rng.choice((2, 3, 4))
        assert_link_targets_hit(lam, *random_link_targets(rng, lam))
    for _ in range(200):
        raw = {n: rng.randint(-3, 3) for n in rng.sample(range(-6, 8), 4)}
        f = LaurentPoly(raw)
        f = f + LaurentPoly({1: -f.derivative_at_one()})
        f = f + LaurentPoly({0: -f.eval_at_one()})
        assert writhe_polynomial(realize_knot(f)) == f
    # 50 violating targets per constructor, rejected naming the clause
    for _ in range(50):
        a, b, c, d = random_link_targets(rng, 0)
        c[0] = c.get(0, 0) + 1
        try:
            realize_link(0, a, b, c, d)
            raise AssertionError("unbalanced sums accepted")
        except ConstraintViolated as e:
            assert "(a)" in str(e)
    for _ in range(50):
        a, b, c, d = random_link_targets(rng, 1)
        d = {0: c.get(0, 0)}  # second number must be one less
        try:
            realize_link(1, a, b, c, d)
            raise AssertionError("wrong second linking number accepted")
        except ConstraintViolated as e:
            assert "(a)" in str(e)
    for _ in range(50):
        lam = rng.choice((2, 3, 4))
        a, b, c, d = random_link_targets(rng, lam)
        a[1] = a.get(1, 0) + 1  # shifts the weighted total off 0 mod lam
        try:
            realize_link(lam, a, b, c, d)
            raise AssertionError("broken congruence accepted")
        except ConstraintViolated as e:
            assert "(b)" in str(e)
    for _ in range(25):
        f = LaurentPoly({rng.randint(-4, 4): rng.randint(1, 3)})
        try:
            realize_knot(f)
            raise AssertionError("nonzero value at 1 accepted")
        except NotRealizable as e:
            assert "value at 1" in str(e)
    for _ in range(25):
        n = rng.choice([n for n in range(-4, 5) if n != 0])
        f = LaurentPoly({n: 1, 0: -1})  # value 0, derivative n
        try:
            realize_knot(f)
            raise AssertionError("nonzero derivative at 1 accepted")
        except NotRealizable as e:
            assert "derivative at 1" in str(e)
    _report(9, "200 valid + 50 rejected targets per constructor, exact")
