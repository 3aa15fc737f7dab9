"""Profile fields are the one definition of the shell-move invariant:
``s_equivalent`` verdicts, profile equality and profile hashing all derive
from them.  The hand-written field-by-field decision ``ref_s_equivalent``
(``reference.py``) is the reference the field walk is compared against."""

import random
from collections import Counter

from shellmoves.diagram import GaussDiagram, swap_components
from shellmoves.equiv import s_equivalent
from shellmoves.invariants import linking_data, profile
from shellmoves.moves import random_walk
from shellmoves.normal_form import build_link_form

from conftest import (
    random_canonical_form,
    random_diagram,
    random_link_with_lambda,
)
from reference import ref_s_equivalent


def _base(rng: random.Random) -> GaussDiagram:
    """A knot, a link with lambda in -3..3, or a snail form (possibly with
    its components swapped, which negates lambda)."""
    pick = rng.randrange(4)
    if pick == 0:
        return random_diagram(rng, 1, 8)
    if pick == 1:
        return random_link_with_lambda(rng, rng.randint(-3, 3))
    G = build_link_form(random_canonical_form(rng, rng.randint(0, 3)))
    return swap_components(G) if pick == 3 else G


def _partner(rng: random.Random, G: GaussDiagram,
             pool: list[GaussDiagram]) -> GaussDiagram:
    """A random walk from G, G with one chord's sign flipped, or a random
    earlier diagram with as many circles."""
    pick = rng.randrange(3)
    if pick == 1 and G.signs:
        cid = rng.choice(sorted(G.signs))
        return GaussDiagram({**G.signs, cid: -G.signs[cid]}, G.circles)
    if pick == 2:
        same_mu = [D for D in pool if D.mu == G.mu]
        if same_mu:
            return rng.choice(same_mu)
    H, _ = random_walk(G, rng.randint(1, 8), seed=rng.randrange(10**6),
                       chord_cap=len(G) + 6)
    return H


def test_field_walk_matches_reference_equality_and_hash():
    rng = random.Random(404)
    pool: list[GaussDiagram] = []
    clauses: Counter = Counter()
    for _ in range(3200):
        G = _base(rng)
        H = _partner(rng, G, pool)
        pool.append(G)
        verdict = s_equivalent(G, H)
        assert verdict == ref_s_equivalent(G, H)
        pg, ph = profile(G), profile(H)
        assert (pg == ph) == verdict.equivalent
        if pg == ph:
            assert hash(pg) == hash(ph)
        clauses[verdict.reason.split(" mismatch")[0]] += 1
    # every field, and agreement, is exercised by the mix
    assert set(clauses) == {
        "all conditions met", "writhe polynomial", "virtual linking number",
        "linking number", "component-1 index writhe",
        "component-2 index writhe", "linking class", "shell sum"}


def test_verdicts_are_unchanged_by_swapping_both_components():
    rng = random.Random(405)
    pool: list[GaussDiagram] = []
    lams: Counter = Counter()
    while len(pool) < 1200:
        G = _base(rng)
        if G.mu != 2:
            continue
        H = _partner(rng, G, pool)
        pool.append(G)
        assert s_equivalent(G, H).equivalent == s_equivalent(
            swap_components(G), swap_components(H)).equivalent
        lams[linking_data(G)[2]] += 1
    assert set(range(-3, 4)) <= set(lams)
