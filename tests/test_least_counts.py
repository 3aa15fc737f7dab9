"""Each move kind's least counts of chords, positive chords and negative
chords, and the witness search's per-signature plans that read them: a
diagram short of a kind's least counts holds no site of that kind, each
least count is reached, and the search never leaves out a kind that has a
site within the chord cap."""

import random

import pytest

from shellmoves import equiv
from shellmoves.diagram import parse_gauss_code
from shellmoves.equiv import bfs_witness
from shellmoves.errors import BudgetExceeded
from shellmoves.moves import (MOVE_KINDS, count_move_sites, find_move_sites,
                              fits, least_counts, random_walk)

from conftest import (CENSUS, census_classes, least_budget, oracle_pool,
                      pool_pairs)
from reference import ref_bfs_witness

LEAST = {"R1_insert": (0, 0, 0), "R1_delete": (1, 0, 0),
         "R2_insert": (0, 0, 0), "R2_delete": (2, 1, 1),
         "R3": (3, 1, 2), "S1": (2, 0, 0),
         "S2_insert": (2, 0, 0), "S2_delete": (4, 1, 1)}


def _counts(G):
    """(chords, positive chords, negative chords)."""
    positive = sum(sign > 0 for sign in G.signs.values())
    return len(G), positive, len(G) - positive


def _walk_images():
    """Seeded random-walk images from 1, 2 and 3 empty circles, so some
    have empty circles, and from the oracle pool."""
    knots, links = oracle_pool()
    starts = knots + links + [
        parse_gauss_code(f"circles: {mu}\n" + "".join(
            f"circle {c}:\n" for c in range(1, mu + 1))) for mu in (1, 2, 3)]
    rng = random.Random(33)
    return [random_walk(rng.choice(starts), rng.randrange(1, 25),
                        rng.randrange(10**6), rng.randrange(3, 10))[0]
            for _ in range(400)]


def test_the_table_states_the_least_counts():
    assert {kind: least_counts(kind) for kind in MOVE_KINDS} == LEAST
    with pytest.raises(ValueError, match=r"^unknown move kind 'R4'$"):
        least_counts("R4")


def test_a_diagram_short_of_a_kinds_least_counts_has_no_site():
    diagrams = census_classes() + _walk_images()
    assert len(diagrams) == sum(CENSUS[1][2][0]) + sum(CENSUS[2][2][0]) + 400
    assert any(not word for G in diagrams[-400:] for word in G.circles)
    short = 0
    for G in diagrams:
        have = _counts(G)
        for kind in MOVE_KINDS:
            if any(h < need for h, need in zip(have, least_counts(kind))):
                short += 1
                assert find_move_sites(G, kind) == [], (G, kind)
    assert short > 1000


@pytest.mark.parametrize("kind", MOVE_KINDS)
def test_each_least_count_is_reached(kind):
    """For each of the three counts, some census diagram with a site of the
    kind has exactly the least number."""
    reached = [False] * 3
    least = least_counts(kind)
    for G in census_classes():
        if count_move_sites(G, kind):
            for i, (have, need) in enumerate(zip(_counts(G), least)):
                reached[i] |= have == need
    assert reached == [True] * 3


def test_the_search_never_skips_a_kind_with_a_site(monkeypatch):
    """Every diagram whose sites the search lists or counts on the oracle
    pool has no site, within the cap, of a kind its signature's plan leaves
    out."""
    cap = 8
    plans, checked = {}, {}
    real_plan, real_find = equiv._plan, equiv.find_move_sites
    real_count = equiv.count_move_sites

    def plan(G, *args):
        plans[equiv._signature(G)] = got = real_plan(G, *args)
        return got

    def check(G):
        if id(G) not in checked:
            checked[id(G)] = G  # held, so no id is reused
            listed = {entry[0] for entry in plans[equiv._signature(G)]}
            for other in MOVE_KINDS:
                if other not in listed and fits(G, other, cap):
                    assert real_find(G, other) == [], (G, other)

    def find(G, kind):
        check(G)
        return real_find(G, kind)

    def count(G, kind):
        check(G)
        return real_count(G, kind)

    monkeypatch.setattr(equiv, "_plan", plan)
    monkeypatch.setattr(equiv, "find_move_sites", find)
    monkeypatch.setattr(equiv, "count_move_sites", count)
    for A, B in pool_pairs():
        try:
            bfs_witness(A, B, 6, cap, 9000)
        except BudgetExceeded:
            pass
    skipped = {kind for p in plans.values() for kind in MOVE_KINDS
               if kind not in {entry[0] for entry in p}}
    assert {"R3", "S2_delete", "R2_delete"} <= skipped
    assert len(plans) > 20 and len(checked) > 500


LINKS = {
    "empty": "circles: 2\ncircle 1:\ncircle 2:",
    "free on 1": "circles: 2\nchord g +\ncircle 1: g< g>\ncircle 2:",
    "free on 2": "circles: 2\nchord g -\ncircle 1:\ncircle 2: g< g>",
    "nonself": "circles: 2\nchord g +\ncircle 1: g<\ncircle 2: g>",
    "pair on 1": "circles: 2\nchord x +\nchord y -\n"
                 "circle 1: x< y< x> y>\ncircle 2:",
}


@pytest.mark.parametrize("a, b, depth, cap", [
    ("empty", "nonself", 2, 4),
    ("free on 1", "nonself", 2, 4),
    ("free on 2", "pair on 1", 2, 4),
    ("pair on 1", "nonself", 2, 4),
    ("empty", "pair on 1", 3, 3),
])
def test_links_with_an_empty_circle_spend_the_reference_budget(a, b, depth,
                                                               cap):
    """Nodes of one chord count and positive-chord count but different
    circle lengths, such as (4, 0) and (2, 2), hold different numbers of
    R2_insert sites; the search spends exactly the reference's budget."""
    A, B = parse_gauss_code(LINKS[a]), parse_gauss_code(LINKS[b])
    want = least_budget(ref_bfs_witness, A, B, depth, cap)
    assert want > 0
    assert least_budget(bfs_witness, A, B, depth, cap) == want
