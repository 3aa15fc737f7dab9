"""Move pattern matching, application, inverses, and invariance."""

import random

import pytest

from shellmoves.diagram import (
    GaussDiagram,
    isomorphic,
    parse_gauss_code,
)
from shellmoves.errors import StaleSite
from shellmoves.invariants import (
    linking_data,
    profile,
    self_writhe_tables,
    writhe_tables,
)
from shellmoves.moves import (
    MOVE_KINDS,
    MoveSite,
    apply_move,
    apply_move_with_inverse,
    find_move_sites,
    random_walk,
    site_from_text,
    site_to_text,
)
from shellmoves.normal_form import encode_snail

from conftest import chord_type, random_diagram, ref_detect_shells

EMPTY = "circles: 1\ncircle 1:"
FREE = "circles: 1\nchord g +\ncircle 1: g< g>"


def test_r1_delete_sites_on_free_chord():
    G = parse_gauss_code(FREE)
    assert len(find_move_sites(G, "R1_delete")) == 1


def test_r1_insert_sites_on_empty():
    G = parse_gauss_code(EMPTY)
    assert len(find_move_sites(G, "R1_insert")) == 2  # one gap, two signs


def test_s1_sites_on_double_shell_snail():
    # each shell can slide to the other endpoint of the main chord
    assert len(find_move_sites(encode_snail("self", 1, 2), "S1")) == 2


def test_r1_delete_frees_the_circle():
    G = parse_gauss_code(FREE)
    site, = find_move_sites(G, "R1_delete")
    assert isomorphic(apply_move(G, site), parse_gauss_code(EMPTY))


def test_single_shell_snail_cancels_by_slide_then_pair_removal():
    G = encode_snail("self", 1, 1)
    G = apply_move(G, find_move_sites(G, "S1")[0])
    site, = find_move_sites(G, "R2_delete")
    assert isomorphic(apply_move(G, site), parse_gauss_code(EMPTY))


def test_s2_insert_then_delete_restores():
    G = parse_gauss_code(
        "circles: 1\nchord g +\nchord h -\ncircle 1: g< h< g> h>")
    for site in find_move_sites(G, "S2_insert"):
        H, inv = apply_move_with_inverse(G, site)
        assert len(H) == len(G) + 2
        assert isomorphic(apply_move(H, inv), G)


def test_apply_rejects_stale_sites():
    G = parse_gauss_code(FREE)
    site, = find_move_sites(G, "R1_delete")
    H = apply_move(G, site)  # now empty; the site is stale
    with pytest.raises(StaleSite):
        apply_move(H, site)
    with pytest.raises(StaleSite):
        apply_move(G, MoveSite("S2_delete", ((0, 0),)))


def random_sites(seed, trials, kinds=MOVE_KINDS):
    """(G, kind, site) for each of ``trials`` random diagrams of at most 5
    chords on which a randomly drawn kind has a site; the site is random."""
    rng = random.Random(seed)
    for _ in range(trials):
        G = random_diagram(rng, rng.choice((1, 2)), 5)
        kind = rng.choice(kinds)
        sites = find_move_sites(G, kind)
        if sites:
            yield G, kind, rng.choice(sites)


def test_every_kind_round_trips_through_its_inverse():
    seen = {k: 0 for k in MOVE_KINDS}
    for G, kind, site in random_sites(31, 3000):
        H, inv = apply_move_with_inverse(G, site)
        assert isomorphic(apply_move(H, inv), G), (kind, G)
        seen[kind] += 1
    assert all(seen[k] > 10 for k in
               ("R1_insert", "R1_delete", "R2_insert", "R2_delete",
                "S1", "S2_insert"))
    assert seen["R3"] > 0


def test_moves_preserve_validity():
    for G, _, site in random_sites(32, 400):
        H = apply_move(G, site)
        GaussDiagram(H.signs, H.circles)  # full revalidation


def test_chord_count_deltas():
    deltas = {"R1_insert": 1, "R1_delete": -1, "R2_insert": 2,
              "R2_delete": -2, "R3": 0, "S1": 0, "S2_insert": 2,
              "S2_delete": -2}
    seen = set()
    for G, kind, site in random_sites(33, 2500):
        H = apply_move(G, site)
        assert len(H) - len(G) == deltas[kind]
        seen.add(kind)
    assert len(seen) >= 7


def test_single_moves_preserve_profile():
    for G, kind, site in random_sites(34, 1200):
        H = apply_move(G, site)
        assert profile(H) == profile(G), kind


def test_classical_moves_preserve_all_index_slots():
    # the three classical patterns fix every index-writhe slot, including
    # the slots that shell moves are allowed to shuffle
    for G, _, site in random_sites(35, 800, ("R1_insert", "R1_delete",
                                             "R2_insert", "R2_delete", "R3")):
        H = apply_move(G, site)
        if G.mu == 1:
            strip = lambda t: {n: v for n, v in t.items() if n != 0}
            assert strip(writhe_tables(H)) == strip(writhe_tables(G))
        else:
            lam = linking_data(G)[2]
            g1, g2 = self_writhe_tables(G)
            h1, h2 = self_writhe_tables(H)
            drop = lambda t, ban: {n: v for n, v in t.items() if n not in ban}
            assert drop(h1, {0, -lam}) == drop(g1, {0, -lam})
            assert drop(h2, {0, lam}) == drop(g2, {0, lam})


def test_shell_moves_fix_indices_of_non_shell_chords():
    checked = 0
    for G, kind, site in random_sites(36, 800, ("S1", "S2_insert", "S2_delete")):
        H = apply_move(G, site)
        shells = ref_detect_shells(G) | ref_detect_shells(H)
        for cid in set(G.signs) & set(H.signs):
            if cid in shells or chord_type(G, cid) is not None:
                continue
            assert G.arc_sign_sum(cid) == H.arc_sign_sum(cid), (kind, cid)
            checked += 1
    assert checked > 200


def test_random_walk_zero_steps():
    G = parse_gauss_code(FREE)
    H, trace = random_walk(G, 0, seed=1, chord_cap=10)
    assert trace == [] and H.circles == G.circles


def test_random_walk_deterministic():
    rng = random.Random(37)
    G = random_diagram(rng, 2, 6)
    a = random_walk(G, 25, seed=9, chord_cap=30)
    b = random_walk(G, 25, seed=9, chord_cap=30)
    assert a[0].circles == b[0].circles and a[0].signs == b[0].signs
    assert a[1] == b[1]


def test_random_walk_from_empty_keeps_zero_writhe():
    G = parse_gauss_code(EMPTY)
    H, _ = random_walk(G, 20, seed=5, chord_cap=12)
    assert profile(H).writhe == profile(G).writhe


def test_random_walk_respects_cap():
    G = parse_gauss_code(EMPTY)
    H, trace = random_walk(G, 60, seed=8, chord_cap=6)
    assert len(H) <= 6


def test_walks_preserve_profile():
    rng = random.Random(38)
    for run in range(60):
        G = random_diagram(rng, rng.choice((1, 2)), 8)
        before = profile(G)
        H, _ = random_walk(G, 30, seed=run, chord_cap=30)
        assert profile(H) == before


def test_trace_text_roundtrip():
    rng = random.Random(39)
    for _ in range(300):
        G = random_diagram(rng, rng.choice((1, 2)), 5)
        kind = rng.choice(MOVE_KINDS)
        sites = find_move_sites(G, kind)
        if not sites:
            continue
        site = rng.choice(sites)
        assert site_from_text(site_to_text(site)) == site


def test_trace_text_rejects_garbage():
    for bad in ["", "R9 @ 1:0", "R1_delete 1:0", "R1_delete @ x:y"]:
        with pytest.raises(ValueError):
            site_from_text(bad)
