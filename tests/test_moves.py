"""Move pattern matching, application, inverses, and invariance."""

import random

import pytest

from shellmoves.diagram import (
    GaussDiagram,
    isomorphic,
    parse_gauss_code,
)
from shellmoves.equiv import bfs_witness, s_equivalent
from shellmoves.errors import NotADiagram, StaleSite
from shellmoves.invariants import (
    linking_data,
    profile,
    self_writhe_tables,
)
from shellmoves.moves import (
    MOVE_KINDS,
    MoveSite,
    apply_move,
    apply_move_with_inverse,
    chord_change,
    count_move_sites,
    find_move_sites,
    fits,
    least_counts,
    random_walk,
    site_from_text,
    site_to_text,
)

from conftest import chord_type, image, oracle_pool, random_diagram
from reference import (ref_detect_shells, ref_encode_snail, ref_random_walk,
                       ref_slot_tables)

EMPTY = "circles: 1\ncircle 1:"
FREE = "circles: 1\nchord g +\ncircle 1: g< g>"


def test_r1_delete_sites_on_free_chord():
    G = parse_gauss_code(FREE)
    assert len(find_move_sites(G, "R1_delete")) == 1


def test_r1_insert_sites_on_empty():
    G = parse_gauss_code(EMPTY)
    assert len(find_move_sites(G, "R1_insert")) == 2  # one gap, two signs


def test_count_move_sites_is_the_finders_length():
    """On the oracle pool and on walks from 1, 2 and 3 empty circles (each
    empty circle is one gap)."""
    knots, links = oracle_pool()
    diagrams = knots + links
    for mu in (1, 2, 3):
        empty = parse_gauss_code(f"circles: {mu}\n" + "".join(
            f"circle {c}:\n" for c in range(1, mu + 1)))
        diagrams += [random_walk(empty, seed % 13, seed, 8)[0]
                     for seed in range(150)]
    assert any(not word for G in diagrams[12:] for word in G.circles)
    for G in diagrams:
        for kind in MOVE_KINDS:
            assert count_move_sites(G, kind) == len(
                find_move_sites(G, kind)), (G, kind)
    with pytest.raises(ValueError, match="unknown move kind 'R4'"):
        count_move_sites(diagrams[0], "R4")


@pytest.mark.parametrize("kind", ["R9", ["R3"], None, ("R3",)])
@pytest.mark.parametrize("reader", [
    lambda G, kind: find_move_sites(G, kind),
    lambda G, kind: count_move_sites(G, kind),
    lambda G, kind: chord_change(kind),
    lambda G, kind: fits(G, kind, 3),
    lambda G, kind: least_counts(kind),
], ids=["find_move_sites", "count_move_sites", "chord_change", "fits",
        "least_counts"])
def test_every_kind_reader_rejects_an_unknown_kind(reader, kind):
    with pytest.raises(ValueError, match=r"^unknown move kind "):
        reader(parse_gauss_code(FREE), kind)
    with pytest.raises(StaleSite, match=r"^unknown move kind "):
        apply_move(parse_gauss_code(FREE), MoveSite(kind, ((0, 0),)))


def test_negative_bounds_are_rejected():
    G, H = parse_gauss_code(FREE), parse_gauss_code(EMPTY)
    with pytest.raises(ValueError, match="steps must not be negative"):
        random_walk(G, -1, 1, 3)
    with pytest.raises(ValueError, match="^chord_cap below current chord "):
        random_walk(G, 1, 1, 0)
    with pytest.raises(ValueError, match="max_depth must not be negative"):
        bfs_witness(G, H, -1, 3)
    with pytest.raises(ValueError, match="max_depth must not be negative"):
        bfs_witness(G, G, -1, 3)
    with pytest.raises(ValueError,
                       match="^node_budget must not be negative, got -1$"):
        bfs_witness(G, H, 2, 3, -1)
    with pytest.raises(ValueError, match="node_budget must not be negative"):
        bfs_witness(G, G, 0, 3, -1)
    assert random_walk(G, 0, 1, 3)[1] == []
    assert bfs_witness(G, G, 0, 3) == []


@pytest.mark.parametrize("depth, cap, budget, name", [
    (True, 3, 10, "max_depth"),
    ("2", 3, 10, "max_depth"),
    (2.0, 3, 10, "max_depth"),
    (2, 3.0, 10, "chord_cap"),
    (2, "3", 10, "chord_cap"),
    (2, 3, 1.5, "node_budget"),
    (2, 3, None, "node_budget"),
    (2, 3, False, "node_budget"),
])
def test_bfs_witness_takes_only_exact_ints(depth, cap, budget, name):
    # max_depth=True would search one level and node_budget=1.5 search on
    G, H = parse_gauss_code(FREE), parse_gauss_code(EMPTY)
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        bfs_witness(G, H, depth, cap, budget)


@pytest.mark.parametrize("name, call", [
    ("bfs_witness", lambda G, x: bfs_witness(x, G, 2, 3)),
    ("bfs_witness", lambda G, x: bfs_witness(G, x, 2, 3)),
    ("s_equivalent", lambda G, x: s_equivalent(x, G)),
    ("s_equivalent", lambda G, x: s_equivalent(G, x)),
    ("isomorphic", lambda G, x: isomorphic(x, G)),
    ("isomorphic", lambda G, x: isomorphic(G, x)),
])
@pytest.mark.parametrize("x", [FREE, None, (("g", 1),)])
def test_a_non_diagram_is_rejected(name, call, x):
    with pytest.raises(NotADiagram,
                       match=f"^{name} needs a GaussDiagram, not "):
        call(parse_gauss_code(FREE), x)


def test_s1_sites_on_double_shell_snail():
    # each shell can slide to the other endpoint of the main chord
    assert len(find_move_sites(ref_encode_snail("self", 1, 2), "S1")) == 2


def test_r1_delete_frees_the_circle():
    G = parse_gauss_code(FREE)
    site, = find_move_sites(G, "R1_delete")
    assert isomorphic(apply_move(G, site), parse_gauss_code(EMPTY))


def test_single_shell_snail_cancels_by_slide_then_pair_removal():
    G = ref_encode_snail("self", 1, 1)
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
    # the II pair of x< y< x> y> with a variant that is neither par nor anti
    G = parse_gauss_code("circles: 1\nchord x +\nchord y -\n"
                         "circle 1: x< y< x> y>")
    with pytest.raises(StaleSite, match="^bad variant 'x'$"):
        apply_move(G, MoveSite("R2_delete", ((0, 0), (0, 2)), ("x",)))


@pytest.mark.parametrize("site", [
    5,
    None,
    "R1_delete",
    ("R1_delete",),
    ("R1_delete", ((0, 0),)),
    ("R1_delete", ((0, 0),), (), ()),
])
def test_a_site_that_is_not_three_fields_is_stale(site):
    G = parse_gauss_code(FREE)
    for apply in (apply_move, apply_move_with_inverse):
        with pytest.raises(StaleSite):
            apply(G, site)


def test_a_plain_tuple_site_applies_as_its_move_site():
    """A site equals the plain tuple of its three fields, and applies so."""
    rng = random.Random(33)
    for _ in range(200):
        G = random_diagram(rng, rng.choice((1, 2)), 5)
        for kind in MOVE_KINDS:
            for site in find_move_sites(G, kind)[:3]:
                H, inv = apply_move_with_inverse(G, tuple(site))
                want, want_inv = apply_move_with_inverse(G, site)
                assert (H.signs, H.circles, inv) == (
                    want.signs, want.circles, want_inv)


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
            assert (strip(self_writhe_tables(H)[0])
                    == strip(self_writhe_tables(G)[0]))
        else:
            # jn1 and jn2: the tables off the free slots {0, -lam}, {0, lam}
            lam = linking_data(G)[2]
            assert (ref_slot_tables(lam, *self_writhe_tables(H))[:2]
                    == ref_slot_tables(lam, *self_writhe_tables(G))[:2])


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


def test_random_walk_draws_as_listing_the_sites_would():
    """S2_insert is drawn from its spots without listing its sites; every
    walk takes the steps of a walk that lists them, on 240 (diagram, seed)
    pairs, 80 of which start from empty circles."""
    rng = random.Random(41)
    drawn = set()
    for run in range(240):
        mu = 1 + run % 2
        G = (random_diagram(rng, mu, 6) if run % 3 else
             GaussDiagram({}, [()] * mu))
        seed, steps = rng.randrange(10**6), rng.randrange(1, 25)
        cap = len(G) + rng.randrange(1, 7)
        got = random_walk(G, steps, seed, cap)
        want = ref_random_walk(G, steps, seed, cap)
        assert got[1] == want[1], (G, seed)
        assert image(got[0]) == image(want[0])
        drawn.update(site.kind for site in got[1])
    assert drawn == set(MOVE_KINDS)


def test_random_walk_from_empty_keeps_zero_writhe():
    G = parse_gauss_code(EMPTY)
    H, _ = random_walk(G, 20, seed=5, chord_cap=12)
    assert profile(H).writhe == profile(G).writhe


def test_random_walk_respects_cap():
    G = parse_gauss_code(EMPTY)
    H, trace = random_walk(G, 60, seed=8, chord_cap=6)
    assert len(H) <= 6
    # at cap 0 the empty knot has no move at all
    with pytest.raises(ValueError, match="^no applicable move$"):
        random_walk(G, 1, seed=8, chord_cap=0)


def test_walks_preserve_profile():
    rng = random.Random(38)
    for run in range(60):
        G = random_diagram(rng, rng.choice((1, 2)), 8)
        before = profile(G)
        H, _ = random_walk(G, 30, seed=run, chord_cap=30)
        assert profile(H) == before


@pytest.mark.parametrize("steps, seed, cap, name", [
    (True, 1, 3, "steps"),
    (2.5, 1, 3, "steps"),
    ("2", 1, 3, "steps"),
    (2, None, 3, "seed"),
    (2, 1.0, 3, "seed"),
    (2, False, 3, "seed"),
    (2, "7", 3, "seed"),
    (2, 1, "5", "chord_cap"),
    (2, 1, 5.0, "chord_cap"),
    (2, 1, None, "chord_cap"),
])
def test_random_walk_takes_only_exact_ints(steps, seed, cap, name):
    # seed=None would seed from OS entropy and steps=True walk one step
    G = parse_gauss_code(FREE)
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        random_walk(G, steps, seed, cap)


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
