"""Differential tests of the one-pass chord code against per-chord
references that live only here: the arc walk (the definition of a chord
index), and the per-chord classification of free and nonself chords that
`find_move_sites(G, "R1_delete")` and `linking_data` once made."""

import random

import pytest

import shellmoves.diagram as diagram
from shellmoves.algebra import LaurentPoly, gamma_class
from shellmoves.diagram import (
    INITIAL,
    TERMINAL,
    CircleWalk,
    GaussDiagram,
    circle_walk,
    surgery,
)
from shellmoves.errors import NotASelfChord
from shellmoves.invariants import (
    linking_class,
    linking_data,
    profile,
    self_writhe_tables,
)
from shellmoves.moves import R1_DELETE, MoveSite, find_move_sites

from conftest import chord_type, is_free, random_diagram

N_DIAGRAMS = 2000
MAX_CHORDS = 60


def endpoint_index(G: GaussDiagram) -> dict[str, dict[str, tuple[int, int]]]:
    """chord -> kind -> (circle, position), from one walk over the words."""
    where: dict[str, dict[str, tuple[int, int]]] = {}
    for ci, word in enumerate(G.circles):
        for pos, (chord, kind) in enumerate(word):
            where.setdefault(chord, {})[kind] = (ci, pos)
    return where


def walk_arc_sum(G: GaussDiagram, where, chord: str) -> int:
    """Endpoint-sign sum strictly between the chord's initial and terminal
    endpoints, one step at a time around its circle."""
    ci, pi = where[chord][INITIAL]
    ct, pt = where[chord][TERMINAL]
    assert ci == ct
    word = G.circles[ci]
    n = len(word)
    total = 0
    p = (pi + 1) % n
    while p != pt:
        total += G.endpoint_sign(word[p])
        p = (p + 1) % n
    return total


def walk_table(G: GaussDiagram, chords, index) -> dict[int, int]:
    table: dict[int, int] = {}
    for cid in chords:
        n = index(cid)
        table[n] = table.get(n, 0) + G.signs[cid]
    return {n: v for n, v in table.items() if v}


def _diagram(seed: int) -> GaussDiagram:
    rng = random.Random(seed)
    mu = 1 if seed % 2 else 2
    G = random_diagram(rng, mu, MAX_CHORDS)
    if mu == 2 and seed % 10 == 0:
        # all endpoints on one circle, the other left empty
        words = [(), G.circles[0] + G.circles[1]]
        rng.shuffle(words)
        G = GaussDiagram(G.signs, words)
    return G


def _circles_of(where, chord: str) -> tuple[int, int]:
    return where[chord][INITIAL][0], where[chord][TERMINAL][0]


def _self_chords(G: GaussDiagram, where, circle: int) -> list[str]:
    return [cid for cid in G.signs
            if _circles_of(where, cid) == (circle, circle)]


def _nonself(G: GaussDiagram, where) -> list[str]:
    return [cid for cid in G.signs if len(set(_circles_of(where, cid))) == 2]


def test_arc_sign_sums_match_the_walk():
    wraps = empty = 0
    for seed in range(N_DIAGRAMS):
        G = _diagram(seed)
        where = endpoint_index(G)
        for c, word in enumerate(G.circles):
            empty += not word
            chords = _self_chords(G, where, c)
            wraps += sum(where[cid][TERMINAL][1] < where[cid][INITIAL][1]
                         for cid in chords)
        for cid in G.signs:
            ci, ct = _circles_of(where, cid)
            if ci == ct:
                want = walk_arc_sum(G, where, cid)
                assert G.arc_sign_sum(cid) == want, (seed, cid)
            else:
                with pytest.raises(NotASelfChord):
                    G.arc_sign_sum(cid)
    assert wraps > N_DIAGRAMS and empty > N_DIAGRAMS // 20


def test_tables_match_the_walk():
    for seed in range(N_DIAGRAMS):
        G = _diagram(seed)
        where = endpoint_index(G)
        assert self_writhe_tables(G) == tuple(
            walk_table(G, _self_chords(G, where, c),
                       lambda x: walk_arc_sum(G, where, x))
            for c in range(G.mu)), seed


def test_nonself_indices_match_the_walk_for_every_gamma0():
    """The book's tables, walked on the circle merged along each gamma0,
    give the twist class that profile and linking_class read with none."""
    tables = 0
    for seed in range(0, N_DIAGRAMS, 2):
        G = _diagram(seed)
        where = endpoint_index(G)
        nonself = _nonself(G, where)
        by_type = [[c for c in nonself if where[c][INITIAL][0] == first]
                   for first in (0, 1)]
        live = profile(G).linking_class
        assert linking_class(G) == live, seed
        for gamma0 in nonself:
            merged = surgery(G, gamma0)
            merged_where = endpoint_index(merged)

            def index(cid):
                return (0 if cid == gamma0
                        else walk_arc_sum(merged, merged_where, cid))

            t12, t21 = (walk_table(G, chords, index) for chords in by_type)
            lam = sum(t12.values()) - sum(t21.values())
            assert gamma_class(abs(lam), LaurentPoly(t12),
                               LaurentPoly(t21)) == live, (seed, gamma0)
            tables += 1
    assert tables > N_DIAGRAMS


def test_arc_sign_sums_wrap_past_the_basepoint():
    # b's arc runs from position 3 past the basepoint to position 1
    word = (("a", INITIAL), ("b", TERMINAL),
            ("a", TERMINAL), ("b", INITIAL))
    for w in (word, word[1:] + word[:1]):
        G = GaussDiagram({"a": 1, "b": -1}, [w])
        assert (G.arc_sign_sum("a"), G.arc_sign_sum("b")) == (-1, -1)
        # a wrapped self-chord leaves no prefix behind: profile looks up
        # every key of one circle's initials in the other's terminals
        assert circle_walk(w, G.signs) == CircleWalk({}, {}, {})
    assert circle_walk((), {}) == CircleWalk({}, {}, {})


def test_arc_sign_sum_makes_no_circle_walk(monkeypatch):
    calls = 0
    walk = diagram.circle_walk

    def counted(*args):
        nonlocal calls
        calls += 1
        return walk(*args)

    monkeypatch.setattr(diagram, "circle_walk", counted)
    G = random_diagram(random.Random(60), 1, 60, chords=60)
    for cid in G.signs:
        G.arc_sign_sum(cid)
    assert calls == 0


# -- free and nonself chords, one pass against one query per chord ----------


def per_chord_r1_delete_sites(G: GaussDiagram) -> list[MoveSite]:
    """R1_delete sites as found by asking the diagram about each chord."""
    out = []
    for cid in G.signs:
        if not is_free(G, cid):
            continue
        ci, pi = G.locate(cid, INITIAL)
        _, pt = G.locate(cid, TERMINAL)
        n = len(G.circles[ci])
        cands = [p for p in (pi, pt)
                 if (p + 1) % n in (pi, pt) and p != (p + 1) % n]
        out.append(MoveSite(R1_DELETE, ((ci, min(cands)),)))
    return out


def per_chord_linking_data(G: GaussDiagram) -> tuple[int, int, int]:
    lk12 = lk21 = 0
    for cid in G.signs:
        typ = chord_type(G, cid)
        if typ == (1, 2):
            lk12 += G.signs[cid]
        elif typ == (2, 1):
            lk21 += G.signs[cid]
    return lk12, lk21, lk12 - lk21


def _with_free_chords(seed: int) -> GaussDiagram:
    """A random 1- or 2-circle diagram with free chords planted at random
    gaps, some circles holding one free chord alone, and every circle
    rotated at random so planted chords may wrap past the basepoint."""
    rng = random.Random(seed)
    mu = rng.choice((1, 2))
    G = random_diagram(rng, mu, 24)
    signs = dict(G.signs)
    circles = [list(w) for w in G.circles]
    if rng.random() < 0.3:
        # empty circle 1 (a link's endpoints all go to circle 2), so that
        # it holds one free chord alone
        if mu == 1:
            signs, circles = {}, [[]]
        else:
            circles = [[], circles[0] + circles[1]]
    for c, word in enumerate(circles):
        for k in range(rng.randint(1, 3) if word else 1):
            cid = f"f{c}_{k}"
            signs[cid] = rng.choice((1, -1))
            pair = [(cid, INITIAL), (cid, TERMINAL)]
            if rng.random() < 0.5:
                pair.reverse()
            g = rng.randint(0, len(word))
            word[g:g] = pair
    rotated = []
    for word in circles:
        r = rng.randint(0, max(len(word) - 1, 0))
        rotated.append(tuple(word[r:] + word[:r]))
    return GaussDiagram(signs, rotated)


def test_r1_delete_sites_and_linking_data_match_per_chord_queries():
    lone = wrapped = sites = 0
    for seed in range(1500):
        G = _with_free_chords(seed)
        want = per_chord_r1_delete_sites(G)
        assert find_move_sites(G, R1_DELETE) == want, seed
        sites += len(want)
        lone += sum(len(w) == 2 for w in G.circles)
        wrapped += sum(p == len(G.circles[c]) - 1 and len(G.circles[c]) > 2
                       for site in want for c, p in site.anchors)
        if G.mu == 2:
            assert linking_data(G) == per_chord_linking_data(G), seed
    assert sites > 3000 and lone > 100 and wrapped > 100
