"""Differential tests of the one-pass chord code against per-chord
references in ``reference.py``: the arc walk (the definition of a chord
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
from shellmoves.moves import R1_DELETE, find_move_sites

from conftest import random_diagram
from reference import (ref_endpoint_index, ref_linking_data,
                       ref_sites_r1_delete, ref_table, ref_walk_arc_sum)

N_DIAGRAMS = 2000
MAX_CHORDS = 60


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
        where = ref_endpoint_index(G)
        for c, word in enumerate(G.circles):
            empty += not word
            chords = _self_chords(G, where, c)
            wraps += sum(where[cid][TERMINAL][1] < where[cid][INITIAL][1]
                         for cid in chords)
        for cid in G.signs:
            ci, ct = _circles_of(where, cid)
            if ci == ct:
                want = ref_walk_arc_sum(G, where, cid)
                assert G.arc_sign_sum(cid) == want, (seed, cid)
            else:
                with pytest.raises(NotASelfChord):
                    G.arc_sign_sum(cid)
    assert wraps > N_DIAGRAMS and empty > N_DIAGRAMS // 20


def test_tables_match_the_walk():
    for seed in range(N_DIAGRAMS):
        G = _diagram(seed)
        where = ref_endpoint_index(G)
        assert self_writhe_tables(G) == tuple(
            ref_table((ref_walk_arc_sum(G, where, x), G.signs[x])
                      for x in _self_chords(G, where, c))
            for c in range(G.mu)), seed


def test_nonself_indices_match_the_walk_for_every_gamma0():
    """The book's tables, walked on the circle merged along each gamma0,
    give the twist class that profile and linking_class read with none."""
    tables = 0
    for seed in range(0, N_DIAGRAMS, 2):
        G = _diagram(seed)
        where = ref_endpoint_index(G)
        nonself = _nonself(G, where)
        by_type = [[c for c in nonself if where[c][INITIAL][0] == first]
                   for first in (0, 1)]
        live = profile(G).linking_class
        assert linking_class(G) == live, seed
        for gamma0 in nonself:
            merged = surgery(G, gamma0)
            merged_where = ref_endpoint_index(merged)

            def index(cid):
                return (0 if cid == gamma0
                        else ref_walk_arc_sum(merged, merged_where, cid))

            t12, t21 = (ref_table((index(x), G.signs[x]) for x in chords)
                        for chords in by_type)
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
        want = ref_sites_r1_delete(G)
        assert find_move_sites(G, R1_DELETE) == want, seed
        sites += len(want)
        lone += sum(len(w) == 2 for w in G.circles)
        wrapped += sum(p == len(G.circles[c]) - 1 and len(G.circles[c]) > 2
                       for site in want for c, p in site.anchors)
        if G.mu == 2:
            assert linking_data(G) == ref_linking_data(G), seed
    assert sites > 3000 and lone > 100 and wrapped > 100
