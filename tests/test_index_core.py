"""Differential test of the prefix-sum index core against the per-chord arc
walk, which lives only here as the reference definition of a chord index."""

import random

import pytest

from shellmoves.diagram import (
    INITIAL,
    TERMINAL,
    Endpoint,
    GaussDiagram,
    arc_sums,
    surgery,
)
from shellmoves.errors import NotASelfChord
from shellmoves.invariants import (
    knot_index,
    nonself_index,
    nonself_writhe_tables,
    self_index,
    self_writhe_tables,
    writhe_tables,
)

from conftest import random_diagram

N_DIAGRAMS = 2000
MAX_CHORDS = 60
# every (chord, gamma0) pair through nonself_index up to this size; the
# tables cover every gamma0 at every size
PAIRWISE_MAX_CHORDS = 20


def walk_arc_sum(G: GaussDiagram, chord: str) -> int:
    """Endpoint-sign sum strictly between the chord's initial and terminal
    endpoints, one step at a time around its circle."""
    ci, pi = G.locate(chord, INITIAL)
    ct, pt = G.locate(chord, TERMINAL)
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


def _self_chords(G: GaussDiagram, circle: int) -> list[str]:
    return [cid for cid in G.signs if G.chord_circles(cid) == (circle, circle)]


def _nonself(G: GaussDiagram) -> list[str]:
    return [cid for cid in G.signs if not G.is_self_chord(cid)]


def test_arc_sums_and_indices_match_the_walk():
    wraps = empty = 0
    for seed in range(N_DIAGRAMS):
        G = _diagram(seed)
        for c, word in enumerate(G.circles):
            empty += not word
            chords = _self_chords(G, c)
            got = arc_sums(word, G.signs)
            assert got == {cid: walk_arc_sum(G, cid) for cid in chords}, seed
            wraps += sum(G.locate(cid, TERMINAL)[1] < G.locate(cid, INITIAL)[1]
                         for cid in chords)
        for cid in G.signs:
            if G.is_self_chord(cid):
                want = walk_arc_sum(G, cid)
                assert G.arc_sign_sum(cid) == want, (seed, cid)
                index = knot_index if G.mu == 1 else self_index
                assert index(G, cid) == want, (seed, cid)
            else:
                with pytest.raises(NotASelfChord):
                    G.arc_sign_sum(cid)
    assert wraps > N_DIAGRAMS and empty > N_DIAGRAMS // 20


def test_tables_match_the_walk():
    for seed in range(N_DIAGRAMS):
        G = _diagram(seed)
        if G.mu == 1:
            assert writhe_tables(G) == walk_table(
                G, G.signs, lambda c: walk_arc_sum(G, c)), seed
            continue
        assert self_writhe_tables(G) == tuple(
            walk_table(G, _self_chords(G, c), lambda x: walk_arc_sum(G, x))
            for c in (0, 1)), seed


def test_nonself_indices_match_the_walk_for_every_gamma0():
    pairs = 0
    for seed in range(0, N_DIAGRAMS, 2):
        G = _diagram(seed)
        nonself = _nonself(G)
        for gamma0 in nonself:
            merged = surgery(G, gamma0)

            def index(cid):
                return 0 if cid == gamma0 else walk_arc_sum(merged, cid)

            assert nonself_writhe_tables(G, gamma0) == tuple(
                walk_table(G, [c for c in nonself
                               if G.chord_type(c) == typ], index)
                for typ in ((1, 2), (2, 1))), (seed, gamma0)
            if len(G) <= PAIRWISE_MAX_CHORDS:
                for cid in nonself:
                    assert nonself_index(G, cid, gamma0) == index(cid)
                    pairs += 1
    assert pairs > N_DIAGRAMS


def test_arc_sums_wrap_past_the_basepoint():
    # b's arc runs from position 3 past the basepoint to position 1
    word = (Endpoint("a", INITIAL), Endpoint("b", TERMINAL),
            Endpoint("a", TERMINAL), Endpoint("b", INITIAL))
    assert arc_sums(word, {"a": 1, "b": -1}) == {"a": -1, "b": -1}
    assert arc_sums(word[1:] + word[:1], {"a": 1, "b": -1}) == {"a": -1, "b": -1}
    assert arc_sums((), {}) == {}
