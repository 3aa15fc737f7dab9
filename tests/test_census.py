"""A census of small diagrams: every class up to isomorphism, joined by every
move within a chord cap.

The classes of n + 1 chords come from adding one chord to each class of n
chords in every placement, with either sign (both endpoints in one gap in
either order).  A union-find then joins the two ends of every listed move
that stays within the cap.  Every move preserves the profile, so no edge may
change it and no component may hold two profiles; a profile that is split
across components has diagrams that the capped moves do not join.
"""

import functools
from typing import NamedTuple

import pytest

from shellmoves.diagram import (INITIAL, TERMINAL, Endpoint, GaussDiagram,
                                canonical_key)
from shellmoves.invariants import profile
from shellmoves.moves import MOVE_KINDS, apply_move, find_move_sites, fits

# mu: (largest chord count, chord cap, (classes by chord count 0, 1, ...,
# listed moves within the cap)); a finder that loses a site variant moves the
# move count even where the components stay as they are
CENSUS = {1: (4, 4, ([1, 2, 14, 164, 3388], 10600)),
          2: (3, 3, ([1, 8, 74, 1072], 3148))}
# mu: (profiles of at most 3 chords split across components, all of them)
SPLIT = {1: (5, 17), 2: (35, 117)}


def _inserted(word: tuple, gap: int, ep: Endpoint) -> tuple:
    return word[:gap] + (ep,) + word[gap:]


def _grown(G: GaussDiagram):
    """Every diagram made from ``G`` by adding one chord."""
    cid = f"c{len(G)}"
    first, last = (cid, INITIAL), (cid, TERMINAL)
    for ci, word in enumerate(G.circles):
        for gi in range(len(word) + 1):
            circles = list(G.circles)
            circles[ci] = _inserted(word, gi, first)
            for ct, other in enumerate(circles):
                for gt in range(len(other) + 1):
                    words = list(circles)
                    words[ct] = _inserted(other, gt, last)
                    for sign in (1, -1):
                        yield GaussDiagram({**G.signs, cid: sign}, words)


class Census(NamedTuple):
    counts: list[int]  # classes by chord count
    edges: int  # listed moves within the cap
    changed: list  # (diagram, site) of each move that changes the profile
    profiles: dict  # key -> profile
    roots: dict  # key -> component root


@functools.lru_cache(maxsize=None)
def census(mu: int) -> Census:
    """The census of the diagrams on ``mu`` circles."""
    most, cap, _ = CENSUS[mu]
    empty = GaussDiagram({}, [()] * mu)
    layers = [{canonical_key(empty): empty}]
    for _ in range(most):
        layer: dict = {}
        for G in layers[-1].values():
            for H in _grown(G):
                layer.setdefault(canonical_key(H), H)
        layers.append(layer)
    classes = {key: G for layer in layers for key, G in layer.items()}
    profiles = {key: profile(G) for key, G in classes.items()}
    parent = {key: key for key in classes}

    def root(key):
        while parent[key] != key:
            parent[key] = key = parent[parent[key]]
        return key

    edges, changed = 0, []
    for key, G in classes.items():
        for kind in MOVE_KINDS:
            if not fits(G, kind, cap):
                continue
            for site in find_move_sites(G, kind):
                other = canonical_key(apply_move(G, site))
                if profiles[other] != profiles[key]:
                    changed.append((G, site))
                parent[root(key)] = root(other)
                edges += 1
    return Census([len(layer) for layer in layers], edges, changed, profiles,
                  {key: root(key) for key in classes})


@pytest.mark.parametrize("mu", [1, 2])
def test_class_and_edge_counts(mu):
    got = census(mu)
    assert (got.counts, got.edges) == CENSUS[mu][2]


@pytest.mark.parametrize("mu", [1, 2])
def test_every_edge_preserves_the_profile(mu):
    assert census(mu).changed == []


@pytest.mark.parametrize("mu", [1, 2])
def test_no_component_holds_two_profiles(mu):
    got = census(mu)
    seen: dict = {}
    for key, P in got.profiles.items():
        assert seen.setdefault(got.roots[key], P) == P, key


@pytest.mark.parametrize("mu", [1, 2])
def test_small_profiles_split_across_components(mu):
    got = census(mu)
    small = sum(got.counts[:4])  # classes come in chord-count order
    components: dict = {}
    for key, P in list(got.profiles.items())[:small]:
        components.setdefault(P, set()).add(got.roots[key])
    split = sum(len(c) > 1 for c in components.values())
    assert (split, len(components)) == SPLIT[mu]
