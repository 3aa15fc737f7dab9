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

from shellmoves.diagram import canonical_key
from shellmoves.invariants import profile
from shellmoves.moves import MOVE_KINDS, apply_move, find_move_sites, fits

from conftest import CENSUS, census_classes

# mu: (profiles of at most 3 chords split across components, all of them)
SPLIT = {1: (5, 17), 2: (35, 117)}


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
    classes = {canonical_key(G): G for G in census_classes() if G.mu == mu}
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
    counts = [sum(len(G) == n for G in classes.values())
              for n in range(most + 1)]
    return Census(counts, edges, changed, profiles,
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
