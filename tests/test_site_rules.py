"""One statement of each move pattern: a deletion or exchange site applies
exactly when its kind's finder lists it, and every anchor is range-checked
before any parameter.

Every in-range anchor tuple is tried on small diagrams, so a handler that
accepts a site its finder never lists (or rejects one it lists) fails here.
The one site applied but not listed is R1_delete at the second endpoint of a
circle holding one chord alone, whose finder lists the first.
"""

import itertools

import pytest

from shellmoves.diagram import parse_gauss_code
from shellmoves.errors import StaleSite
from shellmoves.moves import (R1_DELETE, R1_INSERT, R2_DELETE, R2_INSERT, R3,
                              S1, S2_DELETE, S2_INSERT, MoveSite,
                              apply_move_with_inverse, find_move_sites)

from conftest import r3_diagrams, walked_diagrams
from reference import ref_adjacent_pairs, ref_apply_s2_insert

# kind: (anchor count, parameter tuples)
DELETIONS = {R1_DELETE: (1, [()]), R2_DELETE: (2, [("par",), ("anti",)]),
             S1: (1, [()]), S2_DELETE: (1, [()])}
R3_MAX_ENDPOINTS = 12


def _s2_images():
    """Images of S2 insertions on walked diagrams, each holding the
    S2_delete site that undoes it (built by the reference handler)."""
    return [ref_apply_s2_insert(G, MoveSite(S2_INSERT, ((c, p),)))[0]
            for G in walked_diagrams()[::40]
            for c, p, u, v in ref_adjacent_pairs(G) if u[0] != v[0]]


def _applies(G, site):
    try:
        apply_move_with_inverse(G, site)
    except StaleSite:
        return False
    return True


def _lone_chord_second(G, site):
    if site.kind != R1_DELETE:
        return False
    (c, p), = site.anchors
    word = G.circles[c]
    return p == 1 and len(word) == 2 and word[0][0] == word[1][0]


def _applied_exactly_when_listed(G, kind, n_anchors, params):
    """How many of ``kind``'s in-range sites on ``G`` apply, asserting that
    each applies exactly when the finder lists it."""
    spots = [(c, p) for c, w in enumerate(G.circles) for p in range(len(w))]
    sites = [MoveSite(kind, anchors, par)
             for anchors in itertools.product(spots, repeat=n_anchors)
             for par in params]
    listed = find_move_sites(G, kind)
    assert set(listed) <= set(sites), (G, kind)
    applied = 0
    for site in sites:
        ok = _applies(G, site)
        assert ok == (site in listed or _lone_chord_second(G, site)), (G, site)
        applied += ok
    return applied


def test_deletions_apply_exactly_when_listed():
    applied = dict.fromkeys(DELETIONS, 0)
    for G in walked_diagrams()[::3] + r3_diagrams()[::6] + _s2_images():
        for kind, (n_anchors, params) in DELETIONS.items():
            applied[kind] += _applied_exactly_when_listed(G, kind, n_anchors,
                                                          params)
    assert min(applied.values()) > 50, applied


def test_r3_applies_exactly_when_listed():
    small = [G for G in r3_diagrams()
             if sum(map(len, G.circles)) <= R3_MAX_ENDPOINTS]
    applied = sum(_applied_exactly_when_listed(G, R3, 3, [()])
                  for G in small[::10])
    assert applied > 50


@pytest.mark.parametrize("site, message", [
    (MoveSite(R1_INSERT, ((0, 99),), ("x", "IT")), "bad gap"),
    (MoveSite(R1_INSERT, ((3, 0),), ("x", "IT")), "no circle 4"),
    (MoveSite(R2_INSERT, ((0, 9), (0, 9)), ("zz", "+")), "bad gap"),
    # a site of the wrong shape: a kind that is not a string, anchors or
    # parameters that are not tuples, an anchor that is not two exact ints
    (MoveSite(["R3"], ((0, 0), (0, 1), (0, 2))), "unknown move kind ['R3']"),
    (MoveSite(R1_DELETE, None),
     "R1_delete takes 1 anchor(s) and 0 parameter(s)"),
    (MoveSite(R1_DELETE, ((0, 0),), None),
     "R1_delete takes 1 anchor(s) and 0 parameter(s)"),
    (MoveSite(R1_INSERT, ((0, "x"),), ("x", "IT")), "bad anchor (0, 'x')"),
    (MoveSite(R1_DELETE, ((0, 1, 2),)), "bad anchor (0, 1, 2)"),
    (MoveSite(R1_DELETE, ((0, True),)), "bad anchor (0, True)"),
    (MoveSite(R1_DELETE, ([0, 0],)), "bad anchor [0, 0]"),
])
def test_insertion_anchors_are_checked_before_parameters(site, message):
    G = parse_gauss_code("circles: 1\nchord g +\ncircle 1: g< g>\n")
    with pytest.raises(StaleSite) as exc:
        apply_move_with_inverse(G, site)
    assert str(exc.value) == message
