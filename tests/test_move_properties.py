"""Every move kind, on Hypothesis-drawn 1- and 2-circle diagrams: the image
is a valid diagram, the inverse site takes it back to a diagram isomorphic
to the start, and the invariant profile does not change.

Deletions and S1 need sites that random diagrams seldom hold, so they are
applied to the image of an insertion; every drawn diagram holds an R3
configuration."""

import pytest
from hypothesis import given, settings, strategies as st

from shellmoves.diagram import (INITIAL, TERMINAL, GaussDiagram,
                                isomorphic)
from shellmoves.invariants import profile
from shellmoves.moves import (MOVE_KINDS, apply_move, apply_move_with_inverse,
                              find_move_sites)

from conftest import R3_BLOCKS, R3_SIGNS

# the kind whose image is searched for sites of these kinds: S2_insert
# lays two shells, each an S1 site, next to an S2_delete window
_MADE_BY = {"R1_delete": "R1_insert", "R2_delete": "R2_insert",
            "S1": "S2_insert", "S2_delete": "S2_insert"}


@st.composite
def _diagrams(draw):
    """The R3 configuration and up to four other chords, blocks and single
    endpoints dealt onto one or two circles in any order, each word rotated
    so that a pair may straddle the basepoint, signs in any order."""
    n = draw(st.integers(0, 4))
    signs = dict(R3_SIGNS)
    signs.update((f"c{k}", draw(st.sampled_from((1, -1)))) for k in range(n))
    blocks = list(R3_BLOCKS) + [((f"c{k}", kind),) for k in range(n)
                                 for kind in (INITIAL, TERMINAL)]
    mu = draw(st.sampled_from((1, 2)))
    words = [[] for _ in range(mu)]
    for block in draw(st.permutations(blocks)):
        words[draw(st.integers(0, mu - 1))].extend(block)
    rotated = []
    for w in words:
        r = draw(st.integers(0, max(len(w) - 1, 0)))
        rotated.append(tuple(w[r:] + w[:r]))
    order = draw(st.permutations(sorted(signs)))
    return GaussDiagram({cid: signs[cid] for cid in order}, rotated)


@pytest.mark.parametrize("kind", MOVE_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_move_then_inverse_is_isomorphic_and_keeps_the_profile(kind, data):
    G = data.draw(_diagrams())
    if kind in _MADE_BY:
        made_by = find_move_sites(G, _MADE_BY[kind])
        G = apply_move(G, data.draw(st.sampled_from(made_by)))
    sites = find_move_sites(G, kind)
    assert sites, (kind, G)
    H, inverse = apply_move_with_inverse(G, data.draw(st.sampled_from(sites)))
    GaussDiagram(H.signs, H.circles)  # the image validates
    assert isomorphic(apply_move(H, inverse), G)
    assert profile(H) == profile(G)
