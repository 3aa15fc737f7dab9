"""The random walk's fast paths against the tests' reference code.

Each site finder reads a word's adjacent pairs in one zip pass, which also
pairs the one endpoint of a one-endpoint circle with itself; the R3 finder
tables only TT pairs of two negative chords and stops when there are none;
and an insertion draws a gap's index and maps it to its (circle, gap).  The
references (``reference.py``) read each word through
``ref_adjacent_pairs``, which skips circles of fewer than two endpoints, and
draw from a listed gap.
"""

import random

from shellmoves.diagram import INITIAL, TERMINAL, GaussDiagram
from shellmoves.moves import (R1_DELETE, R2_DELETE, R3, S2_INSERT,
                              find_move_sites, random_walk)

from conftest import R3_BLOCKS, R3_SIGNS, chord_blocks, dealt, image
from reference import REF_FINDERS, ref_adjacent_pairs, ref_random_walk

# the kinds whose finders read adjacent pairs
PAIR_KINDS = (R1_DELETE, R2_DELETE, R3, S2_INSERT)
# R3's configuration and its image, over the chords p, q and x
R3_IMAGE_BLOCKS = ((("q", TERMINAL), ("p", TERMINAL)),
                   (("x", INITIAL), ("p", INITIAL)),
                   (("x", TERMINAL), ("q", INITIAL)))


def _r2_blocks(x, y, variant):
    """The cancelling pair (x<, y<) with its terminals in ``variant`` order."""
    tail = ((x, TERMINAL), (y, TERMINAL))
    return (((x, INITIAL), (y, INITIAL)),
            tail if variant == "par" else tail[::-1])


def _tt_pairs(G):
    return [(c, p, u[0], v[0]) for c, p, u, v in ref_adjacent_pairs(G)
            if u[1] == v[1] == TERMINAL]


def _found(diagrams):
    """Each pair kind's finder against its reference on every diagram;
    returns how many sites each kind listed."""
    found = dict.fromkeys(PAIR_KINDS, 0)
    for G in diagrams:
        for kind in PAIR_KINDS:
            sites = find_move_sites(G, kind)
            assert sites == REF_FINDERS[kind](G), (kind, G)
            found[kind] += len(sites)
    return found


def _no_negative_tt_diagrams(count=300):
    """R3 configurations and their images with one of p, q positive, and
    cancelling R2 pairs, among other chords on 1 to 3 circles; a chord of
    each TT pair of two negative chords is made positive."""
    rng = random.Random(41)
    out = []
    for i in range(count):
        signs = dict(R3_SIGNS, y=1, z=-1)
        signs[rng.choice("pq")] = 1
        blocks = [*(R3_IMAGE_BLOCKS if i % 2 else R3_BLOCKS),
                  *_r2_blocks("y", "z", rng.choice(("par", "anti"))),
                  *chord_blocks(rng, signs, rng.randint(0, 5))]
        G = dealt(rng, signs, blocks, 1 + i % 3)
        signs = dict(G.signs)
        for _, _, u, v in _tt_pairs(G):
            if signs[u] == signs[v] == -1:
                signs[u] = 1
        out.append(GaussDiagram(signs, G.circles))
    return out


def test_finders_match_reference_with_no_negative_tt_pair():
    diagrams = _no_negative_tt_diagrams()
    assert not any(G.signs[u] == G.signs[v] == -1
                   for G in diagrams for *_, u, v in _tt_pairs(G))
    found = _found(diagrams)
    assert found[R3] == 0
    assert found[R2_DELETE] > 200 and found[R1_DELETE] > 100


def _wrapped_tt_diagrams(count=300):
    """R3 configurations, their images and cancelling R2 pairs on one or
    two circles whose TT pair straddles the basepoint (anchored at
    p = n - 1), kept when every other TT pair does too."""
    rng = random.Random(42)
    out = []
    while len(out) < count:
        i = len(out)
        if i % 3 == 2:
            signs = {"y": 1, "z": -1}
            ii, tt = _r2_blocks("y", "z", rng.choice(("par", "anti")))
            rest = [ii]
        else:
            signs = dict(R3_SIGNS)
            tt, *rest = R3_IMAGE_BLOCKS if i % 3 else R3_BLOCKS
        rest += chord_blocks(rng, signs, rng.randint(0, 4))
        G = dealt(rng, signs, [tt, *rest], 1 + i % 2)
        # rotated so tt's second endpoint starts its word, and its first ends it
        words = []
        for w in G.circles:
            if tt[1] in w:
                r = w.index(tt[1])
                w = w[r:] + w[:r]
            words.append(w)
        G = GaussDiagram(G.signs, words)
        if all(p == len(G.circles[c]) - 1 for c, p, *_ in _tt_pairs(G)):
            out.append(G)
    return out


def test_finders_match_reference_with_tt_pairs_only_at_the_wrap():
    found = _found(_wrapped_tt_diagrams())
    assert found[R3] > 100 and found[R2_DELETE] > 50


def _small_circle_diagrams(count=400):
    """Diagrams whose circles hold 0, 1 or 2 endpoints: an R3 configuration
    (or its image) or a cancelling R2 pair, one block to a circle, and up to
    three more chords whose endpoints go one or two to a circle, among up
    to two empty circles; a two-endpoint word may start at either one."""
    rng = random.Random(43)
    out = []
    for i in range(count):
        if i % 2:
            signs = dict(R3_SIGNS)
            blocks = list(R3_IMAGE_BLOCKS if i % 4 == 3 else R3_BLOCKS)
        else:
            signs = {"y": 1, "z": -1}
            blocks = list(_r2_blocks("y", "z", rng.choice(("par", "anti"))))
        ends = [ep for block in chord_blocks(rng, signs, rng.randint(0, 3))
                for ep in block]
        rng.shuffle(ends)
        while ends:
            k = rng.randint(1, 2)
            blocks.append(tuple(ends[:k]))
            del ends[:k]
        blocks += [()] * rng.randint(0, 2)
        rng.shuffle(blocks)
        out.append(GaussDiagram(signs, [w[::-1] if rng.random() < 0.5 else w
                                        for w in blocks]))
    return out


def test_finders_match_reference_on_circles_of_at_most_two_endpoints():
    diagrams = _small_circle_diagrams()
    sizes = {len(w) for G in diagrams for w in G.circles}
    assert sizes == {0, 1, 2}
    found = _found(diagrams)
    assert min(found.values()) > 50


def test_walks_match_reference_from_small_knots_and_links():
    """200 walks of 30 steps at cap 40, as the fuzz benchmark takes them,
    from knots and links of at most 12 chords, some with an empty circle:
    the same trace and the same image (signs order and words)."""
    rng = random.Random(44)
    empty = 0
    for i in range(200):
        n = 0 if i % 10 == 0 else rng.randint(1, 12)
        signs = {f"c{k}": rng.choice((1, -1)) for k in range(n)}
        eps = [(cid, kind) for cid in signs for kind in (INITIAL, TERMINAL)]
        rng.shuffle(eps)
        if i % 2:
            cut = rng.choice((0, len(eps), rng.randint(0, len(eps))))
            words = [eps[:cut], eps[cut:]]
        else:
            words = [eps]
        G = GaussDiagram(signs, words)
        empty += not all(G.circles)
        seed = rng.randrange(10**9)
        got = random_walk(G, 30, seed, 40)
        want = ref_random_walk(G, 30, seed, 40)
        assert got[1] == want[1], (G, seed)
        assert image(got[0]) == image(want[0])
    assert empty > 40
