"""Differential and property tests of the fast isomorphism key, and of the
per-chord queries on unvalidated diagrams.

The rotate-and-rename key ``ref_key`` (``reference.py``) is the reference
definition of diagram isomorphism that ``canonical_key`` must reproduce: the
two keys differ in value, but must agree on which diagrams they call equal.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from shellmoves.algebra import least_rotation, period
from shellmoves.diagram import (
    INITIAL,
    TERMINAL,
    Endpoint,
    GaussDiagram,
    canonical_key,
    parse_gauss_code,
)
from shellmoves.errors import DuplicateEndpoint, MissingEndpoint, UnknownChordId

from conftest import chord_type, is_free, random_diagram, relabel_and_rotate
from reference import ref_key

N_PAIRS = 4000


def three_circles(rng: random.Random, max_chords: int) -> GaussDiagram:
    """Endpoints of a random diagram cut into three words, any of which may
    be empty."""
    G = random_diagram(rng, 1, max_chords)
    eps = list(G.circles[0])
    a, b = sorted(rng.randint(0, len(eps)) for _ in range(2))
    return GaussDiagram(G.signs, [eps[:a], eps[a:b], eps[b:]])


def periodic(rng: random.Random, mu: int, copies: int) -> GaussDiagram:
    """``copies`` repeats of one random block of chords on every circle, so
    each circle word is periodic; block chords may join two circles."""
    block = [(rng.randrange(mu), rng.randrange(mu), rng.choice((1, -1)),
              rng.random() < 0.5) for _ in range(rng.randint(1, 3))]
    signs: dict[str, int] = {}
    circles: list[list[Endpoint]] = [[] for _ in range(mu)]
    for copy in range(copies):
        for b, (ci, ct, sign, terminal_first) in enumerate(block):
            cid = f"p{copy}_{b}"
            signs[cid] = sign
            ends = [(ci, INITIAL), (ct, TERMINAL)]
            if terminal_first:
                ends.reverse()
            for c, kind in ends:
                circles[c].append((cid, kind))
    return GaussDiagram(signs, circles)


def nudge(rng: random.Random, G: GaussDiagram) -> GaussDiagram:
    """Swap two adjacent endpoints or flip one chord's sign: usually a
    different diagram, sometimes an isomorphic one."""
    if rng.random() < 0.5 and G.signs:
        cid = rng.choice(sorted(G.signs))
        signs = dict(G.signs)
        signs[cid] = -signs[cid]
        return GaussDiagram(signs, G.circles)
    circles = [list(w) for w in G.circles]
    word = rng.choice(circles)
    if len(word) >= 2:
        p = rng.randrange(len(word))
        q = (p + 1) % len(word)
        word[p], word[q] = word[q], word[p]
    return GaussDiagram(G.signs, circles)


def sample_diagram(rng: random.Random, trial: int) -> GaussDiagram:
    mu = rng.choice((1, 2, 3))
    if trial % 4 == 3:
        return periodic(rng, mu, rng.randint(1, 4))
    G = three_circles(rng, 5) if mu == 3 else random_diagram(rng, mu, 5)
    if trial % 4 == 1:  # equal signs provoke rotation ties
        G = GaussDiagram({cid: 1 for cid in G.signs}, G.circles)
    return G


def test_key_equality_matches_reference():
    rng = random.Random(11)
    equal = unequal = 0
    for trial in range(N_PAIRS):
        G = sample_diagram(rng, trial)
        roll = rng.random()
        if roll < 0.4:
            H = relabel_and_rotate(rng, G)
        elif roll < 0.75:
            H = relabel_and_rotate(rng, nudge(rng, G))
        else:
            H = sample_diagram(rng, trial)
            if H.mu != G.mu:
                continue
        same = ref_key(G) == ref_key(H)
        assert (canonical_key(G) == canonical_key(H)) == same, (G, H)
        equal += same
        unequal += not same
    # both sides of the relation are exercised
    assert equal > 1000 and unequal > 1000


def test_periodic_words_with_nonself_chords():
    # circle 1 reads the same from each of its three endpoints, and each
    # start names the chords differently; circle 2 decides the key
    def link(first, second):
        return parse_gauss_code(
            "circles: 2\nchord a +\nchord b +\nchord c +\n"
            f"circle 1: {first}\ncircle 2: {second}")

    P = link("a< b< c<", "a> b> c>")
    Q = link("b< c< a<", "c> a> b>")
    R = link("a< b< c<", "a> c> b>")
    assert canonical_key(P) == canonical_key(Q)
    assert canonical_key(P) != canonical_key(R)
    assert ref_key(P) == ref_key(Q) != ref_key(R)


def test_empty_circles():
    def link(*words, chords="x"):
        return parse_gauss_code(
            f"circles: {len(words)}\n"
            + "".join(f"chord {c} +\n" for c in chords)
            + "".join(f"circle {i}: {w}\n" for i, w in enumerate(words, 1)))

    a = link("x<", "", "x>")
    assert canonical_key(a) == canonical_key(link("y<", "", "y>", chords="y"))
    assert canonical_key(a) != canonical_key(link("x<", "x>", ""))
    assert canonical_key(link("", "", chords="")) == ((), ())


def test_least_rotation_and_period_match_brute_force():
    rng = random.Random(3)
    for _ in range(2000):
        s = [rng.randrange(3) for _ in range(rng.randint(1, 12))]
        if rng.random() < 0.3:
            s = s[:rng.randint(1, len(s))] * rng.randint(2, 4)
        n = len(s)
        rots = [s[r:] + s[:r] for r in range(n)]
        least = min(rots)
        assert least_rotation(s) == rots.index(least)
        assert period(tuple(least)) == next(
            p for p in range(1, n + 1) if least[p:] + least[:p] == least)


@st.composite
def diagrams_and_images(draw):
    """A random diagram of up to three circles and an image of it under a
    random rotation of every circle and a random renaming of the chords."""
    n = draw(st.integers(0, 7))
    mu = draw(st.integers(1, 3))
    signs = {f"c{i}": draw(st.sampled_from((1, -1))) for i in range(n)}
    eps = draw(st.permutations(
        [(c, k) for c in signs for k in (INITIAL, TERMINAL)]))
    cuts = sorted(draw(st.lists(st.integers(0, len(eps)),
                                min_size=mu - 1, max_size=mu - 1)))
    bounds = [0] + cuts + [len(eps)]
    words = [eps[a:b] for a, b in zip(bounds, bounds[1:])]
    G = GaussDiagram(signs, words)
    renamed = draw(st.permutations([f"z{i}" for i in range(n)]))
    table = dict(zip(signs, renamed))
    circles = []
    for word in words:
        r = draw(st.integers(0, max(len(word) - 1, 0)))
        word = [(table[ep[0]], ep[1]) for ep in word]
        circles.append(word[r:] + word[:r])
    H = GaussDiagram({table[c]: s for c, s in signs.items()}, circles)
    return G, H


@settings(max_examples=300, deadline=None)
@given(diagrams_and_images())
def test_key_invariant_under_rotation_and_renaming(pair):
    G, H = pair
    assert canonical_key(G) == canonical_key(H)


def test_unvalidated_copy_answers_chord_queries_like_validated():
    rng = random.Random(4)
    for _ in range(200):
        V = three_circles(rng, 8) if rng.random() < 0.3 else \
            random_diagram(rng, rng.choice((1, 2)), 8)
        L = GaussDiagram._unchecked(dict(V.signs), V.circles)
        for cid in V.signs:
            for kind in (INITIAL, TERMINAL):
                assert L.locate(cid, kind) == V.locate(cid, kind)
            assert is_free(L, cid) == is_free(V, cid)
            assert chord_type(L, cid) == chord_type(V, cid)
            assert L.chord_circles(cid) == V.chord_circles(cid)
        with pytest.raises(UnknownChordId):
            L.locate("no such chord", INITIAL)


@pytest.mark.parametrize("text, error", [
    ("circles: 1\nchord a +\ncircle 1: a< a<", DuplicateEndpoint),
    ("circles: 1\nchord a +\nchord b -\ncircle 1: a< a> b<", MissingEndpoint),
    ("circles: 1\nchord a +\ncircle 1: a< b> a>", UnknownChordId),
])
def test_parser_still_validates(text, error):
    with pytest.raises(error):
        parse_gauss_code(text)
