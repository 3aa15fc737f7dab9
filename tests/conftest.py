"""Shared fixtures: frozen reference diagrams, random generators and the
seeded inputs that more than one test module reads.  The reference
implementations live in ``reference.py``."""

import functools
import random

import pytest
from hypothesis import strategies as st

from shellmoves.algebra import LaurentPoly, gamma_class
from shellmoves.diagram import (Endpoint, GaussDiagram, INITIAL, TERMINAL,
                                canonical_key, parse_gauss_code)
from shellmoves.invariants import profile
from shellmoves.normal_form import LinkForm, build_link_form, realize_link

from reference import (ref_apply_r3, ref_encode_snail, ref_random_walk,
                       ref_sites_r3, ref_weighted)

# Five-chord one-circle diagram with index writhes J_3 = J_-1 = 1, J_1 = -2,
# hence writhe polynomial t^-1 - 2t + t^3 and odd writhe 0.  Chord indices,
# hand-checked from the word below: a:1 b:3 c:0 d:-1 e:1.
REFERENCE_KNOT_CODE = """\
circles: 1
chord a -
chord b +
chord c -
chord d +
chord e -
circle 1: a< e< b> e> a> d< b< d> c< c>
"""
REFERENCE_KNOT_INDICES = {"a": 1, "b": 3, "c": 0, "d": -1, "e": 1}

# Snail data of the reference 2-component diagram: linking numbers (3, 1),
# lambda 2, invariant-slot writhes {2: 2, 3: -1} / {-1: 2}, linking class
# represented by (t^-1 + 1 + t^4, 2t^2 - t^3).
REFERENCE_LINK_SNAILS = dict(a={2: 2, 3: -1}, b={-1: 2},
                             c={0: 1, -1: 1, 4: 1}, d={2: 2, 3: -1})


def link_from_snails(a, b, c, d) -> GaussDiagram:
    """The snail-form link with self snails ``a``/``b`` and nonself snails
    ``c``/``d``, its lambda read off ``c`` and ``d``."""
    return build_link_form(
        LinkForm(sum(c.values()) - sum(d.values()), a, b, c, d))


@pytest.fixture
def reference_knot() -> GaussDiagram:
    return parse_gauss_code(REFERENCE_KNOT_CODE)


@pytest.fixture
def reference_link() -> GaussDiagram:
    return link_from_snails(**REFERENCE_LINK_SNAILS)


# -- one-shot chord queries that only tests ask -------------------------------


def chord_type(G: GaussDiagram, chord: str) -> tuple[int, int] | None:
    """(i, j) for a nonself chord oriented from circle i to circle j,
    1-based; None for a self-chord."""
    i, t = G.chord_circles(chord)
    return None if i == t else (i + 1, t + 1)


def is_free(G: GaussDiagram, chord: str) -> bool:
    """Whether the chord's two endpoints are adjacent on one circle."""
    ci, pi = G.locate(chord, INITIAL)
    ct, pt = G.locate(chord, TERMINAL)
    if ci != ct:
        return False
    n = len(G.circles[ci])
    return (pi - pt) % n == 1 or (pt - pi) % n == 1


def circle_sign_sum(G: GaussDiagram, circle: int) -> int:
    return sum(G.endpoint_sign(ep) for ep in G.circles[circle])


# an R3 configuration, whose three adjacent endpoint pairs walks seldom
# bring together: tests deal these blocks into diagrams by hand
R3_SIGNS = {"p": -1, "q": -1, "x": 1}
R3_BLOCKS = ((("p", TERMINAL), ("q", TERMINAL)),
             (("p", INITIAL), ("x", INITIAL)),
             (("q", INITIAL), ("x", TERMINAL)))


def chord_blocks(rng, signs, count):
    """``count`` more chords c0, c1, ... with random signs, added to
    ``signs``, one block per endpoint."""
    blocks = []
    for k in range(count):
        signs[f"c{k}"] = rng.choice((1, -1))
        blocks += [((f"c{k}", INITIAL),), ((f"c{k}", TERMINAL),)]
    return blocks


def dealt(rng, signs, blocks, mu):
    """The blocks dealt in random order onto ``mu`` circles, each word
    rotated at random, with the chords' signs in random order."""
    blocks = list(blocks)
    rng.shuffle(blocks)
    words = [[] for _ in range(mu)]
    for block in blocks:
        rng.choice(words).extend(block)
    for w in words:
        r = rng.randrange(max(len(w), 1))
        w[:] = w[r:] + w[:r]
    order = list(signs)
    rng.shuffle(order)
    return GaussDiagram({cid: signs[cid] for cid in order}, words)


def random_diagram(rng: random.Random, mu: int, max_chords: int,
                   chords: int | None = None) -> GaussDiagram:
    """Uniform-ish random diagram: random chord signs and circle assignment,
    endpoints shuffled into the circle words."""
    n = rng.randint(0, max_chords) if chords is None else chords
    ids = [f"c{i}" for i in range(n)]
    signs = {cid: rng.choice((1, -1)) for cid in ids}
    eps = [(cid, k) for cid in ids for k in (INITIAL, TERMINAL)]
    rng.shuffle(eps)
    if mu == 1:
        return GaussDiagram(signs, [tuple(eps)])
    cut = rng.randint(0, len(eps))
    return GaussDiagram(signs, [tuple(eps[:cut]), tuple(eps[cut:])])


def random_link_with_lambda(rng: random.Random, lam: int,
                            max_self: int = 4, max_extra: int = 2
                            ) -> GaussDiagram:
    """Random two-circle diagram with the prescribed linking difference.

    Nonself chords are dealt so the type-(1,2) and type-(2,1) signed counts
    differ by exactly ``lam``; self chords and endpoint placement are random.
    """
    base = rng.randint(0, max_extra)
    lk12 = lam + rng.randint(-max_extra, max_extra)
    lk21 = lk12 - lam
    chords: list[tuple[str, int, int, int]] = []  # id, sign, circ_i, circ_t
    k = 0

    def deal(total: int, pad: int, src: int, dst: int):
        nonlocal k
        signs = [1] * max(total, 0) + [-1] * max(-total, 0) + [1, -1] * pad
        for s in signs:
            chords.append((f"n{k}", s, src, dst))
            k += 1

    deal(lk12, base, 0, 1)
    deal(lk21, rng.randint(0, max_extra), 1, 0)
    for _ in range(rng.randint(0, max_self)):
        c = rng.choice((0, 1))
        chords.append((f"n{k}", rng.choice((1, -1)), c, c))
        k += 1
    signs = {cid: s for cid, s, _, _ in chords}
    words: tuple[list[Endpoint], list[Endpoint]] = ([], [])
    for cid, _, ci, ct in chords:
        words[ci].insert(rng.randint(0, len(words[ci])), (cid, INITIAL))
        words[ct].insert(rng.randint(0, len(words[ct])), (cid, TERMINAL))
    return GaussDiagram(signs, [tuple(words[0]), tuple(words[1])])


def _random_slots(rng, banned, most, span):
    """Up to ``most`` nonzero coefficients in -span..span on slots -5..6
    outside ``banned``."""
    out = {}
    for _ in range(rng.randint(0, most)):
        n = rng.randint(-5, 6)
        if n not in banned:
            out[n] = rng.randint(-span, span)
    return {n: v for n, v in out.items() if v}


def random_canonical_form(rng: random.Random, lam: int) -> LinkForm:
    """A random snail form already in canonical position for its regime."""
    def slots(banned):
        return _random_slots(rng, banned, 3, 2)

    if lam == 0:
        a, b = slots({0, 1}), slots({0, 1})
        c = {rng.randint(-3, 3): rng.randint(-2, 2)
             for _ in range(rng.randint(0, 3))}
        d = {m + rng.randint(-1, 1): v for m, v in c.items()}
        cls = gamma_class(0, LaurentPoly(c), LaurentPoly(d))
        diff = cls.f.eval_at_one() - cls.g.eval_at_one()
        if diff:
            g2 = cls.g + LaurentPoly({max(cls.g.coeffs(), default=0) + 1: diff})
            cls = gamma_class(0, cls.f, g2)
        return LinkForm(0, a, b, cls.f.coeffs(), cls.g.coeffs(), 0)
    if lam == 1:
        a, b = slots({0, 1, -1}), slots({0, 1, 2})
        c0 = rng.randint(-3, 4)
        return LinkForm(1, a, b, {0: c0}, {0: c0 - 1}, 0)
    a = slots({0, 1, -lam, -lam + 1})
    b = slots({0, 1, lam, lam + 1})
    c = [rng.randint(-2, 2) for _ in range(lam)]
    d = [rng.randint(-2, 2) for _ in range(lam)]
    d[0] += sum(c) - sum(d) - lam
    cls = gamma_class(lam, LaurentPoly(dict(enumerate(c))),
                      LaurentPoly({-m: v for m, v in enumerate(d)}))
    cvec = cls.f.vector(lam)
    dvec = [cls.g.vector(lam)[(-m) % lam] for m in range(lam)]
    p = rng.randint(-3, 3)
    return LinkForm(lam, a, b, {p + m: cvec[m] for m in range(lam)},
                    {-p - m: dvec[m] for m in range(lam)}, p)


def random_link_targets(rng, lam):
    """Random (a, b, c, d) that satisfy the realization constraints for
    ``lam``: the sums balance and the weighted total is 0 (mod lam)."""
    def slots(banned, k=4):
        return _random_slots(rng, banned, k, 3)

    if lam == 0:
        a, b = slots({0}), slots({0})
        c, d = slots(set(), 3), slots(set(), 3)
        diff = sum(c.values()) - sum(d.values())
        if diff:
            d[7] = d.get(7, 0) + diff
            d = {m: v for m, v in d.items() if v}
        a[1] = a.get(1, 0) - ref_weighted(a, b, c, d)
        return {n: v for n, v in a.items() if v}, b, c, d
    if lam == 1:
        return slots({0, -1}), slots({0, 1}), {0: rng.randint(-3, 4)}, {}
    a, b = slots({0, -lam}), slots({0, lam})
    c = {m: rng.randint(-2, 2) for m in range(lam)}
    d = {m: rng.randint(-2, 2) for m in range(lam)}
    d[0] = d.get(0, 0) + (sum(c.values()) - sum(d.values()) - lam)
    a[1] = a.get(1, 0) - (ref_weighted(a, b, c) - ref_weighted(d)) % lam
    return ({n: v for n, v in a.items() if v}, b,
            {m: v for m, v in c.items() if v},
            {m: v for m, v in d.items() if v})


def realize_args(pr):
    """``realize_link`` arguments read off the profile of a link with
    lambda >= 0, as ``shellmoves realize`` takes them from a target block."""
    cls, lam = pr.linking_class, pr.lam
    if lam == 0:
        c, d = cls.f.coeffs(), cls.g.coeffs()
    elif lam == 1:
        c, d = {0: pr.lk12}, {}
    else:
        c = dict(enumerate(cls.f.vector(lam)))
        d = {m: cls.g.vector(lam)[(-m) % lam] for m in range(lam)}
    return lam, pr.jn1, pr.jn2, c, d


def image(G):
    """The signs in insertion order and the words, as rewrites must give
    them."""
    return list(G.signs.items()), G.circles


def assert_link_targets_hit(lam, a, b, c, d):
    pr = profile(realize_link(lam, a, b, c, d))
    assert pr.lam == lam
    assert pr.jn1 == a and pr.jn2 == b
    if lam == 0:
        assert pr.linking_class == gamma_class(0, LaurentPoly(c),
                                               LaurentPoly(d))
    elif lam == 1:
        assert (pr.lk12, pr.lk21) == (c.get(0, 0), c.get(0, 0) - 1)
    else:
        assert pr.linking_class == gamma_class(
            lam, LaurentPoly(c), LaurentPoly({-m: v for m, v in d.items()}))


def oracle_pool() -> tuple[list[GaussDiagram], list[GaussDiagram]]:
    """The desk-scale pool the witness oracle is checked on: 8 knots and 4
    two-circle links, at most 3 chords each."""
    knots = [
        parse_gauss_code("circles: 1\ncircle 1:"),
        parse_gauss_code("circles: 1\nchord g +\ncircle 1: g< g>"),
        parse_gauss_code("circles: 1\nchord g -\ncircle 1: g< g>"),
        ref_encode_snail("self", 1, 1),
        parse_gauss_code("circles: 1\nchord x +\nchord y -\n"
                         "circle 1: x< y< x> y>"),
        parse_gauss_code("circles: 1\nchord x +\nchord y -\n"
                         "circle 1: x< x> y< y>"),
        parse_gauss_code("circles: 1\nchord x +\nchord y +\n"
                         "circle 1: x< y< x> y>"),
        ref_encode_snail("self", 1, 2),
    ]
    links = [
        parse_gauss_code("circles: 2\ncircle 1:\ncircle 2:"),
        parse_gauss_code("circles: 2\nchord g +\ncircle 1: g<\ncircle 2: g>"),
        parse_gauss_code("circles: 2\nchord g -\ncircle 1: g<\ncircle 2: g>"),
        parse_gauss_code("circles: 2\nchord x +\nchord y -\n"
                         "circle 1: x< y<\ncircle 2: x> y>"),
    ]
    return knots, links


def pool_pairs():
    """Each unordered pair of the oracle pool's knots, then of its links,
    a diagram paired with itself included: 46 pairs."""
    for pool in oracle_pool():
        for i, A in enumerate(pool):
            for B in pool[i:]:
                yield A, B


def relabel_and_rotate(rng: random.Random, G: GaussDiagram) -> GaussDiagram:
    """An isomorphic copy of ``G``: chords renamed at random and every
    circle rotated at random."""
    names = list(G.signs)
    table = dict(zip(names, rng.sample(names, len(names))))
    circles = []
    for word in G.circles:
        word = tuple((table[ep[0]], ep[1]) for ep in word)
        r = rng.randrange(len(word)) if word else 0
        circles.append(word[r:] + word[:r])
    return GaussDiagram({table[c]: s for c, s in G.signs.items()}, circles)


# -- the census of small diagrams ---------------------------------------------

# mu: (largest chord count, chord cap, (classes by chord count 0, 1, ...,
# listed moves within the cap)); a finder that loses a site variant moves the
# move count even where the components stay as they are
CENSUS = {1: (4, 4, ([1, 2, 14, 164, 3388], 10600)),
          2: (3, 3, ([1, 8, 74, 1072], 3148))}


def _inserted(word: tuple, gap: int, ep: Endpoint) -> tuple:
    return word[:gap] + (ep,) + word[gap:]


def grown(G: GaussDiagram):
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


@functools.cache
def census_classes():
    """One diagram per isomorphism class of the census, in chord-count
    order: knots of at most 4 chords, then two-circle links of at most 3."""
    out = []
    for mu, (most, _, _) in CENSUS.items():
        empty = GaussDiagram({}, [()] * mu)
        layer = {canonical_key(empty): empty}
        out += layer.values()
        for _ in range(most):
            layer = {canonical_key(H): H for G in layer.values()
                     for H in grown(G)}
            out += layer.values()
    return out


# -- seeded move inputs, built by references only -----------------------------


@functools.cache
def walked_diagrams(count=3000):
    """1- and 2-circle diagrams of up to 3 chords reached by short walks
    (the reference walk, so the inputs do not depend on the code tested)."""
    rng = random.Random(8)
    out = []
    for i in range(count):
        G = random_diagram(rng, 1 + i % 2, 1)
        G, _ = ref_random_walk(G, rng.randrange(4), rng.randrange(10**6),
                               len(G) + 2)
        out.append(G)
    return out


@functools.cache
def r3_diagrams(count=400):
    """Diagrams built to hold R3 configurations, which walks seldom reach:
    the pairs (p>, q>), (p<, x<), (q<, x>) with x + and p, q -, and up to
    four other chords, dealt as blocks onto one or two circles with each
    word rotated (so a pair may straddle the basepoint) and the signs in
    random order; then the image of each of their R3 sites, which holds
    the swapped configuration."""
    rng = random.Random(11)
    out = []
    for i in range(count):
        signs = dict(R3_SIGNS)
        blocks = [*R3_BLOCKS, *chord_blocks(rng, signs, rng.randint(0, 4))]
        G = dealt(rng, signs, blocks, 1 + i % 2)
        out.append(G)
        out += [ref_apply_r3(G, site)[0] for site in ref_sites_r3(G)]
    return out


# -- random Gauss-code text ---------------------------------------------------

CODE_PIECES = ("circles:", "circles: 1", "circles: 2", "circle", "circle 1:",
               "circle 2:", "circle 3:", "chord", "g", "h", "g<", "g>", "h<",
               "h>", "<", ">", "+", "-", "0", "1", "2", "-1", ":", "#", " ",
               "\n", "\t", "é")


def texts(pieces):
    """Random text, and space- or un-joined runs of ``pieces``."""
    return st.one_of(st.text(), st.lists(st.sampled_from(pieces),
                                         max_size=24).map(" ".join),
                     st.lists(st.sampled_from(pieces), max_size=24).map("".join))
