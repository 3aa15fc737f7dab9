"""Shared fixtures: frozen reference diagrams and random generators."""

import random

import pytest

from shellmoves.algebra import LaurentPoly, gamma_class
from shellmoves.diagram import Endpoint, GaussDiagram, INITIAL, TERMINAL, parse_gauss_code
from shellmoves.errors import ConstraintViolated
from shellmoves.invariants import profile
from shellmoves.normal_form import LinkForm, build_link_form, realize_link

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


# -- one snail, written out by hand -----------------------------------------------


def ref_self_snail_words(main, shells, eps, n):
    sigma = -eps * (1 if n > 0 else -1) if n else 0
    near = INITIAL if eps > 0 else TERMINAL
    far = TERMINAL if eps > 0 else INITIAL
    signs = {main: eps}
    signs.update({s: sigma for s in shells})
    word = [(main, INITIAL)]
    word += [(s, near) for s in shells]
    word.append((main, TERMINAL))
    word += [(s, far) for s in reversed(shells)]
    return signs, word


def ref_nonself_snail_words(main, shells, eps, n):
    sigma = -eps * (1 if n > 0 else -1) if n else 0
    before = INITIAL if eps < 0 else TERMINAL
    after = TERMINAL if eps < 0 else INITIAL
    signs = {main: eps}
    signs.update({s: sigma for s in shells})
    src = [(s, before) for s in shells]
    src.append((main, INITIAL))
    src += [(s, after) for s in reversed(shells)]
    return signs, src, [(main, TERMINAL)]


def ref_encode_snail(kind, eps, n):
    """The snail S(n) of sign ``eps`` as a standalone diagram through the
    checking constructor, chords named g, s1..s|n|: on one circle for
    ``kind`` "self", from circle 1 to circle 2 for "nonself"."""
    shells = [f"s{j}" for j in range(1, abs(n) + 1)]
    if kind == "self":
        signs, word = ref_self_snail_words("g", shells, eps, n)
        return GaussDiagram(signs, [word])
    signs, src, dst = ref_nonself_snail_words("g", shells, eps, n)
    return GaussDiagram(signs, [src, dst])


# -- one-shot chord queries that only tests ask ---------------------------------


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


def ref_nest_around(G, circle, p):
    word = G.circles[circle]
    n = len(word)
    e = word[p]
    want_initial_first = G.endpoint_sign(e) > 0
    layers = []
    k = 0
    while 2 * (k + 1) + 1 <= n:
        a, a_kind = word[(p - 1 - k) % n]
        b, b_kind = word[(p + 1 + k) % n]
        if a != b or a == e[0] or a_kind == b_kind:
            break
        if (a_kind == INITIAL) != want_initial_first:
            break
        layers.append(a)
        k += 1
    return layers


def ref_detect_shells(G):
    """The chords nested as a shell around some endpoint."""
    return {cid for ci, word in enumerate(G.circles) for p in range(len(word))
            for cid in ref_nest_around(G, ci, p)}


# -- realization blocks, written out by hand ------------------------------------
#
# References for the package's private realization helpers and its fresh-id
# scheme; tests that rebuild ``realize_link`` call these, never the code
# they check.


def ref_fresh_ids(G, prefix, n):
    """The first ``n`` ids ``<prefix><k>`` not in use, for k > len(G)."""
    out = []
    k = len(G.signs)
    while len(out) < n:
        k += 1
        if f"{prefix}{k}" not in G.signs:
            out.append(f"{prefix}{k}")
    return out


def ref_check_support(name, coeffs, banned):
    hit = sorted(set(coeffs) & banned)
    if any(coeffs[n] for n in hit):
        raise ConstraintViolated(
            f"{name} must vanish on slots {sorted(banned)}; got {hit}")


def ref_dress_endpoint(G, chord, kind, total):
    if total == 0:
        return G
    c, p = G.locate(chord, kind)
    ep = G.circles[c][p]
    s_ep = G.endpoint_sign(ep)
    sigma = 1 if total > 0 else -1
    ids = ref_fresh_ids(G, "r", abs(total))
    near, far = (INITIAL, TERMINAL) if s_ep > 0 else (TERMINAL, INITIAL)
    seg = [ep]
    for sid in ids:
        seg = [(sid, near)] + seg + [(sid, far)]
    word = G.circles[c]
    circles = list(G.circles)
    circles[c] = word[:p] + tuple(seg) + word[p + 1:]
    signs = dict(G.signs)
    signs.update({sid: sigma for sid in ids})
    return GaussDiagram(signs, circles)


def ref_transfer_shells(G, chord, x):
    """x shells around the nonself chord's circle-1 endpoint and -x around
    its circle-2 endpoint, the initial endpoint dressed first."""
    on_first = G.locate(chord, INITIAL)[0] == 0
    G = ref_dress_endpoint(G, chord, INITIAL, x if on_first else -x)
    return ref_dress_endpoint(G, chord, TERMINAL, -x if on_first else x)


def ref_append_gadget(G, circle, positive):
    g, s = ref_fresh_ids(G, "r", 2)
    if positive:
        block = ((s, TERMINAL), (g, INITIAL),
                 (s, INITIAL), (g, TERMINAL))
        signs = {g: 1, s: -1}
    else:
        block = ((g, INITIAL), (s, TERMINAL),
                 (g, TERMINAL), (s, INITIAL))
        signs = {g: -1, s: 1}
    circles = list(G.circles)
    circles[circle] = circles[circle] + block
    allsigns = dict(G.signs)
    allsigns.update(signs)
    return GaussDiagram(allsigns, circles)


def ref_nonself_anchor(G):
    """The first chord in ``signs`` order whose endpoints lie on different
    circles; with none, a new pair q1 +, q2 - running in parallel from the
    end of circle 1 to the end of circle 2, and q1."""
    for cid in G.signs:
        ci, ct = G.chord_circles(cid)
        if ci != ct:
            return G, cid
    q1, q2 = ref_fresh_ids(G, "r", 2)
    circles = list(G.circles)
    circles[0] += ((q1, INITIAL), (q2, INITIAL))
    circles[1] += ((q1, TERMINAL), (q2, TERMINAL))
    signs = dict(G.signs)
    signs.update({q1: 1, q2: -1})
    return GaussDiagram(signs, circles), q1


# an R3 configuration, whose three adjacent endpoint pairs walks seldom
# bring together: tests deal these blocks into diagrams by hand
R3_SIGNS = {"p": -1, "q": -1, "x": 1}
R3_BLOCKS = ((("p", TERMINAL), ("q", TERMINAL)),
             (("p", INITIAL), ("x", INITIAL)),
             (("q", INITIAL), ("x", TERMINAL)))


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


def random_canonical_form(rng: random.Random, lam: int) -> LinkForm:
    """A random snail form already in canonical position for its regime."""
    def slots(banned):
        out = {}
        for _ in range(rng.randint(0, 3)):
            n = rng.randint(-5, 6)
            if n not in banned:
                out[n] = rng.randint(-2, 2)
        return {n: v for n, v in out.items() if v}

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
        out = {}
        for _ in range(rng.randint(0, k)):
            n = rng.randint(-5, 6)
            if n not in banned:
                out[n] = rng.randint(-3, 3)
        return {n: v for n, v in out.items() if v}

    if lam == 0:
        a, b = slots({0}), slots({0})
        c, d = slots(set(), 3), slots(set(), 3)
        diff = sum(c.values()) - sum(d.values())
        if diff:
            d[7] = d.get(7, 0) + diff
            d = {m: v for m, v in d.items() if v}
        tot = (sum(n * v for n, v in a.items())
               + sum(n * v for n, v in b.items())
               + sum(m * v for m, v in c.items())
               + sum(m * v for m, v in d.items()))
        a[1] = a.get(1, 0) - tot
        return {n: v for n, v in a.items() if v}, b, c, d
    if lam == 1:
        return slots({0, -1}), slots({0, 1}), {0: rng.randint(-3, 4)}, {}
    a, b = slots({0, -lam}), slots({0, lam})
    c = {m: rng.randint(-2, 2) for m in range(lam)}
    d = {m: rng.randint(-2, 2) for m in range(lam)}
    d[0] = d.get(0, 0) + (sum(c.values()) - sum(d.values()) - lam)
    tot = (sum(n * v for n, v in a.items()) + sum(n * v for n, v in b.items())
           + sum(m * v for m, v in c.items()) - sum(m * v for m, v in d.items()))
    a[1] = a.get(1, 0) - (tot % lam)
    return ({n: v for n, v in a.items() if v}, b,
            {m: v for m, v in c.items() if v},
            {m: v for m, v in d.items() if v})


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
