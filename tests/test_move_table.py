"""The kind table against the per-kind registries it replaced.

The references below are the earlier R1/R2 handlers, which inserted blocks
through a sorted gap list and deleted endpoints by position, and the earlier
growth rule.  The table's handlers must give the same images (signs order
and words), the same inverse sites and the same errors; ``fits`` must
answer as the growth rule did; and walks must take the same steps.
"""

import random

import pytest

from shellmoves import moves
from shellmoves.diagram import INITIAL, TERMINAL, Endpoint, GaussDiagram, serialize
from shellmoves.errors import StaleSite
from shellmoves.moves import (MOVE_KINDS, R1_DELETE, R1_INSERT, R2_DELETE,
                              R2_INSERT, MoveSite, apply_move_with_inverse,
                              find_move_sites, fits, random_walk)

from conftest import random_diagram

_check, _fresh_ids, _pair, _sgn, _word = (
    moves._check, moves._fresh_ids, moves._pair, moves._sgn, moves._word)

REF_MOVE_KINDS = ("R1_insert", "R1_delete", "R2_insert", "R2_delete", "R3",
                  "S1", "S2_insert", "S2_delete")
REF_GROWTH = {"R1_insert": 1, "R2_insert": 2, "S2_insert": 2}


# -- references -------------------------------------------------------------------


def ref_insert_blocks(word, inserts):
    out = []
    prev = 0
    for g, blk in sorted(inserts, key=lambda ins: ins[0]):
        out.extend(word[prev:g])
        out.extend(blk)
        prev = g
    out.extend(word[prev:])
    return tuple(out)


def ref_delete_positions(word, positions):
    drop = set(positions)
    return tuple(ep for i, ep in enumerate(word) if i not in drop)


def ref_r1_insert(G, site):
    (c, g), = site.anchors
    sgn, order = site.params
    eps = _sgn(sgn)
    _check(order in ("IT", "TI"), f"bad insertion order {order!r}")
    word = _word(G, c)
    _check(0 <= g <= len(word), "bad gap")
    cid, = _fresh_ids(G, "n", 1)
    pair = [Endpoint(cid, INITIAL), Endpoint(cid, TERMINAL)]
    if order == "TI":
        pair.reverse()
    circles = list(G.circles)
    circles[c] = ref_insert_blocks(word, [(g, pair)])
    signs = dict(G.signs)
    signs[cid] = eps
    return (GaussDiagram(signs, circles, validate=False),
            MoveSite(R1_DELETE, ((c, g),)))


def ref_r1_delete(G, site):
    (c, p), = site.anchors
    u, v = _pair(G, c, p)
    _check(u.chord == v.chord and u != v, "tokens are not a free chord")
    word = G.circles[c]
    q = (p + 1) % len(word)
    circles = list(G.circles)
    circles[c] = ref_delete_positions(word, (p, q))
    signs = dict(G.signs)
    sign = signs.pop(u.chord)
    gap = q - (1 if p < q else 0)
    order = "IT" if u.kind == INITIAL else "TI"
    inv = MoveSite(R1_INSERT, ((c, gap),), ("+" if sign > 0 else "-", order))
    return GaussDiagram(signs, circles, validate=False), inv


def ref_r2_insert(G, site):
    (c1, g1), (c2, g2) = site.anchors
    variant, sgn = site.params[:2]
    t_first = site.params[2:] == ("tfirst",)
    if len(site.params) == 3 and not t_first:
        raise StaleSite(f"bad parameter {site.params[2]!r}")
    eps = _sgn(sgn)
    _check(variant in ("par", "anti"), f"bad variant {variant!r}")
    _check(not t_first or (c1, g1) == (c2, g2), "tfirst needs a shared gap")
    for c, g in site.anchors:
        _check(0 <= g <= len(_word(G, c)), "bad gap")
    x, y = _fresh_ids(G, "n", 2)
    head = [Endpoint(x, INITIAL), Endpoint(y, INITIAL)]
    tail = [Endpoint(x, TERMINAL), Endpoint(y, TERMINAL)]
    if variant == "anti":
        tail.reverse()
    circles = list(G.circles)
    if c1 == c2:
        blocks = [(g2, tail), (g1, head)] if t_first else [(g1, head), (g2, tail)]
        circles[c1] = ref_insert_blocks(G.circles[c1], blocks)
        if g1 < g2:
            p1, p2 = g1, g2 + 2
        elif g1 > g2:
            p1, p2 = g1 + 2, g2
        elif t_first:
            p1, p2 = g1 + 2, g1
        else:
            p1, p2 = g1, g1 + 2
    else:
        circles[c1] = ref_insert_blocks(G.circles[c1], [(g1, head)])
        circles[c2] = ref_insert_blocks(G.circles[c2], [(g2, tail)])
        p1, p2 = g1, g2
    signs = dict(G.signs)
    signs[x] = eps
    signs[y] = -eps
    inv = MoveSite(R2_DELETE, ((c1, p1), (c2, p2)), (variant,))
    return GaussDiagram(signs, circles, validate=False), inv


def ref_r2_delete(G, site):
    x, y = moves._validate_r2_pattern(G, site)
    (c1, p1), (c2, p2) = site.anchors
    n1, n2 = len(G.circles[c1]), len(G.circles[c2])
    pos = {(c1, p1), (c1, (p1 + 1) % n1), (c2, p2), (c2, (p2 + 1) % n2)}
    _check(len(pos) == 4, "overlapping pairs")
    circles = list(G.circles)
    by_circle = {}
    for c, p in pos:
        by_circle.setdefault(c, []).append(p)
    for c, ps in by_circle.items():
        circles[c] = ref_delete_positions(G.circles[c], ps)
    signs = dict(G.signs)
    eps = signs.pop(x)
    signs.pop(y)
    variant = site.params[0]

    def _gap(c, p):
        second = (p + 1) % len(G.circles[c])
        removed_before = sum(1 for cc, pp in pos if cc == c and pp < second)
        return second - removed_before

    g1, g2 = _gap(c1, p1), _gap(c2, p2)
    params = [variant, "+" if eps > 0 else "-"]
    if c1 == c2 and g1 == g2 and (p2 + 2) % n1 == p1:
        params.append("tfirst")
    inv = MoveSite(R2_INSERT, ((c1, g1), (c2, g2)), tuple(params))
    return GaussDiagram(signs, circles, validate=False), inv


REF_HANDLERS = {R1_INSERT: ref_r1_insert, R1_DELETE: ref_r1_delete,
                R2_INSERT: ref_r2_insert, R2_DELETE: ref_r2_delete}


def ref_apply(G, site):
    handler = REF_HANDLERS.get(site.kind)
    if handler is None:
        return apply_move_with_inverse(G, site)
    return handler(G, site)


def ref_random_walk(G, steps, seed, chord_cap):
    rng = random.Random(seed)
    trace = []
    for _ in range(steps):
        kinds = list(REF_MOVE_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            if len(G) + REF_GROWTH.get(kind, 0) > chord_cap:
                continue
            site = moves._sample_site(G, kind, rng)
            if site is None:
                continue
            G = ref_apply(G, site)[0]
            trace.append(site)
            break
        else:
            raise ValueError("no applicable move")
    return G, trace


# -- comparison -------------------------------------------------------------------


def _outcome(apply, G, site, text=False):
    """What applying ``site`` gives: the image's signs order, words (and
    text) with the inverse site, or the StaleSite message."""
    try:
        H, inv = apply(G, site)
    except StaleSite as exc:
        return "stale", str(exc)
    out = (list(H.signs.items()), H.circles, inv)
    return out + (serialize(H),) if text else out


def _same(G, site, text=False):
    assert (_outcome(apply_move_with_inverse, G, site, text)
            == _outcome(ref_apply, G, site, text)), (G, site)


def _walked_diagrams(count):
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


def _hand_sites(G, rng):
    """Insertions the finders never list (the gap at a word's end, the TI
    order, tfirst, gaps on two circles) and delete sites at arbitrary
    positions, most of them stale."""
    gaps = [(c, g) for c, w in enumerate(G.circles) for g in range(len(w) + 1)]
    for c, w in enumerate(G.circles):
        for s in "+-":
            yield MoveSite(R1_INSERT, ((c, len(w)),), (s, "IT"))
            yield MoveSite(R1_INSERT, ((c, rng.randint(0, len(w))),), (s, "TI"))
        yield MoveSite(R1_INSERT, ((c, len(w) + 1),), ("+", "IT"))
        yield MoveSite(R1_INSERT, ((c, -1),), ("+", "IT"))
    for _ in range(8):
        a, b = rng.choice(gaps), rng.choice(gaps)
        params = (rng.choice(("par", "anti")), rng.choice("+-"))
        yield MoveSite(R2_INSERT, (a, b), params)
        yield MoveSite(R2_INSERT, (b, a), params)
        yield MoveSite(R2_INSERT, (a, a), params + ("tfirst",))
        yield MoveSite(R2_INSERT, (a, b), params + ("tfirst",))
    spots = [(c, p) for c, w in enumerate(G.circles) for p in range(len(w))]
    if spots:
        for _ in range(6):
            yield MoveSite(R1_DELETE, (rng.choice(spots),))
            yield MoveSite(R2_DELETE, (rng.choice(spots), rng.choice(spots)),
                           (rng.choice(("par", "anti")),))


DIAGRAMS = _walked_diagrams(3000)


def test_kind_order_is_pinned():
    assert MOVE_KINDS == REF_MOVE_KINDS


@pytest.mark.parametrize("kind", REF_HANDLERS)
def test_r1_r2_images_and_inverses_match_reference(kind):
    applied = 0
    for G in DIAGRAMS:
        for site in find_move_sites(G, kind):
            _same(G, site)
            applied += 1
    assert applied > 1000


def test_hand_built_sites_match_reference():
    rng = random.Random(3)
    kinds = set()
    for G in DIAGRAMS[::5]:
        for site in _hand_sites(G, rng):
            _same(G, site, text=True)
            kinds.add(site.kind)
    assert kinds == set(REF_HANDLERS)


def test_each_kind_finds_with_its_own_finder():
    finders = {kind: getattr(moves, f"_sites_{kind.lower()}")
               for kind in REF_MOVE_KINDS}
    for G in DIAGRAMS[::10]:
        for kind, finder in finders.items():
            assert find_move_sites(G, kind) == finder(G)


def test_finder_errors_are_not_reported_as_unknown_kind():
    # an unchecked diagram whose chords lack signs makes the finder itself
    # raise KeyError
    x, y = "x", "y"
    G = GaussDiagram({}, [(Endpoint(x, INITIAL), Endpoint(y, INITIAL),
                           Endpoint(x, TERMINAL), Endpoint(y, TERMINAL))],
                     validate=False)
    with pytest.raises(KeyError):
        find_move_sites(G, R2_DELETE)
    with pytest.raises(ValueError, match="unknown move kind"):
        find_move_sites(G, "R4")


def test_fits_matches_growth_rule():
    for G in DIAGRAMS[::10]:
        n = len(G)
        for kind in REF_MOVE_KINDS:
            for cap in range(n - 1, n + 3):
                assert fits(G, kind, cap) == (
                    n + REF_GROWTH.get(kind, 0) <= cap), (kind, n, cap)


def test_walks_match_reference():
    rng = random.Random(5)
    for G in DIAGRAMS[::10]:
        seed = rng.randrange(10**6)
        cap = len(G) + rng.randint(1, 3)
        got = random_walk(G, 20, seed, cap)
        want = ref_random_walk(G, 20, seed, cap)
        assert got[1] == want[1]
        assert list(got[0].signs.items()) == list(want[0].signs.items())
        assert got[0].circles == want[0].circles
