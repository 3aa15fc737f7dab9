"""The kind table against the per-kind registries it replaced.

The references below are the earlier R1/R2 handlers, which inserted blocks
through a sorted gap list and deleted endpoints by position (with their own
copy of the R2 cancelling-pair check and its five messages), the earlier
growth rule, and the earlier R3 handler and finder, which copied every word
and matched each TT pair against every II pair.  The table's handlers must
give the same images (signs order and words), the same inverse sites and
the same errors; the R3 finder the same sites in the same order; ``fits``
must answer as the growth rule did; each kind's declared changes in
positive chords must be the ones its moves make; and walks must take the
same steps.
The inputs are built on first use, by references only, so a defect in one
kind fails the tests that touch it and not the module's collection.
"""

import functools
import random

import pytest

from shellmoves import moves
from shellmoves.diagram import (INITIAL, TERMINAL, GaussDiagram,
                                canonical_key, serialize)
from shellmoves.errors import StaleSite
from shellmoves.moves import (MOVE_KINDS, R1_DELETE, R1_INSERT, R2_DELETE,
                              R2_INSERT, R3, S1, S2_DELETE, S2_INSERT, MoveSite,
                              apply_move_with_inverse, chord_change,
                              find_move_sites, fits, random_walk)

from conftest import R3_BLOCKS, R3_SIGNS, random_diagram, ref_fresh_ids
from test_census import _grown
from test_index_core import per_chord_r1_delete_sites
from test_shells import REF_APPLY, _word, ref_sites_s1, ref_sites_s2_delete

_check, _pair, _sgn = moves._check, moves._pair, moves._sgn

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
    word = _word(G, c)
    _check(0 <= g <= len(word), "bad gap")
    sgn, order = site.params
    eps = _sgn(sgn)
    _check(order in ("IT", "TI"), f"bad insertion order {order!r}")
    cid, = ref_fresh_ids(G, "n", 1)
    pair = [(cid, INITIAL), (cid, TERMINAL)]
    if order == "TI":
        pair.reverse()
    circles = list(G.circles)
    circles[c] = ref_insert_blocks(word, [(g, pair)])
    signs = dict(G.signs)
    signs[cid] = eps
    return (GaussDiagram(signs, circles),
            MoveSite(R1_DELETE, ((c, g),)))


def ref_r1_delete(G, site):
    (c, p), = site.anchors
    u, v = _pair(G, c, p)
    _check(u[0] == v[0] and u != v, "tokens are not a free chord")
    word = G.circles[c]
    q = (p + 1) % len(word)
    circles = list(G.circles)
    circles[c] = ref_delete_positions(word, (p, q))
    signs = dict(G.signs)
    sign = signs.pop(u[0])
    gap = q - (1 if p < q else 0)
    order = "IT" if u[1] == INITIAL else "TI"
    inv = MoveSite(R1_INSERT, ((c, gap),), ("+" if sign > 0 else "-", order))
    return GaussDiagram(signs, circles), inv


def ref_r2_insert(G, site):
    (c1, g1), (c2, g2) = site.anchors
    for c, g in site.anchors:
        _check(0 <= g <= len(_word(G, c)), "bad gap")
    variant, sgn = site.params[:2]
    t_first = site.params[2:] == ("tfirst",)
    if len(site.params) == 3 and not t_first:
        raise StaleSite(f"bad parameter {site.params[2]!r}")
    eps = _sgn(sgn)
    _check(variant in ("par", "anti"), f"bad variant {variant!r}")
    _check(not t_first or (c1, g1) == (c2, g2), "tfirst needs a shared gap")
    x, y = ref_fresh_ids(G, "n", 2)
    head = [(x, INITIAL), (y, INITIAL)]
    tail = [(x, TERMINAL), (y, TERMINAL)]
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
    return GaussDiagram(signs, circles), inv


def ref_validate_r2_pattern(G, site):
    (c1, p1), (c2, p2) = site.anchors
    variant, = site.params
    a, b = _pair(G, c1, p1)
    _check(a[1] == INITIAL and b[1] == INITIAL, "first pair must be initials")
    _check(a[0] != b[0], "pair needs two chords")
    x, y = a[0], b[0]
    _check(G.signs[x] == -G.signs[y], "chords must have opposite signs")
    u, v = _pair(G, c2, p2)
    if variant == "par":
        _check(u == (x, TERMINAL) and v == (y, TERMINAL),
               "terminal pair mismatch")
    elif variant == "anti":
        _check(u == (y, TERMINAL) and v == (x, TERMINAL),
               "terminal pair mismatch")
    else:
        raise StaleSite(f"bad variant {variant!r}")
    return x, y


def ref_r2_delete(G, site):
    x, y = ref_validate_r2_pattern(G, site)
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
    return GaussDiagram(signs, circles), inv


def ref_apply_r3(G, site):
    _check(site in ref_sites_r3(G), "no triple-exchange pattern at the given pairs")
    pos = set()
    for c, p in site.anchors:
        pos |= {(c, p), (c, (p + 1) % len(G.circles[c]))}
    _check(len(pos) == 6, "overlapping pairs")
    circles = [list(w) for w in G.circles]
    for c, p in site.anchors:
        q = (p + 1) % len(G.circles[c])
        circles[c][p], circles[c][q] = circles[c][q], circles[c][p]
    new = GaussDiagram(G.signs, [tuple(w) for w in circles])
    return new, MoveSite(R3, site.anchors)


def ref_adjacent_pairs(G):
    for c, word in enumerate(G.circles):
        if len(word) > 1:
            for p, u in enumerate(word):
                yield c, p, u, word[(p + 1) % len(word)]


def ref_sites_r2_delete(G):
    pairs = list(ref_adjacent_pairs(G))
    tt = {(u[0], v[0]): (c, p) for c, p, u, v in pairs
          if u[1] == v[1] == TERMINAL}
    return [MoveSite(R2_DELETE, ((c, p), tt[key]), (variant,))
            for c, p, u, v in pairs if u[1] == v[1] == INITIAL
            and u[0] != v[0] and G.signs[u[0]] == -G.signs[v[0]]
            for variant, key in (("par", (u[0], v[0])),
                                 ("anti", (v[0], u[0]))) if key in tt]


def ref_sites_r3(G):
    tt, ii, it, ti = {}, {}, {}, {}
    for c, p, u, v in ref_adjacent_pairs(G):
        key = (u[0], v[0])
        spot = (c, p)
        if u[1] == TERMINAL and v[1] == TERMINAL:
            tt[key] = spot
        elif u[1] == INITIAL and v[1] == INITIAL:
            ii[key] = spot
        elif u[1] == INITIAL:
            it[key] = spot
        else:
            ti[key] = spot
    out = []
    for (hp, hq), a1 in tt.items():
        if hp == hq or G.signs[hp] != -1 or G.signs[hq] != -1:
            continue
        for (h, x), a2 in ii.items():
            if h != hp or x in (hp, hq) or G.signs[x] != 1:
                continue
            a3 = it.get((hq, x))
            if a3 is not None:
                out.append(MoveSite(R3, (a1, a2, a3)))
    for (hq, hp), a1 in tt.items():
        if hp == hq or G.signs[hp] != -1 or G.signs[hq] != -1:
            continue
        for (x, h), a2 in ii.items():
            if h != hp or x in (hp, hq) or G.signs[x] != 1:
                continue
            a3 = ti.get((x, hq))
            if a3 is not None:
                out.append(MoveSite(R3, (a1, a2, a3)))
    return out


REF_HANDLERS = {R1_INSERT: ref_r1_insert, R1_DELETE: ref_r1_delete,
                R2_INSERT: ref_r2_insert, R2_DELETE: ref_r2_delete}
REF_KINDS = {**REF_HANDLERS, R3: ref_apply_r3, **REF_APPLY}
REF_FINDERS = {R1_DELETE: per_chord_r1_delete_sites,
               R2_DELETE: ref_sites_r2_delete, R3: ref_sites_r3, S1: ref_sites_s1,
               S2_INSERT: lambda G: [MoveSite(S2_INSERT, ((c, p),)) for c, p, u, v
                                     in ref_adjacent_pairs(G) if u[0] != v[0]],
               S2_DELETE: ref_sites_s2_delete}


def ref_apply(G, site):
    return REF_KINDS[site.kind](G, site)


def ref_sample_site(G, kind, rng):
    """A site drawn as ``random_walk`` draws one: insertions by their gaps,
    other kinds uniformly from their sites."""
    gaps = [(c, g) for c, w in enumerate(G.circles) for g in range(max(len(w), 1))]
    if kind == R1_INSERT:
        return MoveSite(R1_INSERT, (rng.choice(gaps),), (rng.choice("+-"), "IT"))
    if kind == R2_INSERT:
        a, b = rng.choice(gaps), rng.choice(gaps)
        params = (rng.choice(["par", "anti"]), rng.choice("+-"))
        if a == b and rng.random() < 0.5:
            params += ("tfirst",)
        return MoveSite(R2_INSERT, (a, b), params)
    sites = REF_FINDERS[kind](G)
    return rng.choice(sites) if sites else None


def ref_random_walk(G, steps, seed, chord_cap):
    rng = random.Random(seed)
    trace = []
    for _ in range(steps):
        kinds = list(REF_MOVE_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            if len(G) + REF_GROWTH.get(kind, 0) > chord_cap:
                continue
            site = ref_sample_site(G, kind, rng)
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


@functools.cache
def _walked_diagrams(count=3000):
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
    order, tfirst, gaps on two circles), insertions with both a bad anchor
    and a bad parameter (the anchor is reported), and delete sites at
    arbitrary positions, most of them stale."""
    gaps = [(c, g) for c, w in enumerate(G.circles) for g in range(len(w) + 1)]
    for c, w in enumerate(G.circles):
        for s in "+-":
            yield MoveSite(R1_INSERT, ((c, len(w)),), (s, "IT"))
            yield MoveSite(R1_INSERT, ((c, rng.randint(0, len(w))),), (s, "TI"))
        yield MoveSite(R1_INSERT, ((c, len(w) + 1),), ("+", "IT"))
        yield MoveSite(R1_INSERT, ((c, -1),), ("+", "IT"))
        yield MoveSite(R1_INSERT, ((c, len(w) + 1),), ("x", "IT"))
        yield MoveSite(R2_INSERT, (rng.choice(gaps), (c, len(w) + 1)),
                       ("zz", "+"))
    yield MoveSite(R1_INSERT, ((G.mu, 0),), ("x", "IT"))
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


@functools.cache
def _r3_diagrams(count=400):
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
        blocks = list(R3_BLOCKS)
        for k in range(rng.randint(0, 4)):
            signs[f"c{k}"] = rng.choice((1, -1))
            blocks += [((f"c{k}", INITIAL),),
                       ((f"c{k}", TERMINAL),)]
        rng.shuffle(blocks)
        words = [[] for _ in range(1 + i % 2)]
        for block in blocks:
            rng.choice(words).extend(block)
        for w in words:
            r = rng.randrange(max(len(w), 1))
            w[:] = w[r:] + w[:r]
        order = list(signs)
        rng.shuffle(order)
        G = GaussDiagram({cid: signs[cid] for cid in order}, words)
        out.append(G)
        out += [ref_apply_r3(G, site)[0] for site in ref_sites_r3(G)]
    return out


def test_kind_order_is_pinned():
    assert MOVE_KINDS == REF_MOVE_KINDS


@pytest.mark.parametrize("kind", REF_HANDLERS)
def test_r1_r2_images_and_inverses_match_reference(kind):
    applied = 0
    for G in _walked_diagrams():
        for site in find_move_sites(G, kind):
            _same(G, site)
            applied += 1
    assert applied > 1000


def test_hand_built_sites_match_reference():
    rng = random.Random(3)
    kinds = set()
    for G in _walked_diagrams()[::5]:
        for site in _hand_sites(G, rng):
            _same(G, site, text=True)
            kinds.add(site.kind)
    assert kinds == set(REF_HANDLERS)


def test_each_kind_finds_with_its_own_finder():
    finders = {kind: getattr(moves, f"_sites_{kind.lower()}")
               for kind in REF_MOVE_KINDS}
    for G in _walked_diagrams()[::10]:
        for kind, finder in finders.items():
            assert find_move_sites(G, kind) == finder(G)


def test_finder_errors_are_not_reported_as_unknown_kind():
    # an unchecked diagram whose chords lack signs makes the finder itself
    # raise KeyError
    x, y = "x", "y"
    G = GaussDiagram._unchecked({}, (
        ((x, INITIAL), (y, INITIAL),
         (x, TERMINAL), (y, TERMINAL)),))
    with pytest.raises(KeyError):
        find_move_sites(G, R2_DELETE)
    with pytest.raises(ValueError, match="unknown move kind"):
        find_move_sites(G, "R4")
    with pytest.raises(ValueError, match=r"unknown move kind \['R3'\]"):
        find_move_sites(G, [R3])


def test_fits_matches_growth_rule():
    for G in _walked_diagrams()[::10]:
        n = len(G)
        for kind in REF_MOVE_KINDS:
            for cap in range(n - 1, n + 3):
                assert fits(G, kind, cap) == (
                    n + REF_GROWTH.get(kind, 0) <= cap), (kind, n, cap)


@functools.cache
def _census_diagrams():
    """One knot or two-circle link per class of at most 3 chords, grown
    chord by chord in every placement as the census grows them."""
    out = []
    for mu in (1, 2):
        layer = [GaussDiagram({}, [()] * mu)]
        for _ in range(3):
            layer = list({canonical_key(H): H for G in layer
                          for H in _grown(G)}.values())
            out += layer
    return out


def test_positive_change_matches_each_kinds_moves():
    """Each listed move changes the positive chords by a value its kind
    declares, and each declared value is met: on the walked diagrams with
    one chord to spare, on the census diagrams up to 4 chords, and on the
    images of their S2 insertions (S2_delete needs two shells)."""
    census = _census_diagrams()
    inputs = ([(G, len(G) + 1) for G in _walked_diagrams()]
              + [(G, 4) for G in census]
              + [(apply_move_with_inverse(G, site)[0], len(G) + 2)
                 for G in census for site in find_move_sites(G, S2_INSERT)])
    met = {kind: set() for kind in REF_MOVE_KINDS}
    for G, cap in inputs:
        before = sum(sign > 0 for sign in G.signs.values())
        for kind in REF_MOVE_KINDS:
            if not fits(G, kind, cap):
                continue
            declared = chord_change(kind)[1]
            for site in find_move_sites(G, kind):
                H = apply_move_with_inverse(G, site)[0]
                change = sum(sign > 0 for sign in H.signs.values()) - before
                assert change in declared, (G, site)
                met[kind].add(change)
    assert met == {kind: set(chord_change(kind)[1]) for kind in REF_MOVE_KINDS}
    assert met[R1_INSERT] == {0, 1} and met[R1_DELETE] == {0, -1}


def test_walks_match_reference():
    rng = random.Random(5)
    for G in _walked_diagrams()[::10]:
        seed = rng.randrange(10**6)
        cap = len(G) + rng.randint(1, 3)
        got = random_walk(G, 20, seed, cap)
        want = ref_random_walk(G, 20, seed, cap)
        assert got[1] == want[1]
        assert list(got[0].signs.items()) == list(want[0].signs.items())
        assert got[0].circles == want[0].circles


def test_r3_finder_matches_reference():
    found = wrapped = 0
    for G in _r3_diagrams() + _walked_diagrams():
        sites = find_move_sites(G, R3)
        assert sites == ref_sites_r3(G), G
        found += len(sites)
        wrapped += sum(p == len(G.circles[c]) - 1
                       for site in sites for c, p in site.anchors)
    assert found > 800 and wrapped > 100


def test_r3_images_and_inverses_match_reference():
    rng = random.Random(12)
    applied = stale = 0
    for G in _r3_diagrams():
        spots = [(c, p) for c, w in enumerate(G.circles) for p in range(len(w))]
        sites = ref_sites_r3(G)
        # the found sites, and the same anchors shuffled or moved, mostly stale
        for site in sites + [MoveSite(R3, tuple(rng.sample(s.anchors, 3)))
                             for s in sites] + [
                MoveSite(R3, tuple(rng.choice(spots) for _ in range(3)))]:
            got = _outcome(apply_move_with_inverse, G, site, text=True)
            assert got == _outcome(ref_apply_r3, G, site, text=True), (G, site)
            applied += got[0] != "stale"
            stale += got[0] == "stale"
    assert applied > 800 and stale > 300
