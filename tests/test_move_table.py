"""The kind table against the per-kind registries it replaced.

The references (``reference.py``) are the earlier R1/R2 handlers, which
inserted blocks through a sorted gap list and deleted endpoints by position
(with their own copy of the R2 cancelling-pair check and its five messages),
the earlier growth rule, and the earlier R3 handler and finder, which copied
every word and matched each TT pair against every II pair.  The table's
handlers must give the same images (signs order and words), the same
inverse sites and the same errors; the R3 finder the same sites in the same
order; ``fits`` must answer as the growth rule did; each kind's declared
changes in positive chords must be the ones its moves make; and walks must
take the same steps.  The inputs (``conftest.py``) are built on first use,
by references only, so a defect in one kind fails the tests that touch it
and not the module's collection.
"""

import random

import pytest

from shellmoves import moves
from shellmoves.diagram import INITIAL, TERMINAL, GaussDiagram, serialize
from shellmoves.errors import StaleSite
from shellmoves.moves import (MOVE_KINDS, R1_DELETE, R1_INSERT, R2_DELETE,
                              R2_INSERT, R3, S2_INSERT, MoveSite,
                              apply_move_with_inverse, chord_change,
                              find_move_sites, fits, random_walk)

from conftest import census_classes, image, r3_diagrams, walked_diagrams
from reference import (REF_GROWTH, REF_MOVE_KINDS, ref_apply, ref_apply_r3,
                       ref_random_walk, ref_sites_r3)

R1_R2 = (R1_INSERT, R1_DELETE, R2_INSERT, R2_DELETE)


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


def test_kind_order_is_pinned():
    assert MOVE_KINDS == REF_MOVE_KINDS


@pytest.mark.parametrize("kind", R1_R2)
def test_r1_r2_images_and_inverses_match_reference(kind):
    applied = 0
    for G in walked_diagrams():
        for site in find_move_sites(G, kind):
            _same(G, site)
            applied += 1
    assert applied > 1000


def test_hand_built_sites_match_reference():
    rng = random.Random(3)
    kinds = set()
    for G in walked_diagrams()[::5]:
        for site in _hand_sites(G, rng):
            _same(G, site, text=True)
            kinds.add(site.kind)
    assert kinds == set(R1_R2)


def test_each_kind_finds_with_its_own_finder():
    finders = {kind: getattr(moves, f"_sites_{kind.lower()}")
               for kind in REF_MOVE_KINDS}
    for G in walked_diagrams()[::10]:
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
    for G in walked_diagrams()[::10]:
        n = len(G)
        for kind in REF_MOVE_KINDS:
            for cap in range(n - 1, n + 3):
                assert fits(G, kind, cap) == (
                    n + REF_GROWTH.get(kind, 0) <= cap), (kind, n, cap)


def test_positive_change_matches_each_kinds_moves():
    """Each listed move changes the positive chords by a value its kind
    declares, and each declared value is met: on the walked diagrams with
    one chord to spare, on the census diagrams of 1 to 3 chords at cap 4,
    and on the images of their S2 insertions (S2_delete needs two shells)."""
    census = [G for G in census_classes() if 1 <= len(G) <= 3]
    inputs = ([(G, len(G) + 1) for G in walked_diagrams()]
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
    for G in walked_diagrams()[::10]:
        seed = rng.randrange(10**6)
        cap = len(G) + rng.randint(1, 3)
        got = random_walk(G, 20, seed, cap)
        want = ref_random_walk(G, 20, seed, cap)
        assert got[1] == want[1]
        assert image(got[0]) == image(want[0])


def test_r3_finder_matches_reference():
    found = wrapped = 0
    for G in r3_diagrams() + walked_diagrams():
        sites = find_move_sites(G, R3)
        assert sites == ref_sites_r3(G), G
        found += len(sites)
        wrapped += sum(p == len(G.circles[c]) - 1
                       for site in sites for c, p in site.anchors)
    assert found > 800 and wrapped > 100


def test_r3_images_and_inverses_match_reference():
    rng = random.Random(12)
    applied = stale = 0
    for G in r3_diagrams():
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
