"""Every word element is a plain ``(chord, kind)`` pair: an exact tuple of
two strings.  A tuple subclass compares equal to a plain pair, so no
comparison elsewhere sees a path that builds another type; this test asks
each path that builds words: the reader, every move kind, random walks and
trace replay, the snail-form builders, realization, surgery and the
component swap."""

import random

from shellmoves.algebra import LaurentPoly
from shellmoves.diagram import (GaussDiagram, parse_gauss_code, serialize,
                                surgery, swap_components)
from shellmoves.invariants import profile
from shellmoves.moves import (MOVE_KINDS, apply_move, find_move_sites,
                              random_walk, site_from_text, site_to_text)
from shellmoves.normal_form import build_knot_form, realize_knot, realize_link

from conftest import (R3_BLOCKS, R3_SIGNS, link_from_snails, random_diagram,
                      random_link_targets, random_link_with_lambda)
from reference import ref_encode_snail


def assert_pairs(G):
    assert type(G.circles) is tuple
    for word in G.circles:
        assert type(word) is tuple
        for ep in word:
            assert type(ep) is tuple and len(ep) == 2, ep
            assert type(ep[0]) is str and type(ep[1]) is str, ep


def _inputs():
    rng = random.Random(41)
    out = [random_diagram(rng, mu, 6) for mu in (1, 2) for _ in range(15)]
    out += [random_walk(G, 8, k, 12)[0] for k, G in enumerate(out)]
    out.append(GaussDiagram(R3_SIGNS, [sum(R3_BLOCKS, ())]))
    return out


def test_the_reader_makes_pairs():
    for G in _inputs():
        assert_pairs(parse_gauss_code(serialize(G)))


def test_every_move_kind_makes_pairs():
    applied = set()
    for G in _inputs():
        G = parse_gauss_code(serialize(G))
        for kind in MOVE_KINDS:
            for site in find_move_sites(G, kind)[:6]:
                assert_pairs(apply_move(G, site))
                applied.add(kind)
    assert applied == set(MOVE_KINDS)


def test_walks_and_replays_make_pairs():
    for k, G in enumerate(_inputs()):
        H, trace = random_walk(G, 20, k, 14)
        assert_pairs(H)
        R = G
        for site in trace:
            R = apply_move(R, site_from_text(site_to_text(site)))
            assert_pairs(R)
        assert serialize(R) == serialize(H)


def test_snail_forms_and_realizations_make_pairs():
    rng = random.Random(42)
    for n in (-3, -1, 0, 1, 2, 4):
        for eps in (1, -1):
            assert_pairs(ref_encode_snail("self", eps, n))
            assert_pairs(ref_encode_snail("nonself", eps, n))
    assert_pairs(build_knot_form({-2: 1, 2: -1, 3: 2}))
    assert_pairs(link_from_snails({2: 1}, {-1: -2}, {0: 1, 3: -1}, {2: 1}))
    for _ in range(20):
        assert_pairs(realize_knot(profile(random_diagram(rng, 1, 10)).writhe))
    assert_pairs(realize_knot(LaurentPoly()))
    for lam in range(4):
        for _ in range(25):
            assert_pairs(realize_link(lam, *random_link_targets(rng, lam)))
    # no nonself chord to carry the shell transfer: a cancelling pair is added
    assert_pairs(realize_link(0, {1: 1}, {1: -1}, {}, {}))


def test_surgery_and_swap_make_pairs():
    rng = random.Random(43)
    for lam in range(-2, 3):
        G = random_link_with_lambda(rng, lam)
        assert_pairs(swap_components(G))
        nonself = {c for c, _ in G.circles[0]} & {c for c, _ in G.circles[1]}
        for cid in sorted(nonself):
            assert_pairs(surgery(G, cid))
