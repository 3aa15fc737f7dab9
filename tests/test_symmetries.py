"""Symmetries of the invariants and of shell-move equivalence, as exact
properties.  Three operations on a diagram: ``rev`` reverses each circle,
``neg`` negates every sign and ``arr`` reverses every chord (swaps ``<``
and ``>``).

For knots, W(rev G) = W(t^-1), W(neg G) = -W(t^-1) and W(arr G) = W, so
S-equivalence of knots commutes with every composition of the three.  For
links it commutes with ``arr``, ``rev o neg`` and their composition, but
not with ``rev`` or ``neg`` alone: an S1 move pinned below maps under
either to two diagrams of different profile.  An isomorphism (each circle
rotated, chords renamed) keeps every profile field."""

import dataclasses
import itertools
import random

from shellmoves.algebra import LaurentPoly
from shellmoves.diagram import (INITIAL, TERMINAL, GaussDiagram,
                                parse_gauss_code)
from shellmoves.equiv import s_equivalent
from shellmoves.invariants import profile, writhe_polynomial
from shellmoves.moves import S1, MoveSite, apply_move, random_walk

from conftest import random_diagram
from test_iso_key import relabel_and_rotate

FLIP = {INITIAL: TERMINAL, TERMINAL: INITIAL}


def rev(G: GaussDiagram) -> GaussDiagram:
    return GaussDiagram(G.signs, [w[::-1] for w in G.circles])


def neg(G: GaussDiagram) -> GaussDiagram:
    return GaussDiagram({c: -s for c, s in G.signs.items()}, G.circles)


def arr(G: GaussDiagram) -> GaussDiagram:
    return GaussDiagram(G.signs, [tuple((c, FLIP[k]) for c, k in w)
                                  for w in G.circles])


def rev_neg(G: GaussDiagram) -> GaussDiagram:
    return rev(neg(G))


def arr_rev_neg(G: GaussDiagram) -> GaussDiagram:
    return arr(rev(neg(G)))


def inverted(W: LaurentPoly) -> LaurentPoly:
    """W(t^-1)."""
    return LaurentPoly({-e: c for e, c in W.coeffs().items()})


def every_composition():
    """The seven non-identity compositions of rev, neg and arr."""
    ops = (rev, neg, arr)
    for picks in itertools.product((False, True), repeat=3):
        if any(picks):
            chosen = [op for op, pick in zip(ops, picks) if pick]

            def composed(G, chosen=chosen):
                for op in chosen:
                    G = op(G)
                return G

            yield "∘".join(op.__name__ for op in chosen), composed


def test_knot_writhe_laws():
    rng = random.Random(41)
    for i in range(1500):
        G = random_diagram(rng, 1, 12)
        W = writhe_polynomial(G)
        assert writhe_polynomial(rev(G)) == inverted(W), i
        assert writhe_polynomial(neg(G)) == -inverted(W), i
        assert writhe_polynomial(arr(G)) == W, i


def _pairs(rng: random.Random, mu: int, count: int):
    """(G, H): H a random walk of G for even i, a random diagram otherwise."""
    for i in range(count):
        G = random_diagram(rng, mu, 8)
        if i % 2 == 0:
            H, _ = random_walk(G, rng.randint(1, 8), seed=rng.randrange(10**6),
                               chord_cap=14)
        else:
            H = random_diagram(rng, mu, 8)
        yield G, H


def _assert_commutes(pairs, ops) -> int:
    """Assert each verdict is unchanged under each op; return how many
    pairs were equivalent."""
    equivalent = 0
    for G, H in pairs:
        verdict = s_equivalent(G, H).equivalent
        equivalent += verdict
        for name, op in ops:
            assert s_equivalent(op(G), op(H)).equivalent == verdict, name
    return equivalent


def test_knot_equivalence_commutes_with_every_composition():
    pairs = list(_pairs(random.Random(42), 1, 300))
    equivalent = _assert_commutes(pairs, list(every_composition()))
    assert 150 <= equivalent < 300


def test_link_equivalence_commutes_with_arr_and_rev_neg():
    pairs = list(_pairs(random.Random(43), 2, 300))
    ops = [("arr", arr), ("rev∘neg", rev_neg), ("arr∘rev∘neg", arr_rev_neg)]
    equivalent = _assert_commutes(pairs, ops)
    assert 150 <= equivalent < 300
    # the pairs tell the pinned laws from the ones that fail on links
    for op in (rev, neg):
        assert sum(s_equivalent(op(G), op(H)).equivalent
                   != s_equivalent(G, H).equivalent for G, H in pairs) > 5


def test_link_equivalence_does_not_commute_with_rev_or_neg():
    G = parse_gauss_code("""\
circles: 2
chord z1 +
chord z2 +
chord z3 +
circle 1: z3< z2< z1> z2> z1<
circle 2: z3>
""")
    H = apply_move(G, MoveSite(S1, ((0, 2),)))
    assert " ".join("".join(ep) for ep in H.circles[0]) == "z3< z1> z2> z1< z2<"
    assert s_equivalent(G, H)
    for op in (arr, rev_neg, arr_rev_neg):
        assert s_equivalent(op(G), op(H))
    for op in (rev, neg):
        verdict = s_equivalent(op(G), op(H))
        assert not verdict
        assert verdict.reason.startswith("component-1 index writhe mismatch")


def _profile_values(G: GaussDiagram) -> tuple:
    P = profile(G)
    return (type(P),) + tuple(getattr(P, f.name)
                              for f in dataclasses.fields(P))


def test_profile_is_an_isomorphism_invariant():
    # half knots, half links; rotation moves the basepoint, so the wrapped
    # chords and the reference chord gamma0 (the first nonself chord on
    # circle 1) change with it
    rng = random.Random(47)
    for k in range(1500):
        G = random_diagram(rng, 1 + k % 2, 40)
        H = relabel_and_rotate(rng, G)
        assert _profile_values(G) == _profile_values(H), k
