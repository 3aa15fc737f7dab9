"""The snail-form builders and realization build their diagrams without the
constructor's check.  Every diagram they build passes that check, and the
checked copy serializes to the same text."""

import random

from shellmoves.algebra import LaurentPoly
from shellmoves.diagram import GaussDiagram, serialize, swap_components
from shellmoves.invariants import profile
from shellmoves.normal_form import (KnotForm, build_knot_form,
                                    build_link_form, canonical_form,
                                    realize_knot, realize_link)

from conftest import random_diagram, random_link_targets, random_link_with_lambda

# the benchmark's decide ladder, 50 to 800 chords in 48 equal ratios, up to
# 200 chords
DECIDE_SIZES = sorted({round(50 * 16 ** (i / 47)) for i in range(48)} &
                      set(range(201)))


def _assert_passes_the_check(G):
    assert serialize(GaussDiagram(G.signs, G.circles)) == serialize(G)


def _lam_nonneg(G):
    """The profile of ``G``, components swapped when lambda < 0."""
    pr = profile(G)
    return profile(swap_components(G)) if G.mu == 2 and pr.lam < 0 else pr


def _form(pr):
    F = canonical_form(pr)
    return build_knot_form(F.a) if isinstance(F, KnotForm) \
        else build_link_form(F)


def _link_targets(pr):
    """``realize_link``'s targets for a link profile with lambda >= 0."""
    lam, cls = pr.lam, pr.linking_class
    if lam == 0:
        return lam, pr.jn1, pr.jn2, cls.f.coeffs(), cls.g.coeffs()
    if lam == 1:
        return lam, pr.jn1, pr.jn2, {0: pr.lk12}, {}
    g = cls.g.vector(lam)
    return (lam, pr.jn1, pr.jn2, dict(enumerate(cls.f.vector(lam))),
            {m: g[-m % lam] for m in range(lam)})


def test_forms_of_seeded_profiles_pass_the_check():
    rng = random.Random(17)
    for _ in range(40):
        _assert_passes_the_check(_form(profile(random_diagram(rng, 1, 12))))
    for lam in range(-3, 4):
        for _ in range(15):
            pr = _lam_nonneg(random_link_with_lambda(rng, lam))
            _assert_passes_the_check(_form(pr))


def test_realized_targets_pass_the_check():
    rng = random.Random(18)
    for _ in range(30):
        f = profile(random_diagram(rng, 1, 12)).writhe
        _assert_passes_the_check(realize_knot(f))
    _assert_passes_the_check(realize_knot(LaurentPoly()))
    for lam in range(4):
        for _ in range(15):
            _assert_passes_the_check(
                realize_link(lam, *random_link_targets(rng, lam)))


def test_decide_sized_forms_and_realizations_pass_the_check():
    rng = random.Random(19)
    assert DECIDE_SIZES[0] == 50 and len(DECIDE_SIZES) == 24
    for n in DECIDE_SIZES:
        pr = _lam_nonneg(random_diagram(rng, 1, 0, chords=n))
        _assert_passes_the_check(_form(pr))
        _assert_passes_the_check(realize_knot(pr.writhe))
        pr = _lam_nonneg(random_diagram(rng, 2, 0, chords=n))
        _assert_passes_the_check(_form(pr))
        H = realize_link(*_link_targets(pr))
        _assert_passes_the_check(H)
        assert profile(H) == pr
