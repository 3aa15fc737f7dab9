"""``form_code`` at the size ``normalize`` writes: the canonical forms of
seeded 400-800-chord knots and links give the text ``serialize`` writes for
the built form, byte for byte.  These forms hold snails with ten or more
shells and a hundred or more snails, so the writer's id order is pinned
where ids of different lengths meet: ``g10`` before ``g1s1``, and ``g1s10``
before ``g1s2``."""

import random

from shellmoves.diagram import serialize, swap_components
from shellmoves.invariants import profile
from shellmoves.normal_form import (KnotForm, build_knot_form,
                                    build_link_form, canonical_form,
                                    form_code)

from conftest import random_diagram, random_link_with_lambda


def _link(rng, lam):
    """A seeded link of linking difference ``lam`` with 400-800 chords."""
    while True:
        G = random_link_with_lambda(rng, lam, max_self=800, max_extra=20)
        if 400 <= len(G) <= 800:
            return G


def _families(F):
    return [F.a] if isinstance(F, KnotForm) else [F.a, F.b, F.c, F.d]


def test_form_code_of_large_canonical_forms():
    rng = random.Random(30)
    forms = [canonical_form(profile(random_diagram(
        rng, 1, 0, chords=rng.randint(400, 800)))) for _ in range(4)]
    for lam in range(-3, 4):
        G = _link(rng, lam)
        forms.append(canonical_form(profile(
            swap_components(G) if lam < 0 else G)))
    assert sorted({F.lam for F in forms[4:]}) == [0, 1, 2, 3]
    assert max(abs(n) for F in forms for m in _families(F) for n in m) >= 10
    assert max(sum(abs(v) for m in _families(F) for v in m.values())
               for F in forms) >= 100
    for F in forms:
        G = (build_knot_form(F.a) if isinstance(F, KnotForm)
             else build_link_form(F))
        assert form_code(F) == serialize(G)
