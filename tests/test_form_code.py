"""``form_code`` writes a snail form's Gauss code from its token layout
without building the diagram: the text ``serialize`` writes for the built
form, byte for byte, and the builder's error for a form it rejects."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from shellmoves.diagram import serialize, swap_components
from shellmoves.errors import BadSupport, MalformedSnailForm
from shellmoves.invariants import profile
from shellmoves.normal_form import (KnotForm, LinkForm, build_knot_form,
                                    build_link_form, canonical_form,
                                    form_code)

from conftest import random_diagram, random_link_with_lambda

_coeffs = st.dictionaries(st.integers(-9, 9), st.integers(-3, 3), max_size=5)
_self_coeffs = _coeffs.map(
    lambda m: {n: v for n, v in m.items() if n not in (0, 1)})


def _built_code(form):
    G = (build_knot_form(form.a) if isinstance(form, KnotForm)
         else build_link_form(form))
    return serialize(G)


@st.composite
def _link_forms(draw, lams):
    """A link form of a drawn lambda: for lambda >= 2 its nonself
    coefficients lie in the windows of a start p != 0; one coefficient of
    ``c`` makes the sums differ by lambda."""
    lam = draw(lams)
    a, b = draw(_self_coeffs), draw(_self_coeffs)
    if lam >= 2:
        p = draw(st.integers(-5, 5).filter(bool))
        window = st.integers(0, lam - 1)
        c = {p + m: v for m, v in draw(st.dictionaries(
            window, st.integers(-3, 3), max_size=lam)).items()}
        d = {-p - m: v for m, v in draw(st.dictionaries(
            window, st.integers(-3, 3), max_size=lam)).items()}
        top = p
    else:
        p, c, d = 0, draw(_coeffs), draw(_coeffs)
        top = draw(st.integers(-9, 9))
    c[top] = c.get(top, 0) + lam - (sum(c.values()) - sum(d.values()))
    return LinkForm(lam, a, b, c, d, p)


@settings(max_examples=200, deadline=None)
@given(_self_coeffs)
def test_knot_form_code_is_the_built_forms_text(a):
    assert form_code(KnotForm(a)) == _built_code(KnotForm(a))


@pytest.mark.parametrize("lams", [st.just(0), st.just(1), st.integers(2, 6)],
                         ids=["lam0", "lam1", "lam2+"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_link_form_code_is_the_built_forms_text(lams, data):
    form = data.draw(_link_forms(lams))
    assert form_code(form) == _built_code(form)


def test_form_code_of_canonical_forms():
    """The forms ``normalize`` writes, from seeded knots and from links of
    lambda -3..3 (components swapped for lambda < 0)."""
    rng = random.Random(27)
    forms = [canonical_form(profile(random_diagram(rng, 1, 14)))
             for _ in range(30)]
    for lam in range(-3, 4):
        for _ in range(10):
            G = random_link_with_lambda(rng, lam)
            forms.append(canonical_form(profile(
                swap_components(G) if lam < 0 else G)))
    assert {type(F) for F in forms} == {KnotForm, LinkForm}
    assert any(F.p for F in forms if isinstance(F, LinkForm))
    for F in forms:
        assert form_code(F) == _built_code(F)


@pytest.mark.parametrize("form, error", [
    (KnotForm({0: 1}), BadSupport),
    (KnotForm({1: -2, 3: 1}), BadSupport),
    (LinkForm(0, {1: 1}, {}, {}, {}), MalformedSnailForm),
    (LinkForm(0, {}, {0: 2, 2: 1}, {}, {}), MalformedSnailForm),
    (LinkForm(2, {}, {}, {0: 1}, {}), MalformedSnailForm),
    (LinkForm(0, {1: 1}, {}, {0: 1}, {}), MalformedSnailForm),
], ids=["knot-0", "knot-1", "link-a1", "link-b0", "link-lam", "link-both"])
def test_form_code_raises_what_the_builder_raises(form, error):
    with pytest.raises(error) as built:
        _built_code(form)
    with pytest.raises(error, match=f"^{re.escape(str(built.value))}$"):
        form_code(form)
