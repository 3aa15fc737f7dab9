"""Snail encodings, form builders, and canonical-form extraction."""

import random
from dataclasses import replace

import pytest

from shellmoves.algebra import LaurentPoly, gamma_class
from shellmoves.diagram import isomorphic, parse_gauss_code
from shellmoves.errors import (
    BadSign,
    BadSupport,
    InconsistentProfile,
    MalformedSnailForm,
    NegativeLambda,
)
from shellmoves.invariants import linking_data, profile, writhe_polynomial
from shellmoves.moves import random_walk
from shellmoves.normal_form import (
    KnotForm,
    LinkForm,
    build_knot_form,
    build_link_diagram,
    build_link_form,
    canonical_form,
    encode_snail,
    form_code,
)

from conftest import REFERENCE_LINK_SNAILS, random_diagram


def _tokens(G):
    return ["".join(ep) for ep in G.circles[0]]


def test_encode_positive_double_snail_word():
    G = encode_snail("self", 1, 2)
    assert _tokens(G) == ["g<", "s1<", "s2<", "g>", "s2>", "s1>"]
    assert G.signs == {"g": 1, "s1": -1, "s2": -1}


def test_encode_zero_snail_is_free_chord():
    G = encode_snail("self", 1, 0)
    assert _tokens(G) == ["g<", "g>"]
    assert G.signs == {"g": 1}


def test_encode_negative_sign_single_snail():
    G = encode_snail("self", -1, 1)
    assert _tokens(G) == ["g<", "s1>", "g>", "s1<"]
    assert G.signs == {"g": -1, "s1": 1}


def test_encode_negative_index_shell_signs():
    G = encode_snail("self", 1, -2)
    assert G.signs == {"g": 1, "s1": 1, "s2": 1}


def test_encode_nonself_snail():
    G = encode_snail("nonself", 1, 2)
    assert ["".join(ep) for ep in G.circles[0]] == ["s1>", "s2>", "g<", "s2<", "s1<"]
    assert ["".join(ep) for ep in G.circles[1]] == ["g>"]
    assert G.signs == {"g": 1, "s1": -1, "s2": -1}


def test_encode_snail_rejects_bad_args():
    with pytest.raises(BadSign, match="^chord 'g' has sign 2$"):
        encode_snail("self", 2, 1)
    with pytest.raises(MalformedSnailForm, match="^unknown snail kind 'weird'$"):
        encode_snail("weird", 1, 1)
    with pytest.raises(BadSign, match="^chord 'g' has sign 1.0$"):
        encode_snail("self", 1.0, 2)


def test_build_knot_form_empty():
    assert len(build_knot_form({})) == 0


def test_build_knot_form_single_snail():
    G = build_knot_form({2: 1})
    assert writhe_polynomial(G) == LaurentPoly({2: 1, 1: -2, 0: 1})


def test_build_knot_form_matches_reference_writhe(reference_knot):
    G = build_knot_form({3: 1, -1: 1})
    assert writhe_polynomial(G) == writhe_polynomial(reference_knot)


def test_build_knot_form_rejects_bad_support():
    with pytest.raises(BadSupport):
        build_knot_form({0: 1})
    with pytest.raises(BadSupport):
        build_knot_form({1: -2, 3: 1})


def test_knot_roundtrip_random():
    rng = random.Random(51)
    for _ in range(200):
        a = {n: rng.randint(-3, 3) for n in rng.sample(range(-5, 7), 3)
             if n not in (0, 1)}
        a = {n: v for n, v in a.items() if v}
        pr = profile(build_knot_form(a))
        assert {n: v for n, v in pr.n_writhes.items() if n != 1} == a
        assert pr.n_writhes.get(1, 0) == -sum(n * v for n, v in a.items())


def test_build_link_form_empty():
    G = build_link_form(LinkForm(0, {}, {}, {}, {}, 0))
    assert G.mu == 2 and len(G) == 0


def test_build_link_form_reference_values():
    sf = LinkForm(2, **REFERENCE_LINK_SNAILS)
    G = build_link_form(sf)
    assert linking_data(G) == (3, 1, 2)
    pr = profile(G)
    assert pr.linking_class == gamma_class(
        2, LaurentPoly({-1: 1, 0: 1, 4: 1}), LaurentPoly({2: 2, 3: -1}))


def test_build_link_form_single_nonself():
    G = build_link_form(LinkForm(1, {}, {}, {0: 1}, {}, 0))
    assert linking_data(G) == (1, 0, 1)


def test_build_link_form_rejects_inconsistent_lambda():
    with pytest.raises(MalformedSnailForm):
        build_link_form(LinkForm(2, {}, {}, {0: 1}, {}, 0))
    with pytest.raises(MalformedSnailForm):
        build_link_form(LinkForm(0, {0: 1}, {}, {}, {}, 0))


def _raised(build, *args):
    with pytest.raises(MalformedSnailForm) as caught:
        build(*args)
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("form, error", [
    (LinkForm(0, {1: 1}, {}, {}, {}), BadSupport),
    (LinkForm(0, {}, {0: 2, 2: 1}, {}, {}), BadSupport),
    (LinkForm(2, {}, {}, {0: 1}, {}), MalformedSnailForm),
    (LinkForm(0, {1: 1}, {}, {0: 1}, {}), MalformedSnailForm),
], ids=["a1", "b0", "lam", "lam-first"])
def test_each_link_form_fault_has_one_error(form, error):
    """A support fault is BadSupport and a lambda mismatch is its base
    MalformedSnailForm, from every front, with one message; the lambda
    check comes first."""
    raised = _raised(build_link_form, form)
    assert raised[0] is error
    assert _raised(form_code, form) == raised
    if error is BadSupport:
        assert _raised(build_link_diagram, form.a, form.b, form.c,
                       form.d) == raised


def test_canonical_form_empty_knot():
    assert canonical_form(profile(parse_gauss_code("circles: 1\ncircle 1:"))) \
        == KnotForm({})


def test_canonical_form_knot_strips_slot_one(reference_knot):
    assert canonical_form(profile(reference_knot)) == KnotForm({3: 1, -1: 1})


def test_canonical_form_rejects_negative_lambda(reference_link):
    from shellmoves.diagram import swap_components
    with pytest.raises(NegativeLambda):
        canonical_form(profile(swap_components(reference_link)))


def test_canonical_form_shell_sum_shift_moves_window(reference_link):
    pr = profile(reference_link)
    sf = canonical_form(pr)
    shifted = canonical_form(replace(pr, shell_sum=pr.shell_sum + pr.lam))
    assert shifted.p == sf.p - 1
    assert shifted.c_vector() == sf.c_vector()
    assert shifted.d_vector() == sf.d_vector()


def test_canonical_form_detects_inconsistent_shell_sum(reference_link):
    pr = profile(reference_link)
    with pytest.raises(InconsistentProfile):
        canonical_form(replace(pr, shell_sum=pr.shell_sum + 1))


@pytest.mark.parametrize("lam", [0, 1, 2, 3])
def test_canonical_form_fixed_point(lam):
    from conftest import random_canonical_form
    rng = random.Random(52 + lam)
    for _ in range(150):
        sf = random_canonical_form(rng, lam)
        back = canonical_form(profile(build_link_form(sf)))
        assert back == sf, sf


def test_canonical_form_constant_along_walks():
    rng = random.Random(53)
    for run in range(25):
        G = random_diagram(rng, rng.choice((1, 2)), 6)
        pr = profile(G)
        if getattr(pr, "lam", 0) < 0:
            continue
        want = canonical_form(pr)
        H, _ = random_walk(G, 30, seed=run, chord_cap=25)
        assert canonical_form(profile(H)) == want


def test_two_walked_copies_share_canonical_form():
    rng = random.Random(54)
    for run in range(20):
        G = random_diagram(rng, 1, 5)
        A, _ = random_walk(G, 15, seed=run * 2, chord_cap=20)
        B, _ = random_walk(G, 15, seed=run * 2 + 1, chord_cap=20)
        assert canonical_form(profile(A)) == canonical_form(profile(B))


def test_rebuilt_canonical_form_is_equivalent_to_source(reference_link):
    sf = canonical_form(profile(reference_link))
    G = build_link_form(sf)
    assert profile(G) == profile(reference_link)
    assert not isomorphic(G, reference_link)  # different diagrams, same class


@pytest.mark.parametrize("eps", [2, 0, -2, 1.0, -1.0, True, False, "1", None],
                         ids=repr)
def test_encode_snail_gives_every_bad_sign_one_error(eps):
    """Any sign but the int 1 or -1 is BadSign, with the message the
    checking constructor gives a bad chord sign."""
    with pytest.raises(BadSign, match=f"^chord 'g' has sign {eps!r}$"):
        encode_snail("self", eps, 1)


@pytest.mark.parametrize("n", [1.0, "2", True, None], ids=repr)
def test_encode_snail_rejects_an_index_that_is_not_an_int(n):
    with pytest.raises(MalformedSnailForm, match="is not an int$"):
        encode_snail("nonself", 1, n)


@pytest.mark.parametrize("make", [
    lambda: KnotForm({2: 1.0}),
    lambda: KnotForm({2.0: 1}),
    lambda: KnotForm({"2": 1}),
    lambda: KnotForm({2: True}),
    lambda: KnotForm({True: 1, 2: 1}),
    lambda: LinkForm(0, {2: 1.0}, {}, {}, {}),
    lambda: LinkForm(0, {}, {"2": 1}, {}, {}),
    lambda: LinkForm(1, {}, {}, {0: True}, {}),
    lambda: LinkForm(0, {}, {}, {}, {0: 0.0}),
    lambda: LinkForm(1.0, {}, {}, {0: 1}, {}),
    lambda: LinkForm(True, {}, {}, {0: 1}, {}),
    lambda: LinkForm(2, {}, {}, {0: 1, 1: 1}, {}, 0.0),
    lambda: build_knot_form({2: 1.0}),
    lambda: build_link_diagram({}, {}, {2.0: 1}, {}),
    lambda: KnotForm(None),
    lambda: KnotForm([(2, 1)]),
    lambda: LinkForm(0, {}, {}, {}, None),
], ids=["knot-coeff-float", "knot-slot-float", "knot-slot-str",
        "knot-coeff-bool", "knot-slot-bool", "link-a-float", "link-b-str",
        "link-c-bool", "link-d-zero-float", "link-lam-float", "link-lam-bool",
        "link-p-float", "build-knot", "build-link", "knot-none", "knot-pairs",
        "link-d-none"])
def test_snail_forms_take_only_int_data(make):
    """A slot, coefficient, lambda or window start that is not an exact int,
    and snail data that is not a mapping, is MalformedSnailForm when the
    form is made, before any writer or builder reads it."""
    with pytest.raises(MalformedSnailForm, match="must be ints$"):
        make()
