"""Indices, writhe tables, linking data, and profile assembly."""

import random

import pytest

from shellmoves.algebra import LaurentPoly, gamma_class
from shellmoves.diagram import parse_gauss_code, swap_components
from shellmoves.errors import (NotADiagram, NotASelfChord, ShellmovesError,
                               UnsupportedComponentCount)
from shellmoves.invariants import (
    linking_class,
    linking_data,
    profile,
    writhe_polynomial,
)
from shellmoves.moves import random_walk

from conftest import (
    REFERENCE_KNOT_INDICES,
    chord_type,
    is_free,
    link_from_snails,
    random_diagram,
    random_link_with_lambda,
)
from reference import (ref_detect_shells, ref_encode_snail,
                       ref_nonself_writhe_tables, ref_weighted)


def test_knot_index_free_chord():
    G = parse_gauss_code("circles: 1\nchord g +\ncircle 1: g< g>")
    assert G.arc_sign_sum("g") == 0


def test_knot_index_snail_base():
    assert ref_encode_snail("self", 1, 2).arc_sign_sum("g") == 2


def test_knot_index_of_shells_is_one():
    rng = random.Random(41)
    seen = 0
    for _ in range(300):
        G = random_diagram(rng, 1, 6)
        for shell in ref_detect_shells(G):
            assert G.arc_sign_sum(shell) == 1
            seen += 1
    assert seen > 50


def test_reference_knot_indices_and_writhe(reference_knot):
    for cid, idx in REFERENCE_KNOT_INDICES.items():
        assert reference_knot.arc_sign_sum(cid) == idx
    assert writhe_polynomial(reference_knot) == LaurentPoly({-1: 1, 1: -2, 3: 1})
    pr = profile(reference_knot)
    assert pr.odd_writhe == 0
    assert pr.n_writhes == {3: 1, 1: -2, -1: 1}


def test_writhe_empty_and_snail():
    assert writhe_polynomial(parse_gauss_code("circles: 1\ncircle 1:")) == \
        LaurentPoly()
    assert writhe_polynomial(ref_encode_snail("self", 1, 2)) == \
        LaurentPoly({2: 1, 1: -2, 0: 1})


def test_writhe_identities_on_random_diagrams():
    # W(1) = 0, W'(1) = 0, and the slot-1 writhe balances the others
    rng = random.Random(42)
    for _ in range(400):
        G = random_diagram(rng, 1, 8)
        pr = profile(G)
        assert pr.writhe.eval_at_one() == 0
        assert pr.writhe.derivative_at_one() == 0
        J = pr.n_writhes
        assert J.get(1, 0) == -sum(n * v for n, v in J.items() if n != 1)


def test_self_index_free_chord_two_values():
    rng = random.Random(43)
    hits = set()
    for _ in range(400):
        G = random_link_with_lambda(rng, rng.choice([0, 1, 2, 3]))
        _, _, lam = linking_data(G)
        for cid in G.signs:
            if chord_type(G, cid) is None and is_free(G, cid):
                ci, _ = G.locate(cid, "<")
                want = {0, -lam} if ci == 0 else {0, lam}
                idx = G.arc_sign_sum(cid)
                assert idx in want
                hits.add(idx == 0)
    assert hits  # at least one free chord seen


def test_self_index_shell_slots():
    rng = random.Random(44)
    seen = 0
    for _ in range(400):
        G = random_diagram(rng, 2, 6)
        _, _, lam = linking_data(G)
        for shell in ref_detect_shells(G):
            ci, _ = G.locate(shell, "<")
            want = {1, -lam + 1} if ci == 0 else {1, lam + 1}
            assert G.arc_sign_sum(shell) in want
            seen += 1
    assert seen > 40


def test_self_index_rejects_nonself():
    G = parse_gauss_code("circles: 2\nchord g +\ncircle 1: g<\ncircle 2: g>")
    with pytest.raises(NotASelfChord):
        G.arc_sign_sum("g")


def test_nonself_index_reference_convention():
    # gamma0 itself sits at index 0
    G = parse_gauss_code("circles: 2\nchord g +\ncircle 1: g<\ncircle 2: g>")
    assert ref_nonself_writhe_tables(G, "g") == ({0: 1}, {})


def test_reference_link_nonself_tables(reference_link):
    # relative to the undressed chord from circle 1 to circle 2
    gamma0 = next(c for c in reference_link.signs
                  if chord_type(reference_link, c) == (1, 2)
                  and all(not k.startswith(c + "s") for k in reference_link.signs
                          if k != c) and c + "s1" not in reference_link.signs)
    t12, t21 = ref_nonself_writhe_tables(reference_link, gamma0)
    assert t12 == {-1: 1, 0: 1, 4: 1}
    assert t21 == {2: 2, 3: -1}


def test_linking_data_examples(reference_link):
    single = parse_gauss_code("circles: 2\nchord g +\ncircle 1: g<\ncircle 2: g>")
    assert linking_data(single) == (1, 0, 1)
    assert linking_data(reference_link) == (3, 1, 2)
    empty2 = parse_gauss_code("circles: 2\ncircle 1:\ncircle 2:")
    assert linking_data(empty2) == (0, 0, 0)


def test_linking_class_no_nonself_chords():
    G = parse_gauss_code(
        "circles: 2\nchord g +\ncircle 1: g< g>\ncircle 2:")
    cls = linking_class(G)
    assert cls.s == 0 and not cls.f and not cls.g


def test_linking_class_reference(reference_link):
    want = gamma_class(2, LaurentPoly({-1: 1, 0: 1, 4: 1}),
                       LaurentPoly({2: 2, 3: -1}))
    assert linking_class(reference_link) == want


def test_linking_class_single_chord_is_linking_pair():
    G = parse_gauss_code("circles: 2\nchord g +\ncircle 1: g<\ncircle 2: g>")
    cls = linking_class(G)
    assert cls.s == 1
    assert (cls.f, cls.g) == (LaurentPoly({0: 1}), LaurentPoly())


def test_nonself_polynomials_evaluate_to_linking_numbers():
    rng = random.Random(46)
    for _ in range(200):
        G = random_link_with_lambda(rng, rng.choice([0, 1, 2, 3]))
        nonself = [c for c in G.signs if chord_type(G, c) is not None]
        if not nonself:
            continue
        lk12, lk21, _ = linking_data(G)
        t12, t21 = ref_nonself_writhe_tables(G, rng.choice(nonself))
        assert sum(t12.values()) == lk12
        assert sum(t21.values()) == lk21


def test_profile_reference_link(reference_link):
    pr = profile(reference_link)
    assert (pr.lk12, pr.lk21, pr.lam) == (3, 1, 2)
    assert pr.invariant_jn1() == {2: 2, 3: -1}
    assert pr.invariant_jn2() == {-1: 2}
    assert pr.linking_class == gamma_class(
        2, LaurentPoly({-1: 1, 0: 1, 4: 1}), LaurentPoly({2: 2, 3: -1}))
    assert pr.f_prime == (pr.linking_class.f.derivative_at_one()
                          + pr.linking_class.g.derivative_at_one()) % 2


def test_profile_empty_knot():
    pr = profile(parse_gauss_code("circles: 1\ncircle 1:"))
    assert not pr.writhe and pr.odd_writhe == 0


def test_profile_swap_antisymmetry(reference_link):
    pr = profile(swap_components(reference_link))
    assert (pr.lk12, pr.lk21, pr.lam) == (1, 3, -2)


def test_profile_rejects_three_circles():
    G = parse_gauss_code("circles: 3\ncircle 1:\ncircle 2:\ncircle 3:")
    with pytest.raises(UnsupportedComponentCount):
        profile(G)


def test_profile_constant_along_walks():
    rng = random.Random(47)
    for run in range(40):
        G = random_diagram(rng, rng.choice((1, 2)), 8)
        before = profile(G)
        H, _ = random_walk(G, 30, seed=run, chord_cap=30)
        assert profile(H) == before


def test_snail_diagram_profile_reads_off_the_snail_data():
    rng = random.Random(48)
    for _ in range(150):
        a = {rng.randint(-4, 5): rng.randint(-2, 2) for _ in range(3)}
        b = {rng.randint(-4, 5): rng.randint(-2, 2) for _ in range(3)}
        a = {n: v for n, v in a.items() if n not in (0, 1) and v}
        b = {n: v for n, v in b.items() if n not in (0, 1) and v}
        c = {rng.randint(-3, 4): rng.randint(-2, 2) for _ in range(2)}
        d = {rng.randint(-3, 4): rng.randint(-2, 2) for _ in range(2)}
        c = {m: v for m, v in c.items() if v}
        d = {m: v for m, v in d.items() if v}
        G = link_from_snails(a, b, c, d)
        pr = profile(G)
        lam = pr.lam
        assert lam == sum(c.values()) - sum(d.values())
        assert (pr.lk12, pr.lk21) == (sum(c.values()), sum(d.values()))
        banned1 = {0, 1, -lam, -lam + 1}
        banned2 = {0, 1, lam, lam + 1}
        assert pr.invariant_jn1() == {n: v for n, v in a.items()
                                      if n not in banned1}
        assert pr.invariant_jn2() == {n: v for n, v in b.items()
                                      if n not in banned2}
        assert pr.linking_class == gamma_class(abs(lam), LaurentPoly(c),
                                               LaurentPoly(d))
        # the closed shell-sum form needs the main self-chords clear of the
        # shell slots, as in a canonical layout
        clear = not (set(a) & {-lam, -lam + 1}) and not (set(b) & {lam, lam + 1})
        if abs(lam) != 1 and clear:
            assert pr.shell_sum == -ref_weighted(a, b, c, d)


@pytest.mark.parametrize("arg", ["circles: 1", None, 0, {}, ("circles",)])
def test_profile_rejects_what_is_not_a_diagram(arg):
    with pytest.raises(NotADiagram, match="^profile needs a GaussDiagram, not "):
        profile(arg)
    assert issubclass(NotADiagram, ShellmovesError)
