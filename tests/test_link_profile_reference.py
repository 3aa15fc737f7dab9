"""The link profile against its earlier form, kept here as the reference:
self tables from one arc-sum pass per circle, nonself chords found by a
scan of circle 1, and nonself indices read on the merged circle that
``surgery`` builds along the first of them, as the book defines the linking
class.  The live profile reads every index from one prefix-sum walk per
circle and never builds that circle, so the book's reading through
``surgery`` lives only here."""

import random

import pytest

from shellmoves import diagram, invariants
from shellmoves.algebra import LaurentPoly, gamma_class
from shellmoves.diagram import (INITIAL, TERMINAL, GaussDiagram,
                                parse_gauss_code, surgery)
from shellmoves.errors import (NotANonselfChord, UnknownChordId,
                               WrongComponentCount)
from shellmoves.invariants import (LinkProfile, link_slots, linking_class,
                                   profile, shell_sum)

from conftest import random_diagram, random_link_with_lambda

# the benchmark's decide ladder, 50 to 800 chords in 48 equal ratios
DECIDE_SIZES = sorted({round(50 * 16 ** (i / 47)) for i in range(48)})


def ref_arc_sums(word, signs) -> dict[str, int]:
    """Arc sum of every self-chord of ``word``: prefix sums, with the
    circle total added for an arc that wraps past the basepoint."""
    out: dict[str, int] = {}
    after_initial: dict[str, int] = {}
    at_terminal: dict[str, int] = {}
    run = 0
    for chord, kind in word:
        if kind == TERMINAL:
            if chord in after_initial:
                out[chord] = run - after_initial.pop(chord)
            else:
                at_terminal[chord] = run
            run += signs[chord]
        else:
            run -= signs[chord]
            after_initial[chord] = run
    for chord, start in after_initial.items():
        if chord in at_terminal:
            out[chord] = run - start + at_terminal[chord]
    return out


def _add(table: dict[int, int], n: int, sign: int) -> None:
    table[n] = table.get(n, 0) + sign
    if table[n] == 0:
        del table[n]


def ref_self_writhe_tables(G: GaussDiagram):
    out = []
    for word in G.circles:
        table: dict[int, int] = {}
        for cid, n in ref_arc_sums(word, G.signs).items():
            _add(table, n, G.signs[cid])
        out.append(table)
    return tuple(out)


def ref_nonself_endpoints(G: GaussDiagram):
    on_circle2 = {chord for chord, _ in G.circles[1]}
    return [ep for ep in G.circles[0] if ep[0] in on_circle2]


def ref_linking_data(G: GaussDiagram) -> tuple[int, int, int]:
    lk12 = lk21 = 0
    for chord, kind in ref_nonself_endpoints(G):
        if kind == INITIAL:
            lk12 += G.signs[chord]
        else:
            lk21 += G.signs[chord]
    return lk12, lk21, lk12 - lk21


def ref_nonself_writhe_tables(G: GaussDiagram, gamma0: str):
    merged = surgery(G, gamma0)
    index = ref_arc_sums(merged.circles[0], merged.signs)
    index[gamma0] = 0
    t12: dict[int, int] = {}
    t21: dict[int, int] = {}
    for chord, kind in ref_nonself_endpoints(G):
        _add(t12 if kind == INITIAL else t21, index[chord], G.signs[chord])
    return t12, t21


def ref_linking_class(G: GaussDiagram):
    nonself = ref_nonself_endpoints(G)
    if not nonself:
        return gamma_class(0, LaurentPoly(), LaurentPoly())
    t12, t21 = ref_nonself_writhe_tables(G, nonself[0][0])
    lam = sum(t12.values()) - sum(t21.values())
    return gamma_class(abs(lam), LaurentPoly(t12), LaurentPoly(t21))


def ref_link_profile(G: GaussDiagram) -> LinkProfile:
    lk12, lk21, lam = ref_linking_data(G)
    t1, t2 = ref_self_writhe_tables(G)
    (free1, _), (free2, _) = link_slots(lam)
    cls = ref_linking_class(G)
    f_prime = None if abs(lam) == 1 else cls.derivative_sum()

    def off(t, free):
        return {n: v for n, v in t.items() if n not in free}

    return LinkProfile(lk12, lk21, lam, off(t1, free1), off(t2, free2),
                       shell_sum(lam, t1, t2), cls, f_prime)


FIELDS = ("lk12", "lk21", "lam", "jn1", "jn2", "shell_sum", "linking_class",
          "f_prime")


def _assert_same_profile(G: GaussDiagram, tag) -> None:
    got, want = profile(G), ref_link_profile(G)
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), (tag, name)
    assert got.fields() == want.fields(), tag


def _seeded_link(seed: int) -> GaussDiagram:
    """A random 2-circle diagram; every fifth has all its endpoints on one
    circle, the other left empty."""
    rng = random.Random(seed)
    G = random_diagram(rng, 2, 40)
    if seed % 5 == 0:
        words = [(), G.circles[0] + G.circles[1]]
        rng.shuffle(words)
        G = GaussDiagram(G.signs, words)
    return G


def _first_nonself_is_terminal(G: GaussDiagram) -> bool:
    nonself = ref_nonself_endpoints(G)
    return bool(nonself) and nonself[0][1] == TERMINAL


def test_link_profile_matches_the_merged_circle_reference():
    empty = no_nonself = terminal_first = 0
    for seed in range(3000):
        G = _seeded_link(seed)
        _assert_same_profile(G, seed)
        empty += not all(G.circles)
        no_nonself += not ref_nonself_endpoints(G)
        terminal_first += _first_nonself_is_terminal(G)
    assert empty > 600 and no_nonself > 600 and terminal_first > 800


def test_link_profile_matches_the_reference_for_every_lambda():
    rng = random.Random(31)
    lams = set()
    terminal_first = 0
    for lam in range(-3, 4):
        for _ in range(150):
            G = random_link_with_lambda(rng, lam)
            _assert_same_profile(G, lam)
            lams.add(profile(G).lam)
            terminal_first += _first_nonself_is_terminal(G)
    assert lams == set(range(-3, 4)) and terminal_first > 200


def test_link_profile_matches_the_reference_at_decide_sizes():
    rng = random.Random(32)
    assert DECIDE_SIZES[0] == 50 and DECIDE_SIZES[-1] == 800
    for n in DECIDE_SIZES:
        G = random_diagram(rng, 2, 0, chords=n)
        while not ref_nonself_endpoints(G):
            G = random_diagram(rng, 2, 0, chords=n)
        _assert_same_profile(G, n)


def test_profile_reads_no_merged_circle_and_asks_no_chord(monkeypatch):
    calls = []

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    for module in (diagram, invariants):
        monkeypatch.setattr(module, "surgery", spy("surgery", surgery))
    monkeypatch.setattr(GaussDiagram, "locate",
                        spy("locate", GaussDiagram.locate))
    G = random_diagram(random.Random(33), 2, 0, chords=60)
    assert ref_nonself_endpoints(G)
    calls.clear()
    profile(G)
    assert calls == []


# -- errors of surgery and linking_class --------------------------------------


LINK = parse_gauss_code("""\
circles: 2
chord g +
chord s -
circle 1: g< s< s>
circle 2: g>
""")
KNOT = parse_gauss_code("circles: 1\nchord a +\ncircle 1: a< a>\n")
THREE = parse_gauss_code("circles: 3\nchord a +\ncircle 1: a< a>\n"
                         "circle 2:\ncircle 3:\n")


@pytest.mark.parametrize("G, gamma0, error, message", [
    (LINK, "s", NotANonselfChord, "chord 's' is a self-chord"),
    (LINK, "zz", UnknownChordId, "no chord 'zz'"),
    (LINK, ["g"], UnknownChordId, "no chord ['g']"),
    (KNOT, "a", WrongComponentCount,
     "operation needs 2 circle(s), diagram has 1"),
    (THREE, "a", WrongComponentCount,
     "operation needs 2 circle(s), diagram has 3"),
], ids=["self-chord", "unknown-id", "unhashable-id", "one-circle",
        "three-circles"])
def test_surgery_errors(G, gamma0, error, message):
    with pytest.raises(error) as got:
        surgery(G, gamma0)
    assert type(got.value) is error and str(got.value) == message


@pytest.mark.parametrize("G, mu", [(KNOT, 1), (THREE, 3)],
                         ids=["one-circle", "three-circles"])
def test_linking_class_needs_two_circles(G, mu):
    with pytest.raises(WrongComponentCount) as got:
        linking_class(G)
    assert type(got.value) is WrongComponentCount
    assert str(got.value) == f"operation needs 2 circle(s), diagram has {mu}"
