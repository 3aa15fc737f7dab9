"""The link profile against its earlier form, ``ref_link_profile`` in
``reference.py``: self tables from one arc-sum pass per circle, nonself
chords found by a scan of circle 1, and nonself indices read on the merged
circle that ``surgery`` builds along the first of them, as the book defines
the linking class.  The live profile reads every index from one prefix-sum
walk per circle and never builds that circle, so the book's reading through
``surgery`` lives only in the reference."""

import random

import pytest

from shellmoves import diagram, invariants
from shellmoves.diagram import (TERMINAL, GaussDiagram, parse_gauss_code,
                                surgery)
from shellmoves.errors import (NotANonselfChord, UnknownChordId,
                               WrongComponentCount)
from shellmoves.invariants import linking_class, profile

from conftest import random_diagram, random_link_with_lambda
from reference import ref_link_profile, ref_nonself_endpoints

# the benchmark's decide ladder, 50 to 800 chords in 48 equal ratios
DECIDE_SIZES = sorted({round(50 * 16 ** (i / 47)) for i in range(48)})


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
