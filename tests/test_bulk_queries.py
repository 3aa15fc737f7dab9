"""Bulk paths ask the diagram nothing per chord: the number of
``GaussDiagram.locate`` calls made by ``profile``, ``linking_data``,
``s_equivalent`` and every site finder is the same at 50 and 800 chords."""

import random

import pytest

from shellmoves.diagram import GaussDiagram
from shellmoves.equiv import s_equivalent
from shellmoves.invariants import linking_data, profile
from shellmoves.moves import MOVE_KINDS, R2_INSERT, find_move_sites

from conftest import random_diagram

SIZES = (50, 800)
# R2_insert pairs every gap with every gap: about 16 n^2 sites, some ten
# million at 800 chords, so it is compared at a size whose sites fit in memory
R2_INSERT_SIZES = (50, 100)


def _link(chords: int) -> GaussDiagram:
    return random_diagram(random.Random(chords), 2, chords, chords=chords)


def _rotated(G: GaussDiagram) -> GaussDiagram:
    return GaussDiagram(G.signs, [w[1:] + w[:1] for w in G.circles])


@pytest.fixture
def locate_calls(monkeypatch):
    calls: list[str] = []
    real = GaussDiagram.locate

    def counted(self, chord, kind):
        calls.append(chord)
        return real(self, chord, kind)

    monkeypatch.setattr(GaussDiagram, "locate", counted)
    return calls


def _calls(calls: list, fn, *args) -> int:
    calls.clear()
    fn(*args)
    return len(calls)


def test_invariants_make_a_fixed_number_of_lookups(locate_calls):
    counts = []
    for n in SIZES:
        G = _link(n)
        # nonself chords, so profile takes the surgery path too
        assert {c for c, _ in G.circles[0]} & {c for c, _ in G.circles[1]}
        counts.append([_calls(locate_calls, profile, G),
                       _calls(locate_calls, linking_data, G),
                       _calls(locate_calls, s_equivalent, G, _rotated(G))])
    assert counts[0] == counts[1]


@pytest.mark.parametrize("kind", MOVE_KINDS)
def test_site_finders_make_a_fixed_number_of_lookups(locate_calls, kind):
    sizes = R2_INSERT_SIZES if kind == R2_INSERT else SIZES
    counts = [_calls(locate_calls, find_move_sites, _link(n), kind)
              for n in sizes]
    assert counts[0] == counts[1]
