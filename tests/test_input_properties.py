"""Property-based input hardening: Gauss-code text and trace lines from
outside the program give a result or a typed error, never a traceback, and
a serialized diagram parses back to itself."""

import string

from hypothesis import given, settings, strategies as st

from shellmoves.diagram import (INITIAL, TERMINAL, Endpoint, GaussDiagram,
                                parse_gauss_code, serialize)
from shellmoves.errors import GaussCodeError, StaleSite
from shellmoves.moves import MOVE_KINDS, apply_move, site_from_text

CODE_PIECES = ("circles:", "circles: 1", "circles: 2", "circle", "circle 1:",
               "circle 2:", "circle 3:", "chord", "g", "h", "g<", "g>", "h<",
               "h>", "<", ">", "+", "-", "0", "1", "2", "-1", ":", "#", " ",
               "\n", "\t", "é")

TRACE_PARAMS = ("+", "-", "IT", "TI", "par", "anti", "tfirst", "junk")
TRACE_PIECES = (*MOVE_KINDS, *TRACE_PARAMS, "R4", "@", "1:0", "2:1", "1:-1",
                "0:0", "1:x", ":", " ")

# small diagrams the trace lines are applied to: empty, a free chord, a
# two-circle link with a nonself and a self chord
LINKS = tuple(parse_gauss_code(text) for text in (
    "circles: 1\ncircle 1:\n",
    "circles: 1\nchord g +\ncircle 1: g< g>\n",
    "circles: 2\nchord g +\nchord x -\nchord y +\n"
    "circle 1: g< x< y<\ncircle 2: g> y> x>\n",
))


def _texts(pieces):
    return st.one_of(st.text(), st.lists(st.sampled_from(pieces),
                                         max_size=24).map(" ".join),
                     st.lists(st.sampled_from(pieces), max_size=24).map("".join))


@settings(max_examples=300, deadline=None)
@given(_texts(CODE_PIECES))
def test_parse_raises_only_gauss_code_errors(text):
    try:
        G = parse_gauss_code(text)
    except GaussCodeError:
        return
    assert isinstance(G, GaussDiagram)


# well-formed lines: each kind's arity and parameter shape most of the time,
# anchors on and off the circles, so many lines reach the handlers
_ARITY = {"R1_insert": 1, "R2_insert": 2, "R2_delete": 2, "R3": 3}
_SIGN, _VARIANT = st.sampled_from("+-"), st.sampled_from(("par", "anti"))
_PARAMS = {
    "R1_insert": st.tuples(_SIGN, st.sampled_from(("IT", "TI"))),
    "R2_insert": st.one_of(st.tuples(_VARIANT, _SIGN),
                           st.tuples(_VARIANT, _SIGN, st.just("tfirst"))),
    "R2_delete": st.tuples(_VARIANT),
}


@st.composite
def _lines(draw):
    kind = draw(st.sampled_from((*MOVE_KINDS, "R4")))
    arity = _ARITY.get(kind, 1)
    n = draw(st.sampled_from((arity, arity, arity, 0, 1, 2, 3)))
    anchors = [f"{draw(st.sampled_from((1, 1, 2, 0, 3)))}:"
               f"{draw(st.integers(-1, 4))}" for _ in range(n)]
    params = draw(st.one_of(_PARAMS.get(kind, st.just(())),
                            st.lists(st.sampled_from(TRACE_PARAMS),
                                     max_size=3)))
    return " ".join((kind, "@", *anchors, *params))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_lines(), _texts(TRACE_PIECES)))
def test_trace_lines_parse_or_apply_or_go_stale(line):
    try:
        site = site_from_text(line)
    except ValueError:
        return
    for G in LINKS:
        try:
            H = apply_move(G, site)
        except StaleSite:
            continue
        GaussDiagram(H.signs, H.circles)  # the image is a valid diagram


# chord ids free of whitespace and of the format's "<>#:" characters
_IDS = st.text(string.ascii_letters + string.digits + "_.'+-", min_size=1,
               max_size=3)


@st.composite
def _diagrams(draw):
    """1- and 2-circle diagrams, chords declared in id order as
    ``serialize`` writes them, endpoints in any order."""
    ids = sorted(draw(st.sets(_IDS, max_size=7)))
    signs = {cid: draw(st.sampled_from((1, -1))) for cid in ids}
    eps = draw(st.permutations(
        [Endpoint(cid, k) for cid in ids for k in (INITIAL, TERMINAL)]))
    if draw(st.booleans()):
        return GaussDiagram(signs, [tuple(eps)])
    cut = draw(st.integers(0, len(eps)))
    return GaussDiagram(signs, [tuple(eps[:cut]), tuple(eps[cut:])])


@settings(max_examples=300, deadline=None)
@given(_diagrams())
def test_parse_inverts_serialize(G):
    H = parse_gauss_code(serialize(G))
    assert list(H.signs.items()) == list(G.signs.items())
    assert H.circles == G.circles
