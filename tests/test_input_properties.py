"""Property-based input hardening: Gauss-code text and trace lines from
outside the program give a result or a typed error, never a traceback."""

from hypothesis import given, settings, strategies as st

from shellmoves.diagram import GaussDiagram, parse_gauss_code
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
