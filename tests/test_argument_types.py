"""Typed errors for arguments of the wrong type: every public function that
takes a diagram names itself in one ``NotADiagram`` message, through
``diagram.require_diagrams``, and the profile and polynomial readers, the
text readers, ``build_link_form``, ``realize_link`` and ``gamma_class`` raise
``WrongArgumentType``; both are ``ShellmovesError`` subclasses."""

import pytest

from shellmoves.algebra import LaurentPoly, gamma_class, parse_poly
from shellmoves.diagram import (isomorphic, parse_gauss_code, serialize,
                                surgery, swap_components)
from shellmoves.equiv import bfs_witness, s_equivalent
from shellmoves.errors import NotADiagram, ShellmovesError, WrongArgumentType
from shellmoves.invariants import (linking_class, linking_data, profile,
                                   writhe_polynomial)
from shellmoves.moves import random_walk
from shellmoves.normal_form import (build_link_form, canonical_form,
                                    realize_knot, realize_link)

FREE = parse_gauss_code("circles: 1\nchord g +\ncircle 1: g< g>")

# (name in the message, call on a non-diagram x)
TAKES_A_DIAGRAM = [
    ("linking_data", lambda x: linking_data(x)),
    ("writhe_polynomial", lambda x: writhe_polynomial(x)),
    ("linking_class", lambda x: linking_class(x)),
    ("swap_components", lambda x: swap_components(x)),
    ("serialize", lambda x: serialize(x)),
    ("random_walk", lambda x: random_walk(x, 1, 0, 5)),
    ("surgery", lambda x: surgery(x, "g")),
    ("profile", lambda x: profile(x)),
    ("isomorphic", lambda x: isomorphic(FREE, x)),
    ("s_equivalent", lambda x: s_equivalent(x, FREE)),
    ("bfs_witness", lambda x: bfs_witness(FREE, x, 2, 3)),
]


@pytest.mark.parametrize("name, call", TAKES_A_DIAGRAM,
                         ids=[name for name, _ in TAKES_A_DIAGRAM])
def test_every_diagram_reader_rejects_a_string(name, call):
    text = "circles: 1\nchord g +\ncircle 1: g< g>"
    with pytest.raises(NotADiagram,
                       match=f"^{name} needs a GaussDiagram, not str$"):
        call(text)


@pytest.mark.parametrize("call, message", [
    (lambda: canonical_form("x"), "^not a profile: 'x'$"),
    (lambda: canonical_form(FREE), "^not a profile: <GaussDiagram "),
    (lambda: realize_knot({1: 1}),
     "^realize_knot needs a LaurentPoly, not dict$"),
    (lambda: build_link_form("x"), "^build_link_form needs a LinkForm, not str$"),
    (lambda: parse_gauss_code(5), "^parse_gauss_code needs a str, not int$"),
    (lambda: parse_poly(5), "^parse_poly needs a str, not int$"),
    (lambda: realize_link("x", {}, {}, {}, {}),
     "^realize_link needs an int and four mappings$"),
    (lambda: realize_link(True, {}, {}, {0: 1}, {}),
     "^realize_link needs an int and four mappings$"),
    (lambda: gamma_class("x", LaurentPoly(), LaurentPoly()),
     "^gamma_class needs an int and two LaurentPolys$"),
    (lambda: gamma_class(True, LaurentPoly({0: 1}), LaurentPoly()),
     "^gamma_class needs an int and two LaurentPolys$"),
], ids=["canonical-form-str", "canonical-form-diagram", "realize-knot-dict",
        "build-link-form-str", "parse-gauss-code-int", "parse-poly-int",
        "realize-link-str", "realize-link-bool", "gamma-class-str",
        "gamma-class-bool"])
def test_wrong_argument_types_are_typed(call, message):
    with pytest.raises(WrongArgumentType, match=message):
        call()


def test_wrong_argument_types_are_package_errors():
    assert issubclass(WrongArgumentType, ShellmovesError)
    assert issubclass(NotADiagram, WrongArgumentType)
