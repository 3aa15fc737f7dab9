"""Gauss-code parsing, validation, shells, surgery, component swap."""

import random
from typing import NamedTuple

import pytest

from shellmoves.diagram import (
    GaussDiagram,
    INITIAL,
    TERMINAL,
    canonical_key,
    is_shell_layer,
    isomorphic,
    parse_gauss_code,
    serialize,
    surgery,
    swap_components,
)
from shellmoves.errors import (
    BadSign,
    CircleCountMismatch,
    DuplicateEndpoint,
    GaussCodeError,
    MissingEndpoint,
    NotANonselfChord,
    UnknownChordId,
    WrongComponentCount,
)
from shellmoves.invariants import linking_data

from conftest import (chord_type, circle_sign_sum, is_free, random_diagram,
                      ref_detect_shells)
from test_iso_key import relabel_and_rotate


def test_parse_free_chord():
    G = parse_gauss_code("circles: 1\nchord g +\ncircle 1: g< g>")
    assert G.mu == 1 and G.signs == {"g": 1}
    assert is_free(G, "g")


def test_parse_cross_circle_chord():
    G = parse_gauss_code("circles: 2\nchord g +\ncircle 1: g<\ncircle 2: g>")
    assert chord_type(G, "g") == (1, 2)


def test_parse_empty_diagram():
    G = parse_gauss_code("circles: 1\ncircle 1:")
    assert G.mu == 1 and len(G) == 0


def test_parse_comments_and_blank_lines():
    G = parse_gauss_code("# header\ncircles: 1\n\nchord g -  # a chord\ncircle 1: g< g>\n")
    assert G.signs == {"g": -1}


@pytest.mark.parametrize("text,err", [
    ("circles: 1\ncircle 1: g< g>", UnknownChordId),
    ("circles: 1\nchord g +\ncircle 1: g< g< g>", DuplicateEndpoint),
    ("circles: 1\nchord g +\ncircle 1: g<", MissingEndpoint),
    ("circles: 1\nchord g +\ncircle 1:", MissingEndpoint),
    ("circles: 1\nchord g *\ncircle 1: g< g>", BadSign),
    ("circles: 2\nchord g +\ncircle 1: g< g>", CircleCountMismatch),
    ("circles: 1\nchord g +\ncircle 2: g< g>", CircleCountMismatch),
    ("circles: 0\n", CircleCountMismatch),
    ("", GaussCodeError),
    ("circles: 1\nchord g +\nwat\ncircle 1: g< g>", GaussCodeError),
])
def test_parse_rejects_malformed(text, err):
    with pytest.raises(err):
        parse_gauss_code(text)


@pytest.mark.parametrize("line", ["chordal a +", "chords b -", "circlex 1:"])
def test_parse_rejects_inexact_keyword(line):
    # a line keyword must be exactly "chord" or "circle"
    with pytest.raises(GaussCodeError, match="unrecognized line"):
        parse_gauss_code(f"circles: 1\nchord a +\nchord b -\n{line}\n"
                         "circle 1: a< a> b< b>")


def _eps(text: str) -> tuple[tuple[str, str], ...]:
    return tuple((tok[:-1], tok[-1]) for tok in text.split())


class _Pair(NamedTuple):
    """A tuple subclass that compares equal to a plain pair."""

    chord: str
    kind: str


@pytest.mark.parametrize("signs, words, err, message", [
    ({"a": 1}, ["a< a< a>"], DuplicateEndpoint,
     "chord 'a' has two '<' endpoints"),
    ({"a": 1}, [], CircleCountMismatch, "a diagram needs at least one circle"),
    ({"a": 0}, ["a< a>"], BadSign, "chord 'a' has sign 0"),
    ({"a": 1}, ["a>"], MissingEndpoint, "chord 'a' lacks its '<' endpoint"),
    ({"a": 1}, ["a<"], MissingEndpoint, "chord 'a' lacks its '>' endpoint"),
    ({"a": 1}, ["a< b> a>"], UnknownChordId,
     "endpoint references unknown chord 'b'"),
    # which error fires first: duplicates, then no circles, then per chord
    # in declaration order bad sign and missing endpoints (initial first),
    # then unknown chords in word order
    ({"a": 2}, ["a> a> z<"], DuplicateEndpoint,
     "chord 'a' has two '>' endpoints"),
    ({"a": 2}, [], CircleCountMismatch, "a diagram needs at least one circle"),
    ({"a": 2, "b": 1}, ["z<"], BadSign, "chord 'a' has sign 2"),
    ({"b": 1, "a": 2}, ["a< a>"], MissingEndpoint,
     "chord 'b' lacks its '<' endpoint"),
    ({"a": 1}, ["z< a<", ""], MissingEndpoint,
     "chord 'a' lacks its '>' endpoint"),
    ({"a": 1}, ["a< y<", "z> a>"], UnknownChordId,
     "endpoint references unknown chord 'y'"),
    # only what the text format carries: a stray endpoint of a third kind
    # (which arc sums would read as initial), then ids tokens cannot spell,
    # given as tuples of endpoints; an endpoint is an exact 2-tuple
    ({"a": 1, "b": 1}, ["a< b< a> b? b>"], GaussCodeError,
     "chord 'b' has an endpoint of kind '?'"),
    ({"a b": 1}, [(("a b", "<"), ("a b", ">"))], GaussCodeError,
     "bad chord id 'a b'"),
    ({"": 1}, [(("", "<"), ("", ">"))], GaussCodeError, "bad chord id ''"),
    ({"g<": 1}, [(("g<", "<"), ("g<", ">"))], GaussCodeError,
     "bad chord id 'g<'"),
    ({7: 1}, [((7, "<"), (7, ">"))], GaussCodeError, "bad chord id 7"),
    ({"a": 1}, [(("a", "<", "x"), ("a", ">"))], GaussCodeError,
     "word element ('a', '<', 'x') is not a (chord, kind) pair"),
    ({"a": 1}, [(("a", "<"), ("a", ">"), "b")], GaussCodeError,
     "word element 'b' is not a (chord, kind) pair"),
    # a non-endpoint element fails as it is read; the kind and id checks
    # come last: bad sign first, then kinds, then ids
    ({"a": 2}, [(("a", "<"), ("a", ">", "x"), ("a", "<"))], GaussCodeError,
     "word element ('a', '>', 'x') is not a (chord, kind) pair"),
    ({"a b": 2}, [(("a b", "<"), ("a b", "?"), ("a b", ">"))], BadSign,
     "chord 'a b' has sign 2"),
    ({"a b": 1}, [(("a b", "<"), ("a b", "?"), ("a b", ">"))],
     GaussCodeError, "chord 'a b' has an endpoint of kind '?'"),
    # a tuple subclass, a list and a string are not pairs either, though
    # each has two items and the first two compare equal to a pair
    ({"a": 1}, [(_Pair("a", "<"), ("a", ">"))], GaussCodeError,
     "word element _Pair(chord='a', kind='<') is not a (chord, kind) pair"),
    ({"a": 1}, [(("a", "<"), ["a", ">"])], GaussCodeError,
     "word element ['a', '>'] is not a (chord, kind) pair"),
    ({"a": 1}, [("a<", ("a", ">"))], GaussCodeError,
     "word element 'a<' is not a (chord, kind) pair"),
    # an exact 2-tuple with an unhashable item is not a pair either
    ({"a": 1}, [((["a"], "<"), ("a", ">"))], GaussCodeError,
     "word element (['a'], '<') is not a (chord, kind) pair"),
    ({"a": 1}, [(("a", "<"), ("a", {}))], GaussCodeError,
     "word element ('a', {}) is not a (chord, kind) pair"),
    # a sign is the int 1 or -1: a float or a bool would be misread
    ({"a": 1.0, "b": True}, ["a< b< a> b>"], BadSign,
     "chord 'a' has sign 1.0"),
    ({"a": 1, "b": True}, ["a< b< a> b>"], BadSign, "chord 'b' has sign True"),
    ({"a": -1.0}, ["a< a>"], BadSign, "chord 'a' has sign -1.0"),
])
def test_constructor_validates(signs, words, err, message):
    """Each fault raises its own error, and so does rebuilding it from a
    pickle; a word is given as tokens or as a tuple handed over as is."""
    import pickle

    words = [_eps(w) if isinstance(w, str) else w for w in words]
    with pytest.raises(GaussCodeError) as caught:
        GaussDiagram(signs, words)
    assert type(caught.value) is err and str(caught.value) == message
    data = pickle.dumps(GaussDiagram._unchecked(dict(signs), tuple(words)))
    with pytest.raises(err):
        pickle.loads(data)


def test_constructor_accepts_plain_pairs():
    G = GaussDiagram({"a": 1}, [(("a", "<"), ("a", ">"))])
    assert serialize(G) == "circles: 1\nchord a +\ncircle 1: a< a>\n"


def test_serialize_sorts_chord_lines_by_id():
    """An id may hold a character that sorts below the space: ``a`` comes
    before ``a\\x01``, though the line ``chord a\\x01 -`` sorts before
    ``chord a +``."""
    G = GaussDiagram({"a\x01": -1, "a": 1},
                     [_eps("a\x01< a< a\x01> a>")])
    text = serialize(G)
    assert text == ("circles: 1\nchord a +\nchord a\x01 -\n"
                    "circle 1: a\x01< a< a\x01> a>\n")
    assert parse_gauss_code(text).circles == G.circles


def test_serialize_empty():
    G = parse_gauss_code("circles: 1\ncircle 1:")
    assert serialize(G) == "circles: 1\ncircle 1:\n"


def test_serialize_free_chord_tokens():
    G = parse_gauss_code("circles: 1\nchord g +\ncircle 1: g< g>")
    text = serialize(G)
    assert text.count("<") == 1 and text.count(">") == 1


def test_serialize_roundtrip_random():
    rng = random.Random(1)
    for _ in range(200):
        G = random_diagram(rng, rng.choice((1, 2)), 6)
        H = parse_gauss_code(serialize(G))
        assert isomorphic(G, H)
        assert H.circles == G.circles  # same stored rotation, in fact


def test_endpoint_signs():
    G = parse_gauss_code("circles: 1\nchord g +\nchord h -\ncircle 1: g< h< g> h>")
    assert G.endpoint_sign(("g", INITIAL)) == -1
    assert G.endpoint_sign(("g", TERMINAL)) == 1
    assert G.endpoint_sign(("h", INITIAL)) == 1
    assert G.endpoint_sign(("h", TERMINAL)) == -1
    with pytest.raises(UnknownChordId):
        G.endpoint_sign(("zz", INITIAL))


def test_total_endpoint_sign_is_zero():
    rng = random.Random(2)
    for _ in range(100):
        G = random_diagram(rng, rng.choice((1, 2)), 8)
        assert sum(circle_sign_sum(G, c) for c in range(G.mu)) == 0


def test_circle_sums_match_linking_difference():
    rng = random.Random(3)
    for _ in range(100):
        G = random_diagram(rng, 2, 8)
        _, _, lam = linking_data(G)
        assert circle_sign_sum(G, 0) == -lam
        assert circle_sign_sum(G, 1) == lam


def test_detect_shells_trivial_cases():
    assert ref_detect_shells(parse_gauss_code(
        "circles: 1\nchord g +\ncircle 1: g< g>")) == set()
    assert ref_detect_shells(parse_gauss_code(
        "circles: 1\nchord g +\nchord h -\ncircle 1: g< g> h< h>")) == set()


def test_detect_shells_never_marks_nonself():
    rng = random.Random(4)
    for _ in range(150):
        G = random_diagram(rng, 2, 6)
        for shell in ref_detect_shells(G):
            assert chord_type(G, shell) is None


def test_shell_orientation_must_match_surrounded_sign():
    # g is positive, so its terminal endpoint is positive and a shell there
    # must run with the circle (initial endpoint first).
    good = parse_gauss_code(
        "circles: 1\nchord g +\nchord s -\nchord h -\n"
        "circle 1: s< g> s> h< g< h>")
    assert is_shell_layer(good, *good.circles[0][:3])
    flipped = parse_gauss_code(
        "circles: 1\nchord g +\nchord s -\nchord h -\n"
        "circle 1: s> g> s< h< g< h>")
    assert not is_shell_layer(flipped, *flipped.circles[0][:3])


def test_surgery_single_joining_chord():
    G = parse_gauss_code("circles: 2\nchord g +\ncircle 1: g<\ncircle 2: g>")
    H = surgery(G, "g")
    assert H.mu == 1 and len(H) == 0


def test_surgery_keeps_other_chords():
    G = parse_gauss_code(
        "circles: 2\nchord g +\nchord h -\ncircle 1: g< h<\ncircle 2: g> h>")
    H = surgery(G, "g")
    assert H.mu == 1 and set(H.signs) == {"h"}
    assert chord_type(H, "h") is None


def test_surgery_requires_nonself_and_two_circles():
    G = parse_gauss_code(
        "circles: 2\nchord g +\nchord s -\ncircle 1: s< s> g<\ncircle 2: g>")
    with pytest.raises(NotANonselfChord):
        surgery(G, "s")
    K = parse_gauss_code("circles: 1\nchord g +\ncircle 1: g< g>")
    with pytest.raises(WrongComponentCount):
        surgery(K, "g")


def test_swap_components():
    G = parse_gauss_code("circles: 2\nchord g +\ncircle 1: g<\ncircle 2: g>")
    H = swap_components(G)
    assert chord_type(H, "g") == (2, 1)
    assert isomorphic(swap_components(H), G)


def test_swap_flips_linking_difference(reference_link):
    assert linking_data(reference_link)[2] == 2
    assert linking_data(swap_components(reference_link))[2] == -2


def test_isomorphism_up_to_rotation_and_renaming():
    G = parse_gauss_code("circles: 1\nchord g +\nchord h -\ncircle 1: g< h< g> h>")
    rot = parse_gauss_code("circles: 1\nchord g +\nchord h -\ncircle 1: h> g< h< g>")
    ren = parse_gauss_code("circles: 1\nchord u -\nchord z +\ncircle 1: z< u< z> u>")
    assert isomorphic(G, rot)
    assert isomorphic(G, ren)
    flip = parse_gauss_code("circles: 1\nchord g -\nchord h +\ncircle 1: g< h< g> h>")
    assert not isomorphic(G, flip)


def test_canonical_key_invariant_under_renaming_and_rotation():
    rng = random.Random(6)
    for trial in range(400):
        # equal signs provoke rotation ties, the hard case for the shared
        # renaming across circles
        G = random_diagram(rng, rng.choice((1, 2)), 4)
        if trial % 2:
            G = GaussDiagram({cid: 1 for cid in G.signs}, G.circles)
        assert canonical_key(relabel_and_rotate(rng, G)) == canonical_key(G)


def test_canonical_key_tied_first_circle():
    # both rotations of circle 1 give the same tokens but name the chords
    # differently; circle 2 must still come out minimal and stable
    P = parse_gauss_code(
        "circles: 2\nchord x +\nchord y +\nchord z -\n"
        "circle 1: x< y<\ncircle 2: y> z< z> x>")
    Q = parse_gauss_code(
        "circles: 2\nchord u +\nchord v +\nchord w -\n"
        "circle 1: v< u<\ncircle 2: w> u> v> w<")
    assert isomorphic(P, Q)


def test_canonical_key_invariant_under_rotation():
    rng = random.Random(5)
    for _ in range(100):
        G = random_diagram(rng, rng.choice((1, 2)), 5)
        ci = rng.randrange(G.mu)
        word = G.circles[ci]
        if not word:
            continue
        r = rng.randrange(len(word))
        circles = list(G.circles)
        circles[ci] = word[r:] + word[:r]
        assert canonical_key(GaussDiagram(G.signs, circles)) == canonical_key(G)


def _brute_isomorphic(G, H):
    """Oracle: try every sign-compatible chord bijection and every rotation."""
    import itertools
    if G.mu != H.mu or len(G) != len(H):
        return False
    gids, hids = sorted(G.signs), sorted(H.signs)
    for perm in itertools.permutations(hids):
        m = dict(zip(gids, perm))
        if any(G.signs[a] != H.signs[m[a]] for a in gids):
            continue
        for ci in range(G.mu):
            gw = tuple((m[e[0]], e[1]) for e in G.circles[ci])
            hw = list(H.circles[ci])
            rots = [tuple(hw[r:] + hw[:r]) for r in range(max(len(hw), 1))]
            if gw not in rots:
                break
        else:
            return True
    return False


def test_isomorphism_matches_brute_force_oracle():
    rng = random.Random(7)
    for trial in range(600):
        mu = rng.choice((1, 2))
        G = random_diagram(rng, mu, 3)
        if rng.random() < 0.5:
            H = random_diagram(rng, mu, 3)
        else:
            names = list(G.signs)
            table = dict(zip(names, rng.sample(names, len(names))))
            signs = {table[c]: s for c, s in G.signs.items()}
            circles = []
            for w in G.circles:
                w2 = tuple((table[e[0]], e[1]) for e in w)
                r = rng.randrange(len(w2)) if w2 else 0
                circles.append(w2[r:] + w2[:r])
            H = GaussDiagram(signs, circles)
        assert isomorphic(G, H) == _brute_isomorphic(G, H)


def test_diagram_is_immutable_and_copies_round_trip():
    import copy
    import pickle

    G = parse_gauss_code("circles: 2\nchord b -\nchord a +\n"
                         "circle 1: a< b< b>\ncircle 2: a>\n")
    for name in ("circles", "signs", "other"):
        with pytest.raises(AttributeError):
            setattr(G, name, ())
        with pytest.raises(AttributeError):
            delattr(G, name)
    assert serialize(G).count("chord") == 2
    for H in (copy.copy(G), copy.deepcopy(G), pickle.loads(pickle.dumps(G))):
        assert type(H) is GaussDiagram and H is not G
        assert list(H.signs.items()) == list(G.signs.items())
        assert H.circles == G.circles
        assert serialize(H) == serialize(G)


def test_copies_rebuild_through_the_checking_constructor():
    import copy
    import inspect
    import pickle

    assert list(inspect.signature(GaussDiagram).parameters) == [
        "signs", "circles"]
    G = parse_gauss_code("circles: 1\nchord g +\ncircle 1: g< g>")
    object.__setattr__(G, "signs", {})  # tamper: chord g loses its sign
    data = pickle.dumps(G)
    with pytest.raises(UnknownChordId):
        pickle.loads(data)
    with pytest.raises(UnknownChordId):
        copy.copy(G)
