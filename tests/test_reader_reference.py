"""The Gauss-code reader against its earlier form, kept here as the
reference: a reader that rebuilt each endpoint from its token text with
four checks.  The two give the same diagram, or the same error type and
message.  The one difference: the earlier reader rejected a chord id with
"<>#:" at its declaration, and now the checking constructor rejects it
after any other fault, so where the reference says ``bad chord id`` the
live reader may name another fault of the same text."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from shellmoves.diagram import (INITIAL, TERMINAL, Endpoint, GaussDiagram,
                                parse_gauss_code, serialize)
from shellmoves.errors import (BadSign, CircleCountMismatch, GaussCodeError,
                               UnknownChordId)

from conftest import random_diagram
from test_input_properties import CODE_PIECES, _texts


def ref_parse_gauss_code(text: str) -> GaussDiagram:
    """The reader as it was: each token split into chord id and kind."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise GaussCodeError("empty Gauss code")
    head = lines[0].replace(":", " : ").split()
    if len(head) != 3 or head[0] != "circles" or head[1] != ":":
        raise GaussCodeError(f"first line must be 'circles: <n>', got {lines[0]!r}")
    try:
        mu = int(head[2])
    except ValueError:
        raise CircleCountMismatch(f"bad circle count {head[2]!r}") from None
    if mu < 1:
        raise CircleCountMismatch("circle count must be positive")

    signs: dict[str, int] = {}
    words: list[list[Endpoint]] = []
    for line in lines[1:]:
        keyword = line.split(None, 1)[0]
        if keyword == "chord":
            if words:
                raise GaussCodeError("chord declarations must precede circles")
            parts = line.split()
            if len(parts) != 3:
                raise GaussCodeError(f"bad chord declaration {line!r}")
            _, cid, sgn = parts
            if any(ch in cid for ch in "<>#:"):
                raise GaussCodeError(f"bad chord id {cid!r}")
            if sgn == "+":
                s = 1
            elif sgn == "-":
                s = -1
            else:
                raise BadSign(f"chord {cid!r}: sign must be + or -, got {sgn!r}")
            if cid in signs:
                raise GaussCodeError(f"chord {cid!r} declared twice")
            signs[cid] = s
        elif keyword == "circle":
            headpart, _, body = line.partition(":")
            parts = headpart.split()
            if len(parts) != 2:
                raise GaussCodeError(f"bad circle line {line!r}")
            try:
                idx = int(parts[1])
            except ValueError:
                raise GaussCodeError(f"bad circle index {parts[1]!r}") from None
            if idx != len(words) + 1:
                raise CircleCountMismatch(
                    f"expected circle {len(words) + 1}, got {idx}")
            word: list[Endpoint] = []
            for tok in body.split():
                kind = tok[-1]
                if kind not in (INITIAL, TERMINAL) or len(tok) < 2:
                    raise GaussCodeError(f"bad endpoint token {tok!r}")
                cid = tok[:-1]
                if cid not in signs:
                    raise UnknownChordId(f"token {tok!r} references undeclared chord")
                word.append((cid, kind))
            words.append(word)
        else:
            raise GaussCodeError(f"unrecognized line {line!r}")
    if len(words) != mu:
        raise CircleCountMismatch(
            f"declared {mu} circles but found {len(words)} circle lines")
    return GaussDiagram(signs, [tuple(w) for w in words])


def _outcome(parse, text):
    """The diagram's signs (in order) and words, or the error's type and
    message."""
    try:
        G = parse(text)
    except GaussCodeError as e:
        return type(e), str(e)
    return list(G.signs.items()), G.circles


def _assert_reads_as_reference(text):
    want = _outcome(ref_parse_gauss_code, text)
    got = _outcome(parse_gauss_code, text)
    if want[0] is GaussCodeError and want[1].startswith("bad chord id"):
        assert isinstance(got[0], type) and issubclass(got[0], GaussCodeError)
    else:
        assert got == want


# ids the text format cannot carry, in declarations and in tokens
BAD_ID_PIECES = ("g<<", "g<>", "chord g< +", "chord a:b +", "a:b<", "a:b>")
_TOKENS = ("g<", "g>", "h<", "h>", "g<<", "g<>", "a:b<", "a:b>", "q<", "g", "<",
           ">", "h?")


@st.composite
def _codes(draw):
    """Codes built line by line, most of them past the header: chord
    declarations, then circle lines of tokens, then at times one line
    replaced by random text.  Half of them declare only good ids."""
    mu = draw(st.integers(1, 2))
    ids = ("g", "h") + (("g<", "a:b") if draw(st.booleans()) else ())
    lines = [f"circles: {mu}"]
    lines += [f"chord {cid} {sgn}" for cid, sgn in draw(st.lists(st.tuples(
        st.sampled_from(ids), st.sampled_from("+-*")), max_size=4))]
    lines += [f"circle {c}: " + " ".join(draw(st.lists(
        st.sampled_from(_TOKENS), max_size=6))) for c in range(1, mu + 1)]
    if draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(
            _texts(CODE_PIECES + BAD_ID_PIECES))
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(_texts(CODE_PIECES + BAD_ID_PIECES))
def test_reader_matches_reference_on_random_text(text):
    _assert_reads_as_reference(text)


@settings(max_examples=500, deadline=None)
@given(_codes())
def test_reader_matches_reference_on_built_codes(text):
    _assert_reads_as_reference(text)


def test_reader_matches_reference_on_seeded_codes():
    """Valid codes, and the same codes with one token swapped for a piece
    of the random texts above."""
    rng = random.Random(15)
    pieces = CODE_PIECES + BAD_ID_PIECES
    for _ in range(300):
        text = serialize(random_diagram(rng, rng.choice((1, 2)), 10))
        _assert_reads_as_reference(text)
        toks = text.split(" ")
        toks[rng.randrange(len(toks))] = rng.choice(pieces)
        _assert_reads_as_reference(" ".join(toks))


@pytest.mark.parametrize("text, message", [
    ("circles: 1\nchord a:b +\ncircle 1: a:b< a:b>", "bad chord id 'a:b'"),
    ("circles: 1\nchord g< +\ncircle 1: g<< g<>", "bad chord id 'g<'"),
    ("circles: 2\nchord h -\nchord x> -\ncircle 1: x>< h<\ncircle 2: h> x>>",
     "bad chord id 'x>'"),
])
def test_bad_chord_id_alone_keeps_its_message(text, message):
    want = _outcome(ref_parse_gauss_code, text)
    assert want == (GaussCodeError, message)
    assert _outcome(parse_gauss_code, text) == want


@pytest.mark.parametrize("text, error", [
    ("circles: 1\nchord g +\ncircle 1: g< g> g< g",
     "bad endpoint token 'g'"),
    ("circles: 2\nchord g +\ncircle 1: g< g< g>\ncircle 2: h>",
     "token 'h>' references undeclared chord"),
], ids=["repeat-then-bad-token", "repeat-then-undeclared-later"])
def test_token_faults_after_a_repeat_raise_as_the_reference(text, error):
    """A repeated token does not stop the reader: a bad or undeclared token
    after it, on its line or a later one, raises as it would alone."""
    assert _outcome(ref_parse_gauss_code, text)[1] == error
    _assert_reads_as_reference(text)


def test_comments_and_blank_lines_read_as_absent():
    bare = serialize(random_diagram(random.Random(31), 2, 8))
    lines = bare.splitlines()
    noisy = "\n\n".join(f"{line}  # note {i}" for i, line in enumerate(lines))
    noisy = "# head\n\n" + noisy.replace("chord", "  chord", 1) + "\n#"
    assert _outcome(parse_gauss_code, noisy) == \
        _outcome(parse_gauss_code, bare)
    _assert_reads_as_reference(noisy)
    _assert_reads_as_reference(bare)


def _text(signs, circles):
    return "\n".join(
        [f"circles: {len(circles)}"]
        + [f"chord {cid} {'+' if s > 0 else '-'}" for cid, s in signs.items()]
        + [f"circle {i}: {' '.join(toks)}" for i, toks in enumerate(circles, 1)])


# texts that pass the reader's own lines but fail one of its end checks
# (no endpoint unread, no token read twice, ids free of "<>:"), so the
# checking constructor names the fault
FALLBACKS = [
    pytest.param({"g": 1, "h": -1}, [["g<", "g<", "g>", "h<", "h>"]],
                 id="duplicate"),
    pytest.param({"g": 1, "h": -1}, [["g<", "g>", "h<"]], id="missing"),
    pytest.param({"g": 1, "h": -1}, [["g<", "g<"], ["h<", "h>"]],
                 id="duplicate-and-missing-at-2n"),
    pytest.param({"a<": 1}, [["a<<", "a<>"]], id="id-with-<"),
    pytest.param({"a>": -1}, [["a><"], ["a>>"]], id="id-with->"),
    pytest.param({"a:b": 1}, [["a:b<", "a:b>"]], id="id-with-:"),
    pytest.param({"a<": 1, "h": 1}, [["a<<", "a<>", "h<", "h<"]],
                 id="id-with-<-and-duplicate-at-2n"),
    pytest.param({"h": -1, "a>": 1}, [["a><", "h>"], ["a>>"]],
                 id="id-with->-and-missing"),
    pytest.param({"a:b": -1, "h": 1}, [["h<", "a:b<", "h>", "a:b>", "h>"]],
                 id="id-with-:-and-duplicate"),
    pytest.param({"g": 1, "h": -1}, [["g<", "g>", "h<"], ["h>", "g>"]],
                 id="duplicate-after-every-endpoint"),
]


@pytest.mark.parametrize("signs, circles", FALLBACKS)
def test_reader_fallback_raises_as_the_constructor(signs, circles):
    words = [tuple((tok[:-1], tok[-1]) for tok in toks)
             for toks in circles]
    with pytest.raises(GaussCodeError) as want:
        GaussDiagram(signs, words)
    with pytest.raises(GaussCodeError) as got:
        parse_gauss_code(_text(signs, circles))
    assert (type(got.value), str(got.value)) == \
        (type(want.value), str(want.value))
