"""Property-based input hardening: Gauss-code text, trace lines and whole
command lines from outside the program give a result or a typed error (an
exit code), never a traceback, and a serialized diagram parses back to
itself."""

import io
import string

from hypothesis import given, settings, strategies as st

from shellmoves.cli import main
from shellmoves.diagram import (INITIAL, TERMINAL, GaussDiagram,
                                parse_gauss_code, serialize)
from shellmoves.errors import GaussCodeError, StaleSite
from shellmoves.moves import MOVE_KINDS, apply_move, site_from_text

from conftest import CODE_PIECES, texts

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


@settings(max_examples=300, deadline=None)
@given(texts(CODE_PIECES))
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
@given(st.one_of(_lines(), texts(TRACE_PIECES)))
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
        [(cid, k) for cid in ids for k in (INITIAL, TERMINAL)]))
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


@st.composite
def _any_diagrams(draw):
    """Signs and words as a caller may hand them to the constructor: ids
    from ``_IDS`` or from a wider alphabet (empty, whitespace, "<>#:"),
    each chord's two endpoints plus at times a stray one of kind "<", ">"
    or "?", at times one endpoint as a plain tuple, on one or two
    circles."""
    wide = st.text("ab <>#:\t\r\x1f\x85\u2028\u200bé", max_size=3)
    ids = draw(st.lists(st.one_of(_IDS, wide), max_size=5, unique=True))
    signs = {cid: draw(st.sampled_from((1, -1))) for cid in ids}
    eps = [(cid, k) for cid in ids for k in (INITIAL, TERMINAL)]
    if ids and draw(st.booleans()):
        eps.append((draw(st.sampled_from(ids)),
                            draw(st.sampled_from("<>?"))))
    eps = draw(st.permutations(eps))
    if eps and draw(st.booleans()):
        i = draw(st.integers(0, len(eps) - 1))
        eps[i] = tuple(eps[i])
    if draw(st.booleans()):
        return signs, [tuple(eps)]
    cut = draw(st.integers(0, len(eps)))
    return signs, [tuple(eps[:cut]), tuple(eps[cut:])]


@settings(max_examples=300, deadline=None)
@given(_any_diagrams())
def test_constructor_accepts_only_what_reads_back(raw):
    """Every diagram the constructor accepts serializes to text that the
    reader reads back to the same signs and words."""
    try:
        G = GaussDiagram(*raw)
    except GaussCodeError:
        return
    H = parse_gauss_code(serialize(G))
    assert H.signs == G.signs and H.circles == G.circles


# each subcommand's arguments, "code", "other", "spec" and "trace" naming
# the files the test writes; drawn values are bounded because output grows
# with them by design (a knot target builds sum |a_n|(|n| + 1) chords)
_COMMANDS = {"invariants": ["code"], "normalize": ["code"], "fmt": ["code"],
             "equiv": ["code", "other"], "replay": ["code", "trace"],
             "realize": ["--spec", "spec"],
             "fuzz": ["code", "--steps", "--seed", "--cap"],
             "witness": ["code", "other", "--depth", "--cap", "--budget"]}
_VALUES = {"--depth": (0, 3), "--budget": (0, 500), "--steps": (0, 20),
           "--cap": (0, 50), "--seed": (-50, 50)}
_INTS = st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), max_size=4)
_SPECS = st.one_of(
    st.text(), st.integers(-50, 50).map(  # realizable
        lambda n: f"mu: 1\nw: t^{n} - t^{n - 1} - t + 1"),
    _INTS.map(lambda ts: "mu: 1\nw: " + " + ".join(f"{c}*t^{n}" for c, n in ts)),
    st.tuples(st.integers(-2, 5), st.lists(st.tuples(st.sampled_from(
        ("a", "b", "c", "d", "shell_sum", "e")), _INTS, st.booleans()), max_size=4)
    ).map(lambda t: f"mu: 2\nlambda: {t[0]}\n" + "\n".join(
        k + ": " + " ".join(f"{n}:{v}" if pairs else str(v) for n, v in ts)
        for k, ts, pairs in t[1])))
_VALID = _diagrams().map(serialize)
_CODES = st.one_of(texts(CODE_PIECES), _VALID, st.tuples(
    _VALID, st.integers(0, 12), st.sampled_from(CODE_PIECES)).map(
    lambda t: "\n".join(t[0].splitlines()[:t[1]] + [t[2]]  # a line replaced
                        + t[0].splitlines()[t[1] + 1:])))


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [cmd]
    for arg in _COMMANDS[cmd]:
        if arg in _VALUES:
            argv += [arg, str(draw(st.integers(*_VALUES[arg])))]
        else:
            argv.append(draw(st.sampled_from((arg,) * 4 + ("code", "missing"))))
    change = draw(st.integers(0, 9))
    if change == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif change < 5:  # a stray flag; a later --cap overrides the first
        argv += (["--json"], ["--help"], ["-x"], ["--cap", "-1"])[change - 1]
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv(), _CODES, _CODES, _SPECS,
       st.lists(st.one_of(_lines(), texts(TRACE_PIECES)), max_size=4))
def test_cli_ends_in_an_exit_code(tmp_path_factory, argv, code, other, spec,
                                  trace):
    files = dict(code=code, other=other, spec=spec, trace="\n".join(trace))
    work = tmp_path_factory.getbasetemp()
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    argv = [str(work / a) if a in (*files, "missing") else a for a in argv]
    assert main(argv, out=io.StringIO()) in (0, 1, 2, 64, 65)
