"""Gauss diagrams: oriented circles carrying signed, oriented chords.

A diagram is stored as one cyclic endpoint word per circle plus a sign per
chord; an endpoint is a plain ``(chord, kind)`` pair of strings.  Words carry
an arbitrary basepoint; everything that compares diagrams does so up to
rotation of each circle (circles themselves stay ordered, since link
components are labelled).  Initial endpoints carry sign -eps and terminal
endpoints +eps, where eps is the chord sign.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, NamedTuple, Sequence

from .algebra import least_rotation, period
from .errors import (
    BadSign,
    CircleCountMismatch,
    DuplicateEndpoint,
    GaussCodeError,
    MissingEndpoint,
    NotADiagram,
    NotANonselfChord,
    NotASelfChord,
    UnknownChordId,
    WrongArgumentType,
    WrongComponentCount,
)

__all__ = [
    "INITIAL",
    "TERMINAL",
    "CircleWalk",
    "Endpoint",
    "GaussDiagram",
    "circle_walk",
    "gauss_code",
    "parse_gauss_code",
    "serialize",
    "shell_kinds",
    "shell_layers",
    "is_shell_layer",
    "surgery",
    "swap_components",
    "canonical_key",
    "isomorphic",
    "require_diagrams",
]

INITIAL = "<"
TERMINAL = ">"
_SIGNS = {"+": 1, "-": -1}
_CHORD_ID = re.compile(r"[^\s<>#:]+")  # an id the text format carries

Endpoint = tuple[str, str]  # (chord, kind), kind INITIAL or TERMINAL
Word = tuple[Endpoint, ...]


class GaussDiagram:
    """Immutable Gauss diagram. Use :func:`parse_gauss_code` or the builders.

    A diagram is its signs and its words, nothing else.  Per-chord queries
    (:meth:`locate` and the ones built on it) scan the words; callers that
    ask about many chords walk the words once instead.

    The constructor checks its input (so ``copy`` and ``pickle`` do); the
    reader checks as it reads, and edits and snail forms are built
    :meth:`_unchecked` (``tests/test_unchecked_forms.py`` checks forms).
    """

    __slots__ = ("signs", "circles")

    def __init__(self, signs: Mapping[str, int], circles: Iterable[Word]):
        _set_signs(self, dict(signs))
        _set_circles(self, tuple(tuple(w) for w in circles))
        self._validate()

    @classmethod
    def _unchecked(cls, signs: dict[str, int],
                   circles: tuple[Word, ...]) -> GaussDiagram:
        """A diagram on ``signs`` and ``circles`` as given: no check and no
        copy, so the caller hands over fresh objects that keep every
        chord's two endpoints in the words, under ids the text carries."""
        out = object.__new__(cls)
        _set_signs(out, signs)
        _set_circles(out, circles)
        return out

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"GaussDiagram is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"GaussDiagram is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the checking constructor
        return type(self), (self.signs, self.circles)

    def _edited(self, words: Mapping[int, Sequence[Endpoint]],
                add: Mapping[str, int] | None = None,
                drop: Sequence[str] = ()) -> GaussDiagram:
        """A new diagram with local edits: circle ``c`` reads ``words[c]``,
        the chords of ``add`` join after the others with their signs, in
        ``add``'s order, and the chords in ``drop`` leave; the rest keep
        their order.  Unchecked: the caller keeps every chord's two
        endpoints in the words."""
        signs = dict(self.signs)
        for cid in drop:
            del signs[cid]
        if add:
            signs.update(add)
        circles = list(self.circles)
        for c, word in words.items():
            circles[c] = tuple(word)
        return GaussDiagram._unchecked(signs, tuple(circles))

    def _fresh_ids(self, prefix: str, n: int) -> list[str]:
        """``n`` unused chord ids ``<prefix><k>``, k counting up past the
        chord count: the one naming scheme for chords that edits add."""
        out: list[str] = []
        k = len(self.signs)
        while len(out) < n:
            k += 1
            cid = f"{prefix}{k}"
            if cid not in self.signs:
                out.append(cid)
        return out

    def _validate(self) -> None:
        seen: dict[Endpoint, None] = {}  # endpoints in word order
        for word in self.circles:
            for ep in word:
                try:  # a pair with an unhashable item fails the lookup
                    if type(ep) is not tuple or len(ep) != 2:
                        raise TypeError
                    if ep in seen:
                        raise DuplicateEndpoint(
                            f"chord {ep[0]!r} has two {ep[1]!r} endpoints")
                except TypeError:
                    raise GaussCodeError(f"word element {ep!r} is not a "
                                         "(chord, kind) pair") from None
                seen[ep] = None
        if not self.circles:
            raise CircleCountMismatch("a diagram needs at least one circle")
        for cid, sign in self.signs.items():
            if type(sign) is not int or sign not in (1, -1):
                raise BadSign(f"chord {cid!r} has sign {sign!r}")
            for kind in (INITIAL, TERMINAL):
                if (cid, kind) not in seen:
                    raise MissingEndpoint(
                        f"chord {cid!r} lacks its {kind!r} endpoint")
        for cid, _ in seen:
            if cid not in self.signs:
                raise UnknownChordId(f"endpoint references unknown chord {cid!r}")
        # seen holds each chord's two endpoints; any more have another kind
        if len(seen) != 2 * len(self.signs):
            cid, kind = next(ep for ep in seen if ep[1] not in (INITIAL, TERMINAL))
            raise GaussCodeError(f"chord {cid!r} has an endpoint of kind {kind!r}")
        for cid in self.signs:
            if not (isinstance(cid, str) and _CHORD_ID.fullmatch(cid)):
                raise GaussCodeError(f"bad chord id {cid!r}")

    # -- basic queries ----------------------------------------------------

    @property
    def mu(self) -> int:
        return len(self.circles)

    def __len__(self) -> int:
        return len(self.signs)

    def locate(self, chord: str, kind: str) -> tuple[int, int]:
        """(circle index, position) of one endpoint of ``chord``."""
        ep = (chord, kind)
        for ci, word in enumerate(self.circles):
            if ep in word:
                return ci, word.index(ep)
        raise UnknownChordId(f"no chord {chord!r}")

    def endpoint_sign(self, ep: Endpoint) -> int:
        chord, kind = ep
        try:
            sign = self.signs[chord]
        except KeyError:
            raise UnknownChordId(f"no chord {chord!r}") from None
        return sign if kind == TERMINAL else -sign

    def chord_circles(self, chord: str) -> tuple[int, int]:
        """(circle of initial endpoint, circle of terminal endpoint)."""
        return self.locate(chord, INITIAL)[0], self.locate(chord, TERMINAL)[0]

    def arc_sign_sum(self, chord: str) -> int:
        """Endpoint-sign sum strictly between the chord's initial and
        terminal endpoints, walking the circle in its orientation.

        Meaningful for self-chords.  No code in the package asks for one
        chord's index (:func:`profile` reads every index from
        :func:`circle_walk` at once); the benchmark's tracer wraps this method
        by name, so it stays until that target list shrinks.
        """
        ci, pi = self.locate(chord, INITIAL)
        ct, pt = self.locate(chord, TERMINAL)
        if ci != ct:
            raise NotASelfChord(f"chord {chord!r} is not a self-chord")
        word = self.circles[ci]
        arc = word[pi + 1:pt] if pi < pt else word[pi + 1:] + word[:pt]
        return sum(map(self.endpoint_sign, arc))

    def require_mu(self, mu: int) -> None:
        if self.mu != mu:
            raise WrongComponentCount(
                f"operation needs {mu} circle(s), diagram has {self.mu}")

    def __repr__(self) -> str:
        words = " | ".join(" ".join(map("".join, w)) or "-"
                           for w in self.circles)
        return f"<GaussDiagram mu={self.mu} chords={len(self.signs)} {words}>"


# the slots' own setters, which the blocked ``__setattr__`` does not reach
_set_signs, _set_circles = GaussDiagram.signs.__set__, GaussDiagram.circles.__set__


def require_diagrams(who: str, *args) -> None:
    """The one type check of the functions that take diagrams: NotADiagram,
    naming ``who``, for the first of ``args`` that is not a GaussDiagram.
    Public entry points call it; the internals they reach do not."""
    for G in args:
        if not isinstance(G, GaussDiagram):
            raise NotADiagram(
                f"{who} needs a GaussDiagram, not {type(G).__name__}")


class CircleWalk(NamedTuple):
    """What :func:`circle_walk` yields for ``profile``: nothing per self-chord."""

    table: dict[int, int]  # n -> nonzero signed count of self-chords of arc sum n
    initials: dict[str, int]  # leaving chord -> prefix sum before its x<
    terminals: dict[str, int]  # leaving chord -> prefix sum before its x>


def circle_walk(word: Word, signs: Mapping[str, int]) -> CircleWalk:
    """The self-chord table and the leaving chords' prefixes of ``word``,
    from one pass keeping the prefix sum ``run`` of endpoint signs before
    the current endpoint.

    A chord's arc sum is the endpoint-sign sum strictly between its initial
    and terminal endpoint, walking the circle in its orientation:
    P(x>) - P(x<) + eps for prefix sums P, and, for an arc that wraps past
    the basepoint (terminal first), that plus the circle total, tabled once
    the walk knows it.  A chord whose other endpoint lies off ``word`` keeps
    its prefix in ``initials`` or ``terminals``, by its endpoint's kind.
    The table lists its slots in order, so equal tables print alike.
    """
    table: dict[int, int] = {}
    initials: dict[str, int] = {}
    terminals: dict[str, int] = {}
    wraps = []  # (arc sum short of the total, sign) per wrapped self-chord
    run = 0
    for chord, kind in word:
        sign = signs[chord]
        if kind == TERMINAL:
            if chord in initials:
                n = run - initials.pop(chord) + sign
                table[n] = table.get(n, 0) + sign
            else:
                terminals[chord] = run
            run += sign
        else:
            if chord in terminals:
                wraps.append((terminals.pop(chord) - run + sign, sign))
            else:
                initials[chord] = run
            run -= sign
    for n, sign in wraps:
        n += run
        table[n] = table.get(n, 0) + sign
    return CircleWalk({n: v for n, v in sorted(table.items()) if v},
                      initials, terminals)


# -- text format -----------------------------------------------------------


def parse_gauss_code(text: str) -> GaussDiagram:
    """Parse the line-oriented Gauss-code format.

    ::

        circles: 2
        chord g +
        circle 1: g<
        circle 2: g>

    ``#`` starts a comment; blank lines are ignored.

    Each circle line pops its tokens from the table of endpoints not yet
    read, so two end checks (the table is empty and no token was read twice;
    no id holds ``<>:``) stand for the constructor's, which names the fault
    of a text that fails one.  A line whose pop misses re-reads its tokens:
    a bad or undeclared one raises, and a repeated one fails an end check.
    """
    if not isinstance(text, str):
        raise WrongArgumentType(
            f"parse_gauss_code needs a str, not {type(text).__name__}")
    raws = text.splitlines()
    if "#" in text:
        raws = [raw.split("#", 1)[0] for raw in raws]
    lines = list(filter(None, map(str.strip, raws)))
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
    unread: dict[str, Endpoint] = {}  # "g<" and "g>" until a line reads them
    words: list[Word] = []
    for line in lines[1:]:
        # a chord line is three words; a circle line's body is split below
        parts = line.split(None, 3)
        keyword = parts[0]
        if keyword == "chord":
            if words:
                raise GaussCodeError("chord declarations must precede circles")
            if len(parts) != 3:
                raise GaussCodeError(f"bad chord declaration {line!r}")
            _, cid, sgn = parts
            sign = _SIGNS.get(sgn)
            if sign is None:
                raise BadSign(f"chord {cid!r}: sign must be + or -, got {sgn!r}")
            if cid in signs:
                raise GaussCodeError(f"chord {cid!r} declared twice")
            signs[cid] = sign
            unread[cid + INITIAL] = (cid, INITIAL)
            unread[cid + TERMINAL] = (cid, TERMINAL)
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
            toks = body.split()
            try:
                words.append(tuple(map(unread.pop, toks)))
            except KeyError:  # a token read twice, or one that raises here
                for tok in toks:
                    if tok[-1] not in (INITIAL, TERMINAL) or len(tok) < 2:
                        raise GaussCodeError(
                            f"bad endpoint token {tok!r}") from None
                    if tok[:-1] not in signs:
                        raise UnknownChordId(f"token {tok!r} references "
                                             "undeclared chord") from None
                words.append(tuple((tok[:-1], tok[-1]) for tok in toks))
        else:
            raise GaussCodeError(f"unrecognized line {line!r}")
    if len(words) != mu:
        raise CircleCountMismatch(
            f"declared {mu} circles but found {len(words)} circle lines")
    ids = "".join(signs)
    # 2n tokens and no endpoint left unread: each endpoint read once
    if (not unread and sum(map(len, words)) == 2 * len(signs)
            and "<" not in ids and ">" not in ids and ":" not in ids):
        return GaussDiagram._unchecked(signs, tuple(words))
    return GaussDiagram(signs, words)


def gauss_code(
        chords: Iterable[tuple[str, Sequence[str], int | Mapping[str, int]]],
        words: Sequence[Iterable[tuple[str, Sequence[str]]]]) -> str:
    """The one writer of the text :func:`parse_gauss_code` reads, given as
    runs of ids that share a stem.

    ``chords`` holds runs ``(stem, tails, sign)`` in id order: a chord line
    for the id ``stem + tail`` of each tail, with ``sign`` the sign of every
    chord of the run or a mapping from each tail to its sign.  Each circle of
    ``words`` holds runs ``(stem, tails)`` of endpoint tokens ``stem + tail``
    (such as ``g<``).  Every run has a tail.
    """
    ends = {1: " +", -1: " -"}
    text = [f"circles: {len(words)}"]
    for stem, tails, sign in chords:
        sep = "\nchord " + stem
        if isinstance(sign, int):
            end = ends[sign]
            text += sep, (end + sep).join(tails), end
        else:
            text += sep, sep.join([t + ends[sign[t]] for t in tails])
    for i, runs in enumerate(words, 1):
        text.append(f"\ncircle {i}:")
        for stem, tails in runs:
            sep = " " + stem
            text += sep, sep.join(tails)
    text.append("\n")
    return "".join(text)


def serialize(G: GaussDiagram) -> str:
    require_diagrams("serialize", G)
    # by id, not by line: "a\x01" sorts after "a", but its line sorts first
    ids = sorted(G.signs)
    return gauss_code([("", ids, G.signs)] if ids else [],
                      [[("", [*map("".join, w)])] if w else []
                       for w in G.circles])


# -- shells ------------------------------------------------------------------


def shell_kinds(sign: int) -> tuple[str, str]:
    """Kinds of a shell's endpoints before and after the endpoint it
    surrounds: a shell reads initial, endpoint, terminal around an endpoint
    of positive sign and terminal, endpoint, initial around a negative one."""
    return (INITIAL, TERMINAL) if sign > 0 else (TERMINAL, INITIAL)


def shell_layers(around: Endpoint, sign: int, shells: Sequence[str]
                 ) -> list[Endpoint]:
    """The endpoint ``around``, of endpoint sign ``sign``, with ``shells``
    nested around it, innermost first."""
    first, last = shell_kinds(sign)
    before, after = [], [around]
    for s in shells:
        before.append((s, first))
        after.append((s, last))
    return before[::-1] + after


def is_shell_layer(G: GaussDiagram, before: Endpoint, around: Endpoint,
                   after: Endpoint) -> bool:
    """Whether ``before``, ``around``, ``after`` read as one shell around the
    endpoint ``around`` of ``G``, as :func:`shell_layers` lays one."""
    chord, first = before
    other, last = after
    return (chord == other != around[0]
            and (first, last) == shell_kinds(G.endpoint_sign(around)))


# -- structural operations ----------------------------------------------------


def surgery(G: GaussDiagram, gamma0: str) -> GaussDiagram:
    """Merge the two circles of a 2-circle diagram along the nonself chord
    ``gamma0``, deleting it.  The merged circle follows each original circle
    in its own orientation, spliced at the removed endpoints.

    The tests' reference library, ``tests/reference.py``, reads the book's
    nonself indices off this circle; ``profile`` reads their twist
    class from one :func:`circle_walk` per circle without building it.
    Public as the book's reading, which the benchmark's tracer wraps by
    name; no code in the package calls it."""
    require_diagrams("surgery", G)
    G.require_mu(2)
    ci, pi = G.locate(gamma0, INITIAL)
    ct, pt = G.locate(gamma0, TERMINAL)
    if ci == ct:
        raise NotANonselfChord(f"chord {gamma0!r} is a self-chord")
    a, b = G.circles[ci], G.circles[ct]
    merged = a[pi + 1:] + a[:pi] + b[pt + 1:] + b[:pt]
    signs = {cid: s for cid, s in G.signs.items() if cid != gamma0}
    return GaussDiagram._unchecked(signs, (merged,))


def swap_components(G: GaussDiagram) -> GaussDiagram:
    """Exchange the two circles (relabel the components)."""
    require_diagrams("swap_components", G)
    G.require_mu(2)
    return G._edited({0: G.circles[1], 1: G.circles[0]})


# -- isomorphism ---------------------------------------------------------------


def _circle_codes(word: Word, signs: Mapping[str, int],
                  names: Mapping[str, int]) -> tuple[list[int], list[int]]:
    """One int per endpoint of ``word``, and the positions of the endpoints
    whose chord leads to a later circle.

    The code is ``4 * v + 2 * terminal + positive`` with ``v`` = 2 * offset
    to the partner endpoint (mod the word length) for a chord with both
    endpoints here, 2 * name + 1 for a chord named on an earlier circle, and
    0 for a chord whose other endpoint lies on a later circle.
    """
    n = len(word)
    codes = [0] * n
    open_at: dict[str, int] = {}
    for k, (chord, kind) in enumerate(word):
        low = (2 if kind == TERMINAL else 0) + (signs[chord] > 0)
        name = names.get(chord)
        if name is not None:
            codes[k] = 8 * name + 4 + low
            continue
        j = open_at.pop(chord, None)
        if j is None:
            open_at[chord] = k
            codes[k] = low
        else:
            codes[j] += 8 * (k - j)
            codes[k] = 8 * (n - k + j) + low
    return codes, list(open_at.values())


def canonical_key(G: GaussDiagram):
    """Rotation- and renaming-invariant key, in time linear in the chord
    count of each circle.

    Circles are taken in order.  Each endpoint of a circle becomes one int
    (see :func:`_circle_codes`) from its kind, its chord's sign and either
    the offset to its partner endpoint (a chord with both endpoints on this
    circle), the chord's name (a chord named on an earlier circle), or a
    placeholder (a chord whose other endpoint lies on a later circle).  None
    of these depends on the chords' own ids, so the circle's entry in the key
    is the least rotation of this int word (K. S. Booth, *Lexicographically
    least circular substrings*, 1980), found by a linear scan.

    If the least rotation starts at r and the word has period p, then the
    rotations starting at r, r + p, r + 2p, ... are all least.  Each of them
    names the placeholder chords in order of first occurrence, with names
    continuing after those given on earlier circles.  These namings can lead
    to different, possibly smaller, words on the later circles, so every
    naming that keeps the key so far least is carried forward.

    Two diagrams get equal keys exactly when they are isomorphic (same
    number of circles, each circle rotated, chords renamed).  The key's
    value has no other meaning.
    """
    signs = G.signs
    last = G.mu - 1
    contexts: list[dict[str, int]] = [{}]
    key = []
    for ci, word in enumerate(G.circles):
        best: tuple[int, ...] | None = None
        tied = []
        for names in contexts:
            codes, open_at = _circle_codes(word, signs, names)
            r = least_rotation(codes)
            rotated = tuple(codes[r:] + codes[:r])
            if best is None or rotated < best:
                best, tied = rotated, []
            if rotated == best:
                tied.append((names, r, open_at))
        key.append(best)
        if ci == last or not tied[0][2]:
            contexts = [names for names, _, _ in tied]
            continue
        n = len(word)
        p = period(best)
        survivors: dict[frozenset, dict[str, int]] = {}
        for names, r, open_at in tied:
            for start in range(r, n, p):
                named = dict(names)
                for k in ([k for k in open_at if k >= start]
                          + [k for k in open_at if k < start]):
                    named[word[k][0]] = len(named)
                survivors.setdefault(frozenset(named.items()), named)
        contexts = list(survivors.values())
    return tuple(key)


def isomorphic(G: GaussDiagram, H: GaussDiagram) -> bool:
    """Same diagram up to rotating each circle and renaming chords."""
    require_diagrams("isomorphic", G, H)
    return canonical_key(G) == canonical_key(H)
