"""Snail encodings, canonical snail-form diagrams, and realization.

A snail is a chord dressed with nested shells: the main chord of sign eps
carries |n| shells of sign -eps*sgn(n), which pins the main chord's index at
n.  Knots normalize to a concatenation of self snails indexed by the writhe
coefficients; 2-component links additionally carry two families of nonself
snails laid out in parallel between the circles.  :func:`canonical_form`
(profile to form) and :func:`realize_link` (target to diagram) place them by
one window rule, :func:`_placed`.

A snail's endpoint tokens are laid out once, by :func:`_snail_words`, and a
form's snails are named and placed once, by :func:`_layout`.
:func:`form_code` hands each snail to :func:`diagram.gauss_code`, which
holds the line syntax, as runs of chord lines and of tokens under its main
chord's id, so the text is joined a snail at a time, not formatted chord by
chord; the builders read the same layout and split each token into its
``(chord, kind)`` pair, as realization's gadget does.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Mapping

from .algebra import LaurentPoly
from .diagram import (INITIAL, TERMINAL, Endpoint, GaussDiagram, gauss_code,
                      shell_kinds, shell_layers)
from .errors import (
    BadSupport,
    ConstraintViolated,
    InconsistentProfile,
    MalformedSnailForm,
    NegativeLambda,
    NotRealizable,
    WrongArgumentType,
)
from .invariants import (KnotProfile, LinkProfile, link_slots,
                         self_writhe_tables, shell_sum)

__all__ = [
    "KnotForm",
    "LinkForm",
    "build_knot_form",
    "build_link_form",
    "form_code",
    "canonical_form",
    "realize_knot",
    "realize_link",
]


def _clean(m: Mapping[int, int]) -> dict[int, int]:
    if not isinstance(m, Mapping):
        raise MalformedSnailForm(f"snail data {m!r} is not a mapping; "
                                 "slots and coefficients must be ints")
    for k, v in m.items():
        if type(k) is not int or type(v) is not int:
            raise MalformedSnailForm(
                f"slot {k!r} has coefficient {v!r}; both must be ints")
    return {k: v for k, v in sorted(m.items()) if v != 0}


@dataclass(frozen=True)
class KnotForm:
    """Multiset of self snails a_n S(n), n outside {0, 1}.  Slots and
    coefficients are exact ints; anything else is MalformedSnailForm."""

    a: dict[int, int]

    def __post_init__(self):
        object.__setattr__(self, "a", _clean(self.a))


@dataclass(frozen=True)
class LinkForm:
    """Snail data for a 2-component diagram.

    ``a``/``b`` hold self-snail coefficients per circle, ``c``/``d`` the
    nonself-snail coefficients keyed by absolute snail index.  For lam >= 2
    a canonical form supports ``c`` on the window [p, p+lam) and ``d`` on
    (-p-lam, -p]; ``p`` records the window start.  ``lam``, ``p``, slots and
    coefficients are exact ints; anything else is MalformedSnailForm.
    """

    lam: int
    a: dict[int, int]
    b: dict[int, int]
    c: dict[int, int]
    d: dict[int, int]
    p: int = 0

    def __post_init__(self):
        if type(self.lam) is not int or type(self.p) is not int:
            raise MalformedSnailForm(f"lam {self.lam!r} and p {self.p!r} "
                                     "must be ints")
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _clean(getattr(self, name)))

    def c_vector(self) -> tuple[int, ...]:
        return tuple(self.c.get(self.p + m, 0) for m in range(self.lam))

    def d_vector(self) -> tuple[int, ...]:
        return tuple(self.d.get(-self.p - m, 0) for m in range(self.lam))


# -- snail words -----------------------------------------------------------


def _shell_tokens(shells: list[str]) -> dict[str, list[str]]:
    """The endpoint tokens of ``shells`` per kind, in their order."""
    return {kind: [s + kind for s in shells] for kind in (INITIAL, TERMINAL)}


def _snail_words(main: str, shells: Mapping[str, list[str]], eps: int, n: int,
                 nonself: bool) -> tuple[int, list[str], list[str]]:
    """The shells' sign, and the source-word and target-word tokens (such as
    ``g3s1<``) of a snail with main chord ``main`` of sign eps and index n;
    its |n| shells are the first of ``shells``, which holds shell tokens per
    kind, outermost first.

    A self snail is one word: the initial endpoint, then the shells nested
    around the terminal endpoint.  A nonself snail nests them around the
    initial endpoint on the source circle; the bare terminal endpoint is the
    target word.  Each shell reads as :func:`shell_kinds` of the sign of
    the endpoint it surrounds.
    """
    first, last = shell_kinds(-eps if nonself else eps)
    m = abs(n)
    before, after = shells[first][:m], shells[last][:m][::-1]
    ini, ter = main + INITIAL, main + TERMINAL
    sign = -eps if n > 0 else eps
    if nonself:
        return sign, [*before, ini, *after], [ter]
    return sign, [ini, *before, ter, *after], []


# splits an endpoint token such as "g3s1<" into its (chord, kind) pair
_pair = itemgetter(slice(None, -1), -1)


# -- snail forms -------------------------------------------------------------


def _layout(form: KnotForm | LinkForm) -> tuple[int, Iterator[tuple]]:
    """The form's circle count and its snails; a support fault raises
    BadSupport.  The snails of each family (source circle, target circle,
    coefficients) come in turn, ascending index.  A source word extends its
    source circle, and the nonself snails' terminal endpoints follow all
    snails on their target circle, reversed, so a family's chords run in
    parallel."""
    if isinstance(form, KnotForm):
        if 0 in form.a or 1 in form.a:
            raise BadSupport("knot snail coefficients must vanish at 0 and 1")
        return 1, _snails([(0, 0, form.a)])
    lam = sum(form.c.values()) - sum(form.d.values())
    if lam != form.lam:
        raise MalformedSnailForm(f"nonself coefficients give linking "
                                 f"difference {lam}, form says {form.lam}")
    if {0, 1} & {*form.a, *form.b}:
        raise BadSupport("self-snail coefficients must vanish at 0 and 1")
    return 2, _snails([(0, 0, form.a), (1, 1, form.b),
                       (0, 1, form.c), (1, 0, form.d)])


def _snails(families: list[tuple[int, int, dict[int, int]]]
            ) -> Iterator[tuple]:
    """Per index of each family: its source and target circles, the shape
    of its snails and the main chord ids of its copies.  The k-th snail is
    named ``g{k}``, with shells ``g{k}s1``, ...  A shape is ``(eps, sign,
    shells, head, tail)``: the main chord's sign, the shells' sign and id
    tails, and the source-word and target-word token tails that
    :func:`_snail_words` gives for the main chord ``""``, sliced from token
    tables formatted once per form."""
    top = max((abs(n) for _, _, coeffs in families for n in coeffs), default=0)
    marks = [f"s{j}" for j in range(1, top + 1)]
    tokens = _shell_tokens(marks)
    k = 0
    for src, dst, coeffs in families:
        for n in sorted(coeffs):
            c, m = coeffs[n], abs(n)
            eps = 1 if c > 0 else -1
            sign, head, tail = _snail_words("", tokens, eps, n, src != dst)
            yield (src, dst, (eps, sign, marks[:m], head, tail),
                   [*map("g{}".format, range(k + 1, k + abs(c) + 1))])
            k += abs(c)


def _snail_diagram(form: KnotForm | LinkForm) -> GaussDiagram:
    """The diagram of :func:`_layout`, unchecked: each chord has both ends."""
    mu, snails = _layout(form)
    signs: dict[str, int] = {}
    words: list[list[Endpoint]] = [[] for _ in range(mu)]
    tails: list[list[Endpoint]] = [[] for _ in range(mu)]
    for src, dst, (eps, sign, shells, head, tail), mains in snails:
        for g in mains:
            signs[g] = eps
            for s in shells:
                signs[g + s] = sign
            words[src] += map(_pair, [g + t for t in head])
            tails[dst] += map(_pair, [g + t for t in tail])
    return GaussDiagram._unchecked(
        signs, tuple([tuple(w + t[::-1]) for w, t in zip(words, tails)]))


def form_code(form: KnotForm | LinkForm) -> str:
    """The form's diagram as ``serialize`` writes it, written a snail at a
    time without building it."""
    mu, snails = _layout(form)
    # chord runs by sort key: sorting g and g + "s" sorts by id, since every
    # id that starts with g + "s" is a shell of g
    chords: dict[str, tuple[str, list[str], int]] = {}
    ordered: dict[int, list[str]] = {}  # shell ids by count, in id order
    words: list[list[tuple[str, list[str]]]] = [[] for _ in range(mu)]
    tails: list[list[tuple[str, list[str]]]] = [[] for _ in range(mu)]
    bare = [""]  # the main chord's own line
    for src, dst, (eps, sign, shells, head, tail), mains in snails:
        m = len(shells)
        if m not in ordered:
            ordered[m] = sorted(shells)
        for g in mains:
            chords[g] = g, bare, eps
            if m:
                chords[g + "s"] = g, ordered[m], sign
            words[src].append((g, head))
            if tail:
                tails[dst].append((g, tail))
    return gauss_code([chords[key] for key in sorted(chords)],
                      [w + t[::-1] for w, t in zip(words, tails)])


def build_knot_form(a: Mapping[int, int]) -> GaussDiagram:
    """Concatenation of self snails realizing writhe coefficients ``a``."""
    return _snail_diagram(KnotForm(a))


def build_link_form(form: LinkForm) -> GaussDiagram:
    """Self snails on an arc of their own circle, and the nonself families
    in parallel between the circles, as :func:`_layout` places them."""
    if not isinstance(form, LinkForm):
        raise WrongArgumentType(
            f"build_link_form needs a LinkForm, not {type(form).__name__}")
    return _snail_diagram(form)


# -- canonical form from a profile -------------------------------------------


def _placed(lam: int, a: Mapping[int, int], b: Mapping[int, int],
            c: Mapping[int, int], d: Mapping[int, int],
            ss: int | None) -> LinkForm:
    """The snail form with nonself coefficients ``c``/``d`` at their
    indices: as keyed for lam < 2; for lam >= 2, windows (``c`` keyed
    0..lam-1, ``d`` by exponent -m) placed at the start p that gives shell
    sum ``ss``, as lam * p + (index-weighted total) + ss = 0."""
    if lam < 2:
        return LinkForm(lam, a, b, c, d)
    total = LaurentPoly([*a.items(), *b.items(), *c.items(), *d.items()]
                        ).derivative_at_one() + ss
    if total % lam:
        raise InconsistentProfile(
            "shell sum is incompatible with the linking class")
    p = -total // lam
    return LinkForm(lam, a, b, {p + m: v for m, v in c.items()},
                    {n - p: v for n, v in d.items()}, p)


def canonical_form(profile) -> KnotForm | LinkForm:
    """Extract the unique canonical snail form from an invariant profile.

    For knots this is just the writhe table off slots {0, 1}.  For links the
    nonself coefficients come from the canonical linking-class representative
    (read off by exponent for lam = 0, and as length-lam vectors for lam >= 1,
    where Gamma(1) holds just the linking numbers); for lam >= 2 the window
    position p is solved from the shell-sum identity.
    """
    if isinstance(profile, KnotProfile):
        return KnotForm({n: v for n, v in profile.n_writhes.items() if n != 1})
    if not isinstance(profile, LinkProfile):
        raise WrongArgumentType(f"not a profile: {profile!r}")
    lam = profile.lam
    if lam < 0:
        raise NegativeLambda(
            "canonical forms are defined for lam >= 0; swap components first")
    cls = profile.linking_class
    if lam == 0:
        c, d = cls.f.coeffs(), cls.g.coeffs()
    else:
        g = cls.g.vector(lam)
        c = dict(enumerate(cls.f.vector(lam)))
        d = {-m: g[-m % lam] for m in range(lam)}
    return _placed(lam, profile.invariant_jn1(), profile.invariant_jn2(), c, d,
                   profile.shell_sum)


# -- realization of target invariants ---------------------------------------


def realize_knot(f: LaurentPoly) -> GaussDiagram:
    """A one-circle diagram whose writhe polynomial is ``f``.

    Realizable exactly when f(1) = f'(1) = 0; the snail coefficients are the
    coefficients of f away from exponents 0 and 1.
    """
    if not isinstance(f, LaurentPoly):
        raise WrongArgumentType(
            f"realize_knot needs a LaurentPoly, not {type(f).__name__}")
    if f.eval_at_one() != 0:
        raise NotRealizable(f"value at 1 is {f.eval_at_one()}, not 0")
    if f.derivative_at_one() != 0:
        raise NotRealizable(
            f"derivative at 1 is {f.derivative_at_one()}, not 0")
    return build_knot_form({n: c for n, c in f.coeffs().items()
                            if n not in (0, 1)})


def _dress_endpoint(G: GaussDiagram, chord: str, kind: str, total: int
                    ) -> GaussDiagram:
    """Nest |total| shells of sign sgn(total) directly around an endpoint."""
    c, p = G.locate(chord, kind)
    word = G.circles[c]
    ep = word[p]
    ids = G._fresh_ids("r", abs(total))
    layers = tuple(shell_layers(ep, G.endpoint_sign(ep), ids))
    return G._edited({c: word[:p] + layers + word[p + 1:]},
                     dict.fromkeys(ids, 1 if total > 0 else -1))


def _transfer_shells(G: GaussDiagram, chord: str, x: int) -> GaussDiagram:
    """Add shells of sign sum x around a nonself chord's endpoint on the
    first circle and -x around its endpoint on the second; the chord's own
    index and every other chord's index are unchanged, while the per-circle
    shell slots move by x and -x."""
    ini_circle, _ = G.chord_circles(chord)
    first, second = (x, -x) if ini_circle == 0 else (-x, x)
    G = _dress_endpoint(G, chord, INITIAL, first)
    return _dress_endpoint(G, chord, TERMINAL, second)


def _append_gadget(G: GaussDiagram, circle: int, positive: bool
                   ) -> GaussDiagram:
    """An index-1 self snail of sign + (``positive``) or -, which moves one
    unit of index writhe between the slot-1 count and the partner shell slot
    of the given circle.  The positive one is appended starting at its
    shell's terminal endpoint."""
    g, s = G._fresh_ids("r", 2)
    eps = 1 if positive else -1
    sign, word, _ = _snail_words(g, _shell_tokens([s]), eps, 1, False)
    if positive:
        word = word[-1:] + word[:-1]
    return G._edited({circle: [*G.circles[circle], *map(_pair, word)]},
                     {g: eps, s: sign})


def _nonself_anchor(G: GaussDiagram) -> tuple[GaussDiagram, str]:
    """The first nonself chord (one found on both circles) in ``signs``
    order, inserting a cancelling parallel pair if none."""
    nonself = ({chord for chord, _ in G.circles[0]}
               & {chord for chord, _ in G.circles[1]})
    for cid in G.signs:
        if cid in nonself:
            return G, cid
    q1, q2 = G._fresh_ids("r", 2)
    return G._edited(
        {0: G.circles[0] + ((q1, INITIAL), (q2, INITIAL)),
         1: G.circles[1] + ((q1, TERMINAL), (q2, TERMINAL))},
        {q1: 1, q2: -1}), q1


def _check_support(name: str, coeffs: Mapping[int, int], banned: set[int]):
    hit = sorted(set(coeffs) & banned)
    if any(coeffs[n] for n in hit):
        raise ConstraintViolated(
            f"{name} must vanish on slots {sorted(banned)}; got {hit}")


def realize_link(lam: int, a: Mapping[int, int], b: Mapping[int, int],
                 c: Mapping[int, int], d: Mapping[int, int],
                 target_shell_sum: int | None = None) -> GaussDiagram:
    """A 2-component diagram with the given index writhes and linking class.

    ``a``/``b`` are the full index-writhe targets of the two components on
    their defined slots, ``c``/``d`` the linking-class coefficients: arbitrary
    finite maps for lam = 0, a single value c (with the second entry forced
    to c - 1) encoded as {0: c} for lam = 1, and length-lam vectors keyed
    0..lam-1 for lam >= 2.  Admissibility: (a) the coefficient sums must book
    the linking numbers consistently with lam, and (b) the index-weighted
    totals must cancel (mod lam where applicable).

    Snails realize the targets off the shell slots of :func:`link_slots`; a
    shell transfer and gadgets then fill the shell slots.
    """
    if not (isinstance(lam, int)
            and all(isinstance(m, Mapping) for m in (a, b, c, d))):
        raise WrongArgumentType("realize_link needs an int and four mappings")
    if lam < 0:
        raise NegativeLambda("realization targets assume lam >= 0")
    a = {n: v for n, v in a.items() if v}
    b = {n: v for n, v in b.items() if v}
    (free1, shell1), (free2, shell2) = slots = link_slots(lam)
    _check_support("component-1 writhe targets", a, free1)
    _check_support("component-2 writhe targets", b, free2)
    if lam == 1:
        if {m for m, v in c.items() if v} - {0} or \
                {m for m, v in d.items() if v} - {0}:
            raise ConstraintViolated("lam = 1 takes single linking numbers")
        c0 = c.get(0, 0)
        if 0 in d and d[0] != c0 - 1:
            raise ConstraintViolated(
                f"(a): second linking number is forced to {c0 - 1}")
        c, d = {0: c0}, {0: c0 - 1}
    c = {m: v for m, v in c.items() if v}
    d = {m: v for m, v in d.items() if v}
    if lam >= 2 and any(m not in range(lam) for m in (*c, *d)):
        raise ConstraintViolated(
            f"nonself coefficients must be keyed 0..{lam - 1}")
    if sum(c.values()) - sum(d.values()) != lam:
        raise ConstraintViolated(
            "(a): the two nonself coefficient sums must be equal, got "
            f"{sum(c.values())} and {sum(d.values())}" if lam == 0 else
            "(a): nonself coefficient sums must differ by lam, got "
            f"{sum(c.values())} - {sum(d.values())}")
    if lam:
        # for lam >= 1 the coefficient d_m sits at exponent -m
        d = {-m: v for m, v in d.items()}
    total = LaurentPoly([*a.items(), *b.items(), *c.items(), *d.items()]
                        ).derivative_at_one()
    if (total % lam if lam else total) != 0:
        raise ConstraintViolated(
            f"(b): the index-weighted target total must vanish, got {total}"
            if lam == 0 else
            f"(b): index-weighted target total must vanish mod lam, "
            f"got {total} mod {lam}")
    target = shell_sum(lam, a, b)
    if target_shell_sum is not None and target_shell_sum != target:
        raise ConstraintViolated(
            f"no shell-sum invariant exists for lam = {lam}" if target is None
            else "shell-sum target conflicts with the "
            + ("slot-1 writhe targets" if lam == 0 else "four slot targets"))
    G = build_link_form(_placed(
        lam, {n: v for n, v in a.items() if n not in shell1},
        {n: v for n, v in b.items() if n not in shell2}, c, d, target))
    tables = self_writhe_tables(G)
    if target is not None:
        # amount the component-1 shell slots are short; the anchor transfer
        # moves exactly that much over from component 2
        x = sum(a.get(n, 0) - tables[0].get(n, 0) for n in shell1)
        if x:
            G = _transfer_shells(*_nonself_anchor(G), x)
            tables = self_writhe_tables(G)
    for circle, (want, (_, shell), t) in enumerate(zip((a, b), slots, tables)):
        # a positive gadget raises slot 1 and lowers its partner shell slot
        n = 1 if 1 in shell else min(shell)
        delta = want.get(n, 0) - t.get(n, 0)
        for _ in range(abs(delta)):
            G = _append_gadget(G, circle, (delta > 0) == (n == 1))
    return G
