"""Chord indices and the full invariant suite for 1- and 2-circle diagrams.

The index of a self-chord is the endpoint-sign sum along the arc from its
initial to its terminal endpoint.  Nonself chords are indexed relative to a
reference nonself chord gamma0 by first merging the two circles along gamma0
(:func:`~shellmoves.diagram.surgery`); different choices of gamma0 twist the
resulting index polynomials by (t^k, t^-k), so only the twist class is
recorded.

Every index comes from :func:`~shellmoves.diagram.circle_walk`, one
prefix-sum pass per circle, so :func:`profile` is linear in the chord count
and builds no merged circle.  Read cyclically, that circle is circle 1 from
just after gamma0's endpoint, then circle 2 from just after gamma0's
endpoint there.  Let D_c(x) be the sign sum on circle c from gamma0's
endpoint up to x's, around the circle (prefix sums re-based at gamma0's
endpoint), T_c the circle's total and e_c gamma0's endpoint sign there.  For
x< on circle a and x> on circle b, the merged arc runs from x< to gamma0 on
circle a, then from gamma0 to x> on circle b, so the index of x is
T_a - D_a(x) + eps_x + D_b(x) - e_b.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LaurentPoly, LinkingClass, gamma_class
# no code here calls ``surgery``; the benchmark's tracer wraps it by name
from .diagram import (INITIAL, CircleWalk, Endpoint, GaussDiagram, circle_walk,
                      surgery)
from .errors import NotANonselfChord, UnknownChordId, UnsupportedComponentCount

__all__ = [
    "KnotProfile",
    "LinkProfile",
    "writhe_polynomial",
    "self_writhe_tables",
    "nonself_writhe_tables",
    "linking_data",
    "linking_class",
    "link_slots",
    "shell_sum",
    "profile",
]


def self_writhe_tables(G: GaussDiagram) -> tuple[dict[int, int], ...]:
    """Per circle, n -> signed count of the self-chords of index n on it."""
    return tuple(circle_walk(word, G.signs).table for word in G.circles)


def writhe_polynomial(G: GaussDiagram) -> LaurentPoly:
    """W(t) = sum_{n != 0} J_n t^n - sum_{n != 0} J_n."""
    G.require_mu(1)
    return profile(G).writhe


def _nonself_endpoints(G: GaussDiagram) -> list[Endpoint]:
    """The circle-1 endpoint of every nonself chord of a 2-circle diagram,
    in circle order.  An initial endpoint marks type (1,2), a terminal one
    type (2,1)."""
    G.require_mu(2)
    on_circle2 = {chord for chord, _ in G.circles[1]}
    return [ep for ep in G.circles[0] if ep.chord in on_circle2]


def _from_gamma0(walk: CircleWalk, gamma0: str) -> dict[str, int]:
    """D(x) for each endpoint in ``walk.ends``: the sign sum from gamma0's
    endpoint up to x's, around the circle."""
    base, wrap, out = walk.ends[gamma0], walk.total, {}
    for chord, before in walk.ends.items():
        if chord == gamma0:
            wrap = 0
        out[chord] = before - base + wrap
    return out


def _nonself_tables(G: GaussDiagram, walks: list[CircleWalk], gamma0: str
                    ) -> tuple[dict[int, int], dict[int, int]]:
    """:func:`nonself_writhe_tables` from the walks of the two circles."""
    w1, w2 = walks
    s0 = G.signs[gamma0]
    # the signs of gamma0's endpoints: e1 on circle 1, -e1 on circle 2
    e1 = s0 if gamma0 in w1.terminal_first else -s0
    d2 = _from_gamma0(w2, gamma0)
    t12: dict[int, int] = {}
    t21: dict[int, int] = {}
    for chord, d1 in _from_gamma0(w1, gamma0).items():
        sign = G.signs[chord]
        if chord in w1.terminal_first:  # x< on circle 2, x> on circle 1
            table, n = t21, w2.total - d2[chord] + d1 + sign - e1
        else:
            table, n = t12, w1.total - d1 + d2[chord] + sign + e1
        if chord == gamma0:
            n = 0
        table[n] = table.get(n, 0) + sign
    return ({n: v for n, v in t12.items() if v},
            {n: v for n, v in t21.items() if v})


def nonself_writhe_tables(G: GaussDiagram, gamma0: str
                          ) -> tuple[dict[int, int], dict[int, int]]:
    """Index tables of the nonself chords relative to ``gamma0``, split by
    type (1,2) / (2,1); ``gamma0`` contributes its sign at index 0."""
    G.require_mu(2)
    if not isinstance(gamma0, str) or gamma0 not in G.signs:
        raise UnknownChordId(f"no chord {gamma0!r}")
    walks = [circle_walk(word, G.signs) for word in G.circles]
    if gamma0 not in walks[0].ends:
        raise NotANonselfChord(f"chord {gamma0!r} is a self-chord")
    return _nonself_tables(G, walks, gamma0)


def linking_data(G: GaussDiagram) -> tuple[int, int, int]:
    """(Lk(K1,K2), Lk(K2,K1), lambda): signed counts of the two nonself
    chord types and their difference."""
    lk12 = lk21 = 0
    for chord, kind in _nonself_endpoints(G):
        if kind == INITIAL:
            lk12 += G.signs[chord]
        else:
            lk21 += G.signs[chord]
    return lk12, lk21, lk12 - lk21


def _twist_class(t12: dict[int, int], t21: dict[int, int]) -> LinkingClass:
    # the tables' signed counts are Lk(K1,K2) and Lk(K2,K1)
    lam = sum(t12.values()) - sum(t21.values())
    return gamma_class(abs(lam), LaurentPoly(t12), LaurentPoly(t21))


def linking_class(G: GaussDiagram) -> LinkingClass:
    """Twist class of the nonself index polynomials in Gamma(|lambda|).

    Independent of the reference chord: changing it multiplies the two
    polynomials by t^k and t^-k, which the class quotients away.
    """
    nonself = _nonself_endpoints(G)
    return _twist_class(*nonself_writhe_tables(G, nonself[0].chord)
                        if nonself else ({}, {}))


def link_slots(lam: int) -> tuple[tuple[set[int], set[int]], ...]:
    """Per circle of a 2-component diagram with linking difference ``lam``,
    the index-writhe slots that shell moves do not preserve: the free slots
    ``{0, -lam}`` (circle 1) or ``{0, lam}`` (circle 2), and the shell slots
    ``{1, 1 - lam}`` or ``{1, 1 + lam}`` minus the free ones.  A sliding shell
    moves writhe between shell slots, so only their total is invariant."""
    return tuple(({0, s}, {1, 1 + s} - {0, s}) for s in (-lam, lam))


def shell_sum(lam: int, t1: dict[int, int], t2: dict[int, int]) -> int | None:
    """Total of the per-circle index tables on their shell slots; None when
    slot 1 is free on one circle (|lam| = 1), as a shell then slides in and
    out of the count."""
    slots = link_slots(lam)
    if any(1 not in shell for _, shell in slots):
        return None
    return sum(t.get(n, 0) for t, (_, shell) in zip((t1, t2), slots)
               for n in shell)


def _off(table: dict[int, int], *banned: set[int]) -> dict[int, int]:
    """``table`` without the slots in any of the ``banned`` sets."""
    drop = set().union(*banned)
    return {n: v for n, v in table.items() if n not in drop}


class _Profile:
    """Equality and hashing derived from :meth:`fields`, the ordered
    ``(label, value)`` list that is the whole shell-move invariant.  Table
    (dict) values hash as their sorted items."""

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.fields() == other.fields()

    def __hash__(self) -> int:
        return hash(tuple(tuple(sorted(v.items())) if isinstance(v, dict)
                          else v for _, v in self.fields()))


@dataclass(frozen=True, eq=False)
class KnotProfile(_Profile):
    """Complete shell-move invariant of a virtual knot: its writhe polynomial."""

    writhe: LaurentPoly
    n_writhes: dict[int, int]
    odd_writhe: int

    def fields(self) -> tuple[tuple[str, object], ...]:
        return (("writhe polynomial", self.writhe),)


# the first field of a link profile; equiv answers a lambda mismatch from
# linking_data alone, under the same label
LAMBDA_LABEL = "virtual linking number"


@dataclass(frozen=True, eq=False)
class LinkProfile(_Profile):
    """Invariants of an ordered 2-component diagram.

    ``jn1``/``jn2`` are the per-circle self-chord index tables off the free
    slots of :func:`link_slots`.  :meth:`fields` lists the complete
    shell-move invariant: lambda, the linking numbers, the tables off the
    shell slots as well, the twist class and the shell sum.
    ``f_prime`` is a function of the twist class, so it is not compared.
    """

    lk12: int
    lk21: int
    lam: int
    jn1: dict[int, int]
    jn2: dict[int, int]
    shell_sum: int | None
    linking_class: LinkingClass
    f_prime: int | None

    def invariant_jn1(self) -> dict[int, int]:
        return _off(self.jn1, *link_slots(self.lam)[0])

    def invariant_jn2(self) -> dict[int, int]:
        return _off(self.jn2, *link_slots(self.lam)[1])

    def fields(self) -> tuple[tuple[str, object], ...]:
        return ((LAMBDA_LABEL, self.lam),
                ("linking number", (self.lk12, self.lk21)),
                ("component-1 index writhe", self.invariant_jn1()),
                ("component-2 index writhe", self.invariant_jn2()),
                ("linking class", self.linking_class),
                ("shell sum", self.shell_sum))


def profile(G: GaussDiagram) -> KnotProfile | LinkProfile:
    """Assemble the full invariant profile of a 1- or 2-circle diagram."""
    if G.mu not in (1, 2):
        raise UnsupportedComponentCount(
            f"profiles cover 1 or 2 circles, not {G.mu}")
    walks = [circle_walk(word, G.signs) for word in G.circles]
    if G.mu == 1:
        n_writhes = {n: v for n, v in walks[0].table.items() if n != 0}
        odd = sum(v for n, v in n_writhes.items() if n % 2)
        total = LaurentPoly.const(sum(n_writhes.values()))
        return KnotProfile(LaurentPoly(n_writhes) - total, n_writhes, odd)
    # nonself indices relative to the first nonself chord on circle 1
    first = next(iter(walks[0].ends), None)
    t12, t21 = (({}, {}) if first is None
                else _nonself_tables(G, walks, first))
    lk12, lk21 = sum(t12.values()), sum(t21.values())
    lam = lk12 - lk21
    cls = _twist_class(t12, t21)
    t1, t2 = (walk.table for walk in walks)
    (free1, _), (free2, _) = link_slots(lam)
    f_prime = None if abs(lam) == 1 else cls.derivative_sum()
    return LinkProfile(lk12, lk21, lam, _off(t1, free1), _off(t2, free2),
                       shell_sum(lam, t1, t2), cls, f_prime)
