"""Chord indices and the full invariant suite for 1- and 2-circle diagrams.

The index of a chord x is P(x>) - P(x<) + eps_x, where P is the prefix sum
of endpoint signs before an endpoint, on whichever circle holds it: for a
self-chord that is its arc sum when the arc does not wrap past the basepoint
(:func:`~shellmoves.diagram.circle_walk` adds the circle total when it does).
The book indexes nonself chords on the circle merged along a reference
chord gamma0 (:func:`~shellmoves.diagram.surgery`), and keeps only the twist
class of the resulting index polynomials; that reading lives in the tests'
reference library, ``tests/reference.py``.  :func:`profile` reads the
same class with no gamma0, from one prefix-sum walk per circle
(:func:`linking_class` reads it there too): moving a circle's basepoint or
choosing another gamma0 shifts every (1,2) index by some k and every (2,1)
index by -k, a twist, and single indices by the circle totals -lambda and
lambda, which vanish modulo t^|lambda| - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LaurentPoly, LinkingClass, gamma_class
from .diagram import INITIAL, GaussDiagram, circle_walk, require_diagrams
# the benchmark's tracer wraps invariants.surgery (perfbench/spans.py)
from .diagram import surgery
from .errors import UnsupportedComponentCount

__all__ = [
    "KnotProfile",
    "LinkProfile",
    "writhe_polynomial",
    "self_writhe_tables",
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
    """W(t) = sum_{n != 0} J_n t^n - sum_{n != 0} J_n of a knot: public as
    the paper's complete knot invariant, though no code in the package
    calls it (``profile(G).writhe`` is the same value)."""
    require_diagrams("writhe_polynomial", G)
    G.require_mu(1)
    return profile(G).writhe


def linking_data(G: GaussDiagram) -> tuple[int, int, int]:
    """(Lk(K1,K2), Lk(K2,K1), lambda): signed counts of the two nonself
    chord types, read at their circle-1 endpoints (an initial endpoint marks
    type (1,2), a terminal one type (2,1)), and their difference."""
    require_diagrams("linking_data", G)
    G.require_mu(2)
    on_circle2 = {chord for chord, _ in G.circles[1]}
    lk12 = lk21 = 0
    for chord, kind in G.circles[0]:
        if chord not in on_circle2:
            continue
        if kind == INITIAL:
            lk12 += G.signs[chord]
        else:
            lk21 += G.signs[chord]
    return lk12, lk21, lk12 - lk21


def linking_class(G: GaussDiagram) -> LinkingClass:
    """Twist class of the nonself index polynomials in Gamma(|lambda|), as
    :func:`profile` reads it: public as the paper's linking class, which
    the benchmark's tracer wraps by name; no code in the package calls it."""
    require_diagrams("linking_class", G)
    G.require_mu(2)
    return profile(G).linking_class


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
    require_diagrams("profile", G)
    if G.mu not in (1, 2):
        raise UnsupportedComponentCount(
            f"profiles cover 1 or 2 circles, not {G.mu}")
    walks = [circle_walk(word, G.signs) for word in G.circles]
    if G.mu == 1:
        n_writhes = {n: v for n, v in walks[0].table.items() if n != 0}
        odd = sum(v for n, v in n_writhes.items() if n % 2)
        w = LaurentPoly({**n_writhes, 0: -sum(n_writhes.values())})
        return KnotProfile(w, n_writhes, odd)
    (w1, w2), signs = walks, G.signs
    # each nonself chord's (index, sign), of type (1,2), then (2,1)
    f, g = ([(w_to.terminals[x] - p + signs[x], signs[x])
             for x, p in w_from.initials.items()]
            for w_from, w_to in ((w1, w2), (w2, w1)))
    lk12, lk21 = (sum(sign for _, sign in pairs) for pairs in (f, g))
    lam = lk12 - lk21
    cls = gamma_class(abs(lam), LaurentPoly(f), LaurentPoly(g))
    t1, t2 = w1.table, w2.table
    (free1, _), (free2, _) = link_slots(lam)
    f_prime = None if abs(lam) == 1 else cls.derivative_sum()
    return LinkProfile(lk12, lk21, lam, _off(t1, free1), _off(t2, free2),
                       shell_sum(lam, t1, t2), cls, f_prime)
