"""Snail encodings and canonical snail-form diagrams.

A snail is a chord dressed with nested shells: the main chord of sign eps
carries |n| shells of sign -eps*sgn(n), which pins the main chord's index at
n.  Knots normalize to a concatenation of self snails indexed by the writhe
coefficients; 2-component links additionally carry two families of nonself
snails laid out in parallel between the circles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .algebra import LaurentPoly
from .diagram import INITIAL, TERMINAL, Endpoint, GaussDiagram, shell_layers
from .errors import (
    BadSupport,
    InconsistentProfile,
    MalformedSnailForm,
    NegativeLambda,
)
from .invariants import KnotProfile, LinkProfile

__all__ = [
    "KnotForm",
    "LinkForm",
    "encode_snail",
    "build_knot_form",
    "build_link_diagram",
    "build_link_form",
    "canonical_form",
]


def _clean(m: Mapping[int, int]) -> dict[int, int]:
    return {k: v for k, v in sorted(m.items()) if v != 0}


@dataclass(frozen=True)
class KnotForm:
    """Multiset of self snails a_n S(n), n outside {0, 1}."""

    a: dict[int, int]

    def __post_init__(self):
        object.__setattr__(self, "a", _clean(self.a))


@dataclass(frozen=True)
class LinkForm:
    """Snail data for a 2-component diagram.

    ``a``/``b`` hold self-snail coefficients per circle, ``c``/``d`` the
    nonself-snail coefficients keyed by absolute snail index.  For lam >= 2
    a canonical form supports ``c`` on the window [p, p+lam) and ``d`` on
    (-p-lam, -p]; ``p`` records the window start.
    """

    lam: int
    a: dict[int, int]
    b: dict[int, int]
    c: dict[int, int]
    d: dict[int, int]
    p: int = 0

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _clean(getattr(self, name)))

    def c_vector(self) -> tuple[int, ...]:
        return tuple(self.c.get(self.p + m, 0) for m in range(self.lam))

    def d_vector(self) -> tuple[int, ...]:
        return tuple(self.d.get(-self.p - m, 0) for m in range(self.lam))


# -- snail words -----------------------------------------------------------


def _snail_words(main: str, shells: list[str], eps: int, n: int,
                 nonself: bool) -> tuple[dict[str, int], list[Endpoint],
                                         list[Endpoint]]:
    """Signs, source word and target word of a snail; ``shells`` run
    outermost first.

    A self snail is one word: the initial endpoint, then the shells nested
    around the terminal endpoint.  A nonself snail nests them around the
    initial endpoint on the source circle; the bare terminal endpoint is the
    target word.
    """
    signs = {main: eps}
    signs.update(dict.fromkeys(shells, -eps if n > 0 else eps))
    ini, ter = Endpoint(main, INITIAL), Endpoint(main, TERMINAL)
    if nonself:
        return signs, shell_layers(ini, -eps, shells[::-1]), [ter]
    return signs, [ini] + shell_layers(ter, eps, shells[::-1]), []


def encode_snail(kind: str, eps: int, n: int) -> GaussDiagram:
    """One snail as a standalone diagram, chords named g, s1..s|n|.

    ``kind`` is ``"self"`` (one circle) or ``"nonself"`` (main chord from
    circle 1 to circle 2).
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if kind not in ("self", "nonself"):
        raise ValueError(f"unknown snail kind {kind!r}")
    shells = [f"s{j}" for j in range(1, abs(n) + 1)]
    signs, src, dst = _snail_words("g", shells, eps, n, kind == "nonself")
    return GaussDiagram(signs, [src, dst] if dst else [src])


# -- diagram builders --------------------------------------------------------


def _snail_run(coeffs: Mapping[int, int]):
    """(index, sign) per snail copy, ascending index."""
    for n in sorted(coeffs):
        c = coeffs[n]
        for _ in range(abs(c)):
            yield n, (1 if c > 0 else -1)


def _snail_diagram(mu: int, families) -> GaussDiagram:
    """Snails of each family ``(source circle, target circle, coefficients)``
    in turn, the k-th named ``g{k}`` with shells ``g{k}s1``, ...

    Each snail's source word extends its source circle.  Terminal endpoints
    of nonself snails follow all snails on their target circle, in reverse
    order, so the chords of a family run in parallel.
    """
    signs: dict[str, int] = {}
    words: list[list[Endpoint]] = [[] for _ in range(mu)]
    tails: list[list[Endpoint]] = [[] for _ in range(mu)]
    k = 0
    for src, dst, coeffs in families:
        for n, eps in _snail_run(coeffs):
            k += 1
            shells = [f"g{k}s{j}" for j in range(1, abs(n) + 1)]
            snail, head, tail = _snail_words(f"g{k}", shells, eps, n,
                                             src != dst)
            signs.update(snail)
            words[src] += head
            tails[dst] += tail
    return GaussDiagram(signs, [w + t[::-1] for w, t in zip(words, tails)])


def build_knot_form(a: Mapping[int, int]) -> GaussDiagram:
    """Concatenation of self snails realizing writhe coefficients ``a``."""
    a = _clean(a)
    if 0 in a or 1 in a:
        raise BadSupport("knot snail coefficients must vanish at 0 and 1")
    return _snail_diagram(1, [(0, 0, a)])


def build_link_diagram(a: Mapping[int, int], b: Mapping[int, int],
                       c: Mapping[int, int], d: Mapping[int, int]
                       ) -> GaussDiagram:
    """General snail-form 2-component diagram.

    Self snails sit on an arc of their own circle; the nonself families run
    between the circles in parallel, so the terminal endpoints appear in
    reverse order on the far circle.
    """
    a, b, c, d = _clean(a), _clean(b), _clean(c), _clean(d)
    if 0 in a or 1 in a or 0 in b or 1 in b:
        raise BadSupport("self-snail coefficients must vanish at 0 and 1")
    return _snail_diagram(2, [(0, 0, a), (1, 1, b), (0, 1, c), (1, 0, d)])


def build_link_form(form: LinkForm) -> GaussDiagram:
    lam = sum(form.c.values()) - sum(form.d.values())
    if lam != form.lam:
        raise MalformedSnailForm(
            f"nonself coefficients give linking difference {lam}, "
            f"form says {form.lam}")
    try:
        return build_link_diagram(form.a, form.b, form.c, form.d)
    except BadSupport as e:
        raise MalformedSnailForm(str(e)) from None


# -- canonical form from a profile -------------------------------------------


def canonical_form(profile) -> KnotForm | LinkForm:
    """Extract the unique canonical snail form from an invariant profile.

    For knots this is just the writhe table off slots {0, 1}.  For links the
    nonself coefficients come from the canonical linking-class representative;
    for lam >= 2 the window position p is solved from the shell-sum identity.
    """
    if isinstance(profile, KnotProfile):
        return KnotForm({n: v for n, v in profile.n_writhes.items() if n != 1})
    if not isinstance(profile, LinkProfile):
        raise TypeError(f"not a profile: {profile!r}")
    lam = profile.lam
    if lam < 0:
        raise NegativeLambda(
            "canonical forms are defined for lam >= 0; swap components first")
    a = profile.invariant_jn1()
    b = profile.invariant_jn2()
    cls = profile.linking_class
    if lam == 0:
        return LinkForm(0, a, b, cls.f.coeffs(), cls.g.coeffs(), 0)
    if lam == 1:
        return LinkForm(1, a, b, {0: profile.lk12}, {0: profile.lk21}, 0)
    cvec = cls.f.vector(lam)
    dvec = tuple(cls.g.vector(lam)[(-m) % lam] for m in range(lam))
    base = -LaurentPoly([*a.items(), *b.items(), *enumerate(cvec),
                         *((-m, v) for m, v in enumerate(dvec))]
                        ).derivative_at_one()
    if (base - profile.shell_sum) % lam != 0:
        raise InconsistentProfile(
            "shell sum is incompatible with the linking class")
    p = (base - profile.shell_sum) // lam
    c = {p + m: cvec[m] for m in range(lam)}
    d = {-p - m: dvec[m] for m in range(lam)}
    return LinkForm(lam, a, b, c, d, p)
