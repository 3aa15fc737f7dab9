"""Shell-move equivalence decisions, realization of target invariants, and a
bounded breadth-first oracle over the move graph.

Equivalence of profiles is decided from the complete invariant suite; the
oracle exists to cross-check the decision procedure on desk-scale diagrams by
actually exhibiting move sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .algebra import LaurentPoly
from .diagram import (
    Endpoint,
    GaussDiagram,
    INITIAL,
    TERMINAL,
    canonical_key,
    shell_layers,
)
from .errors import (
    BudgetExceeded,
    ComponentCountMismatch,
    ConstraintViolated,
    NegativeLambda,
    NotRealizable,
    UnsupportedComponentCount,
)
from .invariants import (LAMBDA_LABEL, LinkProfile, _nonself_endpoints, _off,
                         link_slots, linking_data, profile,
                         self_writhe_tables, shell_sum)
from .moves import (MoveSite, _fresh_ids, apply_move, chord_change,
                    find_move_sites, fits)
from .normal_form import _snail_words, build_knot_form, build_link_diagram

__all__ = [
    "Verdict",
    "s_equivalent",
    "check_consistency",
    "realize_knot",
    "realize_link",
    "bfs_witness",
]


@dataclass(frozen=True)
class Verdict:
    equivalent: bool
    reason: str

    def __bool__(self) -> bool:
        return self.equivalent


_OK = "all conditions met"


def _mismatch(label: str, a, b) -> str:
    """Reason text for a differing field; a table names its lowest
    differing slot."""
    if isinstance(a, dict):
        n = min(k for k in set(a) | set(b) if a.get(k, 0) != b.get(k, 0))
        return f"{label} mismatch at n={n}: {a.get(n, 0)} vs {b.get(n, 0)}"
    return f"{label} mismatch: {a} vs {b}"


def s_equivalent(G: GaussDiagram, H: GaussDiagram) -> Verdict:
    """Decide shell-move equivalence from the complete invariant suite.

    The verdict is profile equality; the reason names the first profile
    field that differs (for a table, its lowest differing slot), in the
    inputs' own component order for every lambda, as ``profile`` reads.
    """
    if G.mu != H.mu:
        raise ComponentCountMismatch(f"{G.mu} vs {H.mu} circles")
    if G.mu not in (1, 2):
        raise UnsupportedComponentCount(
            f"equivalence is decided for 1 or 2 circles, not {G.mu}")
    if G.mu == 2:
        lam_g, lam_h = linking_data(G)[2], linking_data(H)[2]
        if lam_g != lam_h:
            # lambda is the first field, so this is the walk's own answer
            return Verdict(False, _mismatch(LAMBDA_LABEL, lam_g, lam_h))
    for (label, a), (_, b) in zip(profile(G).fields(), profile(H).fields()):
        if a != b:
            return Verdict(False, _mismatch(label, a, b))
    return Verdict(True, _OK)


def check_consistency(pr: LinkProfile) -> bool:
    """The index-weighted writhe sums and the class derivative cancel:
    exactly for lambda = 0, mod lambda otherwise (undefined for |lambda| = 1)."""
    lam = abs(pr.lam)
    if lam == 1:
        raise ValueError("consistency relation is undefined for |lambda| = 1")
    total = LaurentPoly([*pr.jn1.items(), *pr.jn2.items()]
                        ).derivative_at_one() + pr.f_prime
    return total == 0 if lam == 0 else total % lam == 0


# -- realization ----------------------------------------------------------------


def realize_knot(f: LaurentPoly) -> GaussDiagram:
    """A one-circle diagram whose writhe polynomial is ``f``.

    Realizable exactly when f(1) = f'(1) = 0; the snail coefficients are the
    coefficients of f away from exponents 0 and 1.
    """
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
    ids = _fresh_ids(G, "r", abs(total))
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
    g, s = _fresh_ids(G, "r", 2)
    signs, word, _ = _snail_words(g, [s], 1 if positive else -1, 1, False)
    if positive:
        word = word[-1:] + word[:-1]
    return G._edited({circle: G.circles[circle] + tuple(word)}, signs)


def _nonself_anchor(G: GaussDiagram) -> tuple[GaussDiagram, str]:
    """The first nonself chord in ``signs`` order, inserting a cancelling
    parallel pair if none."""
    nonself = {chord for chord, _ in _nonself_endpoints(G)}
    for cid in G.signs:
        if cid in nonself:
            return G, cid
    q1, q2 = _fresh_ids(G, "r", 2)
    return G._edited(
        {0: G.circles[0] + (Endpoint(q1, INITIAL), Endpoint(q2, INITIAL)),
         1: G.circles[1] + (Endpoint(q1, TERMINAL), Endpoint(q2, TERMINAL))},
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
    a_core, b_core = _off(a, shell1), _off(b, shell2)
    p = 0
    if lam >= 2:
        # the window start that gives the snail form the target shell sum
        core = LaurentPoly([*a_core.items(), *b_core.items(), *c.items(),
                            *d.items()])
        p = -(core.derivative_at_one() + target) // lam
    G = build_link_diagram(a_core, b_core, {p + m: v for m, v in c.items()},
                           {n - p: v for n, v in d.items()})
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


# -- bounded oracle ---------------------------------------------------------------


_EXPANSION_ORDER = ("R1_delete", "R2_delete", "S2_delete", "S1", "R3",
                    "R1_insert", "R2_insert", "S2_insert")


def bfs_witness(G: GaussDiagram, H: GaussDiagram, max_depth: int,
                chord_cap: int, node_budget: int = 20000
                ) -> list[MoveSite] | None:
    """Breadth-first search for a move sequence from ``G`` to ``H``.

    Works modulo diagram isomorphism; meant for desk-scale inputs (a few
    chords, shallow depth).  Returns a replayable trace, or None when the
    bounded graph holds no path.  Raises BudgetExceeded once ``node_budget``
    candidate diagrams have been generated without an answer, in which case
    absence is not certified, and ValueError when ``G`` already has more
    than ``chord_cap`` chords.

    A child with the target's chord count is built and keyed as it is
    generated, since only such a child can be ``H``.  Every other child is
    held as (parent, site) and built once its level ends within the budget,
    in generation order, so the next frontier is the one a build-everything
    search would reach; the last level's held children are never built.
    """
    if G.mu != H.mu:
        raise ComponentCountMismatch(f"{G.mu} vs {H.mu} circles")
    if chord_cap < len(G):
        raise ValueError("chord_cap below current chord count")
    target = canonical_key(H)
    start = canonical_key(G)
    if start == target:
        return []
    size = len(H)
    nodes: list[tuple[GaussDiagram, int, MoveSite | None]] = [(G, -1, None)]
    seen = {start}
    frontier = [0]
    generated = 0
    for depth in range(max_depth):
        # (parent idx, site, child, key); child and key are None until built
        level: list[tuple] = []
        for idx in frontier:
            diagram = nodes[idx][0]
            for kind in _EXPANSION_ORDER:
                if not fits(diagram, kind, chord_cap):
                    continue
                may_hit = len(diagram) + chord_change(kind) == size
                for site in find_move_sites(diagram, kind):
                    generated += 1
                    if generated > node_budget:
                        raise BudgetExceeded(
                            f"{node_budget} candidates generated")
                    if not may_hit:
                        level.append((idx, site, None, None))
                        continue
                    child = apply_move(diagram, site)
                    key = canonical_key(child)
                    if key == target:
                        trace = [site]
                        back = idx
                        while back > 0:
                            trace.append(nodes[back][2])
                            back = nodes[back][1]
                        trace.reverse()
                        return trace
                    level.append((idx, site, child, key))
        if depth + 1 == max_depth:
            return None
        frontier = []
        for idx, site, child, key in level:
            if child is None:
                child = apply_move(nodes[idx][0], site)
                key = canonical_key(child)
            if key in seen:
                continue
            seen.add(key)
            nodes.append((child, idx, site))
            frontier.append(len(nodes) - 1)
        if not frontier:
            return None
    return None
