"""Shell-move equivalence decisions and a bounded breadth-first oracle over
the move graph.

Equivalence of profiles is decided from the complete invariant suite; the
oracle exists to cross-check the decision procedure on desk-scale diagrams by
actually exhibiting move sequences.  Realization of target invariants lives
with the snail forms, in :mod:`shellmoves.normal_form`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .algebra import LaurentPoly
from .diagram import GaussDiagram, canonical_key, require_diagrams
from .errors import (
    BudgetExceeded,
    ComponentCountMismatch,
    UnsupportedComponentCount,
    WrongComponentCount,
)
from .invariants import LAMBDA_LABEL, LinkProfile, linking_data, profile
# a child is built unchecked, from a site just listed on its parent, under
# the name by which the benchmark's tracer and the tests count builds
from .moves import (MoveSite, apply_listed as apply_move, chord_change,
                    count_move_sites, find_move_sites, fits, least_counts)

__all__ = [
    "Verdict",
    "s_equivalent",
    "check_consistency",
    "bfs_witness",
]


@dataclass(frozen=True)
class Verdict:
    equivalent: bool
    reason: str

    def __bool__(self) -> bool:
        return self.equivalent


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
    require_diagrams("s_equivalent", G, H)
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
    return Verdict(True, "all conditions met")


def check_consistency(pr: LinkProfile) -> bool:
    """The index-weighted writhe sums and the class derivative cancel:
    exactly for lambda = 0, mod lambda otherwise (undefined for |lambda| = 1).
    Public as the paper's consistency relation, a check on a profile built
    by hand; no code in the package calls it."""
    if not isinstance(pr, LinkProfile):
        raise WrongComponentCount("consistency needs a 2-circle profile")
    lam = abs(pr.lam)
    if lam == 1:
        raise ValueError("consistency relation is undefined for |lambda| = 1")
    total = LaurentPoly([*pr.jn1.items(), *pr.jn2.items()]
                        ).derivative_at_one() + pr.f_prime
    return total == 0 if lam == 0 else total % lam == 0


# -- bounded oracle ---------------------------------------------------------------


_EXPANSION_ORDER = ("R1_delete", "R2_delete", "S2_delete", "S1", "R3",
                    "R1_insert", "R2_insert", "S2_insert")
# (kind, chord change, changes in positive chords, least counts), in order
_EXPANSION = tuple((kind, *chord_change(kind), least_counts(kind))
                   for kind in _EXPANSION_ORDER)


def _signature(G: GaussDiagram) -> tuple[int, tuple[int, ...]]:
    """Positive chords and circle lengths, which isomorphic diagrams share."""
    return [*G.signs.values()].count(1), tuple(map(len, G.circles))


def _plan(G: GaussDiagram, cap: int, size: int, goal_positive: int) -> list:
    """``(kind, builds)`` for each kind that fits and can have a site on a
    node with ``G``'s signature, in expansion order; ``builds`` says whether
    the kind's moves can give ``size`` chords and ``goal_positive``
    positive chords."""
    n, positive = len(G), _signature(G)[0]
    return [(kind, n + change == size and goal_positive - positive in gains)
            for kind, change, gains, (chords, plus, minus) in _EXPANSION
            if fits(G, kind, cap) and n >= chords and positive >= plus
            and n - positive >= minus]


def bfs_witness(G: GaussDiagram, H: GaussDiagram, max_depth: int,
                chord_cap: int, node_budget: int = 20000
                ) -> list[MoveSite] | None:
    """Breadth-first search for a move sequence from ``G`` to ``H``.

    Works modulo diagram isomorphism; meant for desk-scale inputs (a few
    chords, shallow depth).  Returns a replayable trace, or None when the
    bounded graph holds no path.  Raises BudgetExceeded once ``node_budget``
    candidate diagrams have been generated without an answer, in which case
    absence is not certified, NotADiagram for an argument that is not a
    GaussDiagram, and ValueError when ``G`` already has more than
    ``chord_cap`` chords or a bound is negative or not an exact int.

    The frontier is a stream of ``(diagram, trace)`` pairs, so a hit
    returns its parent's trace plus its own site.  A level holds one entry
    ``(diagram, trace, kind, children)`` per node and kind, and each kind
    is built or held.  A kind whose moves can give the target's chord
    count and positive-chord count (read by
    :func:`~shellmoves.moves.chord_change`) is built: its sites are listed,
    each child is built as it is generated, since only such a child can be
    ``H``, and keyed at once if its positive chords and circle lengths,
    which isomorphic diagrams share, are ``H``'s.  Any other kind is held:
    its children are ``None``, and its site count
    (:func:`~shellmoves.moves.count_move_sites`) is charged in one step.
    No held child can be ``H``, so BudgetExceeded falls where a search that
    builds every child would raise it.  :func:`_frontier` lists a held
    kind's sites, and builds and keys a held or unkeyed child, only when the
    next level reaches it, so whatever lies past a hit, the budget or the
    last level is never built or keyed.  A node follows its signature's
    plan (:func:`_plan`), made once per search, which leaves out each kind
    whose least counts (``moves.least_counts``) the node lacks: such a kind
    has no site, so budget, frontier and answer are those of listing every
    kind at every node.  A built child carries its signature into the
    frontier; children are built unchecked
    (:func:`~shellmoves.moves.apply_listed`) from sites just listed.
    """
    require_diagrams("bfs_witness", G, H)
    for name, value in (("max_depth", max_depth), ("chord_cap", chord_cap),
                        ("node_budget", node_budget)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
    if G.mu != H.mu:
        raise ComponentCountMismatch(f"{G.mu} vs {H.mu} circles")
    if chord_cap < len(G):
        raise ValueError("chord_cap below current chord count")
    if max_depth < 0:
        raise ValueError(f"max_depth must not be negative, got {max_depth}")
    if node_budget < 0:
        raise ValueError(f"node_budget must not be negative, got {node_budget}")
    target = canonical_key(H)
    start = canonical_key(G)
    if start == target:
        return []
    size = len(H)
    goal = _signature(H)
    spent = f"{node_budget} candidates generated"
    seen = {start}
    frontier: Iterable[tuple] = [(G, (), _signature(G))]
    generated = 0
    plans: dict[tuple[int, tuple[int, ...]], list] = {}
    for depth in range(max_depth):
        level: list[tuple[GaussDiagram, tuple, str, list | None]] = []
        for diagram, trace, sig in frontier:
            plan = plans.get(sig)
            if plan is None:
                plan = plans[sig] = _plan(diagram, chord_cap, size, goal[0])
            for kind, builds in plan:
                if not builds:
                    generated += count_move_sites(diagram, kind)
                    if generated > node_budget:
                        raise BudgetExceeded(spent)
                    level.append((diagram, trace, kind, None))
                    continue
                children = []
                for site in find_move_sites(diagram, kind):
                    generated += 1
                    if generated > node_budget:
                        raise BudgetExceeded(spent)
                    child = apply_move(diagram, site)
                    child_sig = _signature(child)
                    key = canonical_key(child) if child_sig == goal else None
                    if key == target:
                        return [*trace, site]
                    children.append((site, child, key, child_sig))
                level.append((diagram, trace, kind, children))
        if depth + 1 == max_depth or not level:
            return None
        frontier = _frontier(seen, level)
    return None


def _frontier(seen: set, level: list) -> Iterator[tuple]:
    """The unseen children of ``level`` with their traces and signatures,
    in generation order, listing a held kind's sites, building its children
    and keying an unkeyed child only when it is reached."""
    for diagram, trace, kind, children in level:
        if children is None:
            children = ((site, apply_move(diagram, site), None, None)
                        for site in find_move_sites(diagram, kind))
        for site, child, key, sig in children:
            if key is None:
                key = canonical_key(child)
            if key not in seen:
                seen.add(key)
                yield child, (*trace, site), sig or _signature(child)
