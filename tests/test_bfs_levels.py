"""The witness search builds and keys a child when it is generated only if
the child has the target's chord count; every other child waits until its
level ends within the budget, and a level the budget or the depth cuts off
is never built.  The build-everything search below is the reference: both
must give the same trace, the same None and the same BudgetExceeded."""

import random
import sys

from shellmoves import equiv
from shellmoves.diagram import GaussDiagram, canonical_key
from shellmoves.equiv import _EXPANSION_ORDER, bfs_witness
from shellmoves.errors import BudgetExceeded, ComponentCountMismatch
from shellmoves.moves import (MoveSite, apply_move, find_move_sites, fits,
                              random_walk, site_to_text)

from conftest import oracle_pool


def ref_bfs_witness(G: GaussDiagram, H: GaussDiagram, max_depth: int,
                    chord_cap: int, node_budget: int = 20000
                    ) -> list[MoveSite] | None:
    """Build and key every child as it is generated."""
    if G.mu != H.mu:
        raise ComponentCountMismatch(f"{G.mu} vs {H.mu} circles")
    target = canonical_key(H)
    start = canonical_key(G)
    if start == target:
        return []
    nodes: list[tuple[GaussDiagram, int, MoveSite | None]] = [(G, -1, None)]
    seen = {start}
    frontier = [0]
    generated = 0
    for _ in range(max_depth):
        nxt: list[int] = []
        for idx in frontier:
            diagram = nodes[idx][0]
            for kind in _EXPANSION_ORDER:
                if not fits(diagram, kind, chord_cap):
                    continue
                for site in find_move_sites(diagram, kind):
                    child = apply_move(diagram, site)
                    generated += 1
                    if generated > node_budget:
                        raise BudgetExceeded(
                            f"{node_budget} candidates generated")
                    key = canonical_key(child)
                    if key == target:
                        trace = [site]
                        back = idx
                        while back > 0:
                            trace.append(nodes[back][2])
                            back = nodes[back][1]
                        trace.reverse()
                        return trace
                    if key in seen:
                        continue
                    seen.add(key)
                    nodes.append((child, idx, site))
                    nxt.append(len(nodes) - 1)
        if not nxt:
            return None
        frontier = nxt
    return None


def _outcome(search, A, B, depth, cap, budget):
    """Trace text, None, or the BudgetExceeded message."""
    try:
        trace = search(A, B, depth, cap, budget)
    except BudgetExceeded as e:
        return ("budget", str(e))
    if trace is None:
        return None
    return "\n".join(site_to_text(site) for site in trace)


def _pool_pairs():
    for pool in oracle_pool():
        for i, A in enumerate(pool):
            for B in pool[i:]:
                yield A, B


def test_oracle_pool_outcomes_match_reference():
    pairs = list(_pool_pairs())
    assert len(pairs) == 46
    kinds = set()
    for A, B in pairs:
        want = _outcome(ref_bfs_witness, A, B, 6, 8, 9000)
        assert _outcome(bfs_witness, A, B, 6, 8, 9000) == want
        kinds.add(type(want))
    assert kinds == {str, tuple}  # found witnesses and budget cuts


def _cut_depth(A, B, cap, budget):
    """The depth whose level the budget cuts off, or None past depth 3."""
    for depth in (1, 2, 3):
        if _outcome(ref_bfs_witness, A, B, depth, cap, budget) == (
                "budget", f"{budget} candidates generated"):
            return depth
    return None


def _random_pairs(n, seed):
    """Pool diagrams paired with random walks from themselves or from
    another pool diagram on as many circles; random depth, cap and budget."""
    rng = random.Random(seed)
    knots, links = oracle_pool()
    for _ in range(n):
        pool = rng.choice((knots, links))
        A = rng.choice(pool)
        src = A if rng.random() < 0.6 else rng.choice(pool)
        cap = rng.randint(max(2, len(A)), rng.choice((3, 8)))
        walk_cap = rng.randint(max(len(src), 2), 8)
        B, _ = random_walk(src, rng.randint(1, 4), rng.randrange(10**6),
                           walk_cap)
        yield (A, B, rng.randint(1, 6), cap,
               int(10 ** rng.uniform(1, 3.6)))


def test_random_pair_outcomes_match_reference():
    found = stopped = 0
    cut_depths = set()
    for A, B, depth, cap, budget in _random_pairs(320, seed=9):
        want = _outcome(ref_bfs_witness, A, B, depth, cap, budget)
        got = _outcome(bfs_witness, A, B, depth, cap, budget)
        assert got == want, (A, B, depth, cap, budget)
        if isinstance(want, str):
            found += 1
        elif want is None:
            stopped += 1
        else:
            cut_depths.add(_cut_depth(A, B, cap, budget))
    assert found and stopped
    assert {1, 2, 3} <= cut_depths


def test_held_children_are_not_built_past_the_budget(monkeypatch):
    knots, _ = oracle_pool()
    k3, k5 = knots[3], knots[5]
    module = sys.modules[__name__]
    apply, counts = apply_move, {}

    def counting(owner, name):
        def wrapped(G, site):
            counts[name] += 1
            return apply(G, site)
        counts[name] = 0
        monkeypatch.setattr(owner, "apply_move", wrapped)

    counting(module, "reference")
    counting(equiv, "search")
    want = _outcome(ref_bfs_witness, k3, k5, 6, 8, 9000)
    assert _outcome(bfs_witness, k3, k5, 6, 8, 9000) == want
    assert want == ("budget", "9000 candidates generated")
    assert counts["reference"] == 9001
    assert counts["search"] <= counts["reference"] // 4, counts

