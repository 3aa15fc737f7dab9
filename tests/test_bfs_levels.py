"""The witness search builds a kind's children when they are generated only
if the kind's moves can give the target's chord count and positive-chord
count, and keys such a child at once only if its positive chords and circle
lengths are the target's; every other kind is held, its sites counted
toward the budget, and its children listed and built only when the next
level reaches them, which is also when an unkeyed child is keyed, so
whatever lies past a hit, the budget or the last level is never built or
keyed.  The build-everything search ``ref_bfs_witness`` (``reference.py``)
is the reference: both must give the same trace, the same None and the
same BudgetExceeded."""

import random

from shellmoves import equiv, moves
from shellmoves.diagram import GaussDiagram, canonical_key, isomorphic
from shellmoves.equiv import bfs_witness
from shellmoves.errors import BudgetExceeded
from shellmoves.moves import (apply_move, find_move_sites, fits, random_walk,
                              site_from_text, site_to_text)

import reference
from conftest import oracle_pool, pool_pairs
from reference import REF_EXPANSION_ORDER, ref_bfs_witness


def _outcome(search, A, B, depth, cap, budget):
    """Trace text, None, or the BudgetExceeded message."""
    try:
        trace = search(A, B, depth, cap, budget)
    except BudgetExceeded as e:
        return ("budget", str(e))
    if trace is None:
        return None
    return "\n".join(site_to_text(site) for site in trace)


def test_oracle_pool_outcomes_match_reference():
    pairs = list(pool_pairs())
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


def _positive(G):
    return sum(sign > 0 for sign in G.signs.values())


def _sign_flipped_pairs(n, seed):
    """Random pairs whose target has one chord's sign flipped, kept when
    the two sides differ in positive chords."""
    rng = random.Random(seed)
    for A, B, depth, cap, budget in _random_pairs(n, seed):
        if B.signs:
            chord = rng.choice(list(B.signs))
            B = GaussDiagram({**B.signs, chord: -B.signs[chord]}, B.circles)
        if _positive(A) != _positive(B):
            yield A, B, depth, cap, budget


def test_random_pair_outcomes_match_reference():
    found = stopped = 0
    cut_depths = set()
    flipped = list(_sign_flipped_pairs(120, seed=10))
    assert len(flipped) >= 80
    assert sum(len(A) == len(B) for A, B, *_ in flipped) >= 20
    for A, B, depth, cap, budget in [*_random_pairs(320, seed=9), *flipped]:
        want = _outcome(ref_bfs_witness, A, B, depth, cap, budget)
        got = _outcome(bfs_witness, A, B, depth, cap, budget)
        assert got == want, (A, B, depth, cap, budget)
        if isinstance(want, str):
            found += 1
            replayed = A
            for line in got.splitlines():
                replayed = apply_move(replayed, site_from_text(line))
            assert isomorphic(replayed, B), (A, B, got)
        elif want is None:
            stopped += 1
        else:
            cut_depths.add(_cut_depth(A, B, cap, budget))
    assert found and stopped
    assert {1, 2, 3} <= cut_depths


def _count(monkeypatch, counts, key, owners, name, fn, size=lambda res: 1):
    """Replace ``name`` in each of ``owners`` by ``fn`` adding ``size`` of
    each result to ``counts[key]``."""
    counts[key] = 0

    def wrapped(*args):
        res = fn(*args)
        counts[key] += size(res)
        return res

    for owner in owners:
        monkeypatch.setattr(owner, name, wrapped)


def test_held_children_are_not_built_past_the_budget(monkeypatch):
    knots, _ = oracle_pool()
    k3, k5 = knots[3], knots[5]
    counts = {}
    _count(monkeypatch, counts, "reference", [reference], "apply_move",
           moves.apply_move)
    _count(monkeypatch, counts, "search", [equiv], "apply_move",
           moves.apply_move)
    want = _outcome(ref_bfs_witness, k3, k5, 6, 8, 9000)
    assert _outcome(bfs_witness, k3, k5, 6, 8, 9000) == want
    assert want == ("budget", "9000 candidates generated")
    assert counts["reference"] == 9001
    assert 0 < counts["search"] <= counts["reference"] // 4, counts


def test_held_kinds_are_counted_not_listed(monkeypatch):
    """On l1 -> l2 the budget runs out in the third level, at the 18th node
    it draws from the second level's 4,478 children; the build-everything
    search builds 4,507 children and lists 9,143 sites, most of them
    R2_insert."""
    _, links = oracle_pool()
    l1, l2 = links[1], links[2]
    want = _outcome(ref_bfs_witness, l1, l2, 6, 8, 9000)
    assert want == ("budget", "9000 candidates generated")
    counts = {}
    # count_move_sites lists the kinds it does not count through moves
    _count(monkeypatch, counts, "built", [equiv], "apply_move",
           moves.apply_move)
    _count(monkeypatch, counts, "listed", [equiv, moves], "find_move_sites",
           find_move_sites, len)
    assert _outcome(bfs_witness, l1, l2, 6, 8, 9000) == want
    assert 0 < counts["built"] <= 100 and counts["listed"] <= 500, counts


def test_a_hit_from_the_first_frontier_node_builds_no_later_held_child(
        monkeypatch):
    """k1 -> k2 (one chord, + then -): every child of k1 is held, and the
    first, the empty knot by R1_delete, reaches k2 by R1_insert."""
    knots, _ = oracle_pool()
    k1, k2 = knots[1], knots[2]
    want = _outcome(ref_bfs_witness, k1, k2, 6, 8, 9000)
    assert want == "R1_delete @ 1:0\nR1_insert @ 1:0 - IT"
    held = sum(len(find_move_sites(k1, kind)) for kind in REF_EXPANSION_ORDER
               if fits(k1, kind, 8))
    assert held == 29
    parents = []

    def apply(G, site):
        parents.append(G)
        return apply_move(G, site)

    monkeypatch.setattr(equiv, "apply_move", apply)
    assert _outcome(bfs_witness, k1, k2, 6, 8, 9000) == want
    assert sum(G is k1 for G in parents) == 1
    assert len(parents) == 3  # the empty knot, then its + and - R1 children


def test_a_kind_that_cannot_give_the_targets_positive_chords_is_held(
        monkeypatch):
    """k6 (x+, y+) -> k4 (x+, y-): only R3 and S1 keep two chords, and
    neither changes the positive chords, so depth 1 builds nothing although
    k6 has two S1 sites."""
    knots, _ = oracle_pool()
    k6, k4 = knots[6], knots[4]
    assert len(find_move_sites(k6, "S1")) == 2
    built = []

    def apply(G, site):
        built.append(G)
        return apply_move(G, site)

    monkeypatch.setattr(equiv, "apply_move", apply)
    assert _outcome(bfs_witness, k6, k4, 1, 8, 9000) is None
    assert built == []
    want = _outcome(ref_bfs_witness, k6, k4, 6, 8, 9000)
    assert _outcome(bfs_witness, k6, k4, 6, 8, 9000) == want
    assert built


def _signature(G):
    return _positive(G), [len(word) for word in G.circles]


def test_a_child_unlike_the_target_is_keyed_only_when_reached(monkeypatch):
    """k1 (one + chord) -> k6 (x+, y+): R1_insert can add a positive chord,
    so k1's R1_insert children are built as they are generated, but a
    negative kink's child has the wrong positive chords and is keyed only
    when the next level's frontier reaches it."""
    knots, _ = oracle_pool()
    k1, k6 = knots[1], knots[6]
    want = _outcome(ref_bfs_witness, k1, k6, 6, 8, 9000)
    reaching = [False]
    events = []  # (built or keyed, diagram, inside the frontier)

    def frontier(*args):
        level = real_frontier(*args)
        while True:
            reaching[0] = True
            try:
                node = next(level)
            except StopIteration:
                return
            finally:
                reaching[0] = False
            yield node

    def apply(G, site):
        child = apply_move(G, site)
        events.append(("built", child, reaching[0]))
        return child

    def key(G):
        events.append(("keyed", G, reaching[0]))
        return canonical_key(G)

    real_frontier = equiv._frontier
    monkeypatch.setattr(equiv, "_frontier", frontier)
    monkeypatch.setattr(equiv, "apply_move", apply)
    monkeypatch.setattr(equiv, "canonical_key", key)
    assert _outcome(bfs_witness, k1, k6, 6, 8, 9000) == want
    unlike = [G for event, G, inside in events if event == "built"
              and not inside and _signature(G) != _signature(k6)]
    assert unlike
    keyed = [[inside for event, K, inside in events
              if event == "keyed" and K is G] for G in unlike]
    assert all(when in ([], [True]) for when in keyed), keyed
    assert [True] in keyed
