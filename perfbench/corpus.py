"""Seeded workload corpora: Gauss-code files plus the command lines that run
them, built only from the workload seed.

The generators are the benchmark's own (copied from the test fixtures) and
build partners without ``shellmoves``, so the inputs stay the same when the
program changes.  Expected answers are fixed here, when the pairs are built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from reference import INITIAL, TERMINAL, Diagram, dump, equivalent, parse

DECIDE_CHORDS = (50, 800)
DECIDE_STEPS = 48
DECIDE_DENSE_UP_TO = 200
# Knots, links with lambda > 0 and links with lambda < 0 (whose equivalence
# check swaps the components); each gets equivalent and non-equivalent
# partners.
DECIDE_CELLS = (("knot", 0), ("linkpos", 1), ("linkneg", -1))
FUZZ_FILES = 100
FUZZ_WALKS = 10
FUZZ_MAX_CHORDS = 12
WITNESS_ARGS = ("--depth", "6", "--cap", "8", "--budget", "9000")
FUZZ_ARGS = ("--steps", "30", "--cap", "40")

# The desk-scale oracle pool: 8 knots and 4 two-component links.
ORACLE_KNOTS = (
    "circles: 1\ncircle 1:\n",
    "circles: 1\nchord g +\ncircle 1: g< g>\n",
    "circles: 1\nchord g -\ncircle 1: g< g>\n",
    "circles: 1\nchord g +\nchord s1 -\ncircle 1: g< s1< g> s1>\n",
    "circles: 1\nchord x +\nchord y -\ncircle 1: x< y< x> y>\n",
    "circles: 1\nchord x +\nchord y -\ncircle 1: x< x> y< y>\n",
    "circles: 1\nchord x +\nchord y +\ncircle 1: x< y< x> y>\n",
    "circles: 1\nchord g +\nchord s1 -\nchord s2 -\n"
    "circle 1: g< s1< s2< g> s2> s1>\n",
)
ORACLE_LINKS = (
    "circles: 2\ncircle 1:\ncircle 2:\n",
    "circles: 2\nchord g +\ncircle 1: g<\ncircle 2: g>\n",
    "circles: 2\nchord g -\ncircle 1: g<\ncircle 2: g>\n",
    "circles: 2\nchord x +\nchord y -\ncircle 1: x< y<\ncircle 2: x> y>\n",
)


@dataclass
class Item:
    """One closed-loop step: CLI calls over files of the corpus directory.

    ``calls`` name files by their corpus-relative names; ``expect`` holds the
    answers fixed when the item was built.
    """

    key: str
    calls: list[list[str]]
    files: tuple[str, ...]
    expect: dict = field(default_factory=dict)


@dataclass
class Corpus:
    workload: str
    files: dict[str, str]
    items: list[Item]


# -- generators ------------------------------------------------------------------


def random_diagram(rng: random.Random, mu: int, max_chords: int) -> Diagram:
    """Random chord count and signs, endpoints shuffled into the words."""
    n = rng.randint(0, max_chords)
    ids = [f"c{i}" for i in range(n)]
    signs = {cid: rng.choice((1, -1)) for cid in ids}
    eps = [(cid, k) for cid in ids for k in (INITIAL, TERMINAL)]
    rng.shuffle(eps)
    if mu == 1:
        return Diagram(signs, [eps])
    cut = rng.randint(0, len(eps))
    return Diagram(signs, [eps[:cut], eps[cut:]])


def random_knot(rng: random.Random, n: int) -> Diagram:
    ids = [f"c{i}" for i in range(n)]
    signs = {cid: rng.choice((1, -1)) for cid in ids}
    word = [(cid, k) for cid in ids for k in (INITIAL, TERMINAL)]
    rng.shuffle(word)
    return Diagram(signs, [word])


def random_link(rng: random.Random, n: int, lam_sign: int) -> Diagram:
    """``n`` chords: half nonself in random directions, a quarter self-chords
    on each circle; resampled until lambda has sign ``lam_sign``."""
    while True:
        ids = [f"c{i}" for i in range(n)]
        signs = {cid: rng.choice((1, -1)) for cid in ids}
        words: list[list[tuple[str, str]]] = [[], []]
        lam = 0
        for i, cid in enumerate(ids):
            if i < n // 2:
                src = rng.randint(0, 1)
                lam += signs[cid] if src == 0 else -signs[cid]
                words[src].append((cid, INITIAL))
                words[1 - src].append((cid, TERMINAL))
            else:
                c = i % 2
                words[c] += [(cid, INITIAL), (cid, TERMINAL)]
        if (lam > 0) - (lam < 0) == lam_sign:
            break
    for w in words:
        rng.shuffle(w)
    return Diagram(signs, words)


def flipped(rng: random.Random, D: Diagram) -> Diagram:
    """Flip one chord's sign so the reference invariants change: a nonself
    chord on links (the linking numbers move by 2), otherwise the first
    chord whose flip changes the writhe polynomial."""
    ids = sorted(D.signs)
    if len(D.circles) == 2:
        on1, on2 = ({c for c, _ in w} for w in D.circles)
        ids = [c for c in ids if c in on1 and c in on2]
    rng.shuffle(ids)
    for cid in ids:
        signs = dict(D.signs)
        signs[cid] = -signs[cid]
        E = Diagram(signs, D.circles)
        if not equivalent(D, E):
            return E
    raise ValueError("no sign flip changes the invariants")


def dressed(rng: random.Random, D: Diagram, r1: int, r2: int) -> Diagram:
    """An equivalent copy: ``r1`` isolated chords and ``r2`` cancelling pairs
    inserted at random gaps, then chords renamed and every circle rotated."""
    signs = dict(D.signs)
    words = [list(w) for w in D.circles]
    k = 0

    def gap(c: int, avoid: int | None = None) -> int:
        while True:
            g = rng.randint(0, len(words[c]))
            if g != avoid:
                return g

    for _ in range(r1):
        cid = f"x{k}"
        k += 1
        c = rng.randrange(len(words))
        g = gap(c)
        pair = [(cid, INITIAL), (cid, TERMINAL)]
        if rng.random() < 0.5:
            pair.reverse()
        words[c][g:g] = pair
        signs[cid] = rng.choice((1, -1))
    for _ in range(r2):
        x, y = f"x{k}", f"x{k + 1}"
        k += 2
        eps = rng.choice((1, -1))
        signs[x], signs[y] = eps, -eps
        c1, c2 = rng.randrange(len(words)), rng.randrange(len(words))
        g1 = gap(c1)
        words[c1][g1:g1] = [(x, INITIAL), (y, INITIAL)]
        # never split the head pair just placed
        g2 = gap(c2, avoid=g1 + 1 if c1 == c2 else None)
        tail = [(x, TERMINAL), (y, TERMINAL)]
        if rng.random() < 0.5:
            tail.reverse()
        words[c2][g2:g2] = tail
    names = list(signs)
    fresh = [f"k{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    ren = dict(zip(names, fresh))
    out = []
    for w in words:
        r = rng.randrange(len(w)) if w else 0
        out.append([(ren[c], kind) for c, kind in w[r:] + w[:r]])
    return Diagram({ren[c]: s for c, s in signs.items()}, out)


# -- workloads ------------------------------------------------------------------


def build_decide(seed: int) -> Corpus:
    """Per ladder step, ``invariants --json A``, ``normalize A`` and
    ``equiv A B`` with B an equivalent or a non-equivalent partner.

    Sizes climb from 50 to 800 chords in equal ratios; steps up to 200
    chords carry three items each, so the median item sits among many of
    similar cost.  The cells take turns along the ladder, so every cell
    spans the whole range and item times form a continuum, not clusters.
    """
    rng = random.Random(seed)
    files: dict[str, str] = {}
    items: list[Item] = []
    lo, hi = DECIDE_CHORDS
    k = 0
    for i in range(DECIDE_STEPS):
        n = round(lo * (hi / lo) ** (i / (DECIDE_STEPS - 1)))
        for _ in range(3 if n <= DECIDE_DENSE_UP_TO else 1):
            kind, lam_sign = DECIDE_CELLS[k // 2 % len(DECIDE_CELLS)]
            same = k % 2 == 0
            key = f"{kind}-{n}-{'eq' if same else 'ne'}-{k}"
            k += 1
            A = (random_knot(rng, n) if kind == "knot"
                 else random_link(rng, n, lam_sign))
            base = A if same else flipped(rng, A)
            B = dressed(rng, base, max(1, n // 40), max(1, n // 40))
            if equivalent(A, B) != same:
                raise RuntimeError(f"{key}: partner built wrong")
            a, b = f"{key}.A.gd", f"{key}.B.gd"
            files[a], files[b] = dump(A), dump(B)
            items.append(Item(key, [["invariants", "--json", a],
                                    ["normalize", a], ["equiv", a, b]],
                              (a, b), {"equivalent": same, "chords": n}))
    rng.shuffle(items)
    return Corpus("decide", files, items)


def build_oracle(seed: int) -> Corpus:
    """``witness A B`` over every pair (A before or equal to B) of the pool."""
    rng = random.Random(seed)
    files: dict[str, str] = {}
    items: list[Item] = []
    for tag, pool in (("k", ORACLE_KNOTS), ("l", ORACLE_LINKS)):
        names = [f"{tag}{i}.gd" for i in range(len(pool))]
        files.update(zip(names, pool))
        for i in range(len(pool)):
            for j in range(i, len(pool)):
                a, b = names[i], names[j]
                same = equivalent(parse(pool[i]), parse(pool[j]))
                items.append(Item(f"{tag}{i}-{tag}{j}",
                                  [["witness", a, b, *WITNESS_ARGS]], (a, b),
                                  {"equivalent": same}))
    rng.shuffle(items)
    return Corpus("oracle", files, items)


def build_fuzz(seed: int) -> Corpus:
    """``fuzz`` walks on small random knots and links, several walk seeds
    per diagram (the files are few, so set-up is not dominated by file
    writes)."""
    rng = random.Random(seed)
    files: dict[str, str] = {}
    items: list[Item] = []
    for i in range(FUZZ_FILES):
        name = f"f{i:03d}.gd"
        files[name] = dump(random_diagram(rng, 1 + i % 2, FUZZ_MAX_CHORDS))
        for _ in range(FUZZ_WALKS):
            walk = rng.randrange(10**9)
            items.append(Item(f"{name[:-3]}-{walk}",
                              [["fuzz", name, "--seed", str(walk), *FUZZ_ARGS]],
                              (name,), {"walk_seed": walk}))
    rng.shuffle(items)
    return Corpus("fuzz", files, items)


WORKLOADS = {"decide": build_decide, "oracle": build_oracle, "fuzz": build_fuzz}
