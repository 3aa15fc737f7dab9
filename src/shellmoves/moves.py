"""Local moves on Gauss diagrams.

Eight rewrite kinds: insertion/deletion of an isolated chord (R1), of a
cancelling adjacent pair (R2, in the parallel and nested variants), the
triple-pair exchange (R3), sliding a shell across its base chord (S1), and
swapping two adjacent endpoints at the price of one shell on each chord (S2).

A move site pins the rewrite to concrete positions in the current words, so
sites can be serialized, replayed, and invalidated (StaleSite) once the
diagram changes underneath them.  Each kind's fault test states its pattern
once, and the deletion and exchange finders (R2_delete, R3, S1, S2_delete)
list a candidate exactly when it passes, so such a site applies exactly when
its finder lists it.  The one site applied but not listed is R1_delete at
the second endpoint of a circle holding one chord alone, whose finder lists
the first.  :func:`apply_move` checks a site's shape, every anchor's range
before any parameter, then the fault test.  :func:`random_walk` and
:func:`~shellmoves.equiv.bfs_witness` pass the sites they just listed or
drew to :func:`apply_listed`, which neither checks nor builds an inverse
site: a listed site passed its fault test on that very diagram, and a drawn
insertion's gaps and parameters are valid by construction.

The finders list R1 insertions only in order ``IT`` (initial, then
terminal), while the fault test also accepts ``TI``.  R3 uses one sign
pattern: ``hp`` and ``hq`` negative, ``x`` positive.  One R3 type suffices
with R1 and R2 (Polyak, "Minimal generating sets of Reidemeister moves",
Quantum Topology 1, 2010).  A site needs at least so many chords, positive
and negative chords (``least_counts``): R1_delete 1/0/0, R2_delete 2/1/1, R3
3/1/2 (its sign pattern), S1 2/0/0, S2_insert 2/0/0 and S2_delete 4/1/1 (two
shells of cancelling signs around two chords); the R1 and R2 insertions none.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from .diagram import (INITIAL, TERMINAL, Endpoint, GaussDiagram,
                      is_shell_layer, require_diagrams, shell_layers)
from .errors import StaleSite

__all__ = [
    "MOVE_KINDS",
    "MoveSite",
    "find_move_sites",
    "count_move_sites",
    "chord_change",
    "least_counts",
    "fits",
    "apply_move",
    "apply_move_with_inverse",
    "apply_listed",
    "random_walk",
    "site_to_text",
    "site_from_text",
]

R1_INSERT = "R1_insert"
R1_DELETE = "R1_delete"
R2_INSERT = "R2_insert"
R2_DELETE = "R2_delete"
R3 = "R3"
S1 = "S1"
S2_INSERT = "S2_insert"
S2_DELETE = "S2_delete"


class MoveSite(NamedTuple):
    """A concrete occurrence of a move pattern.

    ``anchors`` are (circle, position) pairs into the current words: gap
    positions for insertions, first-token positions of the matched adjacent
    pairs or windows otherwise.  ``params`` carries the kind-specific extras
    (sign, insertion order, R2 variant).  A site equals the plain tuple of
    its three fields.
    """

    kind: str
    anchors: tuple[tuple[int, int], ...]
    params: tuple[str, ...] = ()


def _without(G: GaussDiagram, *chords: str) -> GaussDiagram:
    """``G`` with the named chords erased: their signs and endpoints."""
    return G._edited({c: [ep for ep in w if ep[0] not in chords]
                      for c, w in enumerate(G.circles)}, drop=chords)


def _pair(G: GaussDiagram, c: int, p: int) -> tuple[Endpoint, Endpoint]:
    word = G.circles[c]
    return word[p], word[(p + 1) % len(word)]


# -- apply -------------------------------------------------------------------


def apply_move(G: GaussDiagram, site: MoveSite) -> GaussDiagram:
    """Rewrite ``G`` at ``site``; raises StaleSite if the pattern is gone."""
    return apply_move_with_inverse(G, site)[0]


def apply_move_with_inverse(G: GaussDiagram, site: MoveSite
                            ) -> tuple[GaussDiagram, MoveSite]:
    """Apply a move and return the site that undoes it in the image.  A
    site of the wrong shape (a kind not a known str, anchors not a tuple of
    pairs of exact ints, or not three fields at all) is stale, as one out of
    range is."""
    try:
        kind, anchors, params = site
    except (TypeError, ValueError):
        raise StaleSite(f"a site has three fields, not {site!r}") from None
    try:
        k = _kind(kind)
    except ValueError as e:
        raise StaleSite(str(e)) from None
    if (type(anchors) is not tuple or len(anchors) != k.n_anchors
            or type(params) is not tuple or len(params) not in k.n_params):
        raise StaleSite(f"{kind} takes {k.n_anchors} anchor(s) and "
                        f"{'/'.join(map(str, k.n_params))} parameter(s)")
    for anchor in anchors:
        if (type(anchor) is not tuple or len(anchor) != 2
                or type(anchor[0]) is not int or type(anchor[1]) is not int):
            raise StaleSite(f"bad anchor {anchor!r}")
        c, p = anchor
        if not 0 <= c < G.mu:
            raise StaleSite(f"no circle {c + 1}")
        n = len(G.circles[c])
        if k.gaps:
            if not 0 <= p <= n:
                raise StaleSite("bad gap")
        elif not 0 <= p < n:
            raise StaleSite(f"no position {p} on circle {c + 1}")
    fault = k.fault(G, anchors, params)
    if fault is not None:
        raise StaleSite(fault)
    return k.rewrite(G, anchors, params, True)


def apply_listed(G: GaussDiagram, site: MoveSite) -> GaussDiagram:
    """The image of a site just listed or drawn on ``G``: no check, no inverse."""
    return _KINDS[site.kind].rewrite(G, site.anchors, site.params, False)


# -- per kind: the fault test (an in-range site's StaleSite message, or None),
# then the rewrite (the image, with the inverse site if ``inverse``) -----------


def _fault_r1_insert(G, anchors, params):
    sgn, order = params
    if sgn not in ("+", "-"):
        return f"bad sign parameter {sgn!r}"
    if order not in ("IT", "TI"):
        return f"bad insertion order {order!r}"


def _rewrite_r1_insert(G, anchors, params, inverse):
    (c, g), = anchors
    sgn, order = params
    word = G.circles[c]
    cid, = G._fresh_ids("n", 1)
    pair = ((cid, INITIAL), (cid, TERMINAL))
    if order == "TI":
        pair = pair[::-1]
    H = G._edited({c: word[:g] + pair + word[g:]},
                  {cid: 1 if sgn == "+" else -1})
    return (H, MoveSite(R1_DELETE, ((c, g),))) if inverse else H


def _fault_r1_delete(G, anchors, params):
    u, v = _pair(G, *anchors[0])
    # on a one-endpoint circle u and v are the same endpoint
    return None if u[0] == v[0] and u != v else "tokens are not a free chord"


def _rewrite_r1_delete(G, anchors, params, inverse):
    (c, p), = anchors
    chord, kind = G.circles[c][p]
    H = _without(G, chord)
    if not inverse:
        return H
    # the chord's endpoints close up into the gap where the earlier one stood
    gap = min(p, (p + 1) % len(G.circles[c]))
    order = "IT" if kind == INITIAL else "TI"
    return H, MoveSite(R1_INSERT, ((c, gap),),
                       ("+" if G.signs[chord] > 0 else "-", order))


def _fault_r2_insert(G, anchors, params):
    variant, sgn, *extra = params
    # when both blocks target one gap, "tfirst" puts the terminal pair first
    if extra and extra != ["tfirst"]:
        return f"bad parameter {extra[0]!r}"
    if sgn not in ("+", "-"):
        return f"bad sign parameter {sgn!r}"
    if variant not in ("par", "anti"):
        return f"bad variant {variant!r}"
    if extra and anchors[0] != anchors[1]:
        return "tfirst needs a shared gap"


def _rewrite_r2_insert(G, anchors, params, inverse):
    (c1, g1), (c2, g2) = anchors
    variant, sgn = params[:2]
    t_first = len(params) == 3
    eps = 1 if sgn == "+" else -1
    x, y = G._fresh_ids("n", 2)
    head = ((x, INITIAL), (y, INITIAL))
    tail = ((x, TERMINAL), (y, TERMINAL))
    if variant == "anti":
        tail = tail[::-1]
    # (p1, p2): where the head and tail blocks start in the image
    if c1 == c2 and (g2 < g1 or t_first):
        p1, p2 = g1 + 2, g2
    else:
        p1, p2 = g1, g2 + 2 * (c1 == c2)
    word = G.circles[c1]
    words = {c1: word[:g1] + head + word[g1:]}
    word = words[c1] if c1 == c2 else G.circles[c2]
    words[c2] = word[:p2] + tail + word[p2:]
    H = G._edited(words, {x: eps, y: -eps})
    return (H, MoveSite(R2_DELETE, ((c1, p1), (c2, p2)), (variant,))
            ) if inverse else H


def _fault_r2_delete(G, anchors, params):
    """Initials of opposite-signed chords x, y at the first anchor, their
    terminals at the second in the same (par) or swapped (anti) order."""
    (c1, p1), (c2, p2) = anchors
    variant, = params
    (x, a), (y, b) = _pair(G, c1, p1)
    if a != INITIAL or b != INITIAL:
        return "first pair must be initials"
    if x == y:
        return "pair needs two chords"
    if G.signs[x] != -G.signs[y]:
        return "chords must have opposite signs"
    if variant == "par":
        ends = (x, TERMINAL), (y, TERMINAL)
    elif variant == "anti":
        ends = (y, TERMINAL), (x, TERMINAL)
    else:
        return f"bad variant {variant!r}"
    return None if _pair(G, c2, p2) == ends else "terminal pair mismatch"


def _rewrite_r2_delete(G, anchors, params, inverse):
    (c1, p1), (c2, p2) = anchors
    (x, _), (y, _) = _pair(G, c1, p1)
    H = _without(G, x, y)
    if not inverse:
        return H
    n1, n2 = len(G.circles[c1]), len(G.circles[c2])
    # four distinct endpoints, so four distinct positions
    pos = {(c1, p1), (c1, (p1 + 1) % n1), (c2, p2), (c2, (p2 + 1) % n2)}

    def _gap(c, p):
        second = (p + 1) % len(G.circles[c])
        removed_before = sum(1 for cc, pp in pos if cc == c and pp < second)
        return second - removed_before

    g1, g2 = _gap(c1, p1), _gap(c2, p2)
    inv = (*params, "+" if G.signs[x] > 0 else "-")
    if c1 == c2 and g1 == g2 and (p2 + 2) % n1 == p1:
        inv += ("tfirst",)
    return H, MoveSite(R2_INSERT, ((c1, g1), (c2, g2)), inv)


def _fault_r3(G, anchors, params):
    """The pairs at the anchors read (hp>, hq>), (hp<, x<), (hq<, x>), or
    each pair reversed (the image), with hp and hq negative, x positive."""
    pairs = [_pair(G, c, p) for c, p in anchors]
    if pairs[1][0][0] != pairs[0][0][0]:  # no II pair at hp<: the image?
        pairs = [pair[::-1] for pair in pairs]
    ((hp, a), (hq, b)), ((h, k), (x, k2)), third = pairs
    signs = G.signs
    if (a == b == TERMINAL and k == k2 == INITIAL and h == hp != hq
            and third == ((hq, INITIAL), (x, TERMINAL)) and x not in (hp, hq)
            and signs[hp] == signs[hq] == -1 and signs[x] == 1):
        return None
    return "no triple-exchange pattern at the given pairs"


def _rewrite_r3(G, anchors, params, inverse):
    # the fault test's six endpoints sit at six positions
    words = {}
    for c, p in anchors:
        w = words.setdefault(c, list(G.circles[c]))
        q = (p + 1) % len(w)
        w[p], w[q] = w[q], w[p]
    H = G._edited(words)
    return (H, MoveSite(R3, anchors)) if inverse else H


def _fault_s1(G, anchors, params):
    (c, p), = anchors
    word = G.circles[c]
    if not is_shell_layer(G, word[p - 1], word[p], word[(p + 1) % len(word)]):
        return "no shell flanking this endpoint"


def _rewrite_s1(G, anchors, params, inverse):
    (c, p), = anchors
    word = G.circles[c]
    shell, e = word[p - 1][0], word[p]
    # the shell's endpoints flank e, so only circle c loses them
    words = {c: [ep for ep in word if ep[0] != shell]}
    chord, kind = e
    target = (chord, TERMINAL if kind == INITIAL else INITIAL)
    c2 = G.locate(*target)[0]
    w = words.setdefault(c2, list(G.circles[c2]))
    p2 = w.index(target)
    w[p2:p2 + 1] = shell_layers(target, G.endpoint_sign(target), [shell])
    H = G._edited(words)
    return (H, MoveSite(S1, ((c2, p2 + 1),))) if inverse else H


def _fault_s2_insert(G, anchors, params):
    e, f = _pair(G, *anchors[0])
    if e[0] == f[0]:
        return "adjacent endpoints must belong to two chords"


def _rewrite_s2_insert(G, anchors, params, inverse):
    (c, p), = anchors
    e, f = _pair(G, c, p)
    word = G.circles[c]
    n = len(word)
    se, sf = G.endpoint_sign(e), G.endpoint_sign(f)
    u, v = G._fresh_ids("n", 2)  # u shields f, v shields e
    block = tuple(shell_layers(f, sf, [u]) + shell_layers(e, se, [v]))
    if p + 1 < n:
        new, anchor = word[:p] + block + word[p + 2:], p
    else:  # pair wraps around the basepoint; the block starts the word
        new, anchor = block + word[1:p], 0
    H = G._edited({c: new}, {v: se * sf, u: -se * sf})
    return (H, MoveSite(S2_DELETE, ((c, anchor),))) if inverse else H


def _fault_s2_delete(G, anchors, params):
    """The six-endpoint window at the anchor reads u f u v e v: shells u
    around f and v around e, oriented by the signs they surround, with
    cancelling signs."""
    (c, p), = anchors
    word = G.circles[c]
    n = len(word)
    if n < 6:
        return "word too short"
    u, f, u2, v, e, v2 = [word[(p + i) % n] for i in range(6)]
    if u[0] != u2[0] or v[0] != v2[0]:
        return "not two shells"
    if not (is_shell_layer(G, u, f, u2) and is_shell_layer(G, v, e, v2)):
        return "shells mis-oriented"
    if len({u[0], v[0], e[0], f[0]}) != 4:
        return "chords must differ"
    se, sf = G.endpoint_sign(e), G.endpoint_sign(f)
    if G.signs[v[0]] != se * sf or G.signs[u[0]] != -se * sf:
        return "shell signs do not cancel"


def _rewrite_s2_delete(G, anchors, params, inverse):
    (c, p), = anchors
    word = G.circles[c]
    rot = word[p:] + word[:p]
    u, f, _, v, e, _ = rot[:6]
    H = G._edited({c: (e, f) + rot[6:]}, drop=(u[0], v[0]))
    return (H, MoveSite(S2_INSERT, ((c, 0),))) if inverse else H


# -- site enumeration ----------------------------------------------------------


def _gaps(G: GaussDiagram) -> list[tuple[int, int]]:
    return [(c, g) for c, w in enumerate(G.circles) for g in range(len(w) or 1)]


def _gap_count(G: GaussDiagram) -> int:
    return sum(len(w) or 1 for w in G.circles)


def _gap_at(G: GaussDiagram, i: int) -> tuple[int, int]:
    """The ``i``-th gap that ``_gaps`` lists."""
    for c, word in enumerate(G.circles):
        if i < (len(word) or 1):
            return c, i
        i -= len(word) or 1


def _sites_r1_insert(G):
    return [MoveSite(R1_INSERT, ((c, g),), (s, "IT"))
            for c, g in _gaps(G) for s in ("+", "-")]


def _sites_r1_delete(G):
    # a chord alone on its circle is adjacent at 0 and 1; keep the first.
    # The zip also pairs a one-endpoint circle's endpoint with itself: u == v
    free: dict[str, tuple[int, int]] = {}
    for c, word in enumerate(G.circles):
        for p, u, v in zip(range(len(word)), word, word[1:] + word[:1]):
            if u[0] == v[0] and u != v:
                free.setdefault(u[0], (c, p))
    return [MoveSite(R1_DELETE, (free[cid],)) for cid in G.signs if cid in free]


# R2_insert's parameters on two gaps, and on one gap with each tfirst twin
_R2_PARAMS = tuple((v, s) for v in ("par", "anti") for s in ("+", "-"))
_R2_ONE_GAP = tuple(p for v, s in _R2_PARAMS for p in ((v, s), (v, s, "tfirst")))


def _sites_r2_insert(G):
    gaps = _gaps(G)
    return [MoveSite(R2_INSERT, (a, b), params) for a in gaps for b in gaps
            for params in (_R2_ONE_GAP if a == b else _R2_PARAMS)]


def _sites_r2_delete(G):
    # an II pair's candidates are the TT pairs of its chords in either order
    tt, ii = {}, []
    for c, word in enumerate(G.circles):
        for p, (x, a), (y, b) in zip(range(len(word)), word, word[1:] + word[:1]):
            if a == b:
                if a == TERMINAL:
                    tt[x, y] = (c, p)
                else:
                    ii.append((c, p, x, y))
    out = []
    for c, p, x, y in ii:
        for params, key in ((("par",), (x, y)), (("anti",), (y, x))):
            spot = tt.get(key)
            if spot is not None:
                anchors = ((c, p), spot)
                if _fault_r2_delete(G, anchors, params) is None:
                    out.append(MoveSite(R2_DELETE, anchors, params))
    return out


def _sites_r3(G):
    # each TT pair (u>, v>) of two negative chords is a candidate twice: as
    # (hp>, hq>), whose partners start at hp< and hq<, then as (hq>, hp>),
    # whose II partner ends at hp< and whose TI partner starts at x>
    signs = G.signs
    tt = [(c, p, u, v) for c, word in enumerate(G.circles)
          for p, (u, a), (v, b) in zip(range(len(word)), word, word[1:] + word[:1])
          if a == b == TERMINAL and signs[u] == signs[v] == -1]
    if not tt:
        return []
    at = {ep: (c, p) for c, word in enumerate(G.circles)
          for p, ep in enumerate(word)}
    out = []
    for image in (False, True):
        for c, p, u, v in tt:
            c2, p2 = at[(v if image else u), INITIAL]  # hp<
            word = G.circles[c2]
            if image:  # the II partner (x<, hp<)
                p2 = (p2 - 1) % len(word)
                x, k = word[p2]
            else:  # the II partner (hp<, x<)
                x, k = word[(p2 + 1) % len(word)]
            # most candidates already fail on x: an initial of a + chord
            if k != INITIAL or signs[x] != 1:
                continue
            anchors = ((c, p), (c2, p2), at[x, TERMINAL] if image else
                       at[v, INITIAL])
            if _fault_r3(G, anchors, ()) is None:
                out.append(MoveSite(R3, anchors))
    return out


def _sites_s1(G):
    out = []
    for c, word in enumerate(G.circles):
        triples = zip(word[-1:] + word[:-1], word, word[1:] + word[:1])
        for p, (u, e, v) in enumerate(triples):
            # most positions already fail on the chords; is_shell_layer is
            # S1's fault test
            if u[0] == v[0] and is_shell_layer(G, u, e, v):
                out.append(MoveSite(S1, ((c, p),)))
    return out


def _s2_insert_spots(G):
    """S2_insert's pattern: adjacent endpoints of two different chords."""
    return [(c, p) for c, word in enumerate(G.circles)
            for p, u, v in zip(range(len(word)), word, word[1:] + word[:1])
            if u[0] != v[0]]


def _sites_s2_insert(G):
    return [MoveSite(S2_INSERT, (spot,)) for spot in _s2_insert_spots(G)]


def _sites_s2_delete(G):
    out = []
    for c, word in enumerate(G.circles):
        n = len(word)
        if n < 6:
            continue
        ids = [ep[0] for ep in word + word[:5]]
        for p in range(n):
            # most positions already fail on the shell chords
            if (ids[p] == ids[p + 2] and ids[p + 3] == ids[p + 5]
                    and _fault_s2_delete(G, ((c, p),), ()) is None):
                out.append(MoveSite(S2_DELETE, ((c, p),)))
    return out


# -- the kind table ----------------------------------------------------------------


class _Kind(NamedTuple):
    fault: Callable[[GaussDiagram, tuple, tuple], str | None]
    rewrite: Callable[[GaussDiagram, tuple, tuple, bool], object]
    find: Callable[[GaussDiagram], list[MoveSite]]
    n_anchors: int
    n_params: tuple[int, ...]  # allowed parameter counts
    change: int = 0            # signed change in chord count
    positive: tuple[int, ...] = (0,)  # each change in positive chords
    gaps: bool = False         # anchors are gaps 0..len(word), not positions
    least: tuple[int, int, int] = (0, 0, 0)  # chords, + and - chords of a site


_KINDS = {
    R1_INSERT: _Kind(_fault_r1_insert, _rewrite_r1_insert, _sites_r1_insert,
                     1, (2,), 1, (0, 1), True),
    R1_DELETE: _Kind(_fault_r1_delete, _rewrite_r1_delete, _sites_r1_delete,
                     1, (0,), -1, (0, -1), least=(1, 0, 0)),
    R2_INSERT: _Kind(_fault_r2_insert, _rewrite_r2_insert, _sites_r2_insert,
                     2, (2, 3), 2, (1,), True),
    R2_DELETE: _Kind(_fault_r2_delete, _rewrite_r2_delete, _sites_r2_delete,
                     2, (1,), -2, (-1,), least=(2, 1, 1)),
    R3: _Kind(_fault_r3, _rewrite_r3, _sites_r3, 3, (0,), least=(3, 1, 2)),
    S1: _Kind(_fault_s1, _rewrite_s1, _sites_s1, 1, (0,), least=(2, 0, 0)),
    S2_INSERT: _Kind(_fault_s2_insert, _rewrite_s2_insert, _sites_s2_insert,
                     1, (0,), 2, (1,), least=(2, 0, 0)),
    S2_DELETE: _Kind(_fault_s2_delete, _rewrite_s2_delete, _sites_s2_delete,
                     1, (0,), -2, (-1,), least=(4, 1, 1)),
}

MOVE_KINDS = tuple(_KINDS)


def _kind(kind: str) -> _Kind:
    """The table row of ``kind``: the one lookup every kind reader makes."""
    k = _KINDS.get(kind) if type(kind) is str else None
    if k is None:
        raise ValueError(f"unknown move kind {kind!r}")
    return k


def chord_change(kind: str) -> tuple[int, tuple[int, ...]]:
    """How many chords a ``kind`` move adds (negative: removes), and each
    number of positive chords it can add."""
    k = _kind(kind)
    return k.change, k.positive


def least_counts(kind: str) -> tuple[int, int, int]:
    """The fewest chords, + chords and - chords any ``kind`` site needs."""
    return _kind(kind).least


def fits(G: GaussDiagram, kind: str, chord_cap: int) -> bool:
    """Whether a ``kind`` move on ``G`` stays within ``chord_cap`` chords."""
    change = _kind(kind).change
    return len(G) + (change if change > 0 else 0) <= chord_cap


def find_move_sites(G: GaussDiagram, kind: str) -> list[MoveSite]:
    """All occurrences of the given move pattern in ``G``."""
    return _kind(kind).find(G)


def count_move_sites(G: GaussDiagram, kind: str) -> int:
    """``len(find_move_sites(G, kind))``, the witness search's charge for a
    kind it holds; no insertion site is built.  With g gaps (one per
    endpoint, one for an empty circle), R1_insert has a sign per gap, 2g
    sites, and R2_insert a variant and a sign per ordered pair of gaps plus
    a ``tfirst`` twin per shared gap, 4g^2 + 4g sites; S2_insert has one
    site per spot of its pattern (``_s2_insert_spots``)."""
    if kind in (R1_INSERT, R2_INSERT):
        g = _gap_count(G)
        return 2 * g if kind == R1_INSERT else 4 * g * (g + 1)
    if kind == S2_INSERT:
        return len(_s2_insert_spots(G))
    return len(find_move_sites(G, kind))


# -- random walks ---------------------------------------------------------------


def _sample_site(G: GaussDiagram, kind: str, rng: random.Random
                 ) -> MoveSite | None:
    """A random site of the given kind, or None if it has none.

    Insertions are drawn without enumerating: R1_insert draws its gap and
    sign uniformly, which is uniform over the finder's sites; R2_insert
    draws both gaps, the variant and the sign uniformly and, when the gaps
    coincide, adds ``tfirst`` with probability 1/2.  With G gaps, an
    R2_insert site on two gaps has probability 1/(4 G^2) and each of the two
    orders on one gap 1/(8 G^2); :func:`count_move_sites` counts these
    sites from the same G.  A gap is drawn as its index in ``_gaps``,
    ``rng.choice(range(G))``, the draw ``rng.choice`` makes over the listed
    gaps (``seq[_randbelow(len(seq))]``).  S2_insert draws one of the spots
    its finder's sites are made from, in their order, as drawing a site
    would.  Other kinds are uniform over :func:`find_move_sites`."""
    if kind == R1_INSERT:
        gap = _gap_at(G, rng.choice(range(_gap_count(G))))
        return MoveSite(R1_INSERT, (gap,), (rng.choice("+-"), "IT"))
    if kind == R2_INSERT:
        gaps = range(_gap_count(G))
        a, b = _gap_at(G, rng.choice(gaps)), _gap_at(G, rng.choice(gaps))
        params = [rng.choice(["par", "anti"]), rng.choice("+-")]
        if a == b and rng.random() < 0.5:
            params.append("tfirst")
        return MoveSite(R2_INSERT, (a, b), tuple(params))
    if kind == S2_INSERT:
        spots = _s2_insert_spots(G)
        return MoveSite(S2_INSERT, (rng.choice(spots),)) if spots else None
    sites = find_move_sites(G, kind)
    return rng.choice(sites) if sites else None


def random_walk(G: GaussDiagram, steps: int, seed: int, chord_cap: int
                ) -> tuple[GaussDiagram, list[MoveSite]]:
    """Apply ``steps`` random applicable moves, deterministically in ``seed``.

    Kinds with no sites are re-rolled; insertions that would push the chord
    count past ``chord_cap`` count as having none.  ``steps``, ``seed`` and
    ``chord_cap`` must be exact ints.  Each drawn site is applied unchecked.
    """
    require_diagrams("random_walk", G)
    for name, value in (("steps", steps), ("seed", seed), ("chord_cap", chord_cap)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
    if steps < 0:
        raise ValueError(f"steps must not be negative, got {steps}")
    if chord_cap < len(G):
        raise ValueError("chord_cap below current chord count")
    rng = random.Random(seed)
    trace: list[MoveSite] = []
    for _ in range(steps):
        kinds = list(MOVE_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            if not fits(G, kind, chord_cap):
                continue
            site = _sample_site(G, kind, rng)
            if site is None:
                continue
            G = apply_listed(G, site)
            trace.append(site)
            break
        else:
            raise ValueError("no applicable move")
    return G, trace


# -- trace text -------------------------------------------------------------------


def site_to_text(site: MoveSite) -> str:
    anchors = " ".join(f"{c + 1}:{p}" for c, p in site.anchors)
    extra = (" " + " ".join(site.params)) if site.params else ""
    return f"{site.kind} @ {anchors}{extra}"


def site_from_text(line: str) -> MoveSite:
    parts = line.split()
    if len(parts) < 3 or parts[1] != "@" or parts[0] not in MOVE_KINDS:
        raise ValueError(f"bad trace line {line!r}")
    kind = parts[0]
    anchors: list[tuple[int, int]] = []
    params: list[str] = []
    for tok in parts[2:]:
        if ":" in tok and not params:
            c, _, p = tok.partition(":")
            try:
                circle, pos = int(c), int(p)
            except ValueError:
                raise ValueError(f"bad anchor {tok!r}") from None
            if circle < 1:
                raise ValueError(f"bad anchor {tok!r}: circles count from 1")
            anchors.append((circle - 1, pos))
        else:
            params.append(tok)
    return MoveSite(kind, tuple(anchors), tuple(params))
