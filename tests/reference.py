"""The tests' reference implementations, one per concept: mostly the
earlier, hand-written forms of the fast paths they check.  They import no
private name of ``shellmoves``; the witness search drives the live finders
and handlers on purpose, as the reference for what the search builds."""

import itertools
import random

from shellmoves.algebra import LaurentPoly, LinkingClass, gamma_class
from shellmoves.diagram import (INITIAL, TERMINAL, Endpoint, GaussDiagram,
                                canonical_key, surgery)
from shellmoves.equiv import Verdict
from shellmoves.errors import (BadSign, BadSupport, BudgetExceeded,
                               CircleCountMismatch, ComponentCountMismatch,
                               ConstraintViolated, GaussCodeError,
                               InconsistentProfile, NegativeLambda, StaleSite,
                               UnknownChordId, UnsupportedComponentCount)
from shellmoves.invariants import LinkProfile, profile
from shellmoves.moves import (R1_DELETE, R1_INSERT, R2_DELETE, R2_INSERT, R3,
                              S1, S2_DELETE, S2_INSERT, MoveSite, apply_move,
                              find_move_sites, fits)
from shellmoves.normal_form import LinkForm

# -- reader -------------------------------------------------------------------


def ref_parse_gauss_code(text: str) -> GaussDiagram:
    """The reader as it was: each token split into chord id and kind."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise GaussCodeError("empty Gauss code")
    head = lines[0].replace(":", " : ").split()
    if len(head) != 3 or head[0] != "circles" or head[1] != ":":
        raise GaussCodeError(f"first line must be 'circles: <n>', got {lines[0]!r}")
    try:
        mu = int(head[2])
    except ValueError:
        raise CircleCountMismatch(f"bad circle count {head[2]!r}") from None
    if mu < 1:
        raise CircleCountMismatch("circle count must be positive")

    signs: dict[str, int] = {}
    words: list[list[Endpoint]] = []
    for line in lines[1:]:
        keyword = line.split(None, 1)[0]
        if keyword == "chord":
            if words:
                raise GaussCodeError("chord declarations must precede circles")
            parts = line.split()
            if len(parts) != 3:
                raise GaussCodeError(f"bad chord declaration {line!r}")
            _, cid, sgn = parts
            if any(ch in cid for ch in "<>#:"):
                raise GaussCodeError(f"bad chord id {cid!r}")
            if sgn == "+":
                s = 1
            elif sgn == "-":
                s = -1
            else:
                raise BadSign(f"chord {cid!r}: sign must be + or -, got {sgn!r}")
            if cid in signs:
                raise GaussCodeError(f"chord {cid!r} declared twice")
            signs[cid] = s
        elif keyword == "circle":
            headpart, _, body = line.partition(":")
            parts = headpart.split()
            if len(parts) != 2:
                raise GaussCodeError(f"bad circle line {line!r}")
            try:
                idx = int(parts[1])
            except ValueError:
                raise GaussCodeError(f"bad circle index {parts[1]!r}") from None
            if idx != len(words) + 1:
                raise CircleCountMismatch(
                    f"expected circle {len(words) + 1}, got {idx}")
            word: list[Endpoint] = []
            for tok in body.split():
                kind = tok[-1]
                if kind not in (INITIAL, TERMINAL) or len(tok) < 2:
                    raise GaussCodeError(f"bad endpoint token {tok!r}")
                cid = tok[:-1]
                if cid not in signs:
                    raise UnknownChordId(f"token {tok!r} references undeclared chord")
                word.append((cid, kind))
            words.append(word)
        else:
            raise GaussCodeError(f"unrecognized line {line!r}")
    if len(words) != mu:
        raise CircleCountMismatch(
            f"declared {mu} circles but found {len(words)} circle lines")
    return GaussDiagram(signs, [tuple(w) for w in words])


# -- index walk: the definition, step by step, and the one-pass reading -------


def ref_endpoint_index(G: GaussDiagram) -> dict[str, dict[str, tuple[int, int]]]:
    """chord -> kind -> (circle, position), from one walk over the words."""
    where: dict[str, dict[str, tuple[int, int]]] = {}
    for ci, word in enumerate(G.circles):
        for pos, (chord, kind) in enumerate(word):
            where.setdefault(chord, {})[kind] = (ci, pos)
    return where


def ref_walk_arc_sum(G: GaussDiagram, where, chord: str) -> int:
    """Endpoint-sign sum strictly between the chord's initial and terminal
    endpoints, one step at a time around its circle."""
    ci, pi = where[chord][INITIAL]
    ct, pt = where[chord][TERMINAL]
    assert ci == ct
    word = G.circles[ci]
    n = len(word)
    total = 0
    p = (pi + 1) % n
    while p != pt:
        total += G.endpoint_sign(word[p])
        p = (p + 1) % n
    return total


def ref_arc_sums(word, signs) -> dict[str, int]:
    """Arc sum of every self-chord of ``word``: prefix sums, with the
    circle total added for an arc that wraps past the basepoint."""
    out: dict[str, int] = {}
    after_initial: dict[str, int] = {}
    at_terminal: dict[str, int] = {}
    run = 0
    for chord, kind in word:
        if kind == TERMINAL:
            if chord in after_initial:
                out[chord] = run - after_initial.pop(chord)
            else:
                at_terminal[chord] = run
            run += signs[chord]
        else:
            run -= signs[chord]
            after_initial[chord] = run
    for chord, start in after_initial.items():
        if chord in at_terminal:
            out[chord] = run - start + at_terminal[chord]
    return out


def ref_table(pairs) -> dict[int, int]:
    """Index -> signed count of the (index, sign) pairs, zeros dropped."""
    table: dict[int, int] = {}
    for n, sign in pairs:
        table[n] = table.get(n, 0) + sign
    return {n: v for n, v in table.items() if v}


# -- profile ------------------------------------------------------------------


def ref_weighted(*tables) -> int:
    """The index-weighted total of the tables: each coefficient times its
    slot, summed."""
    return sum(n * v for table in tables for n, v in table.items())


def ref_self_writhe_tables(G: GaussDiagram):
    return tuple(ref_table((n, G.signs[cid])
                           for cid, n in ref_arc_sums(word, G.signs).items())
                 for word in G.circles)


def ref_nonself_endpoints(G: GaussDiagram):
    on_circle2 = {chord for chord, _ in G.circles[1]}
    return [ep for ep in G.circles[0] if ep[0] in on_circle2]


def ref_linking_data(G: GaussDiagram) -> tuple[int, int, int]:
    """(Lk(K1,K2), Lk(K2,K1), lambda), each chord classified by the circles
    of its two endpoints."""
    where = ref_endpoint_index(G)
    lk = {(0, 1): 0, (1, 0): 0}
    for cid, sign in G.signs.items():
        circles = (where[cid][INITIAL][0], where[cid][TERMINAL][0])
        if circles in lk:
            lk[circles] += sign
    return lk[0, 1], lk[1, 0], lk[0, 1] - lk[1, 0]


def ref_nonself_writhe_tables(G: GaussDiagram, gamma0: str):
    """The book's (1,2) and (2,1) tables, indexed on the circle merged
    along ``gamma0``."""
    merged = surgery(G, gamma0)
    index = ref_arc_sums(merged.circles[0], merged.signs)
    index[gamma0] = 0
    nonself = ref_nonself_endpoints(G)
    return tuple(ref_table((index[chord], G.signs[chord])
                           for chord, kind in nonself if kind == want)
                 for want in (INITIAL, TERMINAL))


def ref_linking_class(G: GaussDiagram):
    nonself = ref_nonself_endpoints(G)
    if not nonself:
        return gamma_class(0, LaurentPoly(), LaurentPoly())
    t12, t21 = ref_nonself_writhe_tables(G, nonself[0][0])
    lam = sum(t12.values()) - sum(t21.values())
    return gamma_class(abs(lam), LaurentPoly(t12), LaurentPoly(t21))


def ref_slot_tables(lam, t1, t2):
    """(jn1, jn2, shell sum) from the self tables, written out per regime:
    the free slots {0, -lam} and {0, lam} dropped, and the shell sum over
    slot 1 (lam = 0) or slots 1, 1 - lam and 1, 1 + lam, None for |lam| = 1."""
    jn1 = {n: v for n, v in t1.items() if n not in (0, -lam)}
    jn2 = {n: v for n, v in t2.items() if n not in (0, lam)}
    if abs(lam) == 1:
        ss = None
    elif lam == 0:
        ss = t1.get(1, 0) + t2.get(1, 0)
    else:
        ss = (t1.get(1, 0) + t1.get(-lam + 1, 0)
              + t2.get(1, 0) + t2.get(lam + 1, 0))
    return jn1, jn2, ss


def ref_link_profile(G: GaussDiagram) -> LinkProfile:
    lk12, lk21, lam = ref_linking_data(G)
    jn1, jn2, ss = ref_slot_tables(lam, *ref_self_writhe_tables(G))
    cls = ref_linking_class(G)
    f_prime = None if abs(lam) == 1 else cls.derivative_sum()
    return LinkProfile(lk12, lk21, lam, jn1, jn2, ss, cls, f_prime)


def ref_invariant_jn(pr):
    banned1 = {0, 1, -pr.lam, -pr.lam + 1}
    banned2 = {0, 1, pr.lam, pr.lam + 1}
    return ({n: v for n, v in pr.jn1.items() if n not in banned1},
            {n: v for n, v in pr.jn2.items() if n not in banned2})


def ref_canonical_link_form(pr):
    lam = pr.lam
    if lam < 0:
        raise NegativeLambda(
            "canonical forms are defined for lam >= 0; swap components first")
    a, b = ref_invariant_jn(pr)
    cls = pr.linking_class
    if lam == 0:
        return LinkForm(0, a, b, cls.f.coeffs(), cls.g.coeffs(), 0)
    if lam == 1:
        return LinkForm(1, a, b, {0: pr.lk12}, {0: pr.lk21}, 0)
    cvec = cls.f.vector(lam)
    dvec = tuple(cls.g.vector(lam)[(-m) % lam] for m in range(lam))
    base = (-ref_weighted(a, b) - sum(m * cvec[m] for m in range(lam))
            + sum(m * dvec[m] for m in range(lam)))
    if (base - pr.shell_sum) % lam != 0:
        raise InconsistentProfile(
            "shell sum is incompatible with the linking class")
    p = (base - pr.shell_sum) // lam
    c = {p + m: cvec[m] for m in range(lam)}
    d = {-p - m: dvec[m] for m in range(lam)}
    return LinkForm(lam, a, b, c, d, p)


def ref_check_consistency(pr):
    lam = abs(pr.lam)
    if lam == 1:
        raise ValueError("consistency relation is undefined for |lambda| = 1")
    total = ref_weighted(pr.jn1, pr.jn2) + pr.f_prime
    return total == 0 if lam == 0 else total % lam == 0


def ref_s_equivalent(G: GaussDiagram, H: GaussDiagram) -> Verdict:
    """Field-by-field decision: lambda, then the linking numbers, the two
    invariant-slot tables (lowest differing slot first), the linking class,
    and the shell sum for |lambda| >= 2."""
    if G.mu != H.mu:
        raise ComponentCountMismatch(f"{G.mu} vs {H.mu} circles")
    if G.mu == 1:
        wg, wh = profile(G).writhe, profile(H).writhe
        if wg != wh:
            return Verdict(False, f"writhe polynomial mismatch: {wg} vs {wh}")
        return Verdict(True, "all conditions met")
    if G.mu != 2:
        raise UnsupportedComponentCount(
            f"equivalence is decided for 1 or 2 circles, not {G.mu}")
    lam, lam_h = ref_linking_data(G)[2], ref_linking_data(H)[2]
    if lam != lam_h:
        return Verdict(
            False, f"virtual linking number mismatch: {lam} vs {lam_h}")
    pg, ph = profile(G), profile(H)
    if (pg.lk12, pg.lk21) != (ph.lk12, ph.lk21):
        return Verdict(
            False, "linking number mismatch: "
            f"({pg.lk12}, {pg.lk21}) vs ({ph.lk12}, {ph.lk21})")
    for which, a, b in (("1", pg.invariant_jn1(), ph.invariant_jn1()),
                        ("2", pg.invariant_jn2(), ph.invariant_jn2())):
        for n in sorted(set(a) | set(b)):
            if a.get(n, 0) != b.get(n, 0):
                return Verdict(
                    False, f"component-{which} index writhe mismatch at n={n}:"
                    f" {a.get(n, 0)} vs {b.get(n, 0)}")
    if pg.linking_class != ph.linking_class:
        return Verdict(False, "linking class mismatch: "
                       f"{pg.linking_class} vs {ph.linking_class}")
    if abs(pg.lam) >= 2 and pg.shell_sum != ph.shell_sum:
        return Verdict(False, "shell sum mismatch: "
                       f"{pg.shell_sum} vs {ph.shell_sum}")
    return Verdict(True, "all conditions met")


# -- isomorphism and gamma class ----------------------------------------------


def ref_key(G: GaussDiagram):
    """Circles in order, each rotated so the tuple of (first-occurrence
    chord index, kind, sign) tokens is lexicographically least, with the
    renaming shared across circles; every tied renaming is carried forward.
    Its values differ from ``canonical_key``'s; the diagrams it calls equal
    must not."""
    contexts = [({}, 0, ())]
    for word in G.circles:
        n = len(word)
        if n == 0:
            contexts = [(ren, nxt, acc + ((),)) for ren, nxt, acc in contexts]
            continue
        best_acc = None
        survivors = {}
        for ren, nxt, acc in contexts:
            for r in range(n):
                ren2 = dict(ren)
                cnt = nxt
                toks = []
                for k in range(n):
                    ep = word[(r + k) % n]
                    idx = ren2.get(ep[0])
                    if idx is None:
                        idx = ren2[ep[0]] = cnt
                        cnt += 1
                    toks.append((idx, ep[1], G.signs[ep[0]]))
                key = acc + (tuple(toks),)
                if best_acc is None or key < best_acc:
                    best_acc = key
                    survivors = {}
                if key == best_acc:
                    survivors.setdefault(tuple(sorted(ren2.items())),
                                         (ren2, cnt, key))
        contexts = list(survivors.values())
    return contexts[0][2]


def ref_isomorphic(G, H):
    """Every sign-compatible chord bijection and every rotation of each
    circle, tried one by one."""
    if G.mu != H.mu or len(G) != len(H):
        return False
    gids, hids = sorted(G.signs), sorted(H.signs)
    for perm in itertools.permutations(hids):
        m = dict(zip(gids, perm))
        if any(G.signs[a] != H.signs[m[a]] for a in gids):
            continue
        for ci in range(G.mu):
            gw = tuple((m[e[0]], e[1]) for e in G.circles[ci])
            hw = list(H.circles[ci])
            rots = [tuple(hw[r:] + hw[:r]) for r in range(max(len(hw), 1))]
            if gw not in rots:
                break
        else:
            return True
    return False


def ref_gamma_class(s, f, g):
    """Every one of the s twists for s >= 1, each read as its concatenated
    vectors: the least is the canonical pair."""
    fv, gv = f.vector(s), g.vector(s)
    best = min(tuple(fv[(i - k) % s] for i in range(s))
               + tuple(gv[(i + k) % s] for i in range(s)) for k in range(s))
    return LinkingClass(s, LaurentPoly.from_vector(best[:s]),
                        LaurentPoly.from_vector(best[s:]))


def ref_related_by_twist(s, f1, g1, f2, g2):
    """Whether (f2, g2) = (t^k f1 + (t^s-1)p, t^-k g1 + (t^s-1)q): for s = 0
    the one shift that lines up the lowest terms, else the all-twists
    class of each pair."""
    if s:
        return ref_gamma_class(s, f1, g1) == ref_gamma_class(s, f2, g2)
    if bool(f1) != bool(f2) or bool(g1) != bool(g2):
        return False
    if f1:
        k = f2.min_exp() - f1.min_exp()
    elif g1:
        k = g1.min_exp() - g2.min_exp()
    else:
        return True
    return f1.shift(k) == f2 and g1.shift(-k) == g2


# -- shells -------------------------------------------------------------------


def ref_shelled(around, shells, sign):
    """The endpoint ``around``, of endpoint sign ``sign``, inside
    ``shells``, the first innermost: each shell reads initial, ``around``,
    terminal when ``sign`` is positive, and terminal, ``around``, initial
    when it is negative.  The one statement of the orientation rule here."""
    near, far = (INITIAL, TERMINAL) if sign > 0 else (TERMINAL, INITIAL)
    seg = [around]
    for s in shells:
        seg = [(s, near)] + seg + [(s, far)]
    return seg


def ref_nest_around(G, circle, p):
    word = G.circles[circle]
    n = len(word)
    e = word[p]
    want_initial_first = G.endpoint_sign(e) > 0
    layers = []
    k = 0
    while 2 * (k + 1) + 1 <= n:
        a, a_kind = word[(p - 1 - k) % n]
        b, b_kind = word[(p + 1 + k) % n]
        if a != b or a == e[0] or a_kind == b_kind:
            break
        if (a_kind == INITIAL) != want_initial_first:
            break
        layers.append(a)
        k += 1
    return layers


def ref_detect_shells(G):
    """The chords nested as a shell around some endpoint."""
    return {cid for ci, word in enumerate(G.circles) for p in range(len(word))
            for cid in ref_nest_around(G, ci, p)}


# -- snail forms --------------------------------------------------------------


def ref_snail_words(main, shells, eps, n, nonself=False):
    """Signs, source word and target word of the snail S(n) of sign ``eps``
    on the chord ``main`` with ``shells``, the last innermost: a self snail
    reads main<, then main> inside the shells; a nonself snail reads main<
    inside the shells, and main> alone on the target circle."""
    signs = {main: eps, **dict.fromkeys(shells, -eps if n > 0 else eps)}
    if nonself:
        return (signs, ref_shelled((main, INITIAL), shells[::-1], -eps),
                [(main, TERMINAL)])
    return (signs, [(main, INITIAL),
                    *ref_shelled((main, TERMINAL), shells[::-1], eps)], [])


def ref_encode_snail(kind, eps, n):
    """The snail S(n) of sign ``eps`` as a standalone diagram through the
    checking constructor, chords named g, s1..s|n|: on one circle for
    ``kind`` "self", from circle 1 to circle 2 for "nonself"."""
    shells = [f"s{j}" for j in range(1, abs(n) + 1)]
    nonself = kind == "nonself"
    signs, src, dst = ref_snail_words("g", shells, eps, n, nonself)
    return GaussDiagram(signs, [src, dst] if nonself else [src])


def _snail_run(coeffs):
    """(index, sign) per snail copy, ascending index."""
    for n in sorted(coeffs):
        c = coeffs[n]
        for _ in range(abs(c)):
            yield n, (1 if c > 0 else -1)


def _nonzero(coeffs):
    return {n: v for n, v in coeffs.items() if v}


class RefBuilder:
    def __init__(self, mu):
        self.signs = {}
        self.words = [[] for _ in range(mu)]
        self.count = 0

    def fresh(self, n):
        """The next snail's main chord g<k> and its shells g<k>s1, ..."""
        self.count += 1
        main = f"g{self.count}"
        return main, [f"{main}s{j}" for j in range(1, abs(n) + 1)]

    def add_snail(self, src, eps, n, nonself=False):
        """Adds the snail's source word to circle ``src``; returns its
        target word."""
        signs, head, tail = ref_snail_words(*self.fresh(n), eps, n, nonself)
        self.signs.update(signs)
        self.words[src] += head
        return tail

    def diagram(self):
        return GaussDiagram(self.signs, [tuple(w) for w in self.words])


def ref_build_knot_form(a):
    a = _nonzero(a)
    if 0 in a or 1 in a:
        raise BadSupport("knot snail coefficients must vanish at 0 and 1")
    b = RefBuilder(1)
    for n, eps in _snail_run(a):
        b.add_snail(0, eps, n)
    return b.diagram()


def ref_link_from_snails(a, b, c, d):
    a, b, c, d = _nonzero(a), _nonzero(b), _nonzero(c), _nonzero(d)
    if 0 in a or 1 in a or 0 in b or 1 in b:
        raise BadSupport("self-snail coefficients must vanish at 0 and 1")
    bld = RefBuilder(2)
    for n, eps in _snail_run(a):
        bld.add_snail(0, eps, n)
    for n, eps in _snail_run(b):
        bld.add_snail(1, eps, n)
    c_tails = []
    for m, eps in _snail_run(c):
        c_tails = bld.add_snail(0, eps, m, True) + c_tails
    d_tails = []
    for m, eps in _snail_run(d):
        d_tails = bld.add_snail(1, eps, m, True) + d_tails
    bld.words[1] += c_tails
    bld.words[0] += d_tails
    return bld.diagram()


# -- realization, written out per lambda regime -------------------------------


def ref_fresh_ids(G, prefix, n):
    """The first ``n`` ids ``<prefix><k>`` not in use, for k > len(G)."""
    out = []
    k = len(G.signs)
    while len(out) < n:
        k += 1
        if f"{prefix}{k}" not in G.signs:
            out.append(f"{prefix}{k}")
    return out


def ref_check_support(name, coeffs, banned):
    hit = sorted(set(coeffs) & banned)
    if any(coeffs[n] for n in hit):
        raise ConstraintViolated(
            f"{name} must vanish on slots {sorted(banned)}; got {hit}")


def ref_dress_endpoint(G, chord, kind, total):
    if total == 0:
        return G
    c, p = G.locate(chord, kind)
    ep = G.circles[c][p]
    sigma = 1 if total > 0 else -1
    ids = ref_fresh_ids(G, "r", abs(total))
    seg = ref_shelled(ep, ids, G.endpoint_sign(ep))
    word = G.circles[c]
    circles = list(G.circles)
    circles[c] = word[:p] + tuple(seg) + word[p + 1:]
    signs = dict(G.signs)
    signs.update({sid: sigma for sid in ids})
    return GaussDiagram(signs, circles)


def ref_transfer_shells(G, chord, x):
    """x shells around the nonself chord's circle-1 endpoint and -x around
    its circle-2 endpoint, the initial endpoint dressed first."""
    on_first = G.locate(chord, INITIAL)[0] == 0
    G = ref_dress_endpoint(G, chord, INITIAL, x if on_first else -x)
    return ref_dress_endpoint(G, chord, TERMINAL, -x if on_first else x)


def ref_append_gadget(G, circle, positive):
    g, s = ref_fresh_ids(G, "r", 2)
    if positive:
        block = ((s, TERMINAL), (g, INITIAL),
                 (s, INITIAL), (g, TERMINAL))
        signs = {g: 1, s: -1}
    else:
        block = ((g, INITIAL), (s, TERMINAL),
                 (g, TERMINAL), (s, INITIAL))
        signs = {g: -1, s: 1}
    circles = list(G.circles)
    circles[circle] = circles[circle] + block
    allsigns = dict(G.signs)
    allsigns.update(signs)
    return GaussDiagram(allsigns, circles)


def ref_nonself_anchor(G):
    """The first chord in ``signs`` order whose endpoints lie on different
    circles; with none, a new pair q1 +, q2 - running in parallel from the
    end of circle 1 to the end of circle 2, and q1."""
    for cid in G.signs:
        ci, ct = G.chord_circles(cid)
        if ci != ct:
            return G, cid
    q1, q2 = ref_fresh_ids(G, "r", 2)
    circles = list(G.circles)
    circles[0] += ((q1, INITIAL), (q2, INITIAL))
    circles[1] += ((q1, TERMINAL), (q2, TERMINAL))
    signs = dict(G.signs)
    signs.update({q1: 1, q2: -1})
    return GaussDiagram(signs, circles), q1


def ref_apply_gadgets(G, circle, delta, flip=False):
    positive = (delta > 0) != flip
    for _ in range(abs(delta)):
        G = ref_append_gadget(G, circle, positive)
    return G


def ref_realize_link(lam, a, b, c, d, target_shell_sum=None):
    if lam < 0:
        raise NegativeLambda("realization targets assume lam >= 0")
    a = {n: v for n, v in a.items() if v}
    b = {n: v for n, v in b.items() if v}
    if lam == 0:
        return ref_realize_lam0(a, b, c, d, target_shell_sum)
    if lam == 1:
        return ref_realize_lam1(a, b, c, d, target_shell_sum)
    return ref_realize_lam_ge2(lam, a, b, c, d, target_shell_sum)


def ref_realize_lam0(a, b, c, d, target_shell_sum):
    ref_check_support("component-1 writhe targets", a, {0})
    ref_check_support("component-2 writhe targets", b, {0})
    c = {m: v for m, v in c.items() if v}
    d = {m: v for m, v in d.items() if v}
    if sum(c.values()) != sum(d.values()):
        raise ConstraintViolated(
            "(a): the two nonself coefficient sums must be equal, got "
            f"{sum(c.values())} and {sum(d.values())}")
    total = ref_weighted(a, b, c, d)
    if total != 0:
        raise ConstraintViolated(
            f"(b): the index-weighted target total must vanish, got {total}")
    if target_shell_sum is not None and \
            target_shell_sum != a.get(1, 0) + b.get(1, 0):
        raise ConstraintViolated(
            "shell-sum target conflicts with the slot-1 writhe targets")
    G = ref_link_from_snails({n: v for n, v in a.items() if n != 1},
                             {n: v for n, v in b.items() if n != 1}, c, d)
    t1, _ = ref_self_writhe_tables(G)
    x = a.get(1, 0) - t1.get(1, 0)
    if x:
        G, anchor = ref_nonself_anchor(G)
        G = ref_transfer_shells(G, anchor, x)
    return G


def ref_realize_lam1(a, b, c, d, target_shell_sum):
    ref_check_support("component-1 writhe targets", a, {0, -1})
    ref_check_support("component-2 writhe targets", b, {0, 1})
    if {m for m, v in c.items() if v} - {0} or \
            {m for m, v in d.items() if v} - {0}:
        raise ConstraintViolated("lam = 1 takes single linking numbers")
    c0 = c.get(0, 0)
    if 0 in d and d[0] != c0 - 1:
        raise ConstraintViolated(
            f"(a): second linking number is forced to {c0 - 1}")
    if target_shell_sum is not None:
        raise ConstraintViolated("no shell-sum invariant exists for lam = 1")
    G = ref_link_from_snails({n: v for n, v in a.items() if n != 1},
                             {n: v for n, v in b.items() if n != 2},
                             {0: c0}, {0: c0 - 1})
    t1, t2 = ref_self_writhe_tables(G)
    G = ref_apply_gadgets(G, 0, a.get(1, 0) - t1.get(1, 0))
    G = ref_apply_gadgets(G, 1, b.get(2, 0) - t2.get(2, 0), flip=True)
    return G


def ref_realize_lam_ge2(lam, a, b, c, d, target_shell_sum):
    ref_check_support("component-1 writhe targets", a, {0, -lam})
    ref_check_support("component-2 writhe targets", b, {0, lam})
    c = {m: v for m, v in c.items() if v}
    d = {m: v for m, v in d.items() if v}
    if (set(c) | set(d)) - set(range(lam)):
        raise ConstraintViolated(
            f"nonself coefficients must be keyed 0..{lam - 1}")
    if sum(c.values()) - sum(d.values()) != lam:
        raise ConstraintViolated(
            "(a): nonself coefficient sums must differ by lam, got "
            f"{sum(c.values())} - {sum(d.values())}")
    total = ref_weighted(a, b, c) - ref_weighted(d)
    if total % lam != 0:
        raise ConstraintViolated(
            f"(b): index-weighted target total must vanish mod lam, "
            f"got {total} mod {lam}")
    four = (a.get(1, 0) + a.get(-lam + 1, 0)
            + b.get(1, 0) + b.get(lam + 1, 0))
    if target_shell_sum is not None and target_shell_sum != four:
        raise ConstraintViolated(
            "shell-sum target conflicts with the four slot targets")
    k = total // lam
    p = -k - a.get(-lam + 1, 0) + b.get(lam + 1, 0)
    G = ref_link_from_snails(
        {n: v for n, v in a.items() if n not in (1, -lam + 1)},
        {n: v for n, v in b.items() if n not in (1, lam + 1)},
        {p + m: v for m, v in c.items()},
        {-p - m: v for m, v in d.items()})
    t1, _ = ref_self_writhe_tables(G)
    x = (a.get(1, 0) + a.get(-lam + 1, 0)
         - t1.get(1, 0) - t1.get(-lam + 1, 0))
    if x:
        G, anchor = ref_nonself_anchor(G)
        G = ref_transfer_shells(G, anchor, x)
    t1, t2 = ref_self_writhe_tables(G)
    G = ref_apply_gadgets(G, 0, a.get(1, 0) - t1.get(1, 0))
    G = ref_apply_gadgets(G, 1, b.get(1, 0) - t2.get(1, 0))
    return G


# -- moves: handlers ----------------------------------------------------------


def _word(G, c):
    """Word of circle ``c`` (0-based); StaleSite naming it 1-based, as in
    trace text, when the diagram has no such circle."""
    if not 0 <= c < G.mu:
        raise StaleSite(f"no circle {c + 1}")
    return G.circles[c]


def _pair(G, c, p):
    word = G.circles[c]
    return word[p], word[(p + 1) % len(word)]


def _stale_unless(cond, msg):
    if not cond:
        raise StaleSite(msg)


def ref_insert_blocks(word, inserts):
    out = []
    prev = 0
    for g, blk in sorted(inserts, key=lambda ins: ins[0]):
        out.extend(word[prev:g])
        out.extend(blk)
        prev = g
    out.extend(word[prev:])
    return tuple(out)


def ref_delete_positions(word, positions):
    drop = set(positions)
    return tuple(ep for i, ep in enumerate(word) if i not in drop)


def ref_r1_insert(G, site):
    (c, g), = site.anchors
    word = _word(G, c)
    _stale_unless(0 <= g <= len(word), "bad gap")
    sgn, order = site.params
    _stale_unless(sgn in ("+", "-"), f"bad sign parameter {sgn!r}")
    _stale_unless(order in ("IT", "TI"), f"bad insertion order {order!r}")
    cid, = ref_fresh_ids(G, "n", 1)
    pair = [(cid, INITIAL), (cid, TERMINAL)]
    if order == "TI":
        pair.reverse()
    circles = list(G.circles)
    circles[c] = ref_insert_blocks(word, [(g, pair)])
    signs = dict(G.signs)
    signs[cid] = 1 if sgn == "+" else -1
    return (GaussDiagram(signs, circles),
            MoveSite(R1_DELETE, ((c, g),)))


def ref_r1_delete(G, site):
    (c, p), = site.anchors
    u, v = _pair(G, c, p)
    _stale_unless(u[0] == v[0] and u != v, "tokens are not a free chord")
    word = G.circles[c]
    q = (p + 1) % len(word)
    circles = list(G.circles)
    circles[c] = ref_delete_positions(word, (p, q))
    signs = dict(G.signs)
    sign = signs.pop(u[0])
    gap = q - (1 if p < q else 0)
    order = "IT" if u[1] == INITIAL else "TI"
    inv = MoveSite(R1_INSERT, ((c, gap),), ("+" if sign > 0 else "-", order))
    return GaussDiagram(signs, circles), inv


def ref_r2_insert(G, site):
    (c1, g1), (c2, g2) = site.anchors
    for c, g in site.anchors:
        _stale_unless(0 <= g <= len(_word(G, c)), "bad gap")
    variant, sgn = site.params[:2]
    t_first = site.params[2:] == ("tfirst",)
    if len(site.params) == 3 and not t_first:
        raise StaleSite(f"bad parameter {site.params[2]!r}")
    _stale_unless(sgn in ("+", "-"), f"bad sign parameter {sgn!r}")
    _stale_unless(variant in ("par", "anti"), f"bad variant {variant!r}")
    _stale_unless(not t_first or (c1, g1) == (c2, g2),
                  "tfirst needs a shared gap")
    x, y = ref_fresh_ids(G, "n", 2)
    head = [(x, INITIAL), (y, INITIAL)]
    tail = [(x, TERMINAL), (y, TERMINAL)]
    if variant == "anti":
        tail.reverse()
    circles = list(G.circles)
    if c1 == c2:
        blocks = [(g2, tail), (g1, head)] if t_first else [(g1, head), (g2, tail)]
        circles[c1] = ref_insert_blocks(G.circles[c1], blocks)
        if g1 < g2:
            p1, p2 = g1, g2 + 2
        elif g1 > g2:
            p1, p2 = g1 + 2, g2
        elif t_first:
            p1, p2 = g1 + 2, g1
        else:
            p1, p2 = g1, g1 + 2
    else:
        circles[c1] = ref_insert_blocks(G.circles[c1], [(g1, head)])
        circles[c2] = ref_insert_blocks(G.circles[c2], [(g2, tail)])
        p1, p2 = g1, g2
    eps = 1 if sgn == "+" else -1
    signs = dict(G.signs)
    signs[x] = eps
    signs[y] = -eps
    inv = MoveSite(R2_DELETE, ((c1, p1), (c2, p2)), (variant,))
    return GaussDiagram(signs, circles), inv


def ref_validate_r2_pattern(G, site):
    (c1, p1), (c2, p2) = site.anchors
    variant, = site.params
    a, b = _pair(G, c1, p1)
    _stale_unless(a[1] == INITIAL and b[1] == INITIAL,
                  "first pair must be initials")
    _stale_unless(a[0] != b[0], "pair needs two chords")
    x, y = a[0], b[0]
    _stale_unless(G.signs[x] == -G.signs[y], "chords must have opposite signs")
    u, v = _pair(G, c2, p2)
    if variant == "par":
        _stale_unless(u == (x, TERMINAL) and v == (y, TERMINAL),
                      "terminal pair mismatch")
    elif variant == "anti":
        _stale_unless(u == (y, TERMINAL) and v == (x, TERMINAL),
                      "terminal pair mismatch")
    else:
        raise StaleSite(f"bad variant {variant!r}")
    return x, y


def ref_r2_delete(G, site):
    x, y = ref_validate_r2_pattern(G, site)
    (c1, p1), (c2, p2) = site.anchors
    n1, n2 = len(G.circles[c1]), len(G.circles[c2])
    pos = {(c1, p1), (c1, (p1 + 1) % n1), (c2, p2), (c2, (p2 + 1) % n2)}
    circles = list(G.circles)
    by_circle = {}
    for c, p in pos:
        by_circle.setdefault(c, []).append(p)
    for c, ps in by_circle.items():
        circles[c] = ref_delete_positions(G.circles[c], ps)
    signs = dict(G.signs)
    eps = signs.pop(x)
    signs.pop(y)
    variant = site.params[0]

    def _gap(c, p):
        second = (p + 1) % len(G.circles[c])
        removed_before = sum(1 for cc, pp in pos if cc == c and pp < second)
        return second - removed_before

    g1, g2 = _gap(c1, p1), _gap(c2, p2)
    params = [variant, "+" if eps > 0 else "-"]
    if c1 == c2 and g1 == g2 and (p2 + 2) % n1 == p1:
        params.append("tfirst")
    inv = MoveSite(R2_INSERT, ((c1, g1), (c2, g2)), tuple(params))
    return GaussDiagram(signs, circles), inv


def ref_apply_r3(G, site):
    _stale_unless(site in ref_sites_r3(G),
                  "no triple-exchange pattern at the given pairs")
    circles = [list(w) for w in G.circles]
    for c, p in site.anchors:
        q = (p + 1) % len(G.circles[c])
        circles[c][p], circles[c][q] = circles[c][q], circles[c][p]
    new = GaussDiagram(G.signs, [tuple(w) for w in circles])
    return new, MoveSite(R3, site.anchors)


def ref_apply_s1(G, site):
    _stale_unless(site in ref_sites_s1(G), "no shell flanking this endpoint")
    (c, p), = site.anchors
    word = G.circles[c]
    e, shell = word[p], word[p - 1][0]
    other_kind = TERMINAL if e[1] == INITIAL else INITIAL
    circles = [[ep for ep in w if ep[0] != shell] for w in G.circles]
    c2, p2 = next((ci, pi) for ci, w in enumerate(circles)
                  for pi, ep in enumerate(w)
                  if ep[0] == e[0] and ep[1] == other_kind)
    target = circles[c2][p2]
    circles[c2][p2:p2 + 1] = ref_shelled(target, [shell],
                                         G.endpoint_sign(target))
    new = GaussDiagram(G.signs, [tuple(w) for w in circles])
    return new, MoveSite(S1, ((c2, p2 + 1),))


def ref_apply_s2_insert(G, site):
    (c, p), = site.anchors
    e, f = _pair(G, c, p)
    _stale_unless(e[0] != f[0], "adjacent endpoints must belong to two chords")
    word = G.circles[c]
    n = len(word)
    se, sf = G.endpoint_sign(e), G.endpoint_sign(f)
    u, v = ref_fresh_ids(G, "n", 2)
    signs = dict(G.signs)
    signs[v] = se * sf
    signs[u] = -se * sf
    block = ref_shelled(f, [u], sf) + ref_shelled(e, [v], se)
    circles = list(G.circles)
    if p + 1 < n:
        circles[c] = word[:p] + tuple(block) + word[p + 2:]
        anchor = p
    else:
        rot = word[p:] + word[:p]
        circles[c] = tuple(block) + rot[2:]
        anchor = 0
    return (GaussDiagram(signs, circles),
            MoveSite(S2_DELETE, ((c, anchor),)))


def ref_validate_s2_delete(G, site):
    (c, p), = site.anchors
    word = _word(G, c)
    n = len(word)
    _stale_unless(n >= 6, "word too short")
    t = [word[(p + i) % n] for i in range(6)]
    _stale_unless(len(set(t)) == 6, "window overlaps")
    u, f, u2, v, e, v2 = t
    _stale_unless(u[0] == u2[0] and v[0] == v2[0], "not two shells")
    _stale_unless(u[0] != v[0], "shells must be distinct")
    _stale_unless(len({u[0], v[0], e[0], f[0]}) == 4, "chords must differ")
    se, sf = G.endpoint_sign(e), G.endpoint_sign(f)
    _stale_unless((u[1] == INITIAL) == (sf > 0), "first shell mis-oriented")
    _stale_unless((v[1] == INITIAL) == (se > 0), "second shell mis-oriented")
    _stale_unless(G.signs[v[0]] == se * sf and G.signs[u[0]] == -se * sf,
                  "shell signs do not cancel")
    return t


def ref_apply_s2_delete(G, site):
    u, f, _, v, e, _ = ref_validate_s2_delete(G, site)
    (c, p), = site.anchors
    word = G.circles[c]
    rot = word[p:] + word[:p]
    circles = list(G.circles)
    circles[c] = (e, f) + rot[6:]
    signs = dict(G.signs)
    signs.pop(u[0])
    signs.pop(v[0])
    return (GaussDiagram(signs, circles),
            MoveSite(S2_INSERT, ((c, 0),)))


# -- moves: finders -----------------------------------------------------------


def ref_adjacent_pairs(G):
    """(circle, position, endpoint, next endpoint), on circles of at least
    two endpoints."""
    for c, word in enumerate(G.circles):
        if len(word) > 1:
            for p, u in enumerate(word):
                yield c, p, u, word[(p + 1) % len(word)]


def ref_sites_r1_delete(G):
    """R1_delete sites as found by asking the diagram about each chord: the
    first of its two endpoints when they are adjacent on one circle."""
    out = []
    for cid in G.signs:
        (ci, pi), (ct, pt) = G.locate(cid, INITIAL), G.locate(cid, TERMINAL)
        n = len(G.circles[ci])
        firsts = [p for p, q in ((pi, pt), (pt, pi)) if (p + 1) % n == q]
        if ci == ct and firsts:
            out.append(MoveSite(R1_DELETE, ((ci, min(firsts)),)))
    return out


def ref_sites_r2_delete(G):
    pairs = list(ref_adjacent_pairs(G))
    tt = {(u[0], v[0]): (c, p) for c, p, u, v in pairs
          if u[1] == v[1] == TERMINAL}
    return [MoveSite(R2_DELETE, ((c, p), tt[key]), (variant,))
            for c, p, u, v in pairs if u[1] == v[1] == INITIAL
            and u[0] != v[0] and G.signs[u[0]] == -G.signs[v[0]]
            for variant, key in (("par", (u[0], v[0])),
                                 ("anti", (v[0], u[0]))) if key in tt]


def ref_sites_r3(G):
    tt, ii, it, ti = {}, {}, {}, {}
    for c, p, u, v in ref_adjacent_pairs(G):
        key = (u[0], v[0])
        spot = (c, p)
        if u[1] == TERMINAL and v[1] == TERMINAL:
            tt[key] = spot
        elif u[1] == INITIAL and v[1] == INITIAL:
            ii[key] = spot
        elif u[1] == INITIAL:
            it[key] = spot
        else:
            ti[key] = spot
    out = []
    for (hp, hq), a1 in tt.items():
        if hp == hq or G.signs[hp] != -1 or G.signs[hq] != -1:
            continue
        for (h, x), a2 in ii.items():
            if h != hp or x in (hp, hq) or G.signs[x] != 1:
                continue
            a3 = it.get((hq, x))
            if a3 is not None:
                out.append(MoveSite(R3, (a1, a2, a3)))
    for (hq, hp), a1 in tt.items():
        if hp == hq or G.signs[hp] != -1 or G.signs[hq] != -1:
            continue
        for (x, h), a2 in ii.items():
            if h != hp or x in (hp, hq) or G.signs[x] != 1:
                continue
            a3 = ti.get((x, hq))
            if a3 is not None:
                out.append(MoveSite(R3, (a1, a2, a3)))
    return out


def ref_sites_s1(G):
    """A site at each endpoint that some shell surrounds."""
    return [MoveSite(S1, ((c, p),)) for c, word in enumerate(G.circles)
            for p in range(len(word)) if ref_nest_around(G, c, p)]


def ref_sites_s2_insert(G):
    return [MoveSite(S2_INSERT, ((c, p),))
            for c, p, u, v in ref_adjacent_pairs(G) if u[0] != v[0]]


def ref_sites_s2_delete(G):
    out = []
    for c, word in enumerate(G.circles):
        for p in range(len(word) if len(word) >= 6 else 0):
            site = MoveSite(S2_DELETE, ((c, p),))
            try:
                ref_validate_s2_delete(G, site)
            except StaleSite:
                continue
            out.append(site)
    return out


REF_MOVE_KINDS = ("R1_insert", "R1_delete", "R2_insert", "R2_delete", "R3",
                  "S1", "S2_insert", "S2_delete")
# the chords each kind adds; a move fits under a cap it does not pass
REF_GROWTH = {"R1_insert": 1, "R2_insert": 2, "S2_insert": 2}
REF_APPLY = {R1_INSERT: ref_r1_insert, R1_DELETE: ref_r1_delete,
             R2_INSERT: ref_r2_insert, R2_DELETE: ref_r2_delete,
             R3: ref_apply_r3, S1: ref_apply_s1,
             S2_INSERT: ref_apply_s2_insert, S2_DELETE: ref_apply_s2_delete}
# the insertions R1 and R2 have no finder here: walks draw them by gaps
REF_FINDERS = {R1_DELETE: ref_sites_r1_delete, R2_DELETE: ref_sites_r2_delete,
               R3: ref_sites_r3, S1: ref_sites_s1,
               S2_INSERT: ref_sites_s2_insert, S2_DELETE: ref_sites_s2_delete}


def ref_apply(G, site):
    return REF_APPLY[site.kind](G, site)


# -- walk ---------------------------------------------------------------------


def ref_sample_site(G, kind, rng):
    """A site drawn as ``random_walk`` draws one: insertions by their gaps,
    other kinds uniformly from their sites."""
    gaps = [(c, g) for c, w in enumerate(G.circles) for g in range(max(len(w), 1))]
    if kind == R1_INSERT:
        return MoveSite(R1_INSERT, (rng.choice(gaps),), (rng.choice("+-"), "IT"))
    if kind == R2_INSERT:
        a, b = rng.choice(gaps), rng.choice(gaps)
        params = (rng.choice(["par", "anti"]), rng.choice("+-"))
        if a == b and rng.random() < 0.5:
            params += ("tfirst",)
        return MoveSite(R2_INSERT, (a, b), params)
    sites = REF_FINDERS[kind](G)
    return rng.choice(sites) if sites else None


def ref_random_walk(G, steps, seed, chord_cap):
    """Each step shuffles the kinds and takes the first that fits the cap
    and has a site, drawn by ``ref_sample_site``."""
    rng = random.Random(seed)
    trace = []
    for _ in range(steps):
        kinds = list(REF_MOVE_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            if len(G) + REF_GROWTH.get(kind, 0) > chord_cap:
                continue
            site = ref_sample_site(G, kind, rng)
            if site is None:
                continue
            G = ref_apply(G, site)[0]
            trace.append(site)
            break
        else:
            raise ValueError("no applicable move")
    return G, trace


# -- witness search -----------------------------------------------------------


# the order in which the search expands a node's kinds
REF_EXPANSION_ORDER = ("R1_delete", "R2_delete", "S2_delete", "S1", "R3",
                       "R1_insert", "R2_insert", "S2_insert")


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
            for kind in REF_EXPANSION_ORDER:
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
