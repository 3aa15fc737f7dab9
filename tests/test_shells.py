"""One definition of a shell: ``diagram.shell_layers`` builds shell layers
and ``diagram.is_shell_layer`` recognises them, for the snail builders, the
S1 and S2 moves and realization alike.

The code below is the earlier form of each of those places, which wrote the
orientation rule out by hand; it lives only here, as the reference the
shared helpers are compared against on seeded inputs.
"""

import random

import pytest

from shellmoves import normal_form
from shellmoves.diagram import (
    INITIAL,
    TERMINAL,
    GaussDiagram,
    is_shell_layer,
    serialize,
    shell_layers,
)
from shellmoves.errors import BadSupport, StaleSite
from shellmoves.invariants import profile
from shellmoves.moves import (
    S1,
    S2_DELETE,
    S2_INSERT,
    MoveSite,
    _check,
    _pair,
    apply_move_with_inverse,
    find_move_sites,
    random_walk,
)
from shellmoves.normal_form import (
    _clean,
    build_knot_form,
    build_link_diagram,
    encode_snail,
)

from conftest import (random_diagram, random_link_with_lambda,
                      ref_append_gadget, ref_fresh_ids,
                      ref_nonself_anchor, ref_transfer_shells)


def _word(G, c):
    """Word of circle ``c`` (0-based); StaleSite naming it 1-based, as in
    trace text, when the diagram has no such circle."""
    if not 0 <= c < G.mu:
        raise StaleSite(f"no circle {c + 1}")
    return G.circles[c]


# -- reference: snail words and builders ------------------------------------------


def ref_self_snail_words(main, shells, eps, n):
    sigma = -eps * (1 if n > 0 else -1) if n else 0
    near = INITIAL if eps > 0 else TERMINAL
    far = TERMINAL if eps > 0 else INITIAL
    signs = {main: eps}
    signs.update({s: sigma for s in shells})
    word = [(main, INITIAL)]
    word += [(s, near) for s in shells]
    word.append((main, TERMINAL))
    word += [(s, far) for s in reversed(shells)]
    return signs, word


def ref_nonself_snail_words(main, shells, eps, n):
    sigma = -eps * (1 if n > 0 else -1) if n else 0
    before = INITIAL if eps < 0 else TERMINAL
    after = TERMINAL if eps < 0 else INITIAL
    signs = {main: eps}
    signs.update({s: sigma for s in shells})
    src = [(s, before) for s in shells]
    src.append((main, INITIAL))
    src += [(s, after) for s in reversed(shells)]
    return signs, src, [(main, TERMINAL)]


def _snail_run(coeffs):
    """(index, sign) per snail copy, ascending index."""
    for n in sorted(coeffs):
        c = coeffs[n]
        for _ in range(abs(c)):
            yield n, (1 if c > 0 else -1)


def ref_encode_snail(kind, eps, n):
    shells = [f"s{j}" for j in range(1, abs(n) + 1)]
    if kind == "self":
        signs, word = ref_self_snail_words("g", shells, eps, n)
        return GaussDiagram(signs, [word])
    signs, src, dst = ref_nonself_snail_words("g", shells, eps, n)
    return GaussDiagram(signs, [src, dst])


class RefBuilder:
    def __init__(self, mu):
        self.signs = {}
        self.words = [[] for _ in range(mu)]
        self.count = 0

    def fresh(self):
        self.count += 1
        return f"g{self.count}", self.count

    def add_self_snail(self, circle, eps, n):
        main, k = self.fresh()
        shells = [f"g{k}s{j}" for j in range(1, abs(n) + 1)]
        signs, word = ref_self_snail_words(main, shells, eps, n)
        self.signs.update(signs)
        self.words[circle] += word

    def add_nonself_snail(self, src, eps, n):
        main, k = self.fresh()
        shells = [f"g{k}s{j}" for j in range(1, abs(n) + 1)]
        signs, srcw, dstw = ref_nonself_snail_words(main, shells, eps, n)
        self.signs.update(signs)
        self.words[src] += srcw
        return dstw

    def diagram(self):
        return GaussDiagram(self.signs, [tuple(w) for w in self.words])


def ref_build_knot_form(a):
    a = _clean(a)
    if 0 in a or 1 in a:
        raise BadSupport("knot snail coefficients must vanish at 0 and 1")
    b = RefBuilder(1)
    for n, eps in _snail_run(a):
        b.add_self_snail(0, eps, n)
    return b.diagram()


def ref_build_link_diagram(a, b, c, d):
    a, b, c, d = _clean(a), _clean(b), _clean(c), _clean(d)
    if 0 in a or 1 in a or 0 in b or 1 in b:
        raise BadSupport("self-snail coefficients must vanish at 0 and 1")
    bld = RefBuilder(2)
    for n, eps in _snail_run(a):
        bld.add_self_snail(0, eps, n)
    for n, eps in _snail_run(b):
        bld.add_self_snail(1, eps, n)
    c_tails = []
    for m, eps in _snail_run(c):
        c_tails = bld.add_nonself_snail(0, eps, m) + c_tails
    d_tails = []
    for m, eps in _snail_run(d):
        d_tails = bld.add_nonself_snail(1, eps, m) + d_tails
    bld.words[1] += c_tails
    bld.words[0] += d_tails
    return bld.diagram()


# -- reference: shell recognition and the S moves --------------------------------


def ref_flank_block(shell, around, sign_around):
    if sign_around > 0:
        return [(shell, INITIAL), around, (shell, TERMINAL)]
    return [(shell, TERMINAL), around, (shell, INITIAL)]


def ref_sites_s1(G):
    out = []
    for c, word in enumerate(G.circles):
        n = len(word)
        if n < 3:
            continue
        for p in range(n):
            e = word[p]
            u, v = word[(p - 1) % n], word[(p + 1) % n]
            if u[0] != v[0] or u[0] == e[0]:
                continue
            if (u[1] == INITIAL) == (G.endpoint_sign(e) > 0):
                out.append(MoveSite(S1, ((c, p),)))
    return out


def ref_apply_s1(G, site):
    (c, p), = site.anchors
    word = _word(G, c)
    n = len(word)
    _check(n >= 3, "word too short for a shell")
    p %= n
    e = word[p]
    u, v = word[(p - 1) % n], word[(p + 1) % n]
    _check(u[0] == v[0] and u[0] != e[0], "no shell")
    shell = u[0]
    _check((u[1] == INITIAL) == (G.endpoint_sign(e) > 0), "wrong orientation")
    other_kind = TERMINAL if e[1] == INITIAL else INITIAL
    circles = [[ep for ep in w if ep[0] != shell] for w in G.circles]
    c2, p2 = next((ci, pi) for ci, w in enumerate(circles)
                  for pi, ep in enumerate(w)
                  if ep[0] == e[0] and ep[1] == other_kind)
    target = circles[c2][p2]
    circles[c2][p2:p2 + 1] = ref_flank_block(shell, target,
                                             G.endpoint_sign(target))
    new = GaussDiagram(G.signs, [tuple(w) for w in circles])
    return new, MoveSite(S1, ((c2, p2 + 1),))


def ref_apply_s2_insert(G, site):
    (c, p), = site.anchors
    e, f = _pair(G, c, p)
    _check(e[0] != f[0], "adjacent endpoints must belong to two chords")
    word = G.circles[c]
    n = len(word)
    se, sf = G.endpoint_sign(e), G.endpoint_sign(f)
    u, v = ref_fresh_ids(G, "n", 2)
    signs = dict(G.signs)
    signs[v] = se * sf
    signs[u] = -se * sf
    block = ref_flank_block(u, f, sf) + ref_flank_block(v, e, se)
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
    _check(n >= 6, "word too short")
    t = [word[(p + i) % n] for i in range(6)]
    _check(len(set(t)) == 6, "window overlaps")
    u, f, u2, v, e, v2 = t
    _check(u[0] == u2[0] and v[0] == v2[0], "not two shells")
    _check(u[0] != v[0], "shells must be distinct")
    _check(len({u[0], v[0], e[0], f[0]}) == 4, "chords must differ")
    se, sf = G.endpoint_sign(e), G.endpoint_sign(f)
    _check((u[1] == INITIAL) == (sf > 0), "first shell mis-oriented")
    _check((v[1] == INITIAL) == (se > 0), "second shell mis-oriented")
    _check(G.signs[v[0]] == se * sf and G.signs[u[0]] == -se * sf,
           "shell signs do not cancel")
    return t


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


REF_APPLY = {S1: ref_apply_s1, S2_INSERT: ref_apply_s2_insert,
             S2_DELETE: ref_apply_s2_delete}


# -- helpers ----------------------------------------------------------------------


def same(G, H):
    """Identical words, signs in the same insertion order, same text."""
    return (G.circles == H.circles
            and list(G.signs.items()) == list(H.signs.items())
            and serialize(G) == serialize(H))


def coefficients(rng, banned=()):
    out = {}
    for _ in range(rng.randint(0, 4)):
        n = rng.randint(-6, 7)
        if n not in banned:
            out[n] = rng.randint(-3, 3)
    return out


def shelled_diagrams(n_seeds):
    """Seeded diagrams rich in shells: snail forms, random diagrams, and both
    after a walk that may insert S2 shells."""
    rng = random.Random(20261018)
    for seed in range(n_seeds):
        pick = seed % 4
        if pick == 0:
            G = build_knot_form(coefficients(rng, (0, 1)))
        elif pick == 1:
            G = build_link_diagram(coefficients(rng, (0, 1)),
                                   coefficients(rng, (0, 1)),
                                   coefficients(rng), coefficients(rng))
        else:
            G = random_diagram(rng, pick - 1, 8)
        yield G
        if len(G) <= 20:
            yield random_walk(G, 6, seed, 30)[0]


# -- the helpers themselves ---------------------------------------------------------


@pytest.mark.parametrize("sign", [1, -1])
def test_shell_layers_nest_innermost_first(sign):
    e = ("e", TERMINAL)
    word = shell_layers(e, sign, ["s1", "s2", "s3"])
    assert word[3] == e
    for k, s in enumerate(["s1", "s2", "s3"]):
        before, after = word[2 - k], word[4 + k]
        assert before[0] == after[0] == s
        assert before == ref_flank_block(s, e, sign)[0]
        assert after == ref_flank_block(s, e, sign)[2]
    assert shell_layers(e, sign, []) == [e]


def test_is_shell_layer_matches_the_flank_rule():
    G = GaussDiagram({"a": 1, "b": -1, "s": 1},
                     [(("a", INITIAL), ("a", TERMINAL),
                       ("b", INITIAL), ("b", TERMINAL),
                       ("s", INITIAL), ("s", TERMINAL))])
    eps = [ep for word in G.circles for ep in word]
    for around in eps:
        for before in eps:
            for after in eps:
                want = (before[0] == after[0] != around[0]
                        and [before, around, after] == ref_flank_block(
                            before[0], around, G.endpoint_sign(around)))
                assert is_shell_layer(G, before, around, after) == want


# -- builders -------------------------------------------------------------------------


def test_encode_snail_matches_reference():
    for kind in ("self", "nonself"):
        for eps in (1, -1):
            for n in range(-7, 8):
                assert same(encode_snail(kind, eps, n),
                            ref_encode_snail(kind, eps, n)), (kind, eps, n)


def test_snail_forms_match_reference():
    rng = random.Random(6)
    for _ in range(400):
        a = coefficients(rng, (0, 1))
        assert same(build_knot_form(a), ref_build_knot_form(a)), a
        args = (coefficients(rng, (0, 1)), coefficients(rng, (0, 1)),
                coefficients(rng), coefficients(rng))
        assert same(build_link_diagram(*args),
                    ref_build_link_diagram(*args)), args


def realize_targets(G):
    """``realize_link`` arguments read off the profile of a link with
    lambda >= 0, as ``shellmoves realize`` takes them from a target block."""
    pr = profile(G)
    cls, lam = pr.linking_class, pr.lam
    if lam == 0:
        c, d = cls.f.coeffs(), cls.g.coeffs()
    elif lam == 1:
        c, d = {0: pr.lk12}, {}
    else:
        c = dict(enumerate(cls.f.vector(lam)))
        d = {m: cls.g.vector(lam)[(-m) % lam] for m in range(lam)}
    return lam, pr.jn1, pr.jn2, c, d


def split_targets(rng):
    """``realize_link`` arguments for lambda = 0 with no nonself
    coefficients and a nonzero split of the slot-1 writhe between the
    circles, so the shell transfer needs a nonself anchor inserted."""
    a, b = coefficients(rng, (0, 1)), coefficients(rng, (0, 1))
    k = rng.choice((-3, -2, -1, 1, 2, 3))
    total = sum(n * v for t in (a, b) for n, v in t.items())
    return 0, {**a, 1: k}, {**b, 1: -total - k}, {}, {}


def test_realize_link_matches_reference(monkeypatch):
    rng = random.Random(7)
    targets = []
    for k in range(300):
        G = random_link_with_lambda(rng, k % 4, max_self=6)
        targets.append(realize_targets(random_walk(G, 4, k, 40)[0]))
    targets += [split_targets(rng) for _ in range(60)]

    def realize_all():
        return [normal_form.realize_link(*t) for t in targets]

    got = realize_all()
    calls = {"gadget": 0, "transfer": 0, "anchor pair": 0}

    def counted(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run

    def anchor(G):
        H, cid = ref_nonself_anchor(G)
        calls["anchor pair"] += len(H) > len(G)
        return H, cid

    with monkeypatch.context() as m:
        m.setattr(normal_form, "build_link_diagram", ref_build_link_diagram)
        m.setattr(normal_form, "_append_gadget",
                  counted("gadget", ref_append_gadget))
        m.setattr(normal_form, "_nonself_anchor", anchor)
        m.setattr(normal_form, "_transfer_shells",
                  counted("transfer", ref_transfer_shells))
        want = realize_all()
    for g, w, t in zip(got, want, targets):
        assert same(g, w), t
    assert min(calls["gadget"], calls["transfer"]) >= 100, calls
    assert calls["anchor pair"] >= 20, calls


# -- recognition and the S moves ---------------------------------------------------


def test_s2_delete_finder_matches_reference():
    sites = 0
    for G in shelled_diagrams(400):
        # the S2_delete finder skips positions on their chords alone
        found = find_move_sites(G, S2_DELETE)
        assert found == ref_sites_s2_delete(G), G
        sites += len(found)
    assert sites >= 100, sites


def test_s_sites_and_moves_match_reference():
    counts = {S1: 0, S2_INSERT: 0, S2_DELETE: 0}
    for G in shelled_diagrams(100):
        assert find_move_sites(G, S1) == ref_sites_s1(G), G
        assert find_move_sites(G, S2_DELETE) == ref_sites_s2_delete(G), G
        for kind in counts:
            sites = find_move_sites(G, kind)
            if kind == S2_INSERT:
                # every S2_insert site has an S2_delete inverse; a sample,
                # with the last pair, which wraps past the basepoint
                sites = sites[::4] + sites[-1:]
            for site in sites:
                H, inv = apply_move_with_inverse(G, site)
                H_ref, inv_ref = REF_APPLY[kind](G, site)
                assert same(H, H_ref) and inv == inv_ref, (G, site)
                back, again = apply_move_with_inverse(H, inv)
                back_ref, again_ref = REF_APPLY[inv.kind](H_ref, inv_ref)
                assert same(back, back_ref) and again == again_ref, (G, site)
                counts[kind] += 1
    assert counts[S1] >= 300 and counts[S2_INSERT] >= 1000, counts
    assert counts[S2_DELETE] >= 30, counts
