"""One definition of a shell: ``diagram.shell_layers`` builds shell layers
and ``diagram.is_shell_layer`` recognises them, for the snail builders, the
S1 and S2 moves and realization alike.

The references (``reference.py``) are the earlier form of each of those
places; they state the orientation rule once, in ``ref_shelled``, and are
compared against the shared helpers on seeded inputs.
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
from shellmoves.invariants import profile
from shellmoves.moves import (
    S1,
    S2_DELETE,
    S2_INSERT,
    apply_move_with_inverse,
    find_move_sites,
    random_walk,
)
from shellmoves.normal_form import build_knot_form

from conftest import (image, link_from_snails, random_diagram,
                      random_link_with_lambda, realize_args)
from reference import (REF_APPLY, ref_append_gadget, ref_build_knot_form,
                       ref_link_from_snails, ref_nonself_anchor, ref_shelled,
                       ref_sites_s1, ref_sites_s2_delete, ref_transfer_shells,
                       ref_weighted)


# -- helpers ----------------------------------------------------------------------


def same(G, H):
    """Identical words, signs in the same insertion order, same text."""
    return image(G) == image(H) and serialize(G) == serialize(H)


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
            G = link_from_snails(coefficients(rng, (0, 1)),
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
        assert before == ref_shelled(e, [s], sign)[0]
        assert after == ref_shelled(e, [s], sign)[2]
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
                        and [before, around, after] == ref_shelled(
                            around, [before[0]], G.endpoint_sign(around)))
                assert is_shell_layer(G, before, around, after) == want


# -- builders -------------------------------------------------------------------------


def test_snail_forms_match_reference():
    rng = random.Random(6)
    for _ in range(400):
        a = coefficients(rng, (0, 1))
        assert same(build_knot_form(a), ref_build_knot_form(a)), a
        args = (coefficients(rng, (0, 1)), coefficients(rng, (0, 1)),
                coefficients(rng), coefficients(rng))
        assert same(link_from_snails(*args),
                    ref_link_from_snails(*args)), args


def split_targets(rng):
    """``realize_link`` arguments for lambda = 0 with no nonself
    coefficients and a nonzero split of the slot-1 writhe between the
    circles, so the shell transfer needs a nonself anchor inserted."""
    a, b = coefficients(rng, (0, 1)), coefficients(rng, (0, 1))
    k = rng.choice((-3, -2, -1, 1, 2, 3))
    total = ref_weighted(a, b)
    return 0, {**a, 1: k}, {**b, 1: -total - k}, {}, {}


def test_realize_link_matches_reference(monkeypatch):
    rng = random.Random(7)
    targets = []
    for k in range(300):
        G = random_link_with_lambda(rng, k % 4, max_self=6)
        targets.append(realize_args(profile(random_walk(G, 4, k, 40)[0])))
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
        m.setattr(normal_form, "build_link_form", lambda form:
                  ref_link_from_snails(form.a, form.b, form.c, form.d))
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
