"""One statement of a link's slot rules: ``invariants.link_slots`` says which
index-writhe slots are free and which are shell slots, and ``profile``,
``LinkProfile.invariant_jn1/2``, ``canonical_form``, ``check_consistency`` and
``realize_link`` all read it.

The code below is the earlier form of each of those places, which wrote the
slot sets, the shell-sum formula and the index-weighted totals out per lambda
regime; it lives only here, as the reference the shared code is compared
against on seeded inputs.  It builds with the test-only realization blocks
of ``conftest`` (``ref_nonself_anchor``, ``ref_transfer_shells``,
``ref_append_gadget``), never with the private helpers it checks.
"""

import random
from dataclasses import replace

import pytest

from shellmoves.diagram import serialize
from shellmoves.equiv import check_consistency
from shellmoves.errors import (
    ConstraintViolated,
    InconsistentProfile,
    NegativeLambda,
)
from shellmoves.invariants import (
    LAMBDA_LABEL,
    link_slots,
    linking_data,
    profile,
    self_writhe_tables,
    shell_sum,
)
from shellmoves.moves import random_walk
from shellmoves.normal_form import (LinkForm, build_link_diagram,
                                    canonical_form, realize_link)

from conftest import (random_link_with_lambda, ref_append_gadget,
                      ref_check_support, ref_nonself_anchor,
                      ref_transfer_shells)


# -- the reference: slot rules written out per regime ------------------------------


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
    total = (sum(n * v for n, v in a.items())
             + sum(n * v for n, v in b.items())
             + sum(m * v for m, v in c.items())
             + sum(m * v for m, v in d.items()))
    if total != 0:
        raise ConstraintViolated(
            f"(b): the index-weighted target total must vanish, got {total}")
    if target_shell_sum is not None and \
            target_shell_sum != a.get(1, 0) + b.get(1, 0):
        raise ConstraintViolated(
            "shell-sum target conflicts with the slot-1 writhe targets")
    G = build_link_diagram({n: v for n, v in a.items() if n != 1},
                           {n: v for n, v in b.items() if n != 1}, c, d)
    t1, _ = self_writhe_tables(G)
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
    G = build_link_diagram({n: v for n, v in a.items() if n != 1},
                           {n: v for n, v in b.items() if n != 2},
                           {0: c0}, {0: c0 - 1})
    t1, t2 = self_writhe_tables(G)
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
    total = (sum(n * v for n, v in a.items())
             + sum(n * v for n, v in b.items())
             + sum(m * v for m, v in c.items())
             - sum(m * v for m, v in d.items()))
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
    G = build_link_diagram(
        {n: v for n, v in a.items() if n not in (1, -lam + 1)},
        {n: v for n, v in b.items() if n not in (1, lam + 1)},
        {p + m: v for m, v in c.items()},
        {-p - m: v for m, v in d.items()})
    t1, _ = self_writhe_tables(G)
    x = (a.get(1, 0) + a.get(-lam + 1, 0)
         - t1.get(1, 0) - t1.get(-lam + 1, 0))
    if x:
        G, anchor = ref_nonself_anchor(G)
        G = ref_transfer_shells(G, anchor, x)
    t1, t2 = self_writhe_tables(G)
    G = ref_apply_gadgets(G, 0, a.get(1, 0) - t1.get(1, 0))
    G = ref_apply_gadgets(G, 1, b.get(1, 0) - t2.get(1, 0))
    return G


def ref_profile_tables(G):
    """(jn1, jn2, shell sum) as ``profile`` assembled them."""
    _, _, lam = linking_data(G)
    t1, t2 = self_writhe_tables(G)
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
    base = (-sum(n * v for n, v in a.items())
            - sum(n * v for n, v in b.items())
            - sum(m * cvec[m] for m in range(lam))
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
    total = (sum(n * v for n, v in pr.jn1.items())
             + sum(n * v for n, v in pr.jn2.items())
             + pr.f_prime)
    return total == 0 if lam == 0 else total % lam == 0


# -- helpers --------------------------------------------------------------------------


def outcome(fn, *args):
    """The call's result, or its exception as (type, message)."""
    try:
        return fn(*args)
    except (ConstraintViolated, NegativeLambda, InconsistentProfile,
            ValueError) as e:
        return type(e), str(e)


def text(result):
    return result if isinstance(result, tuple) else serialize(result)


def nudge(rng, table, keys):
    """A copy of ``table`` with one entry at a random key moved by +-1."""
    out = dict(table)
    n = rng.choice(keys)
    out[n] = out.get(n, 0) + rng.choice((1, -1))
    return out


def target(rng, k):
    """A realization target at lam -1..4: the profile of a random link,
    valid as taken, or with one entry, one key or the shell sum spoiled."""
    lam = k % 6 - 1
    G = random_link_with_lambda(rng, max(lam, 0), max_self=6)
    if k % 5 == 0:
        G = random_walk(G, 4, k, 30)[0]
    pr = profile(G)
    cls = pr.linking_class
    a, b = dict(pr.jn1), dict(pr.jn2)
    if lam <= 0:
        c, d = cls.f.coeffs(), cls.g.coeffs()
    elif lam == 1:
        c, d = {0: pr.lk12}, rng.choice(({}, {0: pr.lk21}))
    else:
        c = dict(enumerate(cls.f.vector(lam)))
        d = {m: cls.g.vector(lam)[(-m) % lam] for m in range(lam)}
    ss = pr.shell_sum
    spoil = rng.randrange(12)
    slots = list(range(-lam - 2, lam + 4))
    if spoil == 1:
        a = nudge(rng, a, slots)
    elif spoil == 2:
        b = nudge(rng, b, slots)
    elif spoil == 3:
        c = nudge(rng, c, list(range(-1, max(lam, 1) + 1)))
    elif spoil == 4:
        d = nudge(rng, d, list(range(-1, max(lam, 1) + 1)))
    elif spoil == 5:
        # a zero entry on any slot or key must count for nothing
        rng.choice((a, b, c, d))[rng.choice(slots)] = 0
    elif spoil == 6:
        a, b = nudge(rng, a, [1, 1 - lam]), nudge(rng, b, [1, 1 + lam])
    shell = rng.randrange(4)
    if shell == 0:
        ss = None
    elif shell == 1:
        ss = (ss or 0) + rng.choice((-1, 1))
    return lam, a, b, c, d, ss


# -- the slot rule ---------------------------------------------------------------------


@pytest.mark.parametrize("lam", range(-5, 6))
def test_link_slots_match_the_hand_written_sets(lam):
    (free1, shell1), (free2, shell2) = link_slots(lam)
    assert free1 == {0, -lam} and free2 == {0, lam}
    assert free1 | shell1 == {0, 1, -lam, -lam + 1}
    assert free2 | shell2 == {0, 1, lam, lam + 1}
    assert not free1 & shell1 and not free2 & shell2
    if abs(lam) == 1:
        assert {frozenset(shell1), frozenset(shell2)} == {
            frozenset({1}), frozenset({2})}
    elif lam == 0:
        assert shell1 == shell2 == {1}
    else:
        assert shell1 == {1, 1 - lam} and shell2 == {1, 1 + lam}
    t1 = {n: 10 ** (n + 6) for n in range(-6, 8)}
    t2 = {n: 3 * v for n, v in t1.items()}
    if abs(lam) == 1:
        assert shell_sum(lam, t1, t2) is None
    elif lam == 0:
        assert shell_sum(lam, t1, t2) == t1[1] + t2[1]
    else:
        assert shell_sum(lam, t1, t2) == (t1[1] + t1[-lam + 1]
                                          + t2[1] + t2[lam + 1])


def test_realize_link_matches_the_per_regime_reference():
    rng = random.Random(20261018)
    hits: dict[str, int] = {}
    realized = 0
    for k in range(6000):
        t = target(rng, k)
        got, want = outcome(realize_link, *t), outcome(ref_realize_link, *t)
        assert text(got) == text(want), t
        if isinstance(want, tuple):
            key = want[1].split(",")[0].split(";")[0]
            hits[key] = hits.get(key, 0) + 1
        else:
            assert got.signs == want.signs and got.circles == want.circles
            realized += 1
    assert realized >= 2000, realized
    messages = [
        "realization targets assume lam >= 0",
        "component-1 writhe targets must vanish on slots",
        "component-2 writhe targets must vanish on slots",
        "lam = 1 takes single linking numbers",
        "(a): second linking number is forced to",
        "(a): the two nonself coefficient sums must be equal",
        "(a): nonself coefficient sums must differ by lam",
        "nonself coefficients must be keyed",
        "(b): the index-weighted target total must vanish",
        "(b): index-weighted target total must vanish mod lam",
        "no shell-sum invariant exists for lam = 1",
        "shell-sum target conflicts with the slot-1 writhe targets",
        "shell-sum target conflicts with the four slot targets",
    ]
    for m in messages:
        assert any(key.startswith(m) for key in hits), (m, hits)


def test_profiles_forms_and_consistency_match_the_per_regime_reference():
    rng = random.Random(7)
    for k in range(3000):
        lam = k % 7 - 3
        G = random_link_with_lambda(rng, lam, max_self=6)
        pr = profile(G)
        jn1, jn2, ss = ref_profile_tables(G)
        assert (pr.jn1, pr.jn2, pr.shell_sum) == (jn1, jn2, ss), G
        inv1, inv2 = ref_invariant_jn(pr)
        assert pr.fields() == (
            (LAMBDA_LABEL, pr.lam), ("linking number", (pr.lk12, pr.lk21)),
            ("component-1 index writhe", inv1),
            ("component-2 index writhe", inv2),
            ("linking class", pr.linking_class), ("shell sum", ss))
        # a spoiled shell sum or table entry must be refused alike
        spoiled = [pr]
        if ss is not None:
            spoiled.append(replace(pr, shell_sum=ss + 1))
            spoiled.append(replace(pr, jn1=nudge(rng, pr.jn1,
                                                 list(range(-4, 5)))))
        for q in spoiled:
            assert outcome(canonical_form, q) == \
                outcome(ref_canonical_link_form, q), q
            assert outcome(check_consistency, q) == \
                outcome(ref_check_consistency, q), q
