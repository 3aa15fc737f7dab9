"""One statement of a link's slot rules: ``invariants.link_slots`` says which
index-writhe slots are free and which are shell slots, and ``profile``,
``LinkProfile.invariant_jn1/2``, ``canonical_form``, ``check_consistency`` and
``realize_link`` all read it.

The references (``reference.py``) are the earlier form of each of those
places, which wrote the slot sets, the shell-sum formula and the
index-weighted totals out per lambda regime; the shared code is compared
against them on seeded inputs.  The reference realization builds with the
reference snail builder and realization blocks, never with the private
helpers it checks.
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
from shellmoves.invariants import LAMBDA_LABEL, link_slots, profile, shell_sum
from shellmoves.moves import random_walk
from shellmoves.normal_form import canonical_form, realize_link

from conftest import random_link_with_lambda, realize_args
from reference import (ref_canonical_link_form, ref_check_consistency,
                       ref_invariant_jn, ref_linking_data, ref_realize_link,
                       ref_self_writhe_tables, ref_slot_tables)


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
    _, a, b, c, d = realize_args(pr)
    a, b = dict(a), dict(b)
    if lam == 1:
        d = rng.choice(({}, {0: pr.lk21}))
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
        jn1, jn2, ss = ref_slot_tables(ref_linking_data(G)[2],
                                       *ref_self_writhe_tables(G))
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
