"""The finders, the site counts and the unchecked rewrite at the fuzz
benchmark's scale: reference walks of 30 steps at cap 40 from knots and
links of up to 12 chords, checked at every step.

The deletion and exchange finders (R2_delete, R3, S1, S2_delete) test each
candidate against their kind's fault test in one pass; here they must list
what the tests' references list, in the same order.  ``count_move_sites``
must count what ``find_move_sites`` lists for every kind.  The random walk
and the witness search apply the sites they list through
``moves.apply_listed``, which neither checks nor builds an inverse; on
every listed site it must give the image that the checking
``apply_move_with_inverse`` gives (signs order and words).  R2_insert lists
thousands of sites on these diagrams, so its images are compared on a
seeded sample of 12 per step.
"""

import random

from shellmoves.diagram import GaussDiagram
from shellmoves.moves import (MOVE_KINDS, R2_DELETE, R2_INSERT, R3, S1,
                              S2_DELETE, apply_listed, apply_move_with_inverse,
                              count_move_sites, find_move_sites)

from conftest import R3_BLOCKS, R3_SIGNS, chord_blocks, image
from reference import REF_FINDERS, ref_apply, ref_random_walk

FINDERS = (R2_DELETE, R3, S1, S2_DELETE)
R2_INSERT_SAMPLE = 12


def _start(rng, i):
    """A knot (even ``i``) or a two-circle link of up to 12 chords; every
    other pair of them holds an R3 configuration, which walks seldom reach."""
    signs = dict(R3_SIGNS) if i % 4 >= 2 else {}
    blocks = list(R3_BLOCKS) if signs else []
    blocks += chord_blocks(rng, signs, rng.randint(1, 12 - len(signs)))
    rng.shuffle(blocks)
    words = [[] for _ in range(1 + i % 2)]
    for block in blocks:
        rng.choice(words).extend(block)
    return GaussDiagram(signs, words)


def test_finders_counts_and_unchecked_rewrite_along_fuzz_walks():
    rng = random.Random(36)
    listed = dict.fromkeys(MOVE_KINDS, 0)
    most = 0
    for i in range(8):
        G = _start(rng, i)
        _, trace = ref_random_walk(G, 30, rng.randrange(10**9), 40)
        for step in [*trace, None]:
            most = max(most, len(G))
            for kind in MOVE_KINDS:
                sites = find_move_sites(G, kind)
                if kind in FINDERS:
                    assert sites == REF_FINDERS[kind](G), (kind, G)
                assert count_move_sites(G, kind) == len(sites), (kind, G)
                listed[kind] += len(sites)
                if kind == R2_INSERT:
                    sites = rng.sample(sites, min(len(sites), R2_INSERT_SAMPLE))
                for site in sites:
                    assert (image(apply_listed(G, site))
                            == image(apply_move_with_inverse(G, site)[0])), (
                        G, site)
            if step is not None:
                G = ref_apply(G, step)[0]
    assert most >= 20
    assert min(listed.values()) > 30, listed
