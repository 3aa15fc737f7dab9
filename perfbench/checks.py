"""Output checks, run outside the timed region.

Each check takes the item, the ``(exit code, stdout)`` of each of its CLI
calls and the corpus texts, and returns ``(ok, decided)``: whether every
output is right, and whether the item ended with a definite answer.
"""

from __future__ import annotations

import json

import reference as ref
from corpus import Item

BUDGET_OUT = "none within bounds (budget exhausted)\n"
ABSENT_OUT = "none within bounds\n"


class RefCache:
    """Reference invariants per corpus file, computed once per run."""

    def __init__(self, files: dict[str, str]):
        self.files = files
        self._inv: dict[str, dict] = {}

    def diagram(self, name: str) -> ref.Diagram:
        return ref.parse(self.files[name])

    def invariants(self, name: str) -> dict:
        if name not in self._inv:
            self._inv[name] = ref.invariants(self.diagram(name))
        return self._inv[name]


def _table(t: dict[int, int]) -> dict[str, int]:
    return {str(n): v for n, v in sorted(t.items())}


def invariants_json_ok(out: str, inv: dict) -> bool:
    """Every field of ``invariants --json`` against the reference."""
    got = json.loads(out)
    if inv["mu"] == 1:
        return (got["mu"] == 1 and got["J"] == _table(inv["J"])
                and ref.parse_poly(got["W"]) == inv["W"]
                and got["odd_writhe"] == inv["odd_writhe"])
    s = inv["F_modulus"]
    return (got["mu"] == 2
            and (got["lk12"], got["lk21"], got["lambda"])
            == (inv["lk12"], inv["lk21"], inv["lambda"])
            and got["J1"] == _table(inv["J1"]) and got["J2"] == _table(inv["J2"])
            and got["shell_sum"] == inv["shell_sum"]
            and got["F_modulus"] == s
            and got["F_derivative"] == inv["F_derivative"]
            and ref.twist_equal(s, inv["t12"], inv["t21"],
                                ref.parse_poly(got["F"][0]),
                                ref.parse_poly(got["F"][1])))


def normalize_ok(out: str, D: ref.Diagram) -> bool:
    """The printed snail data match the reference tables, and the rebuilt
    code printed after them is equivalent to the input."""
    head, sep, code = out.partition("circles:")
    if not sep:
        return False
    rebuilt = ref.parse(sep + code)
    fields = {}
    for line in head.splitlines():
        key, _, body = line.partition(": ")
        fields[key] = body
    if len(D.circles) == 1:
        want_a = {n: v for n, v in ref.knot_invariants(D)["J"].items()
                  if n != 1}
        return (ref.parse_table(fields.get("a", "")) == want_a
                and ref.equivalent(D, rebuilt))
    swap = ref.link_invariants(D)["lambda"] < 0
    if swap != ("note" in fields):
        return False
    if swap:
        D = ref.swapped(D)
    want_a, want_b = ref.shell_free_tables(ref.link_invariants(D))
    return (ref.parse_table(fields.get("a", "")) == want_a
            and ref.parse_table(fields.get("b", "")) == want_b
            and ref.equivalent(D, rebuilt))


def check_decide(item: Item, results, refs: RefCache, _replay) -> tuple[bool, bool]:
    (rc_i, out_i), (rc_n, out_n), (rc_e, out_e) = results
    a = item.files[0]
    decided = rc_e in (0, 1)
    try:
        ok = (rc_i == 0 and invariants_json_ok(out_i, refs.invariants(a))
              and rc_n == 0 and normalize_ok(out_n, refs.diagram(a)))
    except (ValueError, KeyError, IndexError, TypeError):
        ok = False
    want = 0 if item.expect["equivalent"] else 1
    ok = ok and rc_e == want and (want == 1 or out_e == "all conditions met\n")
    return ok, decided


def check_oracle(item: Item, results, refs: RefCache, replay) -> tuple[bool, bool]:
    """A found trace must join two equivalent diagrams and replay to one
    isomorphic to B; a budget stop is undecided; a search that ran out of
    moves is a definite (if bounded) negative."""
    (rc, out), = results
    a, b = item.files
    if rc == 1:
        return out in (BUDGET_OUT, ABSENT_OUT), out == ABSENT_OUT
    if rc != 0 or not item.expect["equivalent"]:
        return False, True
    rc_r, end = replay(a, out)
    try:
        return rc_r == 0 and ref.isomorphic(ref.parse(end),
                                            refs.diagram(b)), True
    except (ValueError, KeyError, IndexError):
        return False, True


def check_fuzz(item: Item, results, _refs, _replay) -> tuple[bool, bool]:
    (rc, out), = results
    seed = item.expect["walk_seed"]
    return (rc == 0 and out == f"ok: profile preserved over 30 moves "
            f"(seed {seed})\n"), rc in (0, 2)


CHECKS = {"decide": check_decide, "oracle": check_oracle, "fuzz": check_fuzz}
