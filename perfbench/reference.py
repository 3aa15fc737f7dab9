"""Reference invariants used to check shellmoves output.

Independent of the ``shellmoves`` package: its own Gauss-code reader and
writer, chord indices from per-circle prefix sums of endpoint signs, writhe
tables, linking data, twist-class comparison of the nonself index tables,
the complete S-equivalence invariant, and a brute-force isomorphism test.

A diagram is ``Diagram(signs, circles)``: ``signs`` maps chord id to +1/-1
and each circle is a list of ``(chord, kind)`` endpoints, kind ``"<"`` for
the initial and ``">"`` for the terminal endpoint.  Polynomials are dicts
exponent -> nonzero coefficient.
"""

from __future__ import annotations

from typing import NamedTuple

INITIAL = "<"
TERMINAL = ">"


class Diagram(NamedTuple):
    signs: dict[str, int]
    circles: list[list[tuple[str, str]]]


# -- text format ----------------------------------------------------------------


def parse(text: str) -> Diagram:
    """Read the Gauss-code format (``circles:``, ``chord``, ``circle`` lines)."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    head, _, count = lines[0].partition(":")
    if head.strip() != "circles":
        raise ValueError(f"bad header {lines[0]!r}")
    signs: dict[str, int] = {}
    circles: list[list[tuple[str, str]]] = []
    for line in lines[1:]:
        if line.startswith("chord "):
            _, cid, sgn = line.split()
            signs[cid] = {"+": 1, "-": -1}[sgn]
        else:
            _, _, body = line.partition(":")
            circles.append([(tok[:-1], tok[-1]) for tok in body.split()])
    if len(circles) != int(count):
        raise ValueError("circle count mismatch")
    return Diagram(signs, circles)


def dump(D: Diagram) -> str:
    """Gauss-code text with chords declared in sorted id order."""
    out = [f"circles: {len(D.circles)}"]
    out += [f"chord {cid} {'+' if D.signs[cid] > 0 else '-'}"
            for cid in sorted(D.signs)]
    for i, word in enumerate(D.circles, start=1):
        toks = " ".join(c + k for c, k in word)
        out.append(f"circle {i}:" + (f" {toks}" if toks else ""))
    return "\n".join(out) + "\n"


def parse_poly(text: str) -> dict[int, int]:
    """Read the ``t^-1 - 2*t + t^3`` polynomial text."""
    out: dict[int, int] = {}
    for term in text.strip().replace(" - ", " + -").split(" + "):
        neg = term.startswith("-")
        body = term.lstrip("-")
        if "*" in body:
            coeff, tpart = body.split("*")
            c = int(coeff)
        elif body.startswith("t"):
            c, tpart = 1, body
        else:
            c, tpart = int(body), ""
        e = int(tpart[2:]) if tpart.startswith("t^") else (1 if tpart else 0)
        out[e] = out.get(e, 0) + (-c if neg else c)
    return {e: c for e, c in out.items() if c}


def parse_table(text: str) -> dict[int, int]:
    """Read a ``{n:v, n:v}`` table."""
    body = text.strip().strip("{}").strip()
    if not body:
        return {}
    return {int(n): int(v) for n, v in
            (item.split(":") for item in body.split(","))}


# -- chord indices ----------------------------------------------------------------


def _add(table: dict[int, int], n: int, v: int) -> None:
    table[n] = table.get(n, 0) + v
    if not table[n]:
        del table[n]


def arc_indices(word: list[tuple[str, str]], signs: dict[str, int]
                ) -> dict[str, int]:
    """Index of every chord with both endpoints on ``word``: the endpoint
    sign sum strictly between its initial and terminal endpoint, walking
    forward, read off one prefix-sum array."""
    prefix = [0]
    pos: dict[tuple[str, str], int] = {}
    for p, (cid, kind) in enumerate(word):
        s = signs[cid]
        prefix.append(prefix[-1] + (s if kind == TERMINAL else -s))
        pos[(cid, kind)] = p
    total = prefix[-1]
    out = {}
    for (cid, kind), i in pos.items():
        if kind != INITIAL or (cid, TERMINAL) not in pos:
            continue
        t = pos[(cid, TERMINAL)]
        out[cid] = (prefix[t] - prefix[i + 1] if i < t
                    else total - prefix[i + 1] + prefix[t])
    return out


def _table(indices: dict[str, int], signs: dict[str, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for cid, n in indices.items():
        _add(out, n, signs[cid])
    return out


def knot_invariants(D: Diagram) -> dict:
    """J (index writhes, n != 0), W and odd writhe of a one-circle diagram."""
    J = _table(arc_indices(D.circles[0], D.signs), D.signs)
    J.pop(0, None)
    W = dict(J)
    _add(W, 0, -sum(J.values()))
    return {"mu": 1, "J": J, "W": W,
            "odd_writhe": sum(v for n, v in J.items() if n % 2)}


def link_invariants(D: Diagram) -> dict:
    """Linking numbers, per-circle self tables, shell sum and the nonself
    index tables (relative to the first nonself chord met) of a two-circle
    diagram."""
    where = {}
    for ci, word in enumerate(D.circles):
        for p, (cid, kind) in enumerate(word):
            where[(cid, kind)] = (ci, p)
    lk = [0, 0]
    nonself = []
    for cid, s in D.signs.items():
        ci, ct = where[(cid, INITIAL)][0], where[(cid, TERMINAL)][0]
        if ci != ct:
            lk[ci] += s
            nonself.append(cid)
    lam = lk[0] - lk[1]
    t1 = _table(arc_indices(D.circles[0], D.signs), D.signs)
    t2 = _table(arc_indices(D.circles[1], D.signs), D.signs)
    t12: dict[int, int] = {}
    t21: dict[int, int] = {}
    if nonself:
        first = set(nonself)
        g0 = next(cid for word in D.circles for cid, _ in word
                  if cid in first)
        ci, pi = where[(g0, INITIAL)]
        ct, pt = where[(g0, TERMINAL)]
        a, b = D.circles[ci], D.circles[ct]
        merged = a[pi + 1:] + a[:pi] + b[pt + 1:] + b[:pt]
        idx = arc_indices(merged, D.signs)
        idx[g0] = 0
        for cid in nonself:
            _add(t12 if where[(cid, INITIAL)][0] == 0 else t21,
                 idx[cid], D.signs[cid])
    if abs(lam) == 1:
        shell_sum = None
    elif lam == 0:
        shell_sum = t1.get(1, 0) + t2.get(1, 0)
    else:
        shell_sum = (t1.get(1, 0) + t1.get(-lam + 1, 0)
                     + t2.get(1, 0) + t2.get(lam + 1, 0))
    s = abs(lam)
    deriv = (sum(n * v for n, v in t12.items())
             + sum(n * v for n, v in t21.items()))
    return {"mu": 2, "lk12": lk[0], "lk21": lk[1], "lambda": lam,
            "t1": t1, "t2": t2,
            "J1": {n: v for n, v in t1.items() if n not in (0, -lam)},
            "J2": {n: v for n, v in t2.items() if n not in (0, lam)},
            "shell_sum": shell_sum, "t12": t12, "t21": t21,
            "F_modulus": s,
            "F_derivative": None if s == 1 else (deriv % s if s >= 2 else deriv)}


def invariants(D: Diagram) -> dict:
    return knot_invariants(D) if len(D.circles) == 1 else link_invariants(D)


# -- twist classes -------------------------------------------------------------


def _vector(p: dict[int, int], s: int) -> list[int]:
    v = [0] * s
    for e, c in p.items():
        v[e % s] += c
    return v


def twist_equal(s: int, f1: dict[int, int], g1: dict[int, int],
                f2: dict[int, int], g2: dict[int, int]) -> bool:
    """(f1, g1) and (f2, g2) agree up to (f, g) ~ (t^k f, t^-k g), taken
    mod t^s - 1 when s >= 1."""
    if s == 1:
        return (sum(f1.values()), sum(g1.values())) == \
            (sum(f2.values()), sum(g2.values()))
    if s >= 2:
        a1, b1, a2, b2 = (_vector(p, s) for p in (f1, g1, f2, g2))
        return any(all(a1[i] == a2[(i + k) % s] and b1[i] == b2[(i - k) % s]
                       for i in range(s)) for k in range(s))
    if f1 or f2:
        if not (f1 and f2):
            return False
        k = min(f2) - min(f1)
    elif g1 or g2:
        if not (g1 and g2):
            return False
        k = min(g1) - min(g2)
    else:
        return True
    return ({e + k: c for e, c in f1.items()} == f2
            and {e - k: c for e, c in g1.items()} == g2)


# -- equivalence and isomorphism ------------------------------------------------


def swapped(D: Diagram) -> Diagram:
    return Diagram(D.signs, [D.circles[1], D.circles[0]])


def shell_free_tables(inv: dict) -> tuple[dict[int, int], dict[int, int]]:
    """Self tables of a link with lambda >= 0 off the slots a sliding shell
    can occupy: {0, 1, -lambda, 1 - lambda} on circle 1, {0, 1, lambda,
    1 + lambda} on circle 2."""
    lam = inv["lambda"]
    return ({n: v for n, v in inv["t1"].items()
             if n not in (0, 1, -lam, -lam + 1)},
            {n: v for n, v in inv["t2"].items()
             if n not in (0, 1, lam, lam + 1)})


def equivalent(D: Diagram, E: Diagram) -> bool:
    """S-equivalence from the complete invariant suite: the writhe
    polynomial for knots; for links lambda, the linking numbers, the
    shell-free self tables, the shell sum (lambda >= 2) and the twist class
    of the nonself tables, after swapping the components when lambda < 0."""
    if len(D.circles) != len(E.circles):
        return False
    if len(D.circles) == 1:
        return knot_invariants(D)["W"] == knot_invariants(E)["W"]
    a, b = link_invariants(D), link_invariants(E)
    if a["lambda"] != b["lambda"]:
        return False
    if a["lambda"] < 0:
        a, b = link_invariants(swapped(D)), link_invariants(swapped(E))
    return ((a["lk12"], a["lk21"]) == (b["lk12"], b["lk21"])
            and shell_free_tables(a) == shell_free_tables(b)
            and (a["lambda"] < 2 or a["shell_sum"] == b["shell_sum"])
            and twist_equal(a["F_modulus"], a["t12"], a["t21"],
                            b["t12"], b["t21"]))


def isomorphic(D: Diagram, E: Diagram) -> bool:
    """Same diagram up to rotating each circle and renaming chords, by trying
    every rotation of every circle (meant for a handful of chords)."""
    if len(D.circles) != len(E.circles) or len(D.signs) != len(E.signs):
        return False
    if [len(w) for w in D.circles] != [len(w) for w in E.circles]:
        return False

    def extend(ci: int, ren: dict[str, str]) -> bool:
        if ci == len(D.circles):
            return True
        w, x = D.circles[ci], E.circles[ci]
        for r in range(max(len(w), 1)):
            ren2 = dict(ren)
            ok = True
            for k, (cid, kind) in enumerate(w):
                cid2, kind2 = x[(k + r) % len(x)]
                if (kind != kind2 or D.signs[cid] != E.signs[cid2]
                        or ren2.setdefault(cid, cid2) != cid2):
                    ok = False
                    break
            if ok and len(set(ren2.values())) == len(ren2) \
                    and extend(ci + 1, ren2):
                return True
        return False

    return extend(0, {})
