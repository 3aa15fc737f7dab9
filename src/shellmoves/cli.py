"""Command-line front end.

Subcommands: invariants, normalize, equiv, realize, fuzz, witness, replay,
fmt.  Exit codes: 0 success (equiv: equivalent; witness: found), 1 negative
result or failed realization, 2 internal invariant violation, 64 usage
error, 65 unreadable or malformed input.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from .algebra import parse_poly
from .diagram import GaussDiagram, parse_gauss_code, serialize, swap_components
from .errors import (
    BudgetExceeded,
    ConstraintViolated,
    GaussCodeError,
    NegativeLambda,
    NotRealizable,
    ShellmovesError,
    StaleSite,
)
from .equiv import bfs_witness, s_equivalent
from .invariants import KnotProfile, linking_data, profile
from .moves import apply_move, random_walk, site_from_text, site_to_text
from .normal_form import canonical_form, form_code, realize_knot, realize_link
# the benchmark's tracer wraps these two names (perfbench/spans.py)
from .normal_form import build_knot_form, build_link_form  # noqa: F401

USAGE_ERROR = 64
DATA_ERROR = 65
INVARIANT_VIOLATION = 2


def _read(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise GaussCodeError(f"cannot read {path}: {e}") from None
    return data.decode("utf-8")  # callers split lines: CRLF and CR read alike


def _load(path: str) -> GaussDiagram:
    return parse_gauss_code(_read(path))


def _fmt_table(t: dict[int, int]) -> str:
    return "{" + ", ".join(f"{n}:{v}" for n, v in sorted(t.items())) + "}"


def _print_profile(pr, out) -> None:
    if isinstance(pr, KnotProfile):
        print("mu: 1", file=out)
        print(f"W: {pr.writhe}", file=out)
        print(f"J: {_fmt_table(pr.n_writhes)}", file=out)
        print(f"odd_writhe: {pr.odd_writhe}", file=out)
        return
    print("mu: 2", file=out)
    print(f"lk: ({pr.lk12}, {pr.lk21})", file=out)
    print(f"lambda: {pr.lam}", file=out)
    print(f"J1: {_fmt_table(pr.jn1)}", file=out)
    print(f"J2: {_fmt_table(pr.jn2)}", file=out)
    if pr.shell_sum is not None:
        print(f"shell_sum: {pr.shell_sum}", file=out)
    print(f"F: {pr.linking_class}", file=out)
    if pr.f_prime is not None:
        print(f"F_derivative: {pr.f_prime}", file=out)


def _profile_json(pr) -> dict:
    if isinstance(pr, KnotProfile):
        return {"mu": 1, "W": str(pr.writhe),
                "J": {str(n): v for n, v in sorted(pr.n_writhes.items())},
                "odd_writhe": pr.odd_writhe}
    return {"mu": 2, "lk12": pr.lk12, "lk21": pr.lk21, "lambda": pr.lam,
            "J1": {str(n): v for n, v in sorted(pr.jn1.items())},
            "J2": {str(n): v for n, v in sorted(pr.jn2.items())},
            "shell_sum": pr.shell_sum,
            "F": [str(pr.linking_class.f), str(pr.linking_class.g)],
            "F_modulus": pr.linking_class.s,
            "F_derivative": pr.f_prime}


def _cmd_invariants(args, out) -> int:
    pr = profile(_load(args.file))
    if args.json:
        print(json.dumps(_profile_json(pr), sort_keys=True), file=out)
    else:
        _print_profile(pr, out)
    return 0


def _cmd_normalize(args, out) -> int:
    G = _load(args.file)
    if G.mu == 2 and linking_data(G)[2] < 0:
        print("note: components swapped (lambda < 0)", file=out)
        G = swap_components(G)
    pr = profile(G)
    sf = canonical_form(pr)
    print(f"a: {_fmt_table(sf.a)}", file=out)
    if not isinstance(pr, KnotProfile):
        print(f"b: {_fmt_table(sf.b)}", file=out)
        if sf.lam == 0:
            print(f"c: {_fmt_table(sf.c)}", file=out)
            print(f"d: {_fmt_table(sf.d)}", file=out)
        else:
            print(f"c: {list(sf.c_vector())}", file=out)
            print(f"d: {list(sf.d_vector())}", file=out)
        print(f"p: {sf.p}", file=out)
    print(form_code(sf), end="", file=out)
    return 0


def _cmd_equiv(args, out) -> int:
    verdict = s_equivalent(_load(args.a), _load(args.b))
    print(verdict.reason, file=out)
    return 0 if verdict.equivalent else 1


def _parse_pairs(body: str, what: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for tok in body.split():
        n, sep, v = tok.partition(":")
        if not sep:
            raise GaussCodeError(f"{what}: expected n:coeff pairs, got {tok!r}")
        try:
            slot, coeff = int(n), int(v)
        except ValueError:
            raise GaussCodeError(f"{what}: bad pair {tok!r}") from None
        if slot in out:
            raise GaussCodeError(f"{what}: slot {slot} given twice")
        out[slot] = coeff
    return out


def _parse_vector(body: str, what: str) -> list[int]:
    try:
        return [int(t) for t in body.split()]
    except ValueError:
        raise GaussCodeError(f"{what}: expected integers") from None


# the keys a target block may hold, by its mu line
_SPEC_KEYS = {"1": ("mu", "w"),
              "2": ("mu", "lambda", "a", "b", "c", "d", "shell_sum")}


def _int_line(fields: dict[str, str], key: str) -> int:
    try:
        return int(fields.get(key, ""))
    except ValueError:
        raise GaussCodeError(f"link target needs an integer '{key}:' line") \
            from None


def _cmd_realize(args, out) -> int:
    fields: dict[str, str] = {}
    for raw in _read(args.spec).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, body = line.partition(":")
        key = key.strip()
        if not sep:
            raise GaussCodeError(f"bad target line {line!r}")
        if key in fields:
            raise GaussCodeError(f"target key {key!r} given twice")
        fields[key] = body.strip()
    mu = fields.get("mu")
    if mu not in _SPEC_KEYS:
        raise GaussCodeError("target block needs 'mu: 1' or 'mu: 2'")
    for key in fields:
        if key not in _SPEC_KEYS[mu]:
            raise GaussCodeError(f"unknown target key {key!r} for mu: {mu}")
    if mu == "1":
        if "w" not in fields:
            raise GaussCodeError("knot target needs a 'w:' polynomial line")
        try:
            f = parse_poly(fields["w"])
        except ValueError as e:
            raise GaussCodeError(str(e)) from None
        G = realize_knot(f)
    else:
        lam = _int_line(fields, "lambda")
        a = _parse_pairs(fields.get("a", ""), "a")
        b = _parse_pairs(fields.get("b", ""), "b")
        if lam == 0:
            c = _parse_pairs(fields.get("c", ""), "c")
            d = _parse_pairs(fields.get("d", ""), "d")
        else:
            cv = _parse_vector(fields.get("c", ""), "c")
            dv = _parse_vector(fields.get("d", ""), "d")
            c = {m: v for m, v in enumerate(cv)}
            d = {m: v for m, v in enumerate(dv)}
        target_ss = (_int_line(fields, "shell_sum") if "shell_sum" in fields
                     else None)
        G = realize_link(lam, a, b, c, d, target_ss)
    print(serialize(G), end="", file=out)
    return 0


def _cmd_fuzz(args, out) -> int:
    G = _load(args.file)
    before = profile(G)
    H, trace = random_walk(G, args.steps, args.seed, args.cap)
    if profile(H) != before:
        print(f"invariant violation after {len(trace)} moves (seed {args.seed})",
              file=out)
        for site in trace:
            print(site_to_text(site), file=out)
        return INVARIANT_VIOLATION
    print(f"ok: profile preserved over {len(trace)} moves (seed {args.seed})",
          file=out)
    return 0


def _cmd_witness(args, out) -> int:
    A, B = _load(args.a), _load(args.b)
    try:
        trace = bfs_witness(A, B, args.depth, args.cap, args.budget)
    except BudgetExceeded:
        print("none within bounds (budget exhausted)", file=out)
        return 1
    if trace is None:
        print("none within bounds", file=out)
        return 1
    for site in trace:
        print(site_to_text(site), file=out)
    return 0


def _cmd_replay(args, out) -> int:
    G = _load(args.file)
    for lineno, raw in enumerate(_read(args.trace).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            site = site_from_text(line)
            G = apply_move(G, site)
        except (ValueError, StaleSite) as e:
            raise GaussCodeError(f"trace line {lineno}: {e}") from None
    print(serialize(G), end="", file=out)
    return 0


def _cmd_fmt(args, out) -> int:
    print(serialize(_load(args.file)), end="", file=out)
    return 0


def _bound(text: str) -> int:
    """A non-negative int: a depth, chord cap, budget or step count."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The argument parser and each command's own, built once."""
    ap = argparse.ArgumentParser(
        prog="shellmoves",
        description="Gauss-diagram invariants, shell moves and normal forms")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="print the invariant profile")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_invariants)

    p = sub.add_parser("normalize", help="canonical snail form + rebuilt code")
    p.add_argument("file")
    p.set_defaults(run=_cmd_normalize)

    p = sub.add_parser("equiv", help="decide shell-move equivalence")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(run=_cmd_equiv)

    p = sub.add_parser("realize", help="build a diagram hitting target invariants")
    p.add_argument("--spec", required=True, dest="spec",
                   help="target block file")
    p.set_defaults(run=_cmd_realize)

    p = sub.add_parser("fuzz", help="random walk; assert profile preservation")
    p.add_argument("file")
    p.add_argument("--steps", type=_bound, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cap", type=_bound, required=True)
    p.set_defaults(run=_cmd_fuzz)

    p = sub.add_parser("witness", help="bounded search for a move sequence")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--depth", type=_bound, required=True)
    p.add_argument("--cap", type=_bound, default=8)
    p.add_argument("--budget", type=_bound, default=20000)
    p.set_defaults(run=_cmd_witness)

    p = sub.add_parser("replay", help="re-apply a recorded move trace")
    p.add_argument("file")
    p.add_argument("trace")
    p.set_defaults(run=_cmd_replay)

    p = sub.add_parser("fmt", help="canonicalize Gauss-code whitespace")
    p.add_argument("file")
    p.set_defaults(run=_cmd_fmt)
    return ap, sub.choices


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    ap, commands = _build_parser()
    # a known command's own parser reads its arguments; the rest go to ap
    command = commands.get(argv[0]) if argv else None
    try:
        # help goes to ``out``; usage errors stay on stderr
        with contextlib.redirect_stdout(out):
            args = (command.parse_args(argv[1:]) if command
                    else ap.parse_args(argv))
    except SystemExit as e:
        return 0 if e.code == 0 else USAGE_ERROR
    try:
        return args.run(args, out)
    except (NotRealizable, ConstraintViolated, NegativeLambda) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ShellmovesError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
