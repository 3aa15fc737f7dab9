"""CLI output pinned byte for byte.

``cli_golden.json`` holds, for several hundred commands over seeded inputs,
the exit code and the first 16 hex digits of the SHA-256 of stdout and of
stderr.  The inputs are the oracle pool, seeded knots, links with lambda
from -3 to 3 and snail forms; the commands are ``invariants`` (text and
``--json``), ``normalize``, ``fmt``, a short ``fuzz``, ``equiv`` against a
walked and a sign-flipped partner (whose texts ``fmt`` also pins),
``witness`` on the 46 pool pairs, ``replay`` of every trace found, and
``realize`` on accepted and rejected specs.

A refactor must leave every entry unchanged.  A change meant to alter
output rewrites the manifest with
``PYTHONPATH=src python tests/test_cli_golden.py`` and says which entries
moved and why.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

from shellmoves.cli import main
from shellmoves.diagram import GaussDiagram, serialize, swap_components
from shellmoves.moves import random_walk
from shellmoves.normal_form import build_link_form

from conftest import (
    oracle_pool,
    random_canonical_form,
    random_diagram,
    random_link_with_lambda,
)

MANIFEST = Path(__file__).with_name("cli_golden.json")

WITNESS_ARGS = ("--depth", "6", "--cap", "8", "--budget", "9000")

REALIZE_SPECS = {
    # knots: accepted, then value or derivative at 1 nonzero, malformed
    "w-zero": "mu: 1\nw: 0\n",
    "w-trefoil": "mu: 1\nw: t^2 - 2*t + 1\n",
    "w-mixed": "mu: 1\nw: t^-1 - 2*t + t^3\n",
    "w-wide": "mu: 1\nw: 2*t^-3 - t^-2 - 3*t^2 + 2*t^3 - 3 + 3*t\n",
    "w-value": "mu: 1\nw: t^2\n",
    "w-derivative": "mu: 1\nw: t^2 - 1\n",
    "w-junk": "mu: 1\nw: t^^2\n",
    "w-missing": "mu: 1\n",
    # links, lambda 0
    "l0-empty": "mu: 2\nlambda: 0\n",
    "l0-tables": "mu: 2\nlambda: 0\na: 2:1 3:-1\nb: -1:2\nc: 0:1 2:1\n"
                 "d: 0:1 1:1\n",
    "l0-shell": "mu: 2\nlambda: 0\na: 1:2 2:1\nb: 1:-1 -1:3\nc: 0:1\nd: 0:1\n",
    "l0-anchor": "mu: 2\nlambda: 0\na: 1:2\nb: 1:-2\n",
    "l0-gadgets": "mu: 2\nlambda: 0\na: 1:1 2:1\nb: -1:2 1:-1\nshell_sum: 0\n",
    "l0-sums": "mu: 2\nlambda: 0\nc: 0:1\nd: 0:2\n",
    "l0-weighted": "mu: 2\nlambda: 0\na: 2:1\n",
    "l0-free-slot": "mu: 2\nlambda: 0\na: 0:1\n",
    "l0-shell-conflict": "mu: 2\nlambda: 0\na: 1:2\nshell_sum: 5\n",
    # lambda 1
    "l1-plain": "mu: 2\nlambda: 1\nc: 1\nd: 0\n",
    "l1-tables": "mu: 2\nlambda: 1\na: 2:1 1:-1\nb: -1:1 3:-1\nc: 3\nd: 2\n",
    "l1-forced": "mu: 2\nlambda: 1\nc: 2\nd: 0\n",
    "l1-vector": "mu: 2\nlambda: 1\nc: 1 1\nd: 0\n",
    "l1-shell-sum": "mu: 2\nlambda: 1\nc: 1\nshell_sum: 0\n",
    # lambda 2 and 3
    "l2-plain": "mu: 2\nlambda: 2\nc: 2 0\nd: 0 0\n",
    "l2-tables": "mu: 2\nlambda: 2\na: 2:2 3:-1\nb: -1:2\nc: 1 1\nd: 0 0\n",
    "l2-shell": "mu: 2\nlambda: 2\na: 1:1 -1:-2\nb: 1:1\nc: 2 0\nd: 0 0\n",
    "l2-shell-bad": "mu: 2\nlambda: 2\nc: 2 0\nd: 0 0\nshell_sum: 7\n",
    "l2-mod": "mu: 2\nlambda: 2\na: 2:1\nc: 2 0\nd: 0 0\n",
    "l3-plain": "mu: 2\nlambda: 3\nc: 1 1 1\nd: 0 0 0\n",
    "l3-tables": "mu: 2\nlambda: 3\na: 4:1 -3:0\nb: -2:1\nc: 2 1 0\nd: 0 0 0\n",
    "l3-shell": "mu: 2\nlambda: 3\na: 1:2\nb: 1:-1 2:1\nc: 1 1 1\nd: 0 0 0\n",
    "l3-sums": "mu: 2\nlambda: 3\nc: 1 1 1\nd: 1 0 0\n",
    # rejected before any arithmetic
    "neg-lambda": "mu: 2\nlambda: -1\nc: 0\nd: 1\n",
    "no-lambda": "mu: 2\na: 2:1\n",
    "bad-key": "mu: 2\nlambda: 0\ne: 1\n",
    "no-mu": "lambda: 0\n",
    "twice": "mu: 2\nlambda: 0\nlambda: 0\n",
    "bad-pair": "mu: 2\nlambda: 0\na: 2\n",
}


def _inputs() -> dict[str, GaussDiagram]:
    """The oracle pool, then seeded knots, links and snail forms; a name
    carries the link's lambda (``m`` for minus) where it is known."""
    knots, links = oracle_pool()
    out = {f"k{i}.gd": G for i, G in enumerate(knots)}
    out.update((f"l{i}.gd", G) for i, G in enumerate(links))
    rng = random.Random(20261018)
    for i in range(10):
        out[f"knot{i}.gd"] = random_diagram(rng, 1, 8)
    for i in range(2):
        for lam in range(-3, 4):
            tag = f"m{-lam}" if lam < 0 else str(lam)
            out[f"link{tag}-{i}.gd"] = random_link_with_lambda(rng, lam)
    for i in range(3):
        for lam in range(4):
            G = build_link_form(random_canonical_form(rng, lam))
            out[f"form{lam}-{i}.gd"] = G
            if lam:
                out[f"formm{lam}-{i}.gd"] = swap_components(G)
    return out


def _partners(rng: random.Random, G: GaussDiagram
              ) -> tuple[GaussDiagram, GaussDiagram]:
    """A random walk from ``G`` and ``G`` with one chord's sign flipped."""
    walked, _ = random_walk(G, rng.randint(1, 6), seed=rng.randrange(10**6),
                            chord_cap=len(G) + 4)
    if not G.signs:
        return walked, G
    cid = rng.choice(sorted(G.signs))
    return walked, GaussDiagram({**G.signs, cid: -G.signs[cid]}, G.circles)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return code, out.getvalue(), err.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _write_inputs(workdir: Path) -> list[list[str]]:
    """Write every input file into ``workdir``; return the per-file
    commands."""
    files: dict[str, str] = {}
    rng = random.Random(7)
    commands = []
    for k, (name, G) in enumerate(_inputs().items()):
        walked, flipped = _partners(rng, G)
        stem = name[:-3]
        files[name] = serialize(G)
        files[f"{stem}.walk.gd"] = serialize(walked)
        files[f"{stem}.flip.gd"] = serialize(flipped)
        cap = str(len(G) + 4)
        commands += [
            ["invariants", name], ["invariants", name, "--json"],
            ["normalize", name], ["fmt", name],
            ["fuzz", name, "--steps", "8", "--seed", str(k), "--cap", cap],
            ["fmt", f"{stem}.walk.gd"], ["fmt", f"{stem}.flip.gd"],
            ["equiv", name, f"{stem}.walk.gd"],
            ["equiv", name, f"{stem}.flip.gd"],
        ]
    for name, text in REALIZE_SPECS.items():
        files[f"{name}.spec"] = text
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    return commands


def _outcomes() -> dict[str, tuple[int, str, str]]:
    """Command text -> (exit code, stdout, stderr), run in a fresh
    temporary directory so file names (and messages naming them) are
    relative.  Each trace ``witness`` finds is replayed."""
    got = {}

    def run(argv):
        got[" ".join(argv)] = result = _run(argv)
        return result

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in _write_inputs(Path(tmp)):
                run(argv)
            knots, links = oracle_pool()
            for tag, pool in (("k", knots), ("l", links)):
                for i in range(len(pool)):
                    for j in range(i, len(pool)):
                        a, b = f"{tag}{i}.gd", f"{tag}{j}.gd"
                        code, out, _ = run(["witness", a, b, *WITNESS_ARGS])
                        if code == 0:
                            trace = f"{tag}{i}-{tag}{j}.trace"
                            Path(trace).write_text(out, encoding="utf-8")
                            run(["replay", a, trace])
            for name in REALIZE_SPECS:
                run(["realize", "--spec", f"{name}.spec"])
        finally:
            os.chdir(here)
    return got


def _entries(outcomes) -> dict[str, list]:
    return {cmd: [code, _digest(out), _digest(err)]
            for cmd, (code, out, err) in outcomes.items()}


def test_cli_output_matches_manifest():
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    outcomes = _outcomes()
    got = _entries(outcomes)
    assert list(got) == list(want), "the command list changed"
    bad = [cmd for cmd in want if got[cmd] != want[cmd]]
    if bad:
        code, out, err = outcomes[bad[0]]
        raise AssertionError(
            f"{len(bad)} command(s) differ from {MANIFEST.name}, first: "
            f"{bad[0]}\nexit {code} (manifest {want[bad[0]][0]})\n"
            f"--- stdout ---\n{out}--- stderr ---\n{err}")


if __name__ == "__main__":
    entries = _entries(_outcomes())
    MANIFEST.write_text(
        "{\n" + ",\n".join(f"{json.dumps(cmd)}: {json.dumps(v)}"
                          for cmd, v in entries.items()) + "\n}\n",
        encoding="utf-8")
    print(f"wrote {len(entries)} entries to {MANIFEST}")
