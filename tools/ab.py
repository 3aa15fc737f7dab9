"""A/B runner for the benchmark: alternating runs of two commits.

    python tools/ab.py BASE HEAD --workload W --seed S --pairs N \\
        --seconds T --out FILE

Checks out BASE and HEAD as detached ``git worktree``s in a temporary
directory (``TMPDIR`` chooses where) and removes them on every exit path.
Both commits must hold the same ``perfbench/`` and ``BENCHMARK.json``, so
the same harness measures both sides; the runner only invokes each side's
``perfbench/run.py --trace 0``.  Pair i runs BASE first when i is even and
HEAD first when it is odd.  Beside each run it times a fresh-interpreter
``import shellmoves`` from that side's ``src/``, since ``setup_s`` starts
with one.

For every end-to-end metric of ``BENCHMARK.json`` it prints each pair's
values, both medians, BASE's quartiles and IQR, and how many pairs HEAD
wins (ties count for neither side); beside ``peak_rss_mb`` it prints
each run's number of passes, since peak RSS grows with them.  FILE gets
both commit ids with the ids of their ``src/`` trees, the raw per-pair
numbers (with each run's ``attempted`` items and passes) and that summary,
as JSON.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), interpolated between closest ranks."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each pair's (base, head) values, both medians, BASE's
    quartiles and IQR, and HEAD's wins and ties.

    ``runs`` holds one dict per pair with a ``"base"`` and a ``"head"``
    metrics dict; ``metrics`` holds BENCHMARK.json's end-to-end entries
    (``name`` and ``better``).  A metric a run lacks is left out.
    """
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        pairs = [(r["base"][name], r["head"][name]) for r in runs
                 if name in r["base"] and name in r["head"]]
        if not pairs:
            continue
        base = [b for b, _ in pairs]
        head = [h for _, h in pairs]
        q1, base_median, q3 = quartiles(base)
        wins = sum(h < b if lower else h > b for b, h in pairs)
        ties = sum(h == b for b, h in pairs)
        head_median = statistics.median(head)
        out[name] = {
            "better": spec["better"],
            "pairs": [list(p) for p in pairs],
            "base_median": base_median,
            "head_median": head_median,
            "base_q1": q1,
            "base_q3": q3,
            "base_iqr": q3 - q1,
            "head_wins": wins,
            "ties": ties,
            "change": (head_median - base_median) / base_median
            if base_median else None,
        }
    return out


def report(summary: dict, runs: list[dict]) -> str:
    lines = []
    for name, s in summary.items():
        change = ("" if s["change"] is None
                  else f", change {100 * s['change']:+.1f}%")
        lines.append(
            f"{name} ({s['better']} is better): base median "
            f"{s['base_median']:.6g} (Q1 {s['base_q1']:.6g}, Q3 "
            f"{s['base_q3']:.6g}, IQR {s['base_iqr']:.6g}), head median "
            f"{s['head_median']:.6g}{change}; head wins {s['head_wins']} of "
            f"{len(s['pairs'])}, ties {s['ties']}")
        for i, (b, h) in enumerate(s["pairs"]):
            extra = ""
            if name == "setup_s":
                extra = (f"   import_s base {runs[i]['base']['import_s']:.4f}"
                         f" head {runs[i]['head']['import_s']:.4f}")
            elif name == "peak_rss_mb":
                extra = (f"   passes base {runs[i]['base']['passes']}"
                         f" head {runs[i]['head']['passes']}")
            lines.append(f"  pair {i + 1:2d} ({runs[i]['first']} first): "
                         f"base {b:.6g}  head {h:.6g}{extra}")
    return "\n".join(lines)


def import_seconds(tree: str) -> float:
    """Wall time of a fresh interpreter that imports ``shellmoves``."""
    src = os.path.join(tree, "src")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {src!r}); "
                    "import shellmoves"],
                   check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def read_run(stdout: str) -> dict:
    """One ``perfbench/run.py`` run's metrics from its standard output, with
    its ``correct`` flag, its ``attempted`` item count and its number of
    passes over the corpus."""
    last = json.loads(stdout.strip().splitlines()[-1])
    values = {k: m["value"] for k, m in last["metrics"].items()}
    values["correct"] = last["correct"]
    values["attempted"] = last["attempted"]
    values["passes"] = int(re.search(r"(\d+) passes of ", stdout).group(1))
    return values


def bench(tree: str, args) -> dict:
    """One ``perfbench/run.py --trace 0`` run, as :func:`read_run` reads it."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    if proc.returncode or not proc.stdout.strip():
        raise RuntimeError(f"perfbench failed in {tree}:\n{proc.stderr}")
    return read_run(proc.stdout)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs and --seconds must be positive")

    ids = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
           for side, rev in zip(SIDES, (args.base, args.head))}
    same = subprocess.run(["git", "-C", ROOT, "diff", "--quiet", ids["base"],
                           ids["head"], "--", "perfbench", "BENCHMARK.json"])
    if same.returncode:
        print("ab: perfbench/ or BENCHMARK.json differ between the two "
              "commits; refusing to compare", file=sys.stderr)
        return 2
    metrics = json.loads(git("show", f"{ids['head']}:BENCHMARK.json")
                         )["end_to_end"]
    src_trees = {side: git("rev-parse", f"{ids[side]}:src") for side in SIDES}

    signal.signal(signal.SIGTERM, _terminate)
    tmp = tempfile.mkdtemp(prefix="shellmoves-ab-")
    trees: dict[str, str] = {}
    try:
        for side in SIDES:
            trees[side] = os.path.join(tmp, side)
            git("worktree", "add", "--detach", trees[side], ids[side])
        runs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {"pair": i + 1, "first": order[0]}
            for side in order:
                imported = import_seconds(trees[side])
                run[side] = bench(trees[side], args)
                run[side]["import_s"] = imported
            runs.append(run)
            print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)",
                  file=sys.stderr)
    finally:
        for tree in trees.values():
            subprocess.run(["git", "-C", ROOT, "worktree", "remove",
                            "--force", tree], capture_output=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)

    summary = summarize(runs, metrics)
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of "
          f"{args.seconds:g} s; base {ids['base'][:12]} head "
          f"{ids['head'][:12]}")
    print(report(summary, runs))
    correct = all(r[side]["correct"] for r in runs for side in SIDES)
    print(f"every run correct: {correct}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"base": ids["base"], "head": ids["head"],
                   "base_src_tree": src_trees["base"],
                   "head_src_tree": src_trees["head"],
                   "workload": args.workload, "seed": args.seed,
                   "pairs": args.pairs, "seconds": args.seconds,
                   "python": sys.version.split()[0], "correct": correct,
                   "runs": runs, "summary": summary}, fh, indent=1)
        fh.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
