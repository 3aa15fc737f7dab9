"""shellmoves benchmark.

    python3 perfbench/run.py --workload {decide,oracle,fuzz} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; it imports ``shellmoves`` from ``src/``.  Each
workload is one process and one thread in a closed loop: every item calls
``shellmoves.cli.main(argv, out=buffer)`` on Gauss-code files the benchmark
generated from ``--seed``, and starts after the previous item returned.  The
loop runs whole passes over the corpus until ``--seconds`` have passed and
the workload's minimum number of passes ran.  Each item's outputs are
checked against perfbench's own reference code right after it runs, outside
its timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time, then traced passes that wrap the package's
functions (see spans.py), and prints the per-layer metrics, each a total per
pass of the corpus; the spans go to ``perfbench/out``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import reference
from checks import CHECKS, RefCache
from corpus import WORKLOADS, random_knot
from spans import Tracer, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
WARMUP_ITEMS = 3
# Passes a run makes at least; an item's time is its median over them.  An
# oracle pass alone takes longer than a host slowdown usually lasts.
MIN_PASSES = {"decide": 3, "oracle": 1, "fuzz": 3}
# Host-speed probe (see HostProbe): nominal probe time, the least time
# between two probes, and how many recent probes the scale takes the median
# of.
PROBE_S = 0.002
PROBE_EVERY_S = 0.2
PROBE_WINDOW = 9


class HostProbe:
    """Times a fixed computation from perfbench's own reference code
    between items.  On a shared host the machine's speed swings by up to
    1.6x for seconds to minutes; scaling item times by the probe's nominal
    time over its recent median takes most of that swing out of the
    end-to-end metrics, while the program's own speed still shows in full."""

    def __init__(self):
        self.diagram = random_knot(random.Random(0), 400)
        self.recent: collections.deque = collections.deque(
            maxlen=PROBE_WINDOW)
        self.last = -math.inf

    def scale(self) -> float:
        """PROBE_S over the median recent probe time, probing first if the
        last probe is older than PROBE_EVERY_S."""
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            start = time.perf_counter()
            for _ in range(4):
                reference.invariants(self.diagram)
            self.last = time.perf_counter()
            self.recent.append(self.last - start)
        return PROBE_S / statistics.median(self.recent)


def load_package():
    """Import ``shellmoves`` from this checkout's ``src``, or exit."""
    if not os.path.isfile(os.path.join(SRC, "shellmoves", "__init__.py")):
        sys.exit(f"perfbench: no shellmoves package under {SRC}")
    sys.path.insert(0, SRC)
    import shellmoves
    import shellmoves.cli  # noqa: F401

    if not os.path.abspath(shellmoves.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: shellmoves imported from {shellmoves.__file__}")
    return shellmoves


def set_up(workload: str, seed: int, work: str):
    """Fresh-interpreter import of the package, then corpus generation and
    file writing.  Returns the corpus and the seconds it all took."""
    shutil.rmtree(work, ignore_errors=True)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {SRC!r}); import shellmoves"],
                   check=True, stdin=subprocess.DEVNULL, timeout=120)
    corpus = WORKLOADS[workload](seed)
    os.makedirs(work)
    for name, text in corpus.files.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return corpus, time.perf_counter() - start


class Runner:
    """Runs items through the CLI, checks them, and keeps per-pass records."""

    def __init__(self, package, corpus, work: str):
        self.package = package
        self.cli = package.cli
        self.corpus = corpus
        self.work = work
        self.refs = RefCache(corpus.files)
        self.check = CHECKS[corpus.workload]
        self.probe = HostProbe()
        self.argvs = [[[os.path.join(work, a) if a in corpus.files else a
                        for a in argv] for argv in item.calls]
                      for item in corpus.items]
        self.errors = 0

    def call(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        rc = self.cli.main(argv, out=buf)
        return rc, buf.getvalue()

    def replay(self, a: str, trace_text: str) -> tuple[int, str]:
        path = os.path.join(self.work, "trace.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(trace_text)
        return self.call(["replay", os.path.join(self.work, a), path])

    def run_pass(self, order, tracer: Tracer | None = None) -> dict:
        """One sweep over ``order`` (item indices).  Each item is timed, then
        checked right after it, outside its timed region (and outside the
        trace), so only one item's outputs are held at a time."""
        times: list[float] = []
        scaled: list[float] = []
        ok = decided = 0
        ctx = (tracer.installed(self.package) if tracer
               else contextlib.nullcontext())
        with ctx:
            for idx in order:
                scale = self.probe.scale()
                if tracer:
                    tracer.item = idx
                    tracer.recording = True
                start = time.perf_counter()
                try:
                    res = [self.call(argv) for argv in self.argvs[idx]]
                except Exception:  # an item that raises counts as failed
                    res = None
                    self.errors += 1
                    if self.errors <= 3:
                        traceback.print_exc()
                times.append(time.perf_counter() - start)
                scaled.append(times[-1] * scale)
                if tracer:
                    tracer.recording = False
                if res is not None:
                    good, dec = self.check(self.corpus.items[idx], res,
                                           self.refs, self.replay)
                    ok += good
                    decided += dec
        return {"times": times, "scaled": scaled, "ok": ok,
                "decided": decided, "items": len(order)}

    def run_for(self, seconds: float, min_passes: int,
                tracer: Tracer | None = None) -> list[dict]:
        """Whole passes until ``seconds`` passed and ``min_passes`` ran."""
        order = range(len(self.corpus.items))
        deadline = time.perf_counter() + seconds
        passes: list[dict] = []
        while True:
            first_span = len(tracer.spans) if tracer else 0
            p = self.run_pass(order, tracer)
            if tracer:
                p["spans"] = (first_span, len(tracer.spans))
            passes.append(p)
            if time.perf_counter() >= deadline and len(passes) >= min_passes:
                return passes

    def warm_up(self) -> None:
        """Run the items with the smallest inputs once, untimed, so lazy
        imports and first-call costs stay out of the measurement."""
        items = self.corpus.items
        order = sorted(range(len(items)), key=lambda i: sum(
            len(self.corpus.files[f]) for f in items[i].files))
        self.run_pass(order[:WARMUP_ITEMS])


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def totals(passes: list[dict]) -> tuple[int, int, int]:
    attempted = sum(p["items"] for p in passes)
    ok = sum(p["ok"] for p in passes)
    decided = sum(p["decided"] for p in passes)
    return attempted, ok, decided


def tail_pct(items: int) -> int:
    """The highest whole percentile with at least ten items beyond it."""
    return math.floor(100 * (1 - 10 / items))


def item_times(passes: list[dict], key: str) -> list[float]:
    """Each corpus item's median time over the passes."""
    return [statistics.median(ts) for ts in zip(*(p[key] for p in passes))]


def end_to_end(passes: list[dict], setup_times: list[float]
               ) -> dict[str, tuple[float, str]]:
    """Throughput over every timed run of an item; percentiles over the
    corpus items, each at its median host-scaled time."""
    times = item_times(passes, "scaled")
    tail = tail_pct(len(times))
    attempted, ok, decided = totals(passes)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (attempted / sum(sum(p["scaled"]) for p in passes),
                        "1/s"),
        "item_ms.p50": (statistics.median(times) * 1000.0, "ms"),
        "item_ms.tail": (percentile(times, tail) * 1000.0, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "ok_share": (ok / attempted, "share"),
        "decided_share": (decided / attempted, "share"),
    }


def per_layer(traced: list[dict], untraced: list[dict], tracer: Tracer
              ) -> dict[str, tuple[float, str]]:
    """Median over traced passes of each per-pass metric, plus the ratio of
    traced to untraced item wall time per pass."""
    per_pass = [summarize(tracer.spans[p["spans"][0]:p["spans"][1]],
                          p["spans"][0], sum(p["times"])) for p in traced]
    out = {name: (statistics.median(d[name][0] for d in per_pass), unit)
           for name, (_, unit) in per_pass[0].items()}
    out["trace.overhead_ratio"] = (
        statistics.median(sum(p["times"]) for p in traced)
        / statistics.median(sum(p["times"]) for p in untraced), "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    package = load_package()
    work = os.path.join(OUT, args.workload)
    repeats = 1 if args.trace else SETUP_REPEATS
    setups = [set_up(args.workload, args.seed, work) for _ in range(repeats)]
    corpus = setups[-1][0]
    runner = Runner(package, corpus, work)
    runner.warm_up()
    tail = tail_pct(len(corpus.items))

    if args.trace:
        untraced = runner.run_for(args.seconds / 2, 1)
        tracer = Tracer()
        traced = runner.run_for(args.seconds / 2, 1, tracer)
        passes = untraced + traced
        metrics = per_layer(traced, untraced, tracer)
        spans_path = os.path.join(
            OUT, f"spans-{args.workload}-{args.seed}.jsonl.gz")
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to "
              f"{os.path.relpath(spans_path, ROOT)}")
    else:
        passes = runner.run_for(args.seconds, MIN_PASSES[args.workload])
        metrics = end_to_end(passes, [t for _, t in setups])
        raw = item_times(passes, "times")
        raw_total = sum(sum(p["times"]) for p in passes)
        scales = [a / b for p in passes
                  for a, b in zip(p["scaled"], p["times"]) if b]
        print(f"unscaled: items_per_s {len(raw) * len(passes) / raw_total:.4f}"
              f", item_ms.p50 {statistics.median(raw) * 1000:.4f}"
              f", item_ms.tail {percentile(raw, tail) * 1000:.4f}"
              f"; median host scale {statistics.median(scales):.4f}")

    attempted, ok, decided = totals(passes)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"of {len(corpus.items)} items, {attempted} attempted, "
          f"{attempted - ok} failed, {attempted - decided} undecided; "
          f"tail = p{tail}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
