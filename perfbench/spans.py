"""Tracing from outside the program: wrap the module attributes through which
``shellmoves`` code calls its public functions, and record one span per call.

Spans live in memory as ``(name, start, end, parent, item, note)`` tuples;
``parent`` is the index of the enclosing span or -1, ``item`` the id of the
benchmark item being run and ``note`` what the span's hook took from the
call (a chord count, a site count, a key hash) or None.
"""

from __future__ import annotations

import gzip
import json
import math
import time
from contextlib import contextmanager


def _chords_in(args, _res):
    return len(args[0])


def _chords_out(_args, res):
    return len(res)


def _sites(args, res):
    return (args[1], len(res))


def _key_hash(_args, res):
    return hash(res)


# (module, attribute, span name, hook).  A function is wrapped under every
# name a caller looks it up by; "GaussDiagram.x" wraps a method on the class.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "parse_gauss_code", "diagram.parse_gauss_code", _chords_out),
    ("diagram", "parse_gauss_code", "diagram.parse_gauss_code", _chords_out),
    ("cli", "serialize", "diagram.serialize", None),
    ("diagram", "serialize", "diagram.serialize", None),
    ("invariants", "surgery", "diagram.surgery", None),
    ("diagram", "surgery", "diagram.surgery", None),
    ("equiv", "canonical_key", "diagram.canonical_key", _key_hash),
    ("diagram", "canonical_key", "diagram.canonical_key", _key_hash),
    ("diagram", "GaussDiagram.arc_sign_sum", "diagram.arc_sign_sum", None),
    ("cli", "profile", "invariants.profile", _chords_in),
    ("equiv", "profile", "invariants.profile", _chords_in),
    ("invariants", "profile", "invariants.profile", _chords_in),
    ("invariants", "linking_class", "invariants.linking_class", None),
    ("invariants", "gamma_class", "algebra.gamma_class", None),
    ("cli", "canonical_form", "normal_form.canonical_form", None),
    ("cli", "build_knot_form", "normal_form.build", None),
    ("cli", "build_link_form", "normal_form.build", None),
    ("cli", "s_equivalent", "equiv.s_equivalent", None),
    ("equiv", "s_equivalent", "equiv.s_equivalent", None),
    ("cli", "bfs_witness", "equiv.bfs_witness", None),
    ("equiv", "find_move_sites", "moves.find_move_sites", _sites),
    ("moves", "find_move_sites", "moves.find_move_sites", _sites),
    ("cli", "apply_move", "moves.apply_move", None),
    ("equiv", "apply_move", "moves.apply_move", None),
    ("moves", "apply_move", "moves.apply_move", None),
    ("cli", "random_walk", "moves.random_walk", None),
)


class Tracer:
    """Span recorder.  The caller sets ``item`` before each item and clears
    ``recording`` while it does work of its own through the wrapped names."""

    def __init__(self):
        self.spans: list = []
        self.item = -1
        self.recording = True
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.item, None)
            if hook is not None:
                spans[idx] = spans[idx][:5] + (hook(args, res),)
            return res

        return traced

    @contextmanager
    def installed(self, package):
        """Swap every target for its traced wrapper; restore on exit."""
        saved = []
        try:
            for mod_name, attr, name, hook in TARGETS:
                owner = getattr(package, mod_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, hook))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "item",
                                 "note"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- aggregation -----------------------------------------------------------------


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x); 0 with fewer than two
    distinct x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


LAYERS = ("cli", "diagram", "invariants", "algebra", "normal_form", "moves",
          "equiv")
TIMED = ("invariants.profile", "diagram.arc_sign_sum", "invariants.linking_class",
         "algebra.gamma_class", "diagram.parse_gauss_code", "diagram.serialize",
         "normal_form.canonical_form", "normal_form.build", "equiv.s_equivalent",
         "diagram.canonical_key", "moves.find_move_sites", "moves.apply_move",
         "moves.random_walk", "equiv.bfs_witness", "cli.main")
COUNTED = ("invariants.profile", "diagram.arc_sign_sum", "diagram.surgery",
           "algebra.gamma_class", "equiv.s_equivalent", "diagram.canonical_key",
           "moves.find_move_sites", "moves.apply_move")
MOVE_KINDS = ("R1_insert", "R1_delete", "R2_insert", "R2_delete", "R3", "S1",
              "S2_insert", "S2_delete")


def summarize(spans: list, base: int, item_wall_s: float
              ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics with units over ``spans``, the spans of one pass,
    the first of which was recorded at index ``base``: per name the
    call count and inclusive ms (calls nested in a call of the same name
    count once); per layer (the name's first part) the self ms; the search
    and site counters; the scaling exponents against chord count; and the
    share of item wall time spent below ``cli.main``."""
    spans = [(name, start, end, parent - base if parent >= 0 else -1, item,
              note) for name, start, end, parent, item, note in spans]
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    selfs: dict[str, float] = {}
    layers: dict[str, float] = {}
    sites: dict[str, int] = {}
    sizes: dict[str, list] = {"invariants.profile": [],
                              "diagram.parse_gauss_code": []}
    keys_seen: dict[int, set] = {}
    keys_computed = children = 0
    in_bfs: dict[int, int] = {}  # span index -> enclosing bfs_witness span
    for i, (name, start, end, parent, _, note) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        own = dur - child[i]
        selfs[name] = selfs.get(name, 0.0) + own
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
        anc, nested = parent, False
        while anc >= 0:
            if spans[anc][0] == name:
                nested = True
            if spans[anc][0] == "equiv.bfs_witness":
                in_bfs[i] = anc
            anc = spans[anc][3]
        if not nested:
            incl[name] = incl.get(name, 0.0) + dur
        if name in sizes and note:
            sizes[name].append((note, dur))
        if name == "moves.find_move_sites":
            sites[note[0]] = sites.get(note[0], 0) + note[1]
        if i in in_bfs:
            if name == "diagram.canonical_key":
                keys_computed += 1
                keys_seen.setdefault(in_bfs[i], set()).add(note)
            elif name == "moves.apply_move":
                children += 1
    out: dict[str, tuple[float, str]] = {}
    for name in TIMED:
        out[f"{name}.ms"] = (incl.get(name, 0.0) * 1000.0, "ms")
    for name in COUNTED:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name, pts in sizes.items():
        out[f"{name}.exponent"] = (slope(pts), "slope")
    for kind in MOVE_KINDS:
        out[f"moves.sites.{kind}"] = (sites.get(kind, 0), "count")
    out["equiv.bfs.children"] = (children, "count")
    out["equiv.bfs.unique_ratio"] = (
        sum(len(s) for s in keys_seen.values()) / keys_computed
        if keys_computed else 0.0, "ratio")
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (layers.get(layer, 0.0) * 1000.0, "ms")
    below_cli = incl.get("cli.main", 0.0) - selfs.get("cli.main", 0.0)
    out["trace.covered_share"] = (
        below_cli / item_wall_s if item_wall_s else 0.0, "ratio")
    return out
