"""Tests of the benchmark itself: corpus determinism, the reference index
code, and the output checks.

    python3 -m pytest perfbench/tests
"""

import filecmp
import io
import json
import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import pytest  # noqa: E402

import corpus  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from checks import CHECKS, RefCache  # noqa: E402

FIVE_CHORD_KNOT = """\
circles: 1
chord a -
chord b +
chord c -
chord d +
chord e -
circle 1: a< e< b> e> a> d< b< d> c< c>
"""


def _write(c, directory):
    os.makedirs(directory)
    for name, text in c.files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return sorted(c.files)


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_gives_byte_identical_corpus(workload, tmp_path):
    one = _write(corpus.WORKLOADS[workload](7), tmp_path / "one")
    two = _write(corpus.WORKLOADS[workload](7), tmp_path / "two")
    assert one == two
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "one", tmp_path / "two",
                                           one, shallow=False)
    assert not mismatch and not errors
    order = [i.key for i in corpus.WORKLOADS[workload](7).items]
    assert order == [i.key for i in corpus.WORKLOADS[workload](7).items]


@pytest.mark.parametrize("workload", ["decide", "fuzz"])
def test_another_seed_gives_other_inputs(workload):
    a, b = corpus.WORKLOADS[workload](1), corpus.WORKLOADS[workload](2)
    assert a.files != b.files


def test_reference_indices_of_five_chord_knot():
    D = ref.parse(FIVE_CHORD_KNOT)
    assert ref.arc_indices(D.circles[0], D.signs) == \
        {"a": 1, "b": 3, "c": 0, "d": -1, "e": 1}
    inv = ref.knot_invariants(D)
    assert inv["W"] == {-1: 1, 1: -2, 3: 1}
    assert ref.parse_poly("t^-1 - 2*t + t^3") == inv["W"]
    assert inv["odd_writhe"] == 0


def test_oracle_pool_answers():
    c = corpus.build_oracle(0)
    assert len(c.items) == 46
    # W = 0 for six of the knots; the empty link and the cancelling pair
    # form one link class
    assert sum(i.expect["equivalent"] for i in c.items) == 21 + 2 + 3 + 2


def test_partners_are_isomorphic_up_to_dressing():
    import random
    rng = random.Random(3)
    D = corpus.random_link(rng, 6, 1)
    assert ref.isomorphic(D, corpus.dressed(rng, D, 0, 0))
    assert not ref.isomorphic(D, corpus.dressed(rng, D, 1, 0))
    assert ref.equivalent(D, corpus.dressed(rng, D, 2, 2))
    assert not ref.equivalent(D, corpus.flipped(rng, D))


def _small_decide(tmp_path):
    """A decide corpus cut down to its smallest items, written to disk."""
    c = corpus.build_decide(5)
    c.items = sorted(c.items, key=lambda i: i.expect["chords"])[:6]
    work = str(tmp_path / "work")
    _write(c, work)
    return run.Runner(run.load_package(), c, work)


def test_checker_accepts_real_decide_output(tmp_path):
    runner = _small_decide(tmp_path)
    p = runner.run_pass(range(len(runner.corpus.items)))
    assert p["ok"] == p["decided"] == len(runner.corpus.items)


def test_checker_flags_corrupted_outputs(tmp_path):
    runner = _small_decide(tmp_path)
    refs = RefCache(runner.corpus.files)
    check = CHECKS["decide"]
    for idx, item in enumerate(runner.corpus.items):
        results = [runner.call(argv) for argv in runner.argvs[idx]]
        assert check(item, results, refs, runner.replay) == (True, True)
        (rc_i, out_i), normalize, (rc_e, out_e) = results
        # a wrong J entry in the invariants JSON
        got = json.loads(out_i)
        got["J" if "J" in got else "J1"]["99"] = 1
        bad = json.dumps(got, sort_keys=True)
        assert check(item, [(rc_i, bad), normalize, (rc_e, out_e)],
                     refs, runner.replay)[0] is False
        # a flipped equiv exit code
        assert check(item, [(rc_i, out_i), normalize, (1 - rc_e, out_e)],
                     refs, runner.replay)[0] is False


def test_checker_replays_witness_traces(tmp_path):
    c = corpus.build_oracle(0)
    c.items = [i for i in c.items if i.key in ("k0-k5", "l0-l3", "k3-k4")]
    work = str(tmp_path / "work")
    _write(c, work)
    runner = run.Runner(run.load_package(), c, work)
    p = runner.run_pass(range(len(c.items)))
    assert p["ok"] == p["decided"] == 3
    item = next(i for i in c.items if i.key == "k0-k5")
    refs = RefCache(c.files)
    wrong = [(0, "R1_insert @ 1:0 + IT\n")]  # ends one chord short of B
    assert CHECKS["oracle"](item, wrong, refs, runner.replay)[0] is False


def test_span_summary_self_time_and_recursion():
    import spans

    # one pass recorded from index 10: main > s_equivalent > s_equivalent
    # (recursive) > profile, all times in seconds
    recorded = [
        ("cli.main", 0.0, 1.0, -1, 0, None),
        ("equiv.s_equivalent", 0.1, 0.9, 10, 0, None),
        ("equiv.s_equivalent", 0.2, 0.8, 11, 0, None),
        ("invariants.profile", 0.3, 0.7, 12, 0, 40),
    ]
    out = spans.summarize(recorded, 10, 2.0)
    assert out["equiv.s_equivalent.ms"][0] == pytest.approx(800.0)
    assert out["equiv.s_equivalent.calls"][0] == 2
    assert out["equiv.self_ms"][0] == pytest.approx(400.0)
    assert out["invariants.self_ms"][0] == pytest.approx(400.0)
    assert out["cli.self_ms"][0] == pytest.approx(200.0)
    assert out["trace.covered_share"][0] == pytest.approx(0.4)


def test_tracer_wraps_and_restores(tmp_path):
    import spans

    pkg = run.load_package()
    original = pkg.cli.profile
    tracer = spans.Tracer()
    path = tmp_path / "knot.gd"
    path.write_text(FIVE_CHORD_KNOT)
    with tracer.installed(pkg):
        assert pkg.cli.profile is not original
        assert pkg.cli.main(["invariants", str(path)], out=io.StringIO()) == 0
    assert pkg.cli.profile is original
    top = [(s[0], s[3]) for s in tracer.spans[:3]]
    assert top == [("cli.main", -1), ("diagram.parse_gauss_code", 0),
                   ("invariants.profile", 0)]
    assert tracer.spans[3:] and all(
        s[0] == "diagram.arc_sign_sum" and s[3] == 2 for s in tracer.spans[3:])


def test_host_probe_scales_by_recent_median():
    probe = run.HostProbe()
    first = probe.scale()
    assert first > 0 and len(probe.recent) == 1
    assert probe.scale() == first  # no new probe within PROBE_EVERY_S
    probe.last -= run.PROBE_EVERY_S
    probe.scale()
    assert len(probe.recent) == 2
