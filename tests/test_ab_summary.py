"""The A/B runner's summary and run reading, on fixed numbers and text:
no process is started."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = [{"name": "item_ms.tail", "better": "lower"},
           {"name": "items_per_s", "better": "higher"},
           {"name": "peak_rss_mb", "better": "lower"}]


def _run(first, base, head):
    return {"first": first, "base": base, "head": head}


def test_summary_of_fixed_pairs():
    runs = [
        _run("base", {"item_ms.tail": 6.0, "items_per_s": 300.0},
             {"item_ms.tail": 5.0, "items_per_s": 330.0}),
        _run("head", {"item_ms.tail": 7.0, "items_per_s": 310.0},
             {"item_ms.tail": 7.0, "items_per_s": 300.0}),
        _run("base", {"item_ms.tail": 8.0, "items_per_s": 320.0},
             {"item_ms.tail": 5.5, "items_per_s": 320.0}),
        _run("head", {"item_ms.tail": 5.0, "items_per_s": 290.0},
             {"item_ms.tail": 6.0, "items_per_s": 295.0}),
    ]
    out = ab.summarize(runs, METRICS)
    # no run has peak_rss_mb, so it is left out
    assert list(out) == ["item_ms.tail", "items_per_s"]
    tail = out["item_ms.tail"]
    assert tail["pairs"] == [[6.0, 5.0], [7.0, 7.0], [8.0, 5.5], [5.0, 6.0]]
    # base 5, 6, 7, 8: inclusive quartiles 5.75 and 7.25
    assert tail["base_median"] == 6.5
    assert tail["base_q1"] == pytest.approx(5.75)
    assert tail["base_q3"] == pytest.approx(7.25)
    assert tail["base_iqr"] == pytest.approx(1.5)
    assert tail["head_median"] == 5.75
    # lower is better: pairs 1 and 3 win, pair 2 ties, pair 4 loses
    assert (tail["head_wins"], tail["ties"]) == (2, 1)
    assert tail["change"] == pytest.approx(5.75 / 6.5 - 1)
    rate = out["items_per_s"]
    # higher is better: pairs 1 and 4 win, pair 3 ties, pair 2 loses
    assert (rate["head_wins"], rate["ties"]) == (2, 1)
    assert rate["base_median"] == 305.0 and rate["head_median"] == 310.0
    assert rate["base_iqr"] == pytest.approx(312.5 - 297.5)


def test_summary_of_one_pair_and_a_zero_median():
    out = ab.summarize([_run("base", {"items_per_s": 0.0},
                             {"items_per_s": 1.0})], METRICS)
    s = out["items_per_s"]
    assert (s["base_q1"], s["base_median"], s["base_q3"]) == (0.0, 0.0, 0.0)
    assert s["base_iqr"] == 0.0 and s["change"] is None
    assert s["head_wins"] == 1 and s["ties"] == 0


def test_report_names_each_pair_and_the_import_time():
    runs = [_run("base", {"setup_s": 0.30, "import_s": 0.05},
                 {"setup_s": 0.25, "import_s": 0.04}),
            _run("head", {"setup_s": 0.28, "import_s": 0.05},
                 {"setup_s": 0.29, "import_s": 0.06})]
    text = ab.report(ab.summarize(runs, [{"name": "setup_s",
                                          "better": "lower"}]), runs)
    assert "head wins 1 of 2, ties 0" in text
    assert "pair  2 (head first): base 0.28  head 0.29" in text
    assert "import_s base 0.0500 head 0.0600" in text


def test_a_run_keeps_its_attempted_items_and_passes():
    stdout = (
        "unscaled: items_per_s 800.0\n"
        "workload oracle seed 3: 171 passes of 46 items, 7866 attempted, "
        "0 failed, 3420 undecided; tail = p78\n"
        '{"correct": true, "attempted": 7866, "failed": 0, "metrics": '
        '{"peak_rss_mb": {"value": 31.5, "unit": "MB"}}}\n')
    assert ab.read_run(stdout) == {"peak_rss_mb": 31.5, "correct": True,
                                   "attempted": 7866, "passes": 171}


def test_report_gives_each_sides_passes_beside_peak_rss():
    runs = [_run("base", {"peak_rss_mb": 30.0, "passes": 160},
                 {"peak_rss_mb": 31.0, "passes": 171}),
            _run("head", {"peak_rss_mb": 30.5, "passes": 165},
                 {"peak_rss_mb": 30.0, "passes": 150})]
    text = ab.report(ab.summarize(runs, METRICS), runs)
    assert ("pair  1 (base first): base 30  head 31   passes base 160 "
            "head 171") in text
    assert ("pair  2 (head first): base 30.5  head 30   passes base 165 "
            "head 150") in text
