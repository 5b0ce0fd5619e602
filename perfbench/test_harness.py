"""Self-tests of the benchmark harness on tiny canned inputs (no Spark).

Run with ``python3 -m pytest perfbench/test_harness.py -q``.
"""
import json
import os
import statistics

import pytest

from harness import PassLog, Span, covered, layer_times, summarize, summarize_event_log

HERE = os.path.dirname(os.path.abspath(__file__))
SNIPPET = os.path.join(HERE, "testdata", "eventlog_snippet.jsonl")


def test_summarize_median_quartiles_count():
    s = summarize([4.0, 1.0, 3.0, 2.0, 10.0])
    assert s["median"] == 3.0 and s["n"] == 5
    q1, _, q3 = statistics.quantiles([1.0, 2.0, 3.0, 4.0, 10.0], n=4)
    assert (s["q1"], s["q3"]) == (q1, q3) == (1.5, 7.0)


def test_summarize_single_sample():
    assert summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}
    with pytest.raises(ValueError):
        summarize([])


def test_failed_frac_counts_each_failed_pass_once():
    log = PassLog()
    for seconds in (1.0, 2.0, 3.0, 4.0):
        log.add(seconds)
    log.fail(1)
    log.fail(1)  # raised and then failed its check: still one pass
    log.fail(3)
    assert (log.attempted, log.failed, log.failed_frac) == (4, 2, 0.5)
    assert PassLog().failed_frac == 0.0


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == 2
    assert covered([], 0, 1) == 0


def test_self_time_subtracts_children():
    spans = [
        Span("pass", 0.0, 10.0),
        Span("a", 1.0, 6.0, parent=0),
        Span("b", 2.0, 3.0, parent=1),
        Span("b", 4.0, 5.5, parent=1),
        Span("a", 7.0, 9.0, parent=0),
    ]
    t = layer_times(spans)
    assert t["pass"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0}
    assert t["a"] == {"calls": 2, "busy_s": 7.0, "self_s": 4.5}
    assert t["b"] == {"calls": 2, "busy_s": 2.5, "self_s": 2.5}


def test_event_log_summary_on_real_snippet():
    """Four tasks of group rr1; the task of an ungrouped job is ignored."""
    with open(SNIPPET) as f:
        out = summarize_event_log(f)
    assert list(out) == ["rr1"]
    g = out["rr1"]
    assert g["tasks"] == 4
    assert g["run_s"] == pytest.approx(0.644)  # 179 + 212 + 229 + 24 ms
    assert g["py_init_s"] == pytest.approx(0.900)  # 763 + 137 ms
    assert g["py_run_s"] == pytest.approx(0.395)  # 190 + 205 ms
    assert g["py_boot_s"] == pytest.approx(0.022)
    assert g["py_bytes_in"] == 752 and g["py_bytes_out"] == 471864
    assert g["shuffle_write_bytes"] == 444 and g["shuffle_read_bytes"] == 385


def test_stage_keeps_group_of_first_job():
    lines = [
        {"Event": "SparkListenerJobStart", "Stage IDs": [1], "Properties": {"spark.jobGroup.id": "a"}},
        {"Event": "SparkListenerJobStart", "Stage IDs": [1, 2], "Properties": {"spark.jobGroup.id": "b"}},
        {"Event": "SparkListenerTaskEnd", "Stage ID": 1, "Task Metrics": {"Executor Run Time": 5}},
        {"Event": "SparkListenerTaskEnd", "Stage ID": 2, "Task Metrics": {"Executor Run Time": 7}},
    ]
    out = summarize_event_log(json.dumps(e) for e in lines)
    assert out["a"]["run_s"] == pytest.approx(0.005) and out["b"]["run_s"] == pytest.approx(0.007)


def test_benchmark_json_lists_the_plan():
    """BENCHMARK.json's per-layer metrics and workloads follow plan.json."""
    from run import END_TO_END_UNITS, load_plan, per_layer_names

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    plan = load_plan()
    assert [m["name"] for m in bench["per_layer"]] == per_layer_names(plan)
    assert len(bench["per_layer"]) <= 128
    listed = [name for name, w in plan["workloads"].items() if w["listed"]]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (name, plan["workloads"][name]["why"]) for name in listed
    ]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS


def test_keys_per_member_counts_gumbel_keys():
    """Uniform models draw a key per pool member; category models per used category."""
    import numpy as np
    from types import SimpleNamespace

    from tracer import keys_and_kept

    inp = SimpleNamespace(pool=np.arange(4), sizes=np.array([2, 2]),
                          cat_idx=np.array([0, 0, 1, 1]),
                          cat_comp=np.array([[1, 1], [2, 0]]))
    assert keys_and_kept({"A": inp}, "random", 10) == (40.0, 20.0)
    # Template 0 uses both categories (2 + 2 keys), template 1 only the first (2).
    assert keys_and_kept({"A": inp}, "category", 10) == (30.0, 20.0)
