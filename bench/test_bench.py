"""Tests of the benchmark's own arithmetic: self time, work counts, metric lists.

    python3 -m pytest -q bench/test_bench.py
"""
import json
import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([], 0.0, 10.0) == 0.0
    assert tracing.covered([(1, 3), (2, 5), (7, 8)], 0.0, 10.0) == pytest.approx(5.0)
    # intervals reaching outside the parent are clipped to it
    assert tracing.covered([(-2, 1), (9, 12)], 0.0, 10.0) == pytest.approx(2.0)
    # one interval nested inside another counts once
    assert tracing.covered([(1, 9), (2, 3)], 0.0, 10.0) == pytest.approx(8.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(1, None, "outer", 0.0, 10.0, 1),
        Span(2, 1, "mid", 1.0, 5.0, 1),
        Span(3, 2, "leaf", 2.0, 4.0, 1),
        Span(4, 1, "mid", 6.0, 7.0, 1),
    ]
    table = tracing.span_table(spans)
    assert table["outer"] == {"calls": 1, "busy": 10.0, "self": pytest.approx(5.0)}
    assert table["mid"] == {"calls": 2, "busy": 5.0, "self": pytest.approx(3.0)}
    assert table["leaf"] == {"calls": 1, "busy": 2.0, "self": pytest.approx(2.0)}


def test_self_time_with_children_on_two_threads():
    # a parent waiting on two overlapping worker spans is covered by their union
    spans = [
        Span(1, None, "fit", 0.0, 10.0, 1),
        Span(2, 1, "node", 2.0, 6.0, 2),
        Span(3, 1, "node", 3.0, 8.0, 3),
    ]
    table = tracing.span_table(spans)
    assert table["fit"]["self"] == pytest.approx(4.0)
    assert table["node"]["busy"] == pytest.approx(9.0)
    metrics = tracing.layer_metrics(
        [Span(s.id, s.parent, "engine.node_quantities" if s.name == "node" else s.name,
              s.start, s.end, s.thread) for s in spans], {})
    assert metrics["engine.node_stage_wall_s"] == pytest.approx(6.0)
    assert metrics["engine.nodes"] == 2
    assert metrics["engine.node_quantities_s"] == pytest.approx(9.0)


def test_ratios_and_cache_hits():
    spans = [
        Span(1, None, "engine.log_posterior", 0.0, 2.0, 1),
        Span(2, 1, "engine.gaussian_approximation", 0.5, 1.5, 1),
        Span(3, 2, "sparse.factorize.engine", 0.6, 0.7, 1),
        Span(4, 2, "sparse.factorize.engine", 0.8, 0.9, 1),
        Span(5, 2, "sparse.factorize.engine", 1.0, 1.1, 1),
        Span(6, None, "engine.log_posterior", 3.0, 3.1, 1),
    ]
    m = tracing.layer_metrics(spans, {"engine.newton_iterations": 2})
    assert m["engine.theta_evals"] == 1
    assert m["engine.log_posterior.calls"] == 2
    assert m["engine.lp_cache_hit_ratio"] == pytest.approx(0.5)
    assert m["engine.factorizations_per_theta_eval"] == pytest.approx(3.0)
    assert m["engine.newton_iterations"] == 2
    assert m["engine.gaussian_approximation.self_s"] == pytest.approx(0.7)
    # layers never called read zero rather than going missing
    assert m["sparse.solve.calls"] == 0 and m["sparse.solve_s"] == 0.0


def test_count_repeat_check():
    spans = [Span(1, None, "engine.log_posterior", 0.0, 1.0, 1),
             Span(2, 1, "engine.gaussian_approximation", 0.1, 0.9, 1)]
    a = tracing.work_counts(spans, {"engine.newton_iterations": 3})
    # same work at other times repeats exactly
    b = tracing.work_counts([Span(s.id, s.parent, s.name, s.start + 5, s.end + 7, 9)
                             for s in spans], {"engine.newton_iterations": 3})
    assert a == b
    assert tracing.count_mismatches([a, b]) == []
    c = dict(a, **{"engine.newton_iterations": 4})
    d = {k: v for k, v in a.items() if k != "engine.lp_cache_hits"}
    assert tracing.count_mismatches([a, c]) == ["engine.newton_iterations"]
    assert tracing.count_mismatches([a, d]) == ["engine.lp_cache_hits"]
    assert tracing.count_mismatches([]) == []


def test_recorder_keeps_parents_across_threads():
    rec = tracing.Recorder()
    leaf = rec.wrap("leaf", lambda x: x + 1)

    def fan_out():
        with rec.executor_class()(max_workers=2) as ex:
            return list(ex.map(leaf, range(4)))

    assert rec.wrap("root", fan_out)() == [1, 2, 3, 4]
    root = [s for s in rec.spans if s.name == "root"]
    leaves = [s for s in rec.spans if s.name == "leaf"]
    assert len(root) == 1 and len(leaves) == 4
    assert all(s.parent == root[0].id for s in leaves)
    assert all(s.thread != threading.get_ident() for s in leaves)
    rec.active = False
    leaf(0)
    assert len(rec.spans) == 5


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    assert run.tail_percentile(list(range(20)))[0] == 50
    assert run.tail_percentile(list(range(100)))[0] == 90


def test_tally_counts_failures_and_differing_outputs():
    tally = run.Tally()
    assert tally.record("fit 0", {"failures": [], "digest": "a"})
    assert tally.record("setup", {}, compare=False)
    assert not tally.record("fit 1", {"failures": [], "digest": "b"})
    assert not tally.record("fit 2", {"error": "Traceback\nValueError: bad\n"})
    assert not tally.record("fit 3", {"failures": ["mlik is not finite"], "digest": "a"})
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.notes == ["fit 1: outputs differ from the first fit of the run",
                           "fit 2: ValueError: bad", "fit 3: mlik is not finite"]


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == [(n, u, b) for n, u, b, *_ in tracing.LAYER_METRICS]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
