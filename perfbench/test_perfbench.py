"""Tests of the benchmark's own arithmetic, oracles and definition.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import oracle, run, stats, tracing  # noqa: E402
from perfbench.tracing import Span  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, -1, 0, "load", 0.0, 10.0),
        Span(1, 0, 0, "report", 1.0, 4.0),
        Span(2, 0, 0, "report", 5.0, 9.0),
        Span(3, 2, 0, "certificate", 6.0, 7.0),
    ]
    assert tracing.self_times(spans) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        Span(0, -1, 0, "p", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 5.0),
        Span(2, 0, 0, "b", 3.0, 7.0),
        Span(3, 0, 0, "c", 8.0, 12.0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_layer_metrics_per_pass_and_ratios():
    tracer = tracing.Tracer()
    tracer.spans = [
        Span(0, -1, 0, "atlas.enumerate_rings", 0.0, 4.0),
        Span(1, 0, 0, "structure.ring_canonical_certificate", 0.5, 1.0),
        Span(2, 0, 0, "structure.ring_canonical_certificate", 1.0, 1.5),
        Span(3, -1, 0, "structure.ring_canonical_certificate", 5.0, 6.0),
        Span(4, -1, 1, "atlas.enumerate_rings", 0.0, 2.0),
        Span(5, 4, 1, "structure.ring_canonical_certificate", 0.5, 1.5),
    ]
    tracer.counts = {0: {"atlas.enumerate_rings.classes": 1}, 1: {"atlas.enumerate_rings.classes": 2}}
    metrics = tracer.layer_metrics([0, 1], passes=2)
    assert metrics["structure.ring_canonical_certificate.calls"] == 2.0
    assert metrics["structure.ring_canonical_certificate.self_s"] == pytest.approx(1.5)
    # 3 classes over the 3 certificates made inside enumerate_rings.
    assert metrics["atlas.dedup_yield"] == pytest.approx(1.0)
    assert metrics["structure.ideals_per_report"] == 0.0


def test_tail_percentile_leaves_exactly_ten_beyond():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert stats.tail_percentile(samples) == (90, 90.0)
    assert stats.tail_percentile(list(range(20))) == (9, 50.0)
    assert stats.tail_percentile(list(range(11))) == (0, 100 / 11)
    with pytest.raises(ValueError):
        stats.tail_percentile(list(range(10)))


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 5) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx((8.25 - 2.75) / 5.5)


def test_op_times_in_refs():
    records = [dict(latency_ref=2.0), dict(latency_ref=3.0), dict(latency_ref=5.0)]
    assert run.ops_per_kref(records) == pytest.approx(300.0)
    start = time.perf_counter()
    ref = run.reference_s()
    assert 0 < ref <= time.perf_counter() - start


def test_deadline_is_not_reported_as_bad_input(monkeypatch):
    class Hang:
        @staticmethod
        def main(argv):
            from finring import cli

            try:
                while True:
                    time.sleep(0.001)
            except cli._INPUT_ERRORS + cli._CAP_ERRORS:
                return 2

    from perfbench.workloads import Op

    monkeypatch.setattr(run, "DEADLINE_REFS", 5)
    runner = run.Runner(Hang)
    record = runner.run_op(Op("hang", [], lambda code, out: None), "timed")
    assert record["exit"] is None and record["missed"] and not record["wrong"]
    assert record["problem"].startswith("missed")
    assert record["latency_ref"] == 5
    known = runner.run_op(Op("hang", [], lambda code, out: None, known_hang=True), "timed")
    assert known["missed"] and known["problem"] is None


def test_tracer_restores_the_program():
    from finring import atlas, cli, scenarios

    originals = (cli.main, atlas._scan_tensors, scenarios.AtlasCache.get)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.main is not originals[0]
    tracer.uninstall()
    assert (cli.main, atlas._scan_tensors, scenarios.AtlasCache.get) == originals


def test_oracles_on_known_rings():
    rng = random.Random(1)
    m2 = oracle.matrix_ring_zn(2, "M2(Z2)")
    t = oracle.relabel(m2, oracle.relabeling(16, rng))
    assert oracle.identity_element(m2) == 9  # (1, 0, 0, 1)
    assert len(oracle.zero_divisors(t)) == 9
    text, terms = oracle.standard_polynomial(4)
    assert len(terms) == 24 and text.startswith("x1x2x3x4 - x1x2x4x3")
    for _ in range(50):
        values = {v: rng.randrange(16) for v in range(1, 5)}
        assert oracle.evaluate(t, terms, values) == 0
    s2_terms = oracle.standard_polynomial(2)[1]
    assert any(oracle.evaluate(t, s2_terms, {1: a, 2: b}) for a in range(16) for b in range(16))
    assert oracle.parse_assignment("x=1 y=0 z=3 x4=2") == {1: 1, 2: 0, 3: 3, 4: 2}
    commutator = [(1, (1, 2)), (-1, (2, 1))]
    found = oracle.least_counterexample(t, commutator)
    assert found is not None and oracle.evaluate(t, commutator, found) != 0
    assert oracle.least_counterexample(t, [(2, (1,))]) is None  # characteristic 2


def test_graph_witness_check():
    edges = {(0, 1), (1, 2)}
    assert oracle.is_graph_isomorphism([2, 1, 0], 3, edges, edges)
    assert not oracle.is_graph_isomorphism([1, 0, 2], 3, edges, edges)
    assert not oracle.is_graph_isomorphism([0, 0, 2], 3, edges, edges)


def test_benchmark_json_matches_the_code():
    from perfbench import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
