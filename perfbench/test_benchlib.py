"""Tests for the benchmark's own arithmetic and bookkeeping.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402
import run  # noqa: E402


# -- percentile selection ------------------------------------------------


def test_p90_reported_when_ten_samples_lie_beyond():
    samples = list(range(1, 101))  # 100 samples: p90 = 90, 10 above
    value, q = benchlib.tail_percentile(samples)
    assert value == 90
    assert q == pytest.approx(0.90)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_falls_back_to_highest_percentile_with_ten_beyond():
    samples = list(range(1, 55))  # 54 samples: p90 would leave only 5 above
    value, q = benchlib.tail_percentile(samples)
    assert sum(1 for s in samples if s > value) == 10
    assert value == 44
    assert q < 0.90


def test_tail_with_too_few_samples_reports_the_median():
    value, q = benchlib.tail_percentile([5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 8.0, 7.0])
    assert q == 0.5
    assert value == 4.5


def test_tail_ignores_sample_order():
    forward = list(range(200))
    assert benchlib.tail_percentile(forward) == benchlib.tail_percentile(
        list(reversed(forward))
    )


def test_median_even_and_odd():
    assert benchlib.median([3, 1, 2]) == 2
    assert benchlib.median([4, 1, 3, 2]) == 2.5


def test_harrell_davis_median_of_a_symmetric_sample_is_its_centre():
    assert benchlib.harrell_davis_median(range(1, 102)) == pytest.approx(51)
    assert benchlib.harrell_davis_median([4.0, 1.0, 3.0, 2.0]) == pytest.approx(2.5)


def test_harrell_davis_median_moves_smoothly_across_a_gap():
    # Two clusters with the middle on the gap: moving one sample from
    # the upper cluster to the lower one makes the plain median jump.
    low, high = [0.1 + 0.001 * i for i in range(23)], [0.3 + 0.001 * i for i in range(23)]
    moved = low + [0.12] + high[1:]
    plain_jump = benchlib.median(moved) - benchlib.median(low + high)
    smooth_jump = benchlib.harrell_davis_median(moved) - benchlib.harrell_davis_median(
        low + high
    )
    assert abs(plain_jump) > 0.05
    assert abs(smooth_jump) < abs(plain_jump) / 4


def test_harrell_davis_median_with_a_failed_sample_is_the_median():
    samples = [1.0, 2.0, 3.0, float("inf"), 0.5]
    assert benchlib.harrell_davis_median(samples) == benchlib.median(samples)


# -- failure accounting ----------------------------------------------------


def test_failed_frac_counts_refusals_and_timeouts():
    outcomes = ["done"] * 6 + ["429", "503", "timeout", "failed"]
    assert benchlib.failed_count(outcomes) == 4
    assert benchlib.failed_frac(outcomes) == pytest.approx(0.4)


def test_failed_frac_all_done_is_zero():
    assert benchlib.failed_frac(["done"] * 3) == 0.0


def test_failed_frac_needs_attempts():
    with pytest.raises(ValueError):
        benchlib.failed_frac([])


# -- spans and self time ---------------------------------------------------


def _span(sid, name, start, end, parent=None):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "job": "J"}


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span(0, "job", 0, 10_000_000_000),
        _span(1, "sim.kernel", 1_000_000_000, 5_000_000_000, parent=0),
        _span(2, "trace.encode", 1_000_000_000, 2_000_000_000, parent=1),
        _span(3, "cache.put", 6_000_000_000, 7_000_000_000, parent=0),
    ]
    self_s = benchlib.self_times(spans)
    assert self_s["job"] == pytest.approx(5.0)
    assert self_s["sim.kernel"] == pytest.approx(3.0)
    assert self_s["trace.encode"] == pytest.approx(1.0)
    assert self_s["cache.put"] == pytest.approx(1.0)
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, "outer", 0, 10),
        _span(1, "a", 2, 6, parent=0),
        _span(2, "b", 4, 8, parent=0),
        _span(3, "c", 9, 12, parent=0),  # clipped to the parent's end
    ]
    assert benchlib.self_times(spans)["outer"] * 1e9 == pytest.approx(3)


def test_recorder_nests_and_exports_a_valid_chrome_trace():
    rec = benchlib.SpanRecorder()
    with rec.span("job", "BFS@small"):
        with rec.span("sim.kernel", "BFS@small") as sim:
            sim["name"] = "sim.reference"
    names = [s["name"] for s in rec.spans]
    assert names == ["job", "sim.reference"]
    assert rec.spans[1]["parent"] == rec.spans[0]["id"]
    trace = benchlib.chrome_trace(rec.spans)
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == 2
    assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in complete)
    try:
        from repro.obs.timeline import validate_trace_dict
    except ImportError:
        pytest.skip("program sources not importable")
    validate_trace_dict(trace)


# -- correctness gate ------------------------------------------------------


def _payloads():
    return {
        ("BFS", "Baseline"): {"cycles": 100.0, "schema": 1},
        ("BFS", "GraphPIM"): {"cycles": 50.0, "schema": 1},
    }


def test_results_hash_ignores_job_order():
    payloads = _payloads()
    reordered = dict(reversed(list(payloads.items())))
    assert benchlib.results_hash(payloads) == benchlib.results_hash(reordered)


def test_gate_rejects_a_perturbed_result():
    recorded = benchlib.results_hash(_payloads())
    perturbed = _payloads()
    perturbed[("BFS", "GraphPIM")]["cycles"] = 50.000001
    assert benchlib.check_hash("grid", benchlib.results_hash(_payloads()), recorded)
    assert not benchlib.check_hash(
        "grid", benchlib.results_hash(perturbed), recorded
    )


# -- paper values and fingerprints -----------------------------------------


def test_paper_table_parses_sixteen_values():
    paper = benchlib.paper_fig7(HERE.parent / "EXPERIMENTS.md")
    assert sum(len(modes) for modes in paper.values()) == 16
    assert paper["PRank"]["GraphPIM"] == pytest.approx(2.4)


def test_speedup_error_is_mean_relative_error():
    paper = {"A": {"U-PEI": 2.0, "GraphPIM": 4.0}}
    simulated = {"A": {"U-PEI": 1.0, "GraphPIM": 4.0}}
    assert benchlib.speedup_error_pct(simulated, paper) == pytest.approx(25.0)


def test_fingerprints_with_different_hosts_are_not_compared():
    a = {"cpu_count": 2, "cpu_model": "X", "python": "3.11", "numpy": "2",
         "cc": "cc 12", "git_rev": "a", "source_digest": "1"}
    other_code = dict(a, git_rev="b", source_digest="2")
    other_host = dict(a, cpu_count=4)
    assert benchlib.same_host(a, other_code)
    assert not benchlib.same_host(a, other_host)


def _record(tmp_path, name, correct):
    host = {"cpu_count": 2, "cpu_model": "X", "python": "3.11", "numpy": "2",
            "cc": "cc 12"}
    record = {"correct": correct, "workload": "fig7-cold", "seed": 1,
              "trace": 0, "host": host,
              "metrics": {"wall_s": {"value": 3.0, "unit": "s"}}}
    path = tmp_path / f"{name}-result.json"
    path.write_text(json.dumps(record))
    return str(path)


def test_compare_refuses_results_that_failed_the_gate(tmp_path):
    import compare

    good = _record(tmp_path, "good", True)
    bad = _record(tmp_path, "bad", False)
    assert compare.main(["--base", good, "--change", good]) == 0
    assert compare.main(["--base", good, "--change", bad]) == 2


# -- the benchmark definition ----------------------------------------------


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(run.PER_LAYER.values())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_readme_maps_every_layer_metric():
    readme = (HERE / "README.md").read_text()
    for name in run.PER_LAYER:
        assert f"`{name}`" in readme, name
