"""Tests of the benchmark's own helpers (no workload is run)."""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import stats  # noqa: E402
import tracing  # noqa: E402
from evomtl.harness import JobResult  # noqa: E402


# --- tail percentile: only with >= 10 samples beyond it ---


@pytest.mark.parametrize("pct, n", [(50, 20), (75, 40), (90, 100),
                                    (95, 200), (99, 1000), (99.9, 10000)])
def test_samples_for_tail_leaves_exactly_ten_beyond(pct, n):
    assert stats.samples_for_tail(pct) == n
    samples = [float(i) for i in range(1, n + 1)]
    value = stats.tail(samples, pct)
    assert sum(1 for x in samples if x > value) == 10
    with pytest.raises(ValueError):
        stats.tail(samples[:-1], pct)


def test_tail_is_the_nearest_rank_percentile_and_order_independent():
    samples = [float(i % 37) for i in range(100)]
    assert stats.tail(samples, 75) == stats.nearest_rank(samples, 75)
    assert stats.tail(samples, 75) == stats.tail(sorted(samples), 75)
    assert stats.nearest_rank([5.0, 1.0, 3.0, 2.0, 4.0], 50) == 3.0


# --- host-speed normalisation ---


def test_probe_free_leaves_out_probe_time():
    probes = [(0.0, 1.0, 2.0), (4.0, 5.0, 2.0), (9.0, 10.0, 2.0)]
    assert stats.probe_free(1.0, 9.0, probes) == pytest.approx(7.0)
    assert stats.probe_free(0.5, 4.5, probes) == pytest.approx(3.0)


def test_normalised_scales_each_gap_by_its_probes():
    # rounds take 2 (twice the reference) up to t=4 and 1 after t=5
    probes = [(0.0, 1.0, 2.0), (4.0, 5.0, 2.0), (9.0, 10.0, 1.0)]
    # [1, 4]: 3 s at round 2 -> 1.5 s; [5, 9]: 4 s at mean round 1.5
    assert stats.normalised(1.0, 9.0, probes, 1.0) == pytest.approx(
        1.5 + 4.0 / 1.5)
    # beyond the last probe its round applies; order does not matter
    assert stats.normalised(10.0, 12.0, probes[::-1], 1.0) == \
        pytest.approx(2.0)
    # a host at reference speed leaves the probe-free time as it is
    flat = [(p[0], p[1], 1.0) for p in probes]
    assert stats.normalised(0.5, 11.0, flat, 1.0) == pytest.approx(
        stats.probe_free(0.5, 11.0, flat))
    with pytest.raises(ValueError):
        stats.normalised(0.0, 1.0, [], 1.0)


def test_host_probe_is_timed_and_leaves_the_global_rng_alone():
    import numpy as np
    import hostspeed
    np.random.seed(3)
    before = np.random.get_state()[1].copy()
    start, end, round_s = hostspeed.probe()
    assert start < end and 0 < round_s <= end - start
    assert (np.random.get_state()[1] == before).all()


# --- self time with nested spans ---


def test_self_time_subtracts_direct_children_only():
    spans = [("root", 0.0, 10.0, -1),
             ("a", 1.0, 4.0, 0),
             ("a.inner", 2.0, 3.0, 1),
             ("b", 5.0, 6.0, 0),
             ("other_root", 11.0, 12.0, -1)]
    assert stats.self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_tracer_records_nesting_and_self_times_cover_the_root():
    tr = tracing.Tracer()
    inner = tr.wrap("inner", lambda: sum(range(1000)))
    outer = tr.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    spans = tr.export()
    assert [s[0] for s in spans] == ["outer", "inner", "inner", "inner"]
    assert [s[3] for s in spans] == [-1, 0, 0, 0]
    own = stats.self_times([s[:4] for s in spans])
    assert all(t >= 0 for t in own)
    assert sum(own) == pytest.approx(spans[0][2] - spans[0][1])


def test_tracer_patches_imported_aliases_and_restores_them():
    import evomtl.cli
    import evomtl.harness
    original = evomtl.harness.build_dataset
    assert evomtl.cli.build_dataset is original
    tr = tracing.Tracer()
    tr.span_fn(evomtl.harness, "build_dataset", "harness.build_dataset")
    try:
        assert evomtl.cli.build_dataset is evomtl.harness.build_dataset
        assert evomtl.cli.build_dataset is not original
    finally:
        tr.unpatch()
    assert evomtl.harness.build_dataset is original
    assert evomtl.cli.build_dataset is original


# --- harness accounting from JobResult lists ---


def _results(walls):
    return [JobResult(i, "ok", fitness=0.5, wall_time_s=w, worker_id="w")
            for i, w in enumerate(walls)]


def test_dispatch_overhead_is_serve_time_less_work_per_worker():
    walls = [r.wall_time_s for r in _results([4.0, 4.0, 6.0, 4.0])]
    assert stats.dispatch_overhead_s(10.0, walls, 2) == pytest.approx(1.0)
    assert stats.dispatch_overhead_s(18.0, walls, 1) == pytest.approx(0.0)


def test_worker_idle_frac_over_several_batches():
    serves = [(10.0, [r.wall_time_s for r in _results([4.0, 4.0, 6.0, 4.0])]),
              (5.0, [r.wall_time_s for r in _results([2.0, 2.0])])]
    # busy 22 worker-seconds of 2 x 15 available
    assert stats.worker_idle_frac(serves, 2) == pytest.approx(1 - 22 / 30)
    assert stats.worker_idle_frac([], 2) == 0.0


def test_useful_result_frac_counts_duplicates_as_waste():
    assert stats.useful_result_frac([1, 2, 2, 3]) == pytest.approx(0.75)
    assert stats.useful_result_frac([]) == 0.0


# --- metric-name grammar ---


@pytest.mark.parametrize("name", ["setup_s", "unit_s.p50", "a-b.c_d",
                                  "9lives", "x" * 64])
def test_valid_metric_names(name):
    assert stats.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", ".lead", "_lead", "has space", "a/b",
                                  "x" * 65, "tail%"])
def test_invalid_metric_names(name):
    assert not stats.valid_metric_name(name)


def test_benchmark_json_names_follow_the_grammar():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(stats.valid_metric_name(n) for n in names)
    assert len(names) == len(set(names))


# --- loopback output check ---


def _loopback_rep(dispatched, evaluated, received, traced=True):
    tr = tracing.Tracer()
    tr.samples["serve.batches"].append({"job_ids": dispatched})
    tr.samples["harness.results_received"].extend(received)
    spans = [("harness.evaluate_local", 0.0, 1.0, -1, j) for j in evaluated]
    return {"tracer": tr, "traced": traced, "workers": [{"spans": spans}]}


def test_check_loopback_wants_each_job_evaluated_and_received_once():
    import run
    failures = []
    run.check_loopback(_loopback_rep([0, 1, 2], [2, 0, 1], [1, 0, 2]),
                       "rep", failures)
    assert failures == []
    run.check_loopback(_loopback_rep([0, 1, 2], [0, 1, 1, 2], [0, 1, 2]),
                       "rep", failures)
    run.check_loopback(_loopback_rep([0, 1, 2], [0, 1, 2], [0, 1, 2, 2]),
                       "rep", failures)
    run.check_loopback(_loopback_rep([0, 1, 2], [0, 1], [], traced=False),
                       "rep", failures)
    assert len(failures) == 3
