"""The benchmark's own tests: determinism, output checks, trace hygiene.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from spanalloc import Allocator
from tracing import Tracer
from workloads import Harness, Shape, make_inputs, run_rep

SMALL = {
    "local_churn": Shape(live=2_000, steps=6_000),
    "remote_handoff": Shape(live=800, steps=30),
    "large_churn": Shape(live=600, steps=2_000),
}


def traced_rep(name, seed):
    inputs = make_inputs(name, seed, SMALL[name])
    with Tracer() as tracer:
        rep = run_rep(name, inputs, tracer)
    return rep, tracer


def count_metrics(rep, tracer):
    """Every per-layer metric that is not a time."""
    metrics = run._layer_metrics(rep, tracer.totals(), rep.wall_ns)
    return {name: metrics[name] for name, unit, *_ in run.PER_LAYER
            if unit != "s" and name != "trace_overhead_ratio"}


def test_benchmark_json_matches_the_tables():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["workloads"] == [{"name": w, "why": workloads.WHY[w]}
                                for w in run.WORKLOADS]
    assert doc["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in run.END_TO_END]
    assert doc["per_layer"] == [{"name": n, "unit": u, "better": b}
                                for n, u, b, _, _ in run.PER_LAYER]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_memory_and_counts(name):
    first, t1 = traced_rep(name, seed=7)
    second, t2 = traced_rep(name, seed=7)
    plain = run_rep(name, make_inputs(name, 7, SMALL[name]))
    for rep in (first, second, plain):
        assert rep.failed == 0, rep.errors
    assert first.peak_committed == second.peak_committed == plain.peak_committed
    assert first.end_committed == second.end_committed == plain.end_committed
    assert first.counters == second.counters == plain.counters
    assert count_metrics(first, t1) == count_metrics(second, t2)


def test_traced_run_confirms_the_workload_split():
    reps = {name: traced_rep(name, seed=3) for name in run.WORKLOADS}
    m = {name: run._layer_metrics(rep, t.totals(), rep.wall_ns)
         for name, (rep, t) in reps.items()}

    def gets_per_call(name):
        return m[name]["span_pool.get_calls"] / reps[name][0].calls

    assert gets_per_call("large_churn") >= 10 * gets_per_call("local_churn")
    assert m["local_churn"]["vmem.decommit_calls"] == 0
    assert m["remote_handoff"]["vmem.decommit_calls"] == 0
    assert m["large_churn"]["vmem.decommit_calls"] > 0
    assert m["remote_handoff"]["frontend.remote_free_ratio"] > 0.95
    assert m["local_churn"]["frontend.remote_free_ratio"] == 0
    assert m["remote_handoff"]["frontend.adopts"] > 0
    assert m["large_churn"]["api.huge_calls"] > 0


def test_tracer_restores_the_wrapped_functions():
    before = Allocator.malloc
    with Tracer():
        assert Allocator.malloc is not before
    assert Allocator.malloc is before


def test_self_time_excludes_children():
    rep, tracer = traced_rep("local_churn", seed=1)
    totals = tracer.totals()
    malloc = totals["api.malloc"]
    assert 0 < malloc.self_ns < malloc.busy_ns
    spans = {s[3]: s for s in tracer.samples}
    child = next(s for s in tracer.samples if s[4])
    parent = spans[child[4]]
    assert parent[1] <= child[1] <= child[2] <= parent[2]
    assert child[5] == parent[5]


def test_timings_are_scaled_by_the_reference_loop():
    rep = run_rep("local_churn", make_inputs("local_churn", 1,
                                             SMALL["local_churn"]))
    at_ref, slow_host = workloads.Summary(), workloads.Summary()
    at_ref.add(rep, workloads.REF_NS)
    slow_host.add(rep, 2 * workloads.REF_NS)
    ref, slow = at_ref.metrics(), slow_host.metrics()
    for name in ("setup_s", "malloc_p50_us", "free_p99_us"):
        assert slow[name][0] == pytest.approx(ref[name][0] / 2)
    assert slow["ops_per_s"][0] == pytest.approx(ref["ops_per_s"][0] * 2)
    assert slow["peak_committed_bytes"] == ref["peak_committed_bytes"]


def test_latency_is_the_per_call_median_over_repetitions():
    summary = workloads.Summary()
    for malloc_ns in ([100, 900, 100], [100, 900, 5000], [7000, 900, 100]):
        rep = run_rep("local_churn", make_inputs("local_churn", 1,
                                                 SMALL["local_churn"]))
        rep.malloc_ns = malloc_ns
        summary.add(rep, workloads.REF_NS)
    per_call = [100, 900, 100]      # host spikes in one repetition vanish
    assert summary.metrics()["malloc_p50_us"][0] == pytest.approx(
        workloads.percentile(per_call, 50) / 1e3)
    assert summary.metrics()["malloc_p99_us"][0] == pytest.approx(
        workloads.percentile(per_call, 99) / 1e3)


def test_harness_catches_bad_blocks():
    allocator = Allocator(provider="sim")
    h = Harness(allocator)
    a = h.malloc(64)
    real_malloc = allocator.malloc
    allocator.malloc = lambda size: a            # handed out while live
    h.malloc(64)
    allocator.malloc = lambda size: real_malloc(size) + 8   # misaligned
    h.malloc(64)
    allocator.malloc = real_malloc
    b = h.malloc(64)
    allocator.provider.write_word(b, 0xBAD)      # overwritten while live
    h.free(b)
    assert h.failed == 3
    assert any("live block" in e for e in h.errors)
    assert any("misaligned" in e for e in h.errors)
    assert any("overwritten" in e for e in h.errors)


def test_failed_check_makes_the_run_fail(monkeypatch, capsys):
    monkeypatch.setitem(workloads.SHAPES, "local_churn", SMALL["local_churn"])
    real_free = Allocator.free
    calls = []

    def leaky_free(self, addr):
        calls.append(addr)
        if len(calls) % 1000:
            real_free(self, addr)

    monkeypatch.setattr(Allocator, "free", leaky_free)
    code = run.main(["--workload", "local_churn", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_refuses_to_run_without_allocator_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local_churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
