"""spanalloc benchmark: one workload, one seed, printed metrics.

    python3 perfbench/run.py --workload local_churn --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout; the allocator is imported from its
`src/` directory. With `--trace 0` the run repeats the workload on
fresh allocators for `--seconds` and reports the end-to-end metrics,
its timings scaled to the host's speed as a reference loop measures it
around each repetition (see `workloads.Summary`); with `--trace 1` it
runs a few untraced repetitions, then traced ones, and reports the
per-layer metrics. Human-readable lines come first; the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only if every output check passed.
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("local_churn", "remote_handoff", "large_churn")

# name, unit, better, bound (share of the parent's median it may worsen)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("malloc_p50_us", "us", "lower", 0.25),
    ("malloc_p99_us", "us", "lower", 0.25),
    ("free_p50_us", "us", "lower", 0.25),
    ("free_p99_us", "us", "lower", 0.25),
    ("peak_committed_bytes", "bytes", "lower", 0.06),
    ("end_committed_bytes", "bytes", "lower", 0.06),
]
# failed_op_ratio is printed with these but is not a JSON metric: it is
# 0 on a correct run, and the JSON carries it as `failed` / `attempted`.

# name, unit, better, end-to-end metrics it should move, on which workloads
PER_LAYER = [
    ("api.self_s", "s", "lower", "ops_per_s malloc_p50_us", "local_churn"),
    ("api.huge_calls", "count", "lower", "malloc_p99_us free_p99_us", "large_churn"),
    ("api.huge_busy_s", "s", "lower", "malloc_p99_us free_p99_us", "large_churn"),
    ("size_classes.self_s", "s", "lower", "ops_per_s malloc_p50_us", "local_churn"),
    ("size_classes.internal_frag_ratio", "ratio", "lower", "peak_committed_bytes", "local_churn"),
    ("frontend.alloc_self_s", "s", "lower", "malloc_p50_us", "local_churn"),
    ("frontend.free_self_s", "s", "lower", "free_p50_us", "local_churn remote_handoff"),
    ("frontend.span_fetch_ratio", "ratio", "lower", "malloc_p99_us peak_committed_bytes", "local_churn"),
    ("frontend.set_hit_ratio", "ratio", "higher", "malloc_p99_us peak_committed_bytes", "local_churn"),
    ("frontend.remote_free_ratio", "ratio", "lower", "free_p50_us malloc_p99_us", "remote_handoff"),
    ("frontend.drains", "count", "lower", "free_p50_us malloc_p99_us", "remote_handoff"),
    ("frontend.adopts", "count", "lower", "free_p50_us malloc_p99_us", "remote_handoff"),
    ("span.self_s", "s", "lower", "ops_per_s", "local_churn"),
    ("span.free_remote_s", "s", "lower", "free_p50_us malloc_p99_us", "remote_handoff"),
    ("span.blocks_per_drain", "blocks", "higher", "free_p50_us malloc_p99_us", "remote_handoff"),
    ("span.transition_fail_ratio", "ratio", "lower", "free_p50_us malloc_p99_us", "remote_handoff"),
    ("span_pool.get_calls", "count", "lower", "malloc_p99_us", "large_churn"),
    ("span_pool.put_calls", "count", "lower", "malloc_p99_us", "large_churn"),
    ("span_pool.self_s", "s", "lower", "malloc_p99_us", "large_churn"),
    ("span_pool.pops_per_get", "count", "lower", "malloc_p99_us", "large_churn"),
    ("span_pool.hit_ratio", "ratio", "higher", "peak_committed_bytes", "large_churn"),
    ("span_pool.stack_retries", "count", "lower", "peak_committed_bytes", "large_churn"),
    ("arena.spans", "count", "lower", "peak_committed_bytes", "large_churn remote_handoff"),
    ("arena.busy_s", "s", "lower", "peak_committed_bytes", "large_churn remote_handoff"),
    ("vmem.word_ops", "count", "lower", "ops_per_s free_p50_us", "local_churn"),
    ("vmem.word_self_s", "s", "lower", "ops_per_s free_p50_us", "local_churn"),
    ("vmem.decommit_calls", "count", "lower", "free_p99_us end_committed_bytes", "large_churn"),
    ("vmem.decommit_bytes", "bytes", "lower", "free_p99_us end_committed_bytes", "large_churn"),
    ("vmem.decommit_s", "s", "lower", "free_p99_us end_committed_bytes", "large_churn"),
    ("vmem.map_unmap_s", "s", "lower", "malloc_p99_us", "large_churn"),
    ("vmem.live_mappings_peak", "count", "lower", "malloc_p99_us", "large_churn"),
    ("atomic.cas_calls", "count", "lower", "free_p50_us", "remote_handoff"),
    ("atomic.cas_fail_ratio", "ratio", "lower", "free_p50_us", "remote_handoff"),
    ("atomic.rmw_calls", "count", "lower", "free_p50_us", "remote_handoff"),
    ("trace_overhead_ratio", "ratio", "lower", "", "local_churn remote_handoff large_churn"),
]

MIN_REPS = 5            # repetitions behind each end-to-end median
MIN_TRACE_REPS = 3      # each side of the traced/untraced comparison
UNTRACED_SHARE = 0.25   # of --seconds, in a --trace 1 run


def _import_checkout():
    """Import the allocator from this checkout's sources, never another."""
    if not (SRC / "spanalloc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no allocator sources at {SRC.relative_to(ROOT)}/"
                 "spanalloc; run from the root of a repository checkout")
    sys.path.insert(0, str(SRC))
    import spanalloc
    if Path(spanalloc.__file__).resolve().parent != SRC / "spanalloc":
        sys.exit(f"perfbench: imported spanalloc from {spanalloc.__file__}, "
                 "not from this checkout")


def _repeat(name, inputs, budget_s, min_reps, summary, tracer_factory=None):
    """Repetitions until the budget is spent, at least `min_reps`.

    The reference loop is timed before the first repetition and after
    each one; a repetition is folded into `summary` with the mean of
    the two around it. `summary` keeps its latencies as float32, and the
    rep's own lists, several times larger, are dropped. Returns
    (rep, tracer) pairs; tracer is None for untraced reps.
    """
    from workloads import reference_ns, run_rep
    out = []
    start = time.perf_counter()
    ref_before = reference_ns()
    while True:
        if tracer_factory is None:
            rep, tracer = run_rep(name, inputs), None
        else:
            with tracer_factory() as tracer:
                rep = run_rep(name, inputs, tracer)
        ref_after = reference_ns()
        summary.add(rep, (ref_before + ref_after) / 2)
        ref_before = ref_after
        rep.malloc_ns = rep.free_ns = None
        out.append((rep, tracer))
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(out)
        if len(out) >= min_reps and elapsed + per_rep > budget_s:
            return out


def _layer_metrics(rep, totals, untraced_wall_ns):
    """Every per-layer metric of one traced repetition."""
    c = rep.counters

    def stat(name, field):
        s = totals.get(name)
        return getattr(s, field) if s is not None else 0

    def layer_self(prefix):
        return sum(s.self_ns for n, s in totals.items()
                   if n.startswith(prefix)) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    fetches = c["set_fetches"] + c["pool_fetches"]
    words = ("vmem.read_word", "vmem.write_word")
    return {
        "api.self_s": layer_self("api.malloc") + layer_self("api.free"),
        "api.huge_calls": c["huge_calls"],
        "api.huge_busy_s": stat("api.huge", "busy_ns") / 1e9,
        "size_classes.self_s": layer_self("size_classes."),
        "size_classes.internal_frag_ratio":
            ratio(c["usable"] - c["requested"], c["usable"]),
        "frontend.alloc_self_s": stat("frontend.allocate", "self_ns") / 1e9,
        "frontend.free_self_s": stat("frontend.deallocate", "self_ns") / 1e9,
        "frontend.span_fetch_ratio": ratio(fetches, c["allocs"]),
        "frontend.set_hit_ratio": ratio(c["set_fetches"], fetches),
        "frontend.remote_free_ratio": ratio(c["frees_remote"], c["frees"]),
        "frontend.drains": c["drains"],
        "frontend.adopts": c["adopts"],
        "span.self_s": layer_self("span."),
        "span.free_remote_s": stat("span.free_remote", "busy_ns") / 1e9,
        "span.blocks_per_drain":
            ratio(stat("span.drain_remotes", "total"), c["drains"]),
        "span.transition_fail_ratio":
            ratio(stat("span.try_transition", "false"),
                  stat("span.try_transition", "calls")),
        "span_pool.get_calls": c["pool_gets"],
        "span_pool.put_calls": c["pool_puts"],
        "span_pool.self_s": layer_self("span_pool."),
        "span_pool.pops_per_get":
            ratio(stat("span_pool.pop", "calls"), stat("span_pool.get", "calls")),
        "span_pool.hit_ratio": ratio(c["pool_hits"], c["pool_gets"]),
        "span_pool.stack_retries": c["stack_retries"],
        "arena.spans": c["arena_spans"],
        "arena.busy_s": sum(s.busy_ns for n, s in totals.items()
                            if n.startswith("arena.")) / 1e9,
        "vmem.word_ops": sum(stat(n, "calls") for n in words),
        "vmem.word_self_s": sum(stat(n, "self_ns") for n in words) / 1e9,
        "vmem.decommit_calls": c["decommit_calls"],
        "vmem.decommit_bytes": stat("vmem.decommit", "total"),
        "vmem.decommit_s": stat("vmem.decommit", "busy_ns") / 1e9,
        "vmem.map_unmap_s": (stat("vmem.map_pages", "busy_ns")
                             + stat("vmem.unmap", "busy_ns")) / 1e9,
        "vmem.live_mappings_peak": c["live_huge_peak"],
        "atomic.cas_calls": stat("atomic.compare_exchange", "calls"),
        "atomic.cas_fail_ratio":
            ratio(stat("atomic.compare_exchange", "false"),
                  stat("atomic.compare_exchange", "calls")),
        "atomic.rmw_calls": stat("atomic.exchange", "calls")
            + stat("atomic.fetch_add", "calls"),
        "trace_overhead_ratio": rep.wall_ns / untraced_wall_ns,
    }


def _pin_to_one_cpu():
    """Run this process's threads on one CPU, the highest it may use.

    The reference loop runs in the main thread and each repetition in a
    fresh one; on one CPU both see the same contention from the host,
    and remote_handoff's two threads take their turns on the same CPU.
    Only this process's affinity changes. Returns the CPU, or None where
    affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _environment(args, cpu):
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return (f"env python={sys.version.split()[0]} "
            f"gil={'enabled' if gil else 'disabled'} "
            f"cpu_count={os.cpu_count()} provider=sim "
            f"workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds} trace={args.trace} pinned_cpu={cpu}")


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_checkout()
    from tracing import Tracer
    from workloads import REF_NS, SHAPES, Summary, make_inputs

    cpu = _pin_to_one_cpu()
    print(_environment(args, cpu), flush=True)
    shape = SHAPES[args.workload]
    inputs = make_inputs(args.workload, args.seed)
    summary = Summary()

    if args.trace:
        budget = args.seconds * UNTRACED_SHARE
        plain = [rep for rep, _ in _repeat(args.workload, inputs, budget,
                                           MIN_TRACE_REPS, summary)]
        traced = _repeat(args.workload, inputs, args.seconds - budget,
                         MIN_TRACE_REPS, summary, Tracer)
        plain_wall = statistics.median(r.wall_ns for r in plain)
        per_rep = [_layer_metrics(rep, tracer.totals(), plain_wall)
                   for rep, tracer in traced]
        reps = plain + [rep for rep, _ in traced]
        OUT.mkdir(exist_ok=True)
        sample_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        traced[0][1].write_samples(sample_path)
        print(f"trace sample: {len(traced[0][1].samples)} spans of the first "
              f"traced repetition in {sample_path.relative_to(ROOT)}")
        metrics = {}
        for name, unit, _, moves, on in PER_LAYER:
            value = statistics.median(m[name] for m in per_rep)
            metrics[name] = {"value": value, "unit": unit}
            print(f"layer {args.workload} {name} {_fmt(value)} {unit}"
                  + (f"  (moves {moves} on {on})" if moves else ""))
        print(f"repetitions untraced={len(plain)} traced={len(traced)}")
    else:
        reps = [rep for rep, _ in _repeat(args.workload, inputs,
                                          args.seconds, MIN_REPS, summary)]
        values = summary.metrics()
        metrics = {name: {"value": values[name][0], "unit": unit}
                   for name, unit, _, _ in END_TO_END}
        print(f"reference loop: median {statistics.median(summary.ref_ns):.0f}"
              f" ns over {summary.reps} repetitions; timings are scaled to "
              f"{REF_NS} ns")
        for name, (value, unit) in values.items():
            call = name.split("_")[0]
            print(f"metric {args.workload} {name} {_fmt(value)} {unit}"
                  + (f"  (over {summary.calls(call)} calls, each the median "
                     f"of {summary.reps} repetitions)"
                     if call in summary.latency_ns else ""))

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    print(f"samples {args.workload} repetitions={len(reps)} "
          f"live={shape.live} steps={shape.steps} "
          f"malloc_samples={summary.reps * summary.calls('malloc')} "
          f"free_samples={summary.reps * summary.calls('free')} "
          f"attempted={attempted} failed={failed}")
    for rep in reps:
        for message in rep.errors:
            print(f"check failed: {message}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
