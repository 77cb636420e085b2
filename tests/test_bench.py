import json
import random
import subprocess
import sys
from dataclasses import asdict

import pytest

from helpers import SMALL_ARENA, check_heap, make_allocator
from spanalloc.bench import (
    WorkloadConfig, build_arg_parser, main, run, write_json,
)
from spanalloc.config import CLAB, AllocatorConfig
from spanalloc.size_classes import NUM_CLASSES, NUM_REAL_SPAN_SIZES
from spanalloc.traces import FREE, MALLOC, WORKLOADS, make_trace, replay


def small(name, **kw):
    kw.setdefault("threads", 2)
    kw.setdefault("rounds", 3)
    kw.setdefault("objects_per_round", 200)
    return WorkloadConfig(name=name, **kw)


def exported(report):
    """The report as `write_json` writes it, read back."""
    return json.loads(json.dumps(asdict(report)))


def read_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


@pytest.mark.parametrize("name", [
    "threadtest", "shbench_like", "prodcons",
    "falseshare_active", "falseshare_passive", "locality",
])
def test_workloads_run_clean(name):
    alloc = make_allocator()
    report = run(small(name), alloc)
    check_heap(alloc, live=())
    assert report.ops > 0
    assert report.extra["leaked_blocks"] == 0
    assert report.peak_committed_bytes > 0
    assert len(report.thread_alloc_times_s) >= 2
    record = exported(report)
    assert record["workload"]["name"] == name
    assert record["ops"] == report.ops
    assert record["stats"] == report.stats
    assert record["extra"]["leaked_blocks"] == 0
    if name == "locality":
        # JSON object keys are strings.
        assert set(record["extra"]["access_times"]) \
            == {"0", "25", "50", "75", "100"}


def test_larson_runs_clean():
    cfg = WorkloadConfig(name="larson_like", threads=2, rounds=30,
                         objects_per_round=50, handoffs=4)
    alloc = make_allocator()
    report = run(cfg, alloc)
    check_heap(alloc, live=())
    assert report.extra["leaked_blocks"] == 0
    # Each hand-off passes the set to a new logical thread.
    assert len(report.thread_alloc_times_s) == 2 * (4 + 1)
    record = exported(report)
    assert record["workload"]["handoffs"] == 4
    assert record["thread_alloc_times_s"] == report.thread_alloc_times_s


def test_sizesweep_exercises_huge_path():
    # sizesweep crosses every class, re-classes slots through the pool
    # and maps huge objects; no configuration leaves a stray page.
    for flags in ({}, {"decommit_enabled": False}, {"eager_reclaim": False},
                  {"pool_width": 1}):
        alloc = make_allocator(arena_bytes=1 << 31, **flags)
        cfg = WorkloadConfig(name="sizesweep", threads=1, rounds=2)
        report = run(cfg, alloc)
        assert report.extra["leaked_blocks"] == 0, flags
        assert alloc.provider.map_calls > 0, flags    # objects above 1MB
        assert 20 in report.extra["interval_times"], flags
        check_heap(alloc, live=())
        record = exported(report)
        assert "20" in record["extra"]["interval_times"], flags
        assert record["allocator"]["decommit_enabled"] \
            == flags.get("decommit_enabled", True), flags


def test_prodcons_remote_fraction_half_for_two_threads():
    cfg = WorkloadConfig(name="prodcons", threads=2, rounds=10,
                         objects_per_round=400, seed=3)
    report = run(cfg, make_allocator())
    assert abs(report.stats["remote_free_fraction"] - 0.5) < 0.05


def test_prodcons_split_roles_all_remote():
    cfg = WorkloadConfig(name="prodcons", threads=4, rounds=4,
                         objects_per_round=200, producers=2)
    report = run(cfg, make_allocator())
    assert report.stats["remote_free_fraction"] == 1.0
    assert report.extra["leaked_blocks"] == 0


def test_ablate_flag_validation_and_effects():
    # Each ablation is the CLI flag of its config field; an omitted one
    # leaves the field to the library default.
    parse = build_arg_parser().parse_args
    args = vars(parse(["--no-decommit", "--lazy-reclaim", "--pool-width",
                       "1"]))
    assert (args["decommit_enabled"], args["eager_reclaim"],
            args["pool_width"]) == (False, False, 1)
    args = vars(parse([]))
    assert (args["decommit_enabled"], args["eager_reclaim"],
            args["pool_width"]) == (None, None, None)
    with pytest.raises(SystemExit):
        parse(["--ablate", "no_decommit"])


def test_same_trace_reproduces_run():
    # One trace replayed under one configuration: memory to the byte and
    # every counter, run after run.
    def one(cfg, **kw):
        alloc = make_allocator(arena_bytes=1 << 31, **kw)
        report = run(cfg, alloc)
        check_heap(alloc, live=())
        return (report.ops, report.peak_committed_bytes,
                alloc.committed_bytes, report.stats, report.stacks)

    # At 1,000 objects a round each thread's lane spans many runs, so a
    # replay switches attachment records many times.
    cases = [(small(name, objects_per_round=1000, seed=7), {})
             for name in WORKLOADS] + [
        (small("threadtest", objects_per_round=1000, seed=7),
         {"lab_mode": CLAB}),
        (WorkloadConfig(name="shbench_like", threads=1, rounds=10,
                        objects_per_round=100, seed=77), {}),
        # Each link hands its set to a new logical thread; the hand-off
        # order follows the trace alone.
        (WorkloadConfig(name="larson_like", threads=1, rounds=3,
                        objects_per_round=3000, seed=5), {}),
    ]
    for cfg, kw in cases:
        assert one(cfg, **kw) == one(cfg, **kw) == one(cfg, **kw), \
            (cfg.name, kw)


def test_traces_are_pure_functions_of_the_seed():
    for name in WORKLOADS:
        cfg = small(name, seed=5)
        trace = make_trace(cfg)
        random.seed(name)                # no global random state leaks in
        assert make_trace(cfg) == trace, name
        # Well formed: each handle malloced once, freed once, after.
        born, freed = set(), set()
        for _, op, h, _ in trace:
            if op == MALLOC:
                assert h not in born, name
                born.add(h)
            elif op == FREE:
                assert h in born and h not in freed, name
                freed.add(h)
        assert born == freed, name


def test_run_peak_covers_every_window():
    # Each epoch mark begins a new window of the provider's peak.
    cfg = WorkloadConfig(name="prodcons", threads=2, rounds=12,
                         objects_per_round=30, size_range=(1000, 300000),
                         seed=1)
    report = run(cfg, make_allocator())
    assert report.peak_committed_bytes >= max(report.extra["epoch_peaks"])


def caller_attached(alloc, attached):
    """Attach the calling thread or not; returns its record, or None."""
    if attached:
        alloc.attach_thread()
    return getattr(alloc.frontend._tls, "attached", None)


@pytest.mark.parametrize("attached", [False, True],
                         ids=["caller_detached", "caller_attached"])
def test_replay_keeps_the_callers_own_attachment(attached):
    alloc = make_allocator()
    mine = caller_attached(alloc, attached)
    replay(make_trace(small("threadtest")), alloc)
    assert getattr(alloc.frontend._tls, "attached", None) is mine
    assert len(alloc.frontend.thread_stats) == attached
    alloc.free(alloc.malloc(64))
    check_heap(alloc, live=())


def test_a_failing_replay_raises_its_error_and_leaves_only_the_caller():
    trace = make_trace(small("threadtest"))
    # Thread 1 frees a handle nobody malloced, with thread 0 attached.
    at = next(i for i, op in enumerate(trace) if op[0] == 1 and op[1] == FREE)
    broken = trace[:at] + [(1, FREE, -1, None)] + trace[at:]
    for attached in (False, True):
        alloc = make_allocator()
        mine = caller_attached(alloc, attached)
        with pytest.raises(KeyError):
            replay(broken, alloc)
        assert getattr(alloc.frontend._tls, "attached", None) is mine
        assert list(alloc.frontend.thread_stats) == ([mine[1]] if mine else [])


def test_csv_schema_stable(tmp_path):
    # Each run appends one JSON record.
    path = tmp_path / "runs.jsonl"
    alloc = make_allocator()
    report = run(small("threadtest", threads=1), alloc)
    write_json(str(path), report)
    write_json(str(path), report)
    records = read_records(path)
    assert len(records) == 2
    assert list(records[0]) == [
        "workload", "allocator", "ops", "elapsed_s", "ops_per_sec",
        "peak_committed_bytes", "thread_alloc_times_s", "stats", "stacks",
        "extra",
    ]
    assert records[0]["workload"]["name"] == "threadtest"
    assert records[0]["workload"]["objects_per_round"] == 200
    assert records[0]["ops"] == report.ops
    assert records[0]["allocator"]["decommit_enabled"] is True
    assert records[0]["allocator"]["eager_reclaim"] is True
    # The record holds the object count in effect, not the None that
    # asks for the default.
    report = run(small("threadtest", threads=4, rounds=0,
                       objects_per_round=None), make_allocator())
    assert exported(report)["workload"]["objects_per_round"] == 25_000


def test_cli_dump_size_classes():
    out = subprocess.run(
        [sys.executable, "-m", "spanalloc.bench", "--dump-size-classes"],
        capture_output=True, text=True, check=True)
    rows = json.loads(out.stdout)
    assert len(rows) == NUM_CLASSES == 28
    assert rows[15]["class_id"] == 15
    assert rows[15]["block_size"] == 256


def test_cli_end_to_end(tmp_path):
    path = tmp_path / "cli.jsonl"
    out = subprocess.run(
        [sys.executable, "-m", "spanalloc.bench",
         "--workload", "threadtest", "--threads", "2", "--rounds", "2",
         "--objects", "100", "--size", "64", "--seed", "1",
         "--provider", "sim", "--arena-bytes", str(SMALL_ARENA),
         "--json", str(path), "--no-decommit"],
        capture_output=True, text=True, check=True)
    assert "ops/s=" in out.stdout
    [record] = read_records(path)
    assert record["allocator"]["decommit_enabled"] is False
    assert record["allocator"]["eager_reclaim"] is True
    assert record["allocator"]["provider"] == "sim"


def test_cli_stacks_csv_counts_every_push(tmp_path):
    # The record's stacks are the per-stack pool counters: each stack's
    # CAS retries, which sum to the stats' total.
    path = tmp_path / "runs.jsonl"
    assert main(["--workload", "threadtest", "--threads", "2",
                 "--rounds", "2", "--objects", "2000", "--provider", "sim",
                 "--arena-bytes", str(SMALL_ARENA), "--pool-width", "3",
                 "--json", str(path)]) == 0
    [record] = read_records(path)
    stacks = record["stacks"]
    assert record["allocator"]["pool_width"] == 3
    assert len(stacks) == NUM_REAL_SPAN_SIZES * 3
    assert [row[:2] for row in stacks] == [
        [i, j] for i in range(NUM_REAL_SPAN_SIZES) for j in range(3)]
    assert sum(retries for _, _, retries in stacks) \
        == record["stats"]["stack_retries"]
    assert record["stats"]["stack_pushes"] > 0


MALFORMED_RANGES = ("1:x", "5")


@pytest.mark.parametrize("bad", [
    ["--workload", "prodcons", "--threads", "2", "--producers", "2"],
    ["--threads", "0"],
    ["--reuse-threshold", "101"],
    ["--pool-width", "0"],
    ["--size-range", "8:1"],
    ["--size", "-5"],
    *(["--size-range", text] for text in MALFORMED_RANGES),
])
def test_cli_bad_values_are_usage_errors(bad, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--rounds", "1", "--objects", "10",
              "--arena-bytes", str(SMALL_ARENA)] + bad)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "spanalloc-bench: error:" in err
    if bad[-1] in MALFORMED_RANGES:
        assert f"argument --size-range: expected MIN:MAX, two integers, " \
            f"not '{bad[-1]}'" in err


def test_cli_size_range(tmp_path):
    path = tmp_path / "range.jsonl"
    assert main(["--workload", "prodcons", "--threads", "2", "--rounds", "2",
                 "--objects", "50", "--size-range", "1:8",
                 "--arena-bytes", str(SMALL_ARENA), "--json", str(path)]) == 0
    [record] = read_records(path)
    assert record["workload"]["size_range"] == [1, 8]
    assert record["extra"]["leaked_blocks"] == 0


def test_cli_instrument_prints_frag_bytes():
    out = subprocess.run(
        [sys.executable, "-m", "spanalloc.bench",
         "--workload", "threadtest", "--rounds", "1", "--objects", "100",
         "--provider", "sim", "--arena-bytes", str(SMALL_ARENA),
         "--instrument"],
        capture_output=True, text=True, check=True)
    assert "frag_bytes=" in out.stdout


def test_cli_default_provider_is_the_library_default(tmp_path):
    path = tmp_path / "default.jsonl"
    assert main(["--workload", "threadtest", "--rounds", "1",
                 "--objects", "50", "--arena-bytes", str(SMALL_ARENA),
                 "--json", str(path)]) == 0
    [record] = read_records(path)
    assert record["allocator"]["provider"] == AllocatorConfig.provider \
        == "sim"


def test_workload_config_validation():
    for bad in ({"name": "nope"}, {"threads": 0}, {"object_size": -1},
                {"size_range": (8, 1)}, {"size_range": (-1, 4)},
                {"handoffs": -1}, {"objects_per_round": 0}):
        with pytest.raises(ValueError):
            WorkloadConfig(**{"name": "threadtest", **bad})
    # A prodcons split needs a producer and a consumer.
    for producers in (-1, 0, 2, 3):
        with pytest.raises(ValueError):
            WorkloadConfig(name="prodcons", threads=2, producers=producers)
    assert WorkloadConfig(name="prodcons", threads=2, producers=1).producers \
        == 1
    cfg = WorkloadConfig(name="threadtest", threads=4)
    assert cfg.objects() == 25_000          # 100000 / threads


def test_threadtest_committed_within_spans_in_flight_bound():
    alloc = make_allocator()
    objects, threads = 2000, 4
    cfg = WorkloadConfig(name="threadtest", threads=threads, rounds=3,
                         objects_per_round=objects, object_size=64)
    baseline = alloc.committed_bytes
    run(cfg, alloc)
    # Eager TLAB runs end with only cycled spans still committed: small
    # spans keep their pages in the pool, plus one stranded hot span and
    # one partial span per thread.
    spans_in_flight = -(-objects * 64 // 32512) + 2
    bound = threads * spans_in_flight * 32768
    assert alloc.committed_bytes - baseline <= bound


def test_os_provider_run_uses_rss_sampler():
    try:
        alloc = make_allocator(provider="os", arena_bytes=1 << 27)
    except Exception:                      # pragma: no cover
        pytest.skip("os provider unavailable here")
    report = run(small("threadtest", threads=2, rounds=2,
                       objects_per_round=100), alloc)
    assert report.extra["leaked_blocks"] == 0
    assert report.peak_committed_bytes > 0          # sampled RSS


def test_lazy_reclaim_prodcons_interplay():
    alloc = make_allocator(eager_reclaim=False)
    cfg = WorkloadConfig(name="prodcons", threads=4, rounds=6,
                         objects_per_round=300, seed=8)
    report = run(cfg, alloc)
    assert report.extra["leaked_blocks"] == 0
