import csv
import io
import subprocess
import sys

import pytest

from helpers import SMALL_ARENA, stray_pages
from spanalloc.bench import (
    ABLATION_FLAGS, WorkloadConfig, ablate, main, run, write_csv,
)
from spanalloc.config import AllocatorConfig
from spanalloc.size_classes import NUM_REAL_SPAN_SIZES


def bench_alloc(**kw):
    kw.setdefault("arena_bytes", SMALL_ARENA)
    return ablate((), **kw)


def small(name, **kw):
    kw.setdefault("threads", 2)
    kw.setdefault("rounds", 3)
    kw.setdefault("objects_per_round", 200)
    return WorkloadConfig(name=name, **kw)


@pytest.mark.parametrize("name", [
    "threadtest", "shbench_like", "prodcons",
    "falseshare_active", "falseshare_passive", "locality",
])
def test_workloads_run_clean(name):
    report = run(small(name), bench_alloc())
    assert report.ops > 0
    assert report.extra["leaked_blocks"] == 0
    assert report.peak_committed_bytes > 0
    assert len(report.thread_alloc_times_s) >= 2


def test_larson_runs_clean():
    cfg = WorkloadConfig(name="larson_like", threads=2, rounds=30,
                         objects_per_round=50, handoffs=4)
    report = run(cfg, bench_alloc())
    assert report.extra["leaked_blocks"] == 0
    # Each hand-off spawns a continuation thread.
    assert len(report.thread_alloc_times_s) == 2 * (4 + 1)


def test_sizesweep_exercises_huge_path():
    # sizesweep crosses every class, re-classes slots through the pool
    # and maps huge objects; no configuration leaves a stray page.
    for flags in ((), ("no_decommit",), ("lazy_reclaim",), ("pool_width_1",)):
        alloc = ablate(flags, arena_bytes=1 << 31)
        cfg = WorkloadConfig(name="sizesweep", threads=1, rounds=2)
        report = run(cfg, alloc)
        assert report.extra["leaked_blocks"] == 0, flags
        assert alloc.provider.map_calls > 0, flags    # objects above 1MB
        assert 20 in report.extra["interval_times"], flags
        assert not stray_pages(alloc), flags


def test_prodcons_remote_fraction_half_for_two_threads():
    cfg = WorkloadConfig(name="prodcons", threads=2, rounds=10,
                         objects_per_round=400, seed=3)
    report = run(cfg, bench_alloc())
    assert abs(report.remote_free_fraction - 0.5) < 0.05


def test_prodcons_split_roles_all_remote():
    cfg = WorkloadConfig(name="prodcons", threads=4, rounds=4,
                         objects_per_round=200, producers=2)
    report = run(cfg, bench_alloc())
    assert report.remote_free_fraction == 1.0
    assert report.extra["leaked_blocks"] == 0


def test_ablate_flag_validation_and_effects():
    with pytest.raises(ValueError):
        ablate(("bogus",))
    a = ablate(ABLATION_FLAGS, arena_bytes=SMALL_ARENA)
    assert not a.config.decommit_enabled
    assert a.config.effective_pool_width() == 1
    assert not a.config.eager_reclaim
    base = AllocatorConfig(arena_bytes=SMALL_ARENA, reuse_percent=70)
    b = ablate(("no_decommit",), base_config=base)
    assert b.config.reuse_percent == 70 and not b.config.decommit_enabled


def test_same_seed_reproduces_single_thread_run():
    def one(cfg):
        alloc = bench_alloc()
        report = run(cfg, alloc)
        stats = alloc.stats()
        return (report.ops, report.peak_committed_bytes,
                report.remote_free_fraction,
                stats["pool_puts"], stats["pool_gets"], stats["allocs"])

    for cfg in (
        WorkloadConfig(name="shbench_like", threads=1, rounds=10,
                       objects_per_round=100, seed=77),
        # Each link hands its set to a new thread; the hand-off order
        # must not depend on thread timing.
        WorkloadConfig(name="larson_like", threads=1, rounds=3,
                       objects_per_round=3000, seed=5),
    ):
        assert one(cfg) == one(cfg) == one(cfg), cfg.name


def test_csv_schema_stable(tmp_path):
    path = tmp_path / "runs.csv"
    alloc = bench_alloc()
    report = run(small("threadtest", threads=1), alloc)
    write_csv(str(path), report)
    write_csv(str(path), report)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert list(rows[0]) == [
        "workload", "threads", "rounds", "objects_per_round", "object_size",
        "size_min", "size_max", "seed", "provider", "pool_width",
        "reuse_percent", "lab_mode", "ablation", "ops", "elapsed_s",
        "ops_per_sec", "peak_committed_bytes", "thread_alloc_time_mean_s",
        "remote_free_fraction", "pool_puts", "pool_gets",
        "stack_pushes", "stack_pops", "stack_retries",
    ]
    assert rows[0]["workload"] == "threadtest"
    assert int(rows[0]["ops"]) == report.ops
    assert rows[0]["ablation"] == "none"


def test_cli_dump_size_classes():
    out = subprocess.run(
        [sys.executable, "-m", "spanalloc.bench", "--dump-size-classes"],
        capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    assert lines[0].startswith("class_id,")
    assert len(lines) == 29


def test_cli_end_to_end(tmp_path):
    path = tmp_path / "cli.csv"
    out = subprocess.run(
        [sys.executable, "-m", "spanalloc.bench",
         "--workload", "threadtest", "--threads", "2", "--rounds", "2",
         "--objects", "100", "--size", "64", "--seed", "1",
         "--provider", "sim", "--arena-bytes", str(SMALL_ARENA),
         "--csv", str(path), "--ablate", "no_decommit"],
        capture_output=True, text=True, check=True)
    assert "ops/s=" in out.stdout
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["ablation"] == "no_decommit"
    assert rows[0]["provider"] == "sim"


def test_cli_stacks_csv_counts_every_push(tmp_path):
    stacks, runs = tmp_path / "stacks.csv", tmp_path / "runs.csv"
    assert main(["--workload", "threadtest", "--threads", "2",
                 "--rounds", "2", "--objects", "2000", "--provider", "sim",
                 "--arena-bytes", str(SMALL_ARENA), "--pool-width", "3",
                 "--csv", str(runs), "--stacks-csv", str(stacks)]) == 0
    with open(stacks) as fh:
        rows = list(csv.DictReader(fh))
    with open(runs) as fh:
        run_row = next(csv.DictReader(fh))
    assert list(rows[0]) == ["real_span_index", "pool_index",
                             "pushes", "pops", "retries"]
    assert len(rows) == NUM_REAL_SPAN_SIZES * 3
    assert sum(int(r["pushes"]) for r in rows) \
        == int(run_row["stack_pushes"]) > 0


def test_cli_instrument_prints_frag_bytes():
    out = subprocess.run(
        [sys.executable, "-m", "spanalloc.bench",
         "--workload", "threadtest", "--rounds", "1", "--objects", "100",
         "--provider", "sim", "--arena-bytes", str(SMALL_ARENA),
         "--instrument"],
        capture_output=True, text=True, check=True)
    assert "frag_bytes=" in out.stdout


def test_cli_takes_omitted_flags_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("SPANALLOC_PROVIDER", "sim")
    monkeypatch.setenv("SPANALLOC_REUSE_PERCENT", "65")
    monkeypatch.setenv("SPANALLOC_LAB_MODE", "clab")
    path = tmp_path / "env.csv"
    argv = ["--workload", "threadtest", "--rounds", "1", "--objects", "50",
            "--arena-bytes", str(SMALL_ARENA), "--csv", str(path)]
    assert main(argv) == 0
    assert main(argv + ["--reuse-threshold", "70"]) == 0    # flag wins
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["provider"] for r in rows] == ["sim", "sim"]
    assert [r["lab_mode"] for r in rows] == ["clab", "clab"]
    assert [r["reuse_percent"] for r in rows] == ["65", "70"]


def test_cli_default_provider_is_the_library_default(tmp_path, monkeypatch):
    monkeypatch.delenv("SPANALLOC_PROVIDER", raising=False)
    path = tmp_path / "default.csv"
    assert main(["--workload", "threadtest", "--rounds", "1",
                 "--objects", "50", "--arena-bytes", str(SMALL_ARENA),
                 "--csv", str(path)]) == 0
    with open(path) as fh:
        row = next(csv.DictReader(fh))
    assert row["provider"] == AllocatorConfig.provider == "sim"


def test_workload_config_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(name="nope")
    with pytest.raises(ValueError):
        WorkloadConfig(name="threadtest", threads=0)
    cfg = WorkloadConfig(name="threadtest", threads=4)
    assert cfg.objects() == 25_000          # 100000 / threads


def test_threadtest_committed_within_spans_in_flight_bound():
    alloc = bench_alloc()
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
        alloc = ablate((), provider="os", arena_bytes=1 << 27)
    except Exception:                      # pragma: no cover
        pytest.skip("os provider unavailable here")
    report = run(small("threadtest", threads=2, rounds=2,
                       objects_per_round=100), alloc)
    assert report.extra["leaked_blocks"] == 0
    assert report.peak_committed_bytes > 0          # sampled RSS


def test_lazy_reclaim_prodcons_interplay():
    alloc = ablate(("lazy_reclaim",), arena_bytes=SMALL_ARENA)
    cfg = WorkloadConfig(name="prodcons", threads=4, rounds=6,
                         objects_per_round=300, seed=8)
    report = run(cfg, alloc)
    assert report.extra["leaked_blocks"] == 0
