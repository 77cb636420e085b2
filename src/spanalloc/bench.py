"""Batch benchmark harness and CLI.

Reproduces the classic allocator workload families at desk scale. A run
builds the family's seeded trace and replays it under one allocator
(see `traces`): `threads` counts logical threads, each an attachment
record of its own, and all of them run in trace order on the calling
OS thread. Peak and end committed bytes and every `Allocator.stats()`
counter are then exact functions of the workload and allocator
configurations under the sim provider. `ops_per_sec` is the rate of
one OS thread running every op.

A run is one `RunReport`: both configurations, throughput, the whole
run's peak committed memory (exact under sim, sampled RSS under os),
the time each logical thread's runs took, `Allocator.stats()` and the
pool's per-stack counters at the end, and the workload's own results.
`write_json` appends it to a file as one JSON line.

Workloads:
  threadtest        rounds of allocate-all / free-all per thread
  shbench_like      batches of 1-8 byte objects living 1-4 rounds
  larson_like       chains of threads handing an object set along; a
                    link's successor attaches before the link detaches
  prodcons          epochs in which consumers free what producers
                    allocate; with symmetric roles every object is
                    freed by a uniformly random thread (remote-free
                    probability 1 - 1/n); reports each epoch's peak
  sizesweep         ramp over object-size intervals [2^x, 2^(x+2)),
                    crossing into the huge path at the top
  falseshare_active threads allocate, then free; reports whether any
                    span held blocks of two threads
  falseshare_passive remote-frees a block and reports whether the freeing
                    thread gets it back on its next allocations
  locality          frees and re-allocates objects in allocation order
                    vs shuffled order, sweeping the in-order share;
                    wall time only
"""

import argparse
import json
import sys
import threading
from dataclasses import asdict, dataclass, field, fields, replace
from time import perf_counter

from .api import Allocator
from .config import AllocatorConfig
from .size_classes import TABLE
from .traces import WORKLOADS, make_trace, replay, results

_RSS_SAMPLE_PERIOD = 0.010


@dataclass
class WorkloadConfig:
    name: str
    threads: int = 1
    rounds: int = 10
    objects_per_round: int | None = None
    object_size: int = 64
    size_range: tuple[int, int] | None = None
    handoffs: int = 8
    producers: int | None = None          # prodcons role split; None = symmetric
    seed: int = 0
    touch_objects: bool = True

    def __post_init__(self):
        if self.name not in WORKLOADS:
            raise ValueError(f"unknown workload {self.name!r}")
        if self.threads < 1 or self.rounds < 0:
            raise ValueError("threads must be >= 1 and rounds >= 0")
        if self.object_size < 0 or self.handoffs < 0:
            raise ValueError("object_size and handoffs must be >= 0")
        if self.objects_per_round is not None and self.objects_per_round < 1:
            raise ValueError("objects_per_round must be >= 1")
        if self.size_range is not None \
                and not 0 <= self.size_range[0] <= self.size_range[1]:
            raise ValueError("size_range must satisfy 0 <= min <= max")
        if self.producers is not None \
                and not 0 < self.producers < self.threads:
            # A split needs at least one producer and one consumer.
            raise ValueError("producers must be in [1, threads - 1]")

    def objects(self):
        if self.objects_per_round is not None:
            return self.objects_per_round
        # Desk-scale default mirroring the classic configuration shape:
        # the per-round object count splits across threads.
        return max(1, 100_000 // self.threads)


@dataclass
class RunReport:
    """One run, written by `write_json` as one JSON line."""
    workload: WorkloadConfig        # objects_per_round as in effect
    allocator: AllocatorConfig
    ops: int
    elapsed_s: float                # the replay's wall time
    ops_per_sec: float
    peak_committed_bytes: int       # over the whole run
    thread_alloc_times_s: list[float]   # time of each logical thread's runs
    stats: dict                     # Allocator.stats() after the run
    stacks: list                    # SpanPool.stack_counters() rows
    extra: dict = field(default_factory=dict)   # workload-specific results


# -- runs -----------------------------------------------------------------------

def _sample_rss(provider, halt):
    """Read the os provider's committed bytes (process RSS) until `halt`
    is released; each read raises the provider's window peak."""
    while not halt.acquire(timeout=_RSS_SAMPLE_PERIOD):
        provider.committed_bytes


def run(config, allocator=None):
    """Replay the workload's trace; returns the RunReport."""
    if allocator is None:
        allocator = Allocator()
    trace = make_trace(config)
    provider = allocator.provider
    provider.begin_window()
    halt = threading.Semaphore(0)
    sampler = None
    if provider.name != "sim":
        sampler = threading.Thread(target=_sample_rss, args=(provider, halt),
                                   daemon=True)
        sampler.start()
    try:
        started = perf_counter()
        addresses, marks, held = replay(trace, allocator,
                                        config.touch_objects)
        elapsed = perf_counter() - started
    finally:
        if sampler is not None:
            halt.release()
            sampler.join()

    times = [started] + [t for t, _ in marks]
    peaks = [peak for _, peak in marks]
    extra = results(config, allocator, trace, addresses,
                    [b - a for a, b in zip(times, times[1:])], peaks)
    stats = allocator.stats()
    extra["leaked_blocks"] = stats["allocs"] - stats["frees"]
    ops = stats["allocs"] + stats["frees"]
    return RunReport(
        workload=replace(config, objects_per_round=config.objects()),
        allocator=allocator.config,
        ops=ops, elapsed_s=round(elapsed, 6),
        ops_per_sec=round(ops / elapsed if elapsed > 0 else 0.0, 1),
        # A mark begins a new window, so the run's peak is the largest
        # of every window's.
        peak_committed_bytes=max(peaks + [provider.window_peak]),
        thread_alloc_times_s=held,
        stats=stats, stacks=allocator.pool.stack_counters(), extra=extra)


# -- CLI ---------------------------------------------------------------------------

def write_json(path, report):
    """Append the report to `path` as one JSON line."""
    with open(path, "a") as fh:
        fh.write(json.dumps(asdict(report)) + "\n")


def _parse_size_range(text):
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected MIN:MAX, two integers, not {text!r}") from None


def build_arg_parser():
    """Each workload and allocator flag's dest is the name of its
    WorkloadConfig or AllocatorConfig field."""
    parser = argparse.ArgumentParser(
        prog="spanalloc-bench",
        description="Run an allocator workload and report its metrics.")
    parser.add_argument("--workload", dest="name", choices=WORKLOADS,
                        default="threadtest")
    parser.add_argument("--threads", type=int, default=1,
                        help="logical threads of the workload's trace")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--objects", dest="objects_per_round", type=int,
                        help="objects per round (default: 100000/threads)")
    parser.add_argument("--size", dest="object_size", type=int, default=64)
    parser.add_argument("--size-range", type=_parse_size_range, default=None,
                        metavar="MIN:MAX")
    parser.add_argument("--handoffs", type=int, default=8)
    parser.add_argument("--producers", type=int, default=None,
                        help="prodcons role split; default symmetric")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="append the run's record as one JSON line")
    # Allocator flags default to None: an omitted flag leaves its field
    # to the library default.
    parser.add_argument("--provider", choices=("os", "sim"), default=None)
    parser.add_argument("--pool-width", type=int, default=None,
                        help="1 funnels every thread onto one stack per "
                        "real-span size")
    parser.add_argument("--reuse-threshold", dest="reuse_percent", type=int,
                        default=None, metavar="PCT")
    parser.add_argument("--arena-bytes", type=int, default=None)
    parser.add_argument("--lab-mode", choices=("tlab", "clab"), default=None)
    parser.add_argument("--no-decommit", dest="decommit_enabled",
                        action="store_const", const=False, default=None,
                        help="keep pooled spans committed")
    parser.add_argument("--lazy-reclaim", dest="eager_reclaim",
                        action="store_const", const=False, default=None,
                        help="return empty spans from the next slow-path "
                        "allocation, not from the free that empties them")
    parser.add_argument("--no-touch", dest="touch_objects",
                        action="store_false", help="skip writing into objects")
    parser.add_argument("--instrument", action="store_true",
                        help="attach the ledger (fragmentation, DoubleFree)")
    parser.add_argument("--dump-size-classes", action="store_true",
                        help="print the size-class table as JSON and exit")
    return parser


def main(argv=None):
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.dump_size_classes:
        print(json.dumps([row._asdict() for row in TABLE]))
        return 0

    values = vars(args)
    overrides = {f.name: values[f.name] for f in fields(AllocatorConfig)
                 if values.get(f.name) is not None}
    try:
        config = WorkloadConfig(
            **{f.name: values[f.name] for f in fields(WorkloadConfig)})
        allocator = Allocator(**overrides)
    except ValueError as exc:
        parser.error(str(exc))          # exits with status 2
    report = run(config, allocator)

    stats = report.stats
    print(f"workload={config.name} threads={config.threads} "
          f"ops={report.ops} elapsed={report.elapsed_s:.3f}s "
          f"ops/s={report.ops_per_sec:,.0f} "
          f"peak_committed={report.peak_committed_bytes}")
    print(f"  remote_free_fraction={round(stats['remote_free_fraction'], 4)}")
    for key in ("probe_ok", "leaked_blocks"):
        if key in report.extra:
            print(f"  {key}={report.extra[key]}")
    if "frag_bytes" in stats:
        print(f"  frag_bytes={stats['frag_bytes']}")
    if args.json:
        write_json(args.json, report)
        print(f"record appended to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
