"""Batch benchmark harness and CLI.

Reproduces the classic allocator workload families at desk scale. A
run is one `RunReport`: the workload and allocator configurations,
throughput, peak committed memory (exact under the sim provider,
sampled RSS under os), per-thread allocator time, `Allocator.stats()`
and the pool's per-stack counters at the end, and the workload's own
results. `write_json` appends it to a file as one JSON line.

Workloads:
  threadtest        rounds of allocate-all / free-all per thread
  shbench_like      batches of 1-8 byte objects living 1-4 rounds
  larson_like       object sets handed to freshly spawned threads,
                    terminating the hander's thread each time
  prodcons          producer/consumer exchange through queues; with
                    symmetric roles every object is freed by a
                    uniformly random thread (remote-free probability
                    1 - 1/n)
  sizesweep         ramp over object-size intervals [2^x, 2^(x+2)),
                    crossing into the huge path at the top
  falseshare_active two threads allocate concurrently; reports whether
                    any span was shared
  falseshare_passive remote-frees a block and reports whether the freeing
                    thread gets it back on its next allocation
  locality          list-order vs tree-order access sweep over touched
                    objects, wall time only
"""

import argparse
import json
import queue
import random
import sys
import threading
import time
from dataclasses import asdict, dataclass, field, fields, replace

from .api import NULL, Allocator
from .config import AllocatorConfig
from .errors import SpanAllocError
from .size_classes import TABLE

# Each ablation flag and the AllocatorConfig fields it sets.
ABLATIONS = {
    "no_decommit": {"decommit_enabled": False},
    "pool_width_1": {"pool_width": 1},
    "lazy_reclaim": {"eager_reclaim": False},
}

_RSS_SAMPLE_PERIOD = 0.010


@dataclass
class WorkloadConfig:
    name: str
    threads: int = 1
    rounds: int = 10
    objects_per_round: int | None = None
    object_size: int = 64
    size_range: tuple[int, int] | None = None
    duration: float | None = None
    handoffs: int = 8
    producers: int | None = None          # prodcons role split; None = symmetric
    seed: int = 0
    touch_objects: bool = True

    def __post_init__(self):
        if self.name not in WORKLOADS:
            raise ValueError(f"unknown workload {self.name!r}")
        if self.threads < 1 or self.rounds < 0:
            raise ValueError("threads must be >= 1 and rounds >= 0")
        if self.object_size < 0:
            raise ValueError("object_size must be >= 0")
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
    allocator: AllocatorConfig      # pool_width as in effect
    ops: int
    elapsed_s: float
    ops_per_sec: float
    peak_committed_bytes: int
    thread_alloc_times_s: list[float]
    stats: dict                     # Allocator.stats() after the run
    stacks: list                    # SpanPool.stack_counters() rows
    extra: dict = field(default_factory=dict)   # workload-specific results


def ablate(flags=(), **overrides):
    """Allocator configured with the named ablations applied.

    no_decommit disables the pooled-span decommit, pool_width_1 funnels
    every thread onto one stack per real-span size, lazy_reclaim defers
    empty-span returns to the next slow-path allocation.
    """
    unknown = set(flags) - set(ABLATIONS)
    if unknown:
        raise ValueError(f"unknown ablation flags: {sorted(unknown)}")
    for flag in flags:
        overrides.update(ABLATIONS[flag])
    return Allocator(**overrides)


class _Worker(threading.Thread):
    """Workload thread that accounts time spent inside the allocator."""

    def __init__(self, allocator, body, index):
        super().__init__(name=f"bench-{index}")
        self.allocator = allocator
        self.body = body
        self.index = index
        self.alloc_time = 0.0
        self.error = None

    def run(self):
        try:
            self.allocator.attach_thread()
            try:
                self.body(self)
            finally:
                self.allocator.detach_thread()
        except BaseException as exc:   # surfaced after join
            self.error = exc


def _sample_rss(provider, halt):
    """Read the os provider's committed bytes (process RSS) until
    `halt`; each read raises the provider's window peak."""
    while not halt.is_set():
        provider.committed_bytes
        halt.wait(_RSS_SAMPLE_PERIOD)


def run(config, allocator=None):
    """Execute a workload; returns the RunReport."""
    if allocator is None:
        allocator = Allocator()
    provider = allocator.provider
    provider.begin_window()
    halt = threading.Event()
    sampler = None
    if provider.name != "sim":
        sampler = threading.Thread(target=_sample_rss, args=(provider, halt),
                                   daemon=True)
        sampler.start()

    runner = _WORKLOAD_RUNNERS[config.name]
    started = time.perf_counter()
    workers, extra = runner(allocator, config)
    elapsed = time.perf_counter() - started
    if sampler is not None:
        halt.set()
        sampler.join()

    stats = allocator.stats()
    extra["leaked_blocks"] = stats["allocs"] - stats["frees"]
    ops = stats["allocs"] + stats["frees"]
    c = allocator.config
    return RunReport(
        workload=replace(config, objects_per_round=config.objects()),
        allocator=replace(c, pool_width=c.effective_pool_width()),
        ops=ops, elapsed_s=round(elapsed, 6),
        ops_per_sec=round(ops / elapsed if elapsed > 0 else 0.0, 1),
        peak_committed_bytes=provider.window_peak,
        thread_alloc_times_s=[w.alloc_time for w in workers],
        stats=stats, stacks=allocator.pool.stack_counters(), extra=extra)


def _spawn(allocator, bodies):
    workers = [_Worker(allocator, body, i) for i, body in enumerate(bodies)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    for w in workers:
        if w.error is not None:
            raise w.error
    return workers


def _touch(provider, addr, size):
    provider.write_word(addr, (addr ^ size) & ((1 << 64) - 1))


# -- threadtest ---------------------------------------------------------------

def _run_threadtest(allocator, config):
    objects = config.objects()
    size = config.object_size
    provider = allocator.provider
    touch = config.touch_objects

    def body(worker):
        malloc, free = allocator.malloc, allocator.free
        for _ in range(config.rounds):
            t0 = time.perf_counter()
            ptrs = [malloc(size) for _ in range(objects)]
            if touch:
                for p in ptrs:
                    _touch(provider, p, size)
            for p in ptrs:
                free(p)
            worker.alloc_time += time.perf_counter() - t0

    return _spawn(allocator, [body] * config.threads), {}


# -- shbench-like --------------------------------------------------------------

def _run_shbench(allocator, config):
    objects = config.objects()
    lo, hi = config.size_range or (1, 8)
    provider = allocator.provider

    def body(worker):
        rng = random.Random(config.seed + worker.index)
        malloc, free = allocator.malloc, allocator.free
        pending = {}     # expiry round -> [ptr]
        for r in range(config.rounds):
            t0 = time.perf_counter()
            for p in pending.pop(r, ()):
                free(p)
            for _ in range(objects):
                p = malloc(rng.randint(lo, hi))
                if config.touch_objects:
                    _touch(provider, p, 8)
                pending.setdefault(r + rng.randint(1, 4), []).append(p)
            worker.alloc_time += time.perf_counter() - t0
        for batch in pending.values():
            for p in batch:
                free(p)

    return _spawn(allocator, [body] * config.threads), {}


# -- larson-like ----------------------------------------------------------------

def _run_larson(allocator, config):
    """Chains of short-lived threads passing object sets along.

    Each link mutates its set (random free + fresh allocation) for the
    configured rounds, hands the set to a newly spawned thread, and
    terminates. The final link frees everything.
    """
    objects = config.objects()
    lo, hi = config.size_range or (7, 8)
    continuations = []
    deadline = time.monotonic() + config.duration if config.duration else None

    def link_body(chain, slots, handoffs_left, rng, handoff=None):
        def body(worker):
            if handoff is not None:
                attached, released = handoff
                attached.set()
                released.wait()
            malloc, free = allocator.malloc, allocator.free
            t0 = time.perf_counter()
            for _ in range(config.rounds):
                i = rng.randrange(len(slots))
                free(slots[i])
                slots[i] = malloc(rng.randint(lo, hi))
            worker.alloc_time += time.perf_counter() - t0
            expired = deadline is not None and time.monotonic() >= deadline
            if handoffs_left > 0 and not expired:
                # The successor attaches while this link still holds its
                # LAB, and this link detaches before the successor's first
                # free: both orders are fixed, so a run does not depend on
                # thread timing.
                attached, released = threading.Event(), threading.Event()
                nxt = _Worker(allocator,
                              link_body(chain, slots, handoffs_left - 1, rng,
                                        (attached, released)),
                              worker.index)
                continuations.append(nxt)
                nxt.start()
                attached.wait()
                allocator.detach_thread()
                released.set()
            else:
                for p in slots:
                    free(p)
        return body

    def seed_body(chain):
        def body(worker):
            rng = random.Random(config.seed + chain)
            slots = [allocator.malloc(rng.randint(lo, hi))
                     for _ in range(objects)]
            link_body(chain, slots, config.handoffs, rng)(worker)
        return body

    workers = _spawn(allocator, [seed_body(c) for c in range(config.threads)])
    # A link appends its successor before it exits, so once every thread
    # in the list is joined the list is complete; it grows while iterated.
    for w in continuations:
        w.join()
        if w.error is not None:
            raise w.error
    return workers + continuations, {}


# -- producer/consumer ------------------------------------------------------------

def _run_prodcons(allocator, config):
    """Objects cross threads through queues; frees are remote.

    Symmetric mode (producers=None): every thread allocates a batch per
    epoch and routes each object to a uniformly random thread's inbox,
    so remote-free probability is 1 - 1/n. Split mode: the first
    `producers` threads allocate, the rest only free. An epoch barrier
    keeps queues drained.
    """
    n = config.threads
    producers = config.producers
    symmetric = producers is None
    objects = config.objects()
    size = config.object_size
    inboxes = [queue.SimpleQueue() for _ in range(n)]
    barrier = threading.Barrier(n)
    epoch_peaks = []
    provider = allocator.provider
    sim = provider.name == "sim"
    n_producers = n if symmetric else producers
    first_consumer = 0 if symmetric else producers
    n_consumers = n if symmetric else n - producers

    def drain(worker, inbox):
        # Routing is random, so the count per inbox is not fixed; each
        # producer ends its epoch with one sentinel per inbox.
        free = allocator.free
        done = 0
        while done < n_producers:
            p = inbox.get()
            if p is None:
                done += 1
                continue
            t0 = time.perf_counter()
            free(p)
            worker.alloc_time += time.perf_counter() - t0

    def body(worker):
        rng = random.Random(config.seed + worker.index)
        malloc = allocator.malloc
        i = worker.index
        is_producer = symmetric or i < producers
        is_consumer = symmetric or i >= producers
        for epoch in range(config.rounds):
            if sim and i == 0:
                provider.begin_window()
            barrier.wait()
            if is_producer:
                for _ in range(objects):
                    t0 = time.perf_counter()
                    p = malloc(size if not config.size_range
                               else rng.randint(*config.size_range))
                    worker.alloc_time += time.perf_counter() - t0
                    if config.touch_objects:
                        _touch(provider, p, size)
                    inboxes[first_consumer + rng.randrange(n_consumers)].put(p)
                for c in range(n_consumers):
                    inboxes[first_consumer + c].put(None)
            if is_consumer:
                drain(worker, inboxes[i])
            barrier.wait()
            if sim and i == 0:
                epoch_peaks.append(provider.window_peak)

    workers = _spawn(allocator, [body] * n)
    return workers, {"epoch_peaks": epoch_peaks}


# -- object-size sweep -------------------------------------------------------------

SIZESWEEP_EXPONENTS = range(4, 21, 2)


def _run_sizesweep(allocator, config):
    """Per interval [2^x, 2^(x+2)), cycles of allocate/touch/free with
    roughly 2^x KB of new objects per cycle, scaled down."""
    provider = allocator.provider
    interval_times = {}

    def body(worker):
        rng = random.Random(config.seed + worker.index)
        malloc, free = allocator.malloc, allocator.free
        for x in SIZESWEEP_EXPONENTS:
            lo, hi = 1 << x, 1 << (x + 2)
            budget = (1 << x) * 1024 // 64       # bytes per cycle, scaled
            t0 = time.perf_counter()
            prev = []
            for _ in range(config.rounds):
                batch = []
                allocated = 0
                while allocated < budget:
                    s = rng.randrange(lo, hi)
                    p = malloc(s)
                    if p == NULL:
                        raise SpanAllocError("sizesweep hit out-of-memory")
                    if config.touch_objects:
                        _touch(provider, p, s)
                    batch.append(p)
                    allocated += s
                for p in prev:
                    free(p)
                prev = batch
            for p in prev:
                free(p)
            dt = time.perf_counter() - t0
            worker.alloc_time += dt
            interval_times.setdefault(x, []).append(dt)

    workers = _spawn(allocator, [body] * config.threads)
    return workers, {"interval_times": interval_times}


# -- false sharing probes -------------------------------------------------------------

def _run_falseshare_active(allocator, config):
    """Two or more threads allocate with no frees; spans must stay
    private to their allocating thread."""
    objects = config.objects()
    size = config.object_size
    per_thread_spans = [set() for _ in range(config.threads)]
    ptrs = [[] for _ in range(config.threads)]
    barrier = threading.Barrier(config.threads)

    def body(worker):
        barrier.wait()
        t0 = time.perf_counter()
        for _ in range(objects):
            p = allocator.malloc(size)
            ptrs[worker.index].append(p)
            per_thread_spans[worker.index].add(
                allocator.arena.owning_span_base(p))
        worker.alloc_time += time.perf_counter() - t0

    workers = _spawn(allocator, [body] * config.threads)
    shared = set()
    for i in range(config.threads):
        for j in range(i + 1, config.threads):
            shared |= per_thread_spans[i] & per_thread_spans[j]
    for batch in ptrs:
        for p in batch:
            allocator.free(p)
    return workers, {"spans_shared": len(shared), "probe_ok": not shared}


def _run_falseshare_passive(allocator, config):
    """Thread A allocates, thread B frees one of A's blocks remotely;
    B's next allocations must not return that block."""
    size = config.object_size
    objects = max(2, config.objects())
    handoff = []
    got_back = []

    def body_a(worker):
        ptrs = [allocator.malloc(size) for _ in range(objects)]
        handoff.append(ptrs)

    def body_b(worker):
        while not handoff:
            time.sleep(0.001)
        ptrs = handoff[0]
        victim = ptrs[len(ptrs) // 2]
        allocator.free(victim)
        mine = [allocator.malloc(size) for _ in range(objects)]
        got_back.append(victim in mine)
        for p in mine:
            allocator.free(p)

    workers = _spawn(allocator, [body_a, body_b])
    for i, p in enumerate(handoff[0]):
        if i != len(handoff[0]) // 2:
            allocator.free(p)
    return workers, {"probe_ok": not got_back[0],
                     "victim_returned": got_back[0]}


# -- locality -----------------------------------------------------------------------

def _run_locality(allocator, config):
    """Access objects in allocation order (lists) vs shuffled order
    (trees), sweeping the list ratio; reports access wall times."""
    objects = config.objects()
    lo, hi = config.size_range or (16, 32)
    provider = allocator.provider
    access_times = {}

    def body(worker):
        rng = random.Random(config.seed + worker.index)
        ptrs = [allocator.malloc(rng.randint(lo, hi)) for _ in range(objects)]
        for p in ptrs:
            _touch(provider, p, 16)
        shuffled = list(ptrs)
        rng.shuffle(shuffled)
        for ratio in (0, 25, 50, 75, 100):
            cut = objects * ratio // 100
            order = ptrs[:cut] + shuffled[cut:]
            t0 = time.perf_counter()
            for _ in range(max(1, config.rounds)):
                for p in order:
                    provider.read_word(p)
            access_times.setdefault(ratio, []).append(
                time.perf_counter() - t0)
        for p in ptrs:
            allocator.free(p)

    workers = _spawn(allocator, [body] * config.threads)
    return workers, {"access_times": access_times}


_WORKLOAD_RUNNERS = {
    "threadtest": _run_threadtest,
    "shbench_like": _run_shbench,
    "larson_like": _run_larson,
    "prodcons": _run_prodcons,
    "sizesweep": _run_sizesweep,
    "falseshare_active": _run_falseshare_active,
    "falseshare_passive": _run_falseshare_passive,
    "locality": _run_locality,
}
WORKLOADS = tuple(_WORKLOAD_RUNNERS)


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
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--objects", dest="objects_per_round", type=int,
                        help="objects per round (default: 100000/threads)")
    parser.add_argument("--size", dest="object_size", type=int, default=64)
    parser.add_argument("--size-range", type=_parse_size_range, default=None,
                        metavar="MIN:MAX")
    parser.add_argument("--duration", type=float, default=None,
                        help="time limit in seconds (larson_like)")
    parser.add_argument("--handoffs", type=int, default=8)
    parser.add_argument("--producers", type=int, default=None,
                        help="prodcons role split; default symmetric")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="append the run's record as one JSON line")
    parser.add_argument("--ablate", type=str, default="",
                        help="comma list of " + ",".join(ABLATIONS))
    # Allocator flags default to None: an omitted flag leaves its field
    # to the library default.
    parser.add_argument("--provider", choices=("os", "sim"), default=None)
    parser.add_argument("--pool-width", type=int, default=None)
    parser.add_argument("--reuse-threshold", dest="reuse_percent", type=int,
                        default=None, metavar="PCT")
    parser.add_argument("--arena-bytes", type=int, default=None)
    parser.add_argument("--lab-mode", choices=("tlab", "clab"), default=None)
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
    flags = tuple(f for f in args.ablate.split(",") if f)
    try:
        config = WorkloadConfig(
            **{f.name: values[f.name] for f in fields(WorkloadConfig)})
        allocator = ablate(flags, **overrides)
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
