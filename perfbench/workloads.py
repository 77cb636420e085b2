"""Seeded allocator workloads driven through the public Allocator API.

Every workload is a closed loop: the next call is issued only after the
previous one returned. Inputs (request sizes, victim indices, batch
free orders) are generated from the seed before anything is timed, so
random-number cost stays out of the timed calls. One *repetition* builds
a fresh sim-provider Allocator, fills its initial live set (the timed
set-up), runs a fixed number of measured steps with `perf_counter_ns`
around each malloc/free, then frees everything and checks the
allocator is back to zero live objects. Because a repetition is a fixed
amount of work on a fresh allocator, its memory figures and counters
repeat exactly for a given seed; a run repeats it as often as its time
budget allows and `Summary` folds the repetitions into the metrics.

Output checks (outside the timed calls) feed the failure count:
alignment (16 B, page for huge blocks), `usable_size >= request`, a
per-object tag written to the block's first word after malloc and
verified before free, no block handed out while still live, and
allocs == frees once the repetition ends.
"""

import gc
import math
import random
import statistics
import threading
import time
from array import array
from dataclasses import dataclass

from spanalloc import Allocator
from spanalloc.config import PAGE_SIZE
from spanalloc.size_classes import MAX_CLASS_BLOCK
from spanalloc.vmem import SimProvider

_ns = time.perf_counter_ns

# The harness reads and writes tags through the unwrapped provider
# functions, so a traced run never attributes harness work to vmem.
_read_word = SimProvider.read_word
_write_word = SimProvider.write_word

MAX_REPORTED_ERRORS = 5
HANDOFF_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Shape:
    """Size of one repetition of a workload."""
    live: int       # initial live set (batch size for remote_handoff)
    steps: int      # measured steps (rounds for remote_handoff)


# remote_handoff's batch of 2000 is large enough that the rounds both
# drain remote lists and return emptied spans to the pool; large_churn's
# 6000 live objects keep about 900 huge mappings live.
SHAPES = {
    "local_churn": Shape(live=20_000, steps=60_000),
    "remote_handoff": Shape(live=2_000, steps=30),
    "large_churn": Shape(live=6_000, steps=10_000),
}

WHY = {
    "local_churn": "1 thread, ~20k live small objects, random free + "
                   "replacement malloc: frontend fast path, local free "
                   "lists, vmem words; no decommit, huge or remote frees",
    "remote_handoff": "2 threads in strict turns, one mallocs batches the "
                      "other frees: ~100% remote frees, drains, CAS, pool "
                      "puts and adoption of the detached producer's spans",
    "large_churn": "1 thread, 6k live objects log-uniform 512 B-4 MB, ~15% "
                   "huge: span_pool put/get with decommit, arena bumps, "
                   "huge map/unmap with ~1k live mappings",
}

SMALL_CLASSES = 16


# -- inputs -------------------------------------------------------------------

def _small_size(rng, u):
    """Small class floor(16u) (16 B steps), request uniform inside it."""
    c = int(u * SMALL_CLASSES)
    return rng.randint(16 * c + 1, 16 * (c + 1))


def _large_size(rng, u):
    """Log-uniform over 512 B .. 4 MB; requests above 1 MB are huge."""
    return int(2.0 ** (9.0 + 13.0 * u))


def _sizes(rng, n, size_at):
    """n requests whose quantiles are evenly spread, in random order.

    Stratifying the draw fixes how many requests of each size class a
    list holds, so memory figures depend on the allocator and the order
    of calls, not on how the seed happened to fill the classes.
    """
    us = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(us)
    return [size_at(rng, u) for u in us]


def make_inputs(name, seed, shape=None):
    """Everything a repetition needs, as plain lists, from the seed."""
    shape = shape or SHAPES[name]
    rng = random.Random(f"{name}:{seed}")
    if name == "remote_handoff":
        batches, orders = [], []
        for _ in range(shape.steps):
            batches.append(_sizes(rng, shape.live, _small_size))
            order = list(range(shape.live))
            rng.shuffle(order)
            orders.append(order)
        return {"batches": batches, "orders": orders}
    size_at = _small_size if name == "local_churn" else _large_size
    return {
        "initial": _sizes(rng, shape.live, size_at),
        "victims": [rng.randrange(shape.live) for _ in range(shape.steps)],
        "sizes": _sizes(rng, shape.steps, size_at),
    }


# -- checked, timed calls ----------------------------------------------------

class Harness:
    """Issues the allocator calls of one repetition and checks outputs.

    `malloc`/`free` time the call itself only; the checks and the
    bookkeeping around it run outside the timed interval. Latency
    samples are kept only while `timing` is on (the measured phase).
    """

    def __init__(self, allocator):
        self.allocator = allocator
        self.provider = allocator.provider
        # Plain int values: per-call tuples would be garbage the cyclic
        # collector has to visit during the measured phase.
        self.tags = {}              # live addr -> tag
        self.sizes = {}             # live addr -> request size
        self.next_tag = 1
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.timing = False
        self.malloc_ns = []
        self.free_ns = []
        self.requested = 0          # measured-phase malloc bytes
        self.usable = 0
        self.huge_calls = 0
        self.live_huge = 0
        self.live_huge_peak = 0

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(message)

    def malloc(self, size):
        self.attempted += 1
        t0 = _ns()
        try:
            addr = self.allocator.malloc(size)
        except Exception as exc:  # a failed call, reported as such
            self.fail(f"malloc({size}) raised {exc!r}")
            return 0
        t1 = _ns()
        huge = size > MAX_CLASS_BLOCK
        if self.timing:
            self.malloc_ns.append(t1 - t0)
            self.huge_calls += huge
        if not addr:
            self.fail(f"malloc({size}) returned NULL")
            return 0
        if addr % (PAGE_SIZE if huge else 16):
            self.fail(f"malloc({size}) returned misaligned {addr:#x}")
        if addr in self.tags:
            self.fail(f"malloc({size}) returned live block {addr:#x}")
        usable = self.allocator.usable_size(addr)
        if usable < size:
            self.fail(f"usable_size {usable} < request {size} at {addr:#x}")
        if self.timing:
            self.requested += size
            self.usable += usable
        if huge:
            self.live_huge += 1
            if self.live_huge > self.live_huge_peak:
                self.live_huge_peak = self.live_huge
        tag = self.next_tag
        self.next_tag = tag + 1
        _write_word(self.provider, addr, tag)
        self.tags[addr] = tag
        self.sizes[addr] = size
        return addr

    def free(self, addr):
        if not addr:
            return  # its malloc already counted as failed
        self.attempted += 1
        tag = self.tags.pop(addr, None)
        if tag is None:
            self.fail(f"free of {addr:#x}, which the harness does not hold")
        else:
            size = self.sizes.pop(addr)
            seen = _read_word(self.provider, addr)
            if seen != tag:
                self.fail(f"block {addr:#x} tag {seen:#x} != {tag:#x}: "
                          "overwritten while live")
            if size > MAX_CLASS_BLOCK:
                self.live_huge -= 1
                self.huge_calls += self.timing
        t0 = _ns()
        try:
            self.allocator.free(addr)
        except Exception as exc:  # a failed call, reported as such
            self.fail(f"free({addr:#x}) raised {exc!r}")
            return
        t1 = _ns()
        if self.timing:
            self.free_ns.append(t1 - t0)

    def check_quiescent(self):
        """Nothing live: the allocator agrees with the harness."""
        if self.tags:
            self.fail(f"{len(self.tags)} blocks still live at the end")
        stats = self.allocator.stats()
        if stats["allocs"] != stats["frees"]:
            self.fail(f"allocs {stats['allocs']} != frees {stats['frees']}")
        p = self.provider
        if p.map_calls != p.unmap_calls:
            self.fail(f"{p.map_calls - p.unmap_calls} huge mappings left")


# -- one repetition -------------------------------------------------------

@dataclass
class Rep:
    """What one repetition measured."""
    setup_ns: int
    wall_ns: int
    malloc_ns: list
    free_ns: list
    peak_committed: int
    end_committed: int
    counters: dict
    attempted: int
    failed: int
    errors: list

    @property
    def calls(self):
        return len(self.malloc_ns) + len(self.free_ns)


def _counter_snapshot(allocator):
    s = allocator.stats()
    pool = allocator.pool
    return {
        "allocs": s["allocs"],
        "frees_remote": s["frees_remote"],
        "frees": s["frees"],
        "pool_fetches": s["pool_fetches"],
        "set_fetches": s["set_fetches"],
        "drains": s["drains"],
        "adopts": s["adopts"],
        "pool_gets": pool.gets_from_pool.load() + pool.gets_from_arena.load(),
        "pool_hits": pool.gets_from_pool.load(),
        "pool_puts": pool.puts.load(),
        "stack_retries": s["stack_retries"],
        "decommit_calls": allocator.provider.stats.decommit_calls,
    }


def _measured_counters(allocator, before, harness):
    after = _counter_snapshot(allocator)
    out = {k: after[k] - before[k] for k in after}
    out["arena_spans"] = allocator.arena.spans_handed_out()
    out["requested"] = harness.requested
    out["usable"] = harness.usable
    out["huge_calls"] = harness.huge_calls
    out["live_huge_peak"] = harness.live_huge_peak
    return out


def _churn_rep(inputs, tracer):
    t0 = _ns()
    allocator = Allocator(provider="sim")
    h = Harness(allocator)
    live = [h.malloc(size) for size in inputs["initial"]]
    setup_ns = _ns() - t0

    before = _counter_snapshot(allocator)
    allocator.provider.begin_window()
    h.timing = True
    if tracer is not None:
        tracer.recording = True
    start = _ns()
    for victim, size in zip(inputs["victims"], inputs["sizes"]):
        h.free(live[victim])
        live[victim] = h.malloc(size)
    wall_ns = _ns() - start
    if tracer is not None:
        tracer.recording = False
    h.timing = False
    peak = allocator.provider.window_peak
    counters = _measured_counters(allocator, before, h)

    for addr in live:
        h.free(addr)
    h.check_quiescent()
    end = allocator.committed_bytes
    allocator.detach_thread()
    return Rep(setup_ns, wall_ns, h.malloc_ns, h.free_ns, peak, end,
               counters, h.attempted, h.failed, h.errors)


def _handoff_rep(inputs, tracer):
    """Producer mallocs a batch, consumer frees all of it, strictly in
    turn, so exactly one thread is runnable at any time."""
    batches, orders = inputs["batches"], inputs["orders"]
    rounds = len(batches)
    produce, consume = threading.Semaphore(0), threading.Semaphore(0)
    box = {}

    def wait(sem):
        if not sem.acquire(timeout=HANDOFF_TIMEOUT_S):
            raise TimeoutError("hand-off partner did not respond")
        if "error" in box:
            raise RuntimeError("hand-off partner failed")

    def producer():
        try:
            t0 = _ns()
            allocator = Allocator(provider="sim")
            h = Harness(allocator)
            box["batch"] = [h.malloc(size) for size in batches[0]]
            box["setup_ns"] = _ns() - t0
            box["allocator"], box["harness"] = allocator, h
            box["before"] = _counter_snapshot(allocator)
            allocator.provider.begin_window()
            h.timing = True
            if tracer is not None:
                tracer.recording = True
            box["start"] = _ns()
            for r in range(1, rounds):
                consume.release()
                wait(produce)
                box["batch"] = [h.malloc(size) for size in batches[r]]
            # Detach before the last batch is freed, so the consumer's
            # frees find the producer's spans orphaned and adopt them.
            allocator.detach_thread()
        except BaseException as exc:
            box.setdefault("error", exc)
        finally:
            consume.release()

    def consumer():
        try:
            for r in range(rounds):
                wait(consume)
                batch, h = box["batch"], box["harness"]
                for i in orders[r]:
                    h.free(batch[i])
                if r + 1 < rounds:
                    produce.release()
            box["wall_ns"] = _ns() - box["start"]
            if tracer is not None:
                tracer.recording = False
            h.timing = False
            allocator = box["allocator"]
            box["peak"] = allocator.provider.window_peak
            box["counters"] = _measured_counters(allocator, box["before"], h)
            h.check_quiescent()
            box["end"] = allocator.committed_bytes
            allocator.detach_thread()
        except BaseException as exc:
            box.setdefault("error", exc)
        finally:
            produce.release()

    threads = [threading.Thread(target=producer, name="producer"),
               threading.Thread(target=consumer, name="consumer")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if "error" in box:
        raise box["error"]
    h = box["harness"]
    return Rep(box["setup_ns"], box["wall_ns"], h.malloc_ns, h.free_ns,
               box["peak"], box["end"], box["counters"], h.attempted,
               h.failed, h.errors)


def run_rep(name, inputs, tracer=None):
    """One repetition on a fresh allocator, in fresh threads.

    Fresh threads let each allocator be collected afterwards: a thread
    that attaches registers a finalizer that keeps the allocator alive
    for as long as the thread object lives.
    """
    gc.collect()
    if name == "remote_handoff":
        return _handoff_rep(inputs, tracer)
    box = {}

    def body():
        try:
            box["rep"] = _churn_rep(inputs, tracer)
        except BaseException as exc:
            box["error"] = exc

    t = threading.Thread(target=body, name=name)
    t.start()
    t.join()
    if "error" in box:
        raise box["error"]
    return box["rep"]


# -- host speed ---------------------------------------------------------------

# Timings are scaled to a host on which one reference loop takes REF_NS.
REF_NS = 1_000_000
REF_BURSTS = 7


class _Cell:
    __slots__ = ("key", "next")

    def __init__(self, key, next_):
        self.key = key
        self.next = next_


def _reference_loop():
    """Fixed pure-Python work of the allocator's kind: object and
    attribute traffic, int-keyed dict stores, integer arithmetic."""
    index, head = {}, None
    for i in range(3000):
        head = _Cell(i, head)
        index[i & 511] = head
        if i & 3 == 0:
            head = head.next
    return index


def reference_ns():
    """How long the reference loop takes on this host right now, in ns
    (median of REF_BURSTS runs)."""
    times = []
    for _ in range(REF_BURSTS):
        t0 = _ns()
        _reference_loop()
        times.append(_ns() - t0)
    return statistics.median(times)


# -- summaries ----------------------------------------------------------------

def percentile(samples, q):
    """Linear-interpolated percentile of unsorted samples, q in [0, 100]."""
    s = sorted(samples)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Summary:
    """The end-to-end metrics of a run, folded in repetition by repetition.

    Other work on a shared host slows whole stretches of a run: on a
    2-vCPU cloud VM the reference loop's time moved by up to 1.7x
    between 15-second stretches, and the allocator's timings moved with
    it, so medians of raw timings spread 30-40% from one run to the
    next. Each repetition's timings are therefore scaled by REF_NS over
    the reference loop's time measured just before and just after it.
    A slower allocator still shows in full: the reference loop does not
    call it.

    Every repetition of a seed issues the same calls in the same order
    on a fresh allocator, so the i-th measured malloc does the same work
    in each. Its latency is the median of its scaled latencies over the
    repetitions, and the percentiles are taken over those per-call
    latencies. A call that is slow every time (a span fetch, a decommit,
    a huge mapping) stays in the tail; one slowed by the host in a few
    repetitions does not. Per-repetition percentiles instead spread
    15-25% at p99, because stretches in which the host slows 1-2% of
    all calls push the tail out. Set-up time and ops_per_s are medians
    over repetitions of their scaled values. Memory figures repeat
    exactly from one repetition to the next.
    """

    def __init__(self):
        self.reps = 0
        self.attempted = 0
        self.failed = 0
        self.ref_ns = []
        self.latency_ns = {"malloc": [], "free": []}
        self.setup_s = []
        self.ops_per_s = []
        self.peak_committed = []
        self.end_committed = []

    def add(self, rep, ref_ns):
        """Fold in one repetition; `ref_ns` is reference_ns() around it."""
        scale = REF_NS / ref_ns
        self.reps += 1
        self.attempted += rep.attempted
        self.failed += rep.failed
        self.ref_ns.append(ref_ns)
        # float32 holds these to well under a nanosecond and halves the
        # memory that tens of repetitions of 60k calls take.
        for call, samples in (("malloc", rep.malloc_ns),
                              ("free", rep.free_ns)):
            self.latency_ns[call].append(
                array("f", [ns * scale for ns in samples]))
        self.setup_s.append(rep.setup_ns * scale / 1e9)
        self.ops_per_s.append(rep.calls / (rep.wall_ns * scale / 1e9))
        self.peak_committed.append(rep.peak_committed)
        self.end_committed.append(rep.end_committed)

    def calls(self, call):
        """How many measured `call`s ("malloc" or "free") a repetition makes."""
        return min(len(r) for r in self.latency_ns[call])

    def metrics(self):
        """name -> (value, unit), with failed_op_ratio last."""
        med = statistics.median
        out = {"setup_s": (med(self.setup_s), "s"),
               "ops_per_s": (med(self.ops_per_s), "1/s")}
        for call, reps in self.latency_ns.items():
            per_call = [med(times) for times in zip(*reps)]
            out[f"{call}_p50_us"] = (percentile(per_call, 50) / 1e3, "us")
            out[f"{call}_p99_us"] = (percentile(per_call, 99) / 1e3, "us")
        out["peak_committed_bytes"] = (med(self.peak_committed), "bytes")
        out["end_committed_bytes"] = (med(self.end_committed), "bytes")
        out["failed_op_ratio"] = (self.failed / self.attempted
                                  if self.attempted else 1.0, "ratio")
        return out
