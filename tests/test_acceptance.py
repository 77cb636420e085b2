"""Acceptance suite.

One test per criterion, each printing a pass/fail line (run with
`pytest tests/test_acceptance.py -v -s`). Tolerances are pinned here;
structural and arithmetic checks are exact, scaling checks directional.

Criterion 11 asserts true multicore scaling and is informational on
hosts without at least 8 cores or without a free-threaded interpreter:
bytecode-level serialization caps parallel throughput regardless of
allocator design, so the measurement is printed and the assertion
skipped (the criterion's stated concession for constrained machines).
No data-race detector exists for pure-Python code; criterion 7's race
coverage comes from seeded schedules through the explorer, each of
which replays.
"""

import random
import sys
import threading
import time
from functools import partial

import pytest

import scenarios
from explore import explore, sample
from helpers import check_heap, make_allocator, run_threads
from spanalloc.arena import Arena
from spanalloc.bench import WorkloadConfig, run
from spanalloc.config import PAGE_SIZE, VIRTUAL_SPAN_SIZE
from spanalloc.errors import ArenaExhausted
from spanalloc.size_classes import TABLE, class_for_size
from spanalloc.span import STATE_FREE, epoch_state
from spanalloc.traces import ATTACH, DETACH, make_trace, replay
from spanalloc.vmem import SimProvider

MB2 = VIRTUAL_SPAN_SIZE


def _report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _info(num, detail):
    print(f"\n[criterion {num:02d}] INFO - {detail}")


# -- 1: geometry ---------------------------------------------------------------

def test_c01_geometry_table_audit():
    def packed(block, rs, header):
        cursor, count = header, 0
        while cursor + block <= rs:
            count += 1
            cursor += block
        return count

    c256 = TABLE[class_for_size(256)]
    ok = c256.blocks_per_span == 127
    mismatches = [row.class_id for row in TABLE
                  if row.blocks_per_span != packed(row.block_size,
                                                   row.real_span_size,
                                                   row.header_size)]
    ok = ok and not mismatches and len(TABLE) == 28
    _report(1, ok,
            f"256B class holds {c256.blocks_per_span} blocks; brute-force "
            f"packer audited {len(TABLE)} classes, mismatches={mismatches}")


# -- 2: arena math ---------------------------------------------------------------

def test_c02_arena_capacity_and_concurrent_uniqueness():
    provider = SimProvider()
    arena = Arena(provider.reserve(1 << 35))
    count = 0
    try:
        while True:
            base = arena.acquire_virtual_span()
            assert base % MB2 == 0
            count += 1
    except ArenaExhausted:
        pass
    exact = count == 16384

    big = Arena(SimProvider().reserve(1 << 38))    # room for 131072 spans
    total = 100_000
    chunks = [[] for _ in range(8)]

    def grab(out, n):
        for _ in range(n):
            out.append(big.acquire_virtual_span())

    threads = [threading.Thread(target=grab, args=(chunks[i], total // 8))
               for i in range(8)]
    run_threads(threads)
    got = [b for c in chunks for b in c]
    distinct = len(set(got)) == total
    aligned = all(b % MB2 == 0 for b in got)
    _report(2, exact and distinct and aligned,
            f"2^35 arena yielded {count} spans (want 16384); "
            f"{total} threaded acquisitions distinct={distinct} "
            f"aligned={aligned}")


# -- 3: fragmentation ledger -------------------------------------------------------

def test_c03_fragmentation_ledger_exact_equality():
    alloc = make_allocator(instrument=True, arena_bytes=1 << 31)
    rng = random.Random(1234)
    sizes = [16, 64, 64, 256, 512, 4096, 65536]
    live = []                   # (address, its class's block size)
    live_bytes = 0              # the sum of those block sizes
    ops = 100_000
    failures = 0
    started = time.perf_counter()
    for step in range(ops):
        if live and (rng.random() < 0.5 or len(live) > 1200):
            addr, block = live.pop(rng.randrange(len(live)))
            alloc.free(addr)
            live_bytes -= block
        else:
            size = rng.choice(sizes)
            block = TABLE[class_for_size(size)].block_size
            live.append((alloc.malloc(size), block))
            live_bytes += block
        # Free bytes, from no free count: the block bytes of every span
        # in the frontend less the live blocks'.
        span_bytes = sum(h.blocks_per_span * h.block_size
                         for h in alloc.space.iter_headers()
                         if epoch_state(h.epoch.load()) != STATE_FREE)
        if alloc.stats()["frag_bytes"] != span_bytes - live_bytes:
            failures += 1
            break
        if step % 5000 == 0:
            check_heap(alloc, [addr for addr, _ in live])
    for addr, _ in live:
        alloc.free(addr)
    check_heap(alloc, live=())
    elapsed = time.perf_counter() - started
    _report(3, failures == 0,
            f"frag_bytes == span block bytes - live block bytes after each "
            f"of {ops} ops (exact; {elapsed:.1f}s)")


# -- 4: decommit behavior ------------------------------------------------------------

def test_c04_decommit_threshold():
    def cycle_span_through_pool(alloc, size):
        """Fully touch one span of `size`'s class and free it into the
        pool; returns (span, committed before put, committed after)."""
        blocks = TABLE[class_for_size(size)].blocks_per_span
        ptrs = [alloc.malloc(size) for _ in range(blocks)]
        span = alloc.space.span_of(ptrs[0])
        assert all(alloc.space.span_of(p) is span for p in ptrs)
        alloc.provider.write(span.base + PAGE_SIZE,
                             b"\xee" * (span.real_span_size - PAGE_SIZE))
        before = alloc.provider.committed_in(span.base, MB2)
        assert before == span.real_span_size
        alloc.malloc(size)                      # retire the hot span
        for p in ptrs:
            alloc.free(p)                       # last free performs the put
        assert epoch_state(span.epoch.load()) == STATE_FREE
        return span, before, alloc.provider.committed_in(span.base, MB2)

    _, before_l, after_l = cycle_span_through_pool(make_allocator(), 512)
    _, before_s, after_s = cycle_span_through_pool(make_allocator(), 64)
    _report(4, after_l == PAGE_SIZE and after_s == before_s,
            f"68KB span: committed {before_l}->{after_l} (want 4096); "
            f"32KB span: {before_s}->{after_s} (want unchanged)")


# -- 5: eager reclamation --------------------------------------------------------------

def test_c05_eager_reclamation_and_memory_direction():
    B = TABLE[class_for_size(64)].blocks_per_span
    alloc = make_allocator()
    blocks = [alloc.malloc(64) for _ in range(B)]
    span = alloc.space.span_of(blocks[0])
    alloc.malloc(64)
    for b in blocks[:-1]:
        alloc.free(b)
    puts_before = alloc.pool.puts.load()
    alloc.free(blocks[-1])
    eager_inline = alloc.pool.puts.load() == puts_before + 1

    lazy = make_allocator(eager_reclaim=False)
    blocks = [lazy.malloc(64) for _ in range(B)]
    lazy.malloc(64)
    for b in blocks:
        lazy.free(b)
    lazy_deferred = lazy.pool.puts.load() == 0

    cfg = WorkloadConfig(name="threadtest", threads=8, rounds=10,
                         objects_per_round=2000, object_size=64, seed=9)
    peak_eager = run(cfg, make_allocator(arena_bytes=1 << 31)) \
        .peak_committed_bytes
    peak_lazy = run(cfg, make_allocator(arena_bytes=1 << 31,
                                        eager_reclaim=False)) \
        .peak_committed_bytes
    direction = peak_eager <= peak_lazy
    _report(5, eager_inline and lazy_deferred and direction,
            f"last free pools inline={eager_inline}, lazy defers="
            f"{lazy_deferred}; threadtest x8 peak eager={peak_eager} "
            f"<= lazy={peak_lazy}: {direction}")


# -- 6: pool correctness -----------------------------------------------------------------

def test_c06_pool_counting_lifo_aba():
    from spanalloc.span import SpanSpace
    from spanalloc.span_pool import SpanPool

    provider = SimProvider()
    arena = Arena(provider.reserve(512 * MB2))
    space = SpanSpace(arena, provider)
    pool = SpanPool(space, width=4)
    spans = []
    for _ in range(64):
        spans.append(space.header_for_base(arena.acquire_virtual_span(),
                                           class_for_size(64)))
    for i, s in enumerate(spans):
        pool.put(s, i % 8)

    pairs = 10_000
    errors = []

    def worker(tid):
        held = []
        try:
            for _ in range(pairs):
                held.append(pool.get(class_for_size(64), tid))
                pool.put(held.pop(0), tid)
        except Exception as exc:             # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
    run_threads(threads)
    drained = []
    mark = pool.gets_from_arena.load()
    while True:
        s = pool.get(class_for_size(64), 0)
        if pool.gets_from_arena.load() > mark:
            break
        drained.append(s)
    conserved = (not errors and len(drained) == 64
                 and set(map(id, drained)) == set(map(id, spans)))

    # Single-thread LIFO exactness on one stack.
    stack = pool.stacks[0][0]
    for s in spans[:10]:
        stack.push(s)
    lifo = [stack.pop(space) for _ in range(10)] == spans[:10][::-1]

    # ABA: every schedule of a pop against a pop and two pushes
    # (scenarios.aba) conserves both spans.
    aba_schedules = explore(scenarios.aba)
    _report(6, conserved and lifo,
            f"8x{pairs} put/get pairs conserved 64 spans={conserved}; "
            f"LIFO exact={lifo}; ABA schedules explored={aba_schedules}")


# -- 7: frontend safety ---------------------------------------------------------------------

def test_c07_frontend_safety_stress():
    # Eight threads churn tagged blocks through each other's inboxes
    # under seeded schedules (test_races.py samples other seeds): no
    # block handed out twice or overwritten, and the heap whole with
    # every LAB attached and again after every thread detached.
    seeds, transitions = range(10, 15), []
    started = time.perf_counter()
    runs = sample(partial(scenarios.inbox_churn, 8, 2000,
                          scenarios.SMALL_SIZES), seeds,
                  lambda w: transitions.append(len(w.alloc.ledger.trace)))
    elapsed = time.perf_counter() - started
    _report(7, runs == len(seeds),
            f"8x2000 churn ops under {runs} seeded schedules in "
            f"{elapsed:.1f}s: no overlap or overwritten tag, heap whole, "
            f"{sum(transitions)} transitions all legal edges (no race "
            f"detector exists for pure Python; a failing seed replays)")


# -- 8: false sharing probes ------------------------------------------------------------------

def test_c08_false_sharing_probes():
    active = run(WorkloadConfig(name="falseshare_active", threads=2,
                                objects_per_round=2000, object_size=8),
                 make_allocator(arena_bytes=1 << 30))
    passive = run(WorkloadConfig(name="falseshare_passive", threads=2,
                                 objects_per_round=100, object_size=8),
                  make_allocator(arena_bytes=1 << 30))
    _report(8, active.extra["probe_ok"] and passive.extra["probe_ok"],
            f"active: spans shared={active.extra['spans_shared']} "
            f"(want 0); passive: victim returned to freeing thread="
            f"{passive.extra['victim_returned']} (want False)")


# -- 9: producer-consumer boundedness ------------------------------------------------------------

def test_c09_prodcons_boundedness():
    cfg = WorkloadConfig(name="prodcons", threads=8, producers=4,
                         rounds=100, objects_per_round=400,
                         object_size=64, seed=21)
    report = run(cfg, make_allocator(arena_bytes=1 << 31))
    peaks = report.extra["epoch_peaks"]
    ok = len(peaks) == 100 and peaks[99] <= 1.5 * peaks[9]
    _report(9, ok,
            f"epoch peaks: e10={peaks[9]} e100={peaks[99]} "
            f"ratio={peaks[99] / peaks[9]:.3f} (<= 1.5)")


# -- 10: thread termination ------------------------------------------------------------------

def peak_attached(trace):
    """The most logical threads of `trace` attached at once."""
    attached = peak = 0
    for _, op, _, _ in trace:
        if op == ATTACH:
            attached += 1
            peak = max(peak, attached)
        elif op == DETACH:
            attached -= 1
    return peak


def test_c10_thread_termination_larson():
    alloc = make_allocator(arena_bytes=1 << 31)
    baseline = alloc.committed_bytes
    cfg = WorkloadConfig(name="larson_like", threads=2, rounds=300,
                         objects_per_round=500, handoffs=8, seed=4)
    report = run(cfg, alloc)
    stats = alloc.stats()
    heap = check_heap(alloc, live=())
    # One LAB per attached thread, each holding at most 2 real spans.
    labs = peak_attached(make_trace(cfg))
    bound = 2 * 32768 * labs
    delta = alloc.committed_bytes - baseline
    ok = (report.extra["leaked_blocks"] == 0 and stats["adopts"] > 0
          and delta <= bound)
    _report(10, ok,
            f"8 hand-offs x2 chains: adopts={stats['adopts']}, heap whole "
            f"with no live block and {len(heap.pooled)} spans pooled, "
            f"committed delta={delta} <= {bound} (2 real spans x {labs} "
            f"LABs at the peak)")


# -- 11: directional scalability (soft) ------------------------------------------------------------

def test_c11_directional_scalability():
    cores = (__import__("os").cpu_count() or 1)
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()

    # Each OS thread replays its own one-thread trace, switching records
    # in its own view of the frontend's thread-local slot, so the
    # threads run as concurrently as the host allows.
    trace = make_trace(WorkloadConfig(name="threadtest", rounds=5,
                                      objects_per_round=4000, object_size=64,
                                      seed=2, touch_objects=False))

    def throughput(threads, **config):
        alloc = make_allocator(arena_bytes=1 << 31, **config)
        started = time.perf_counter()
        run_threads([threading.Thread(target=replay, args=(trace, alloc))
                     for _ in range(threads)])
        elapsed = time.perf_counter() - started
        stats = alloc.stats()
        return (stats["allocs"] + stats["frees"]) / elapsed

    t1 = throughput(1)
    t8 = throughput(8)
    t8_narrow = throughput(8, pool_width=1)
    speedup = t8 / t1 if t1 else 0.0
    detail = (f"threadtest ops/s: 1T={t1:,.0f} 8T={t8:,.0f} "
              f"(speedup {speedup:.2f}x, want >= 3); pool width 1 8T="
              f"{t8_narrow:,.0f} <= default={t8_narrow <= t8}")
    if cores < 8 or gil:
        _info(11, detail + f" [informational: cores={cores}, "
              f"GIL={'on' if gil else 'off'}; parallel speedup is not "
              f"attainable on this interpreter/host]")
        pytest.skip("criterion 11 is informational on this host "
                    f"(cores={cores}, GIL={'on' if gil else 'off'})")
    _report(11, speedup >= 3.0 and t8_narrow <= t8, detail)
