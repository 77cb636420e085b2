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
coverage comes from the interleaving stress itself.
"""

import random
import sys
import threading
import time

import pytest

from helpers import (
    frag_oracle, make_allocator, span_homes, validate_transition_trace,
    walk_oracle,
)
from spanalloc.arena import Arena
from spanalloc.bench import WorkloadConfig, ablate, run
from spanalloc.config import PAGE_SIZE, VIRTUAL_SPAN_SIZE
from spanalloc.errors import ArenaExhausted
from spanalloc.size_classes import TABLE, class_for_size
from spanalloc.span import STATE_FREE, epoch_state
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
    for t in threads:
        t.start()
    for t in threads:
        t.join()
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
    live = []
    ops = 100_000
    failures = 0
    started = time.perf_counter()
    for step in range(ops):
        if live and (rng.random() < 0.5 or len(live) > 1200):
            alloc.free(live.pop(rng.randrange(len(live))))
        else:
            live.append(alloc.malloc(rng.choice(sizes)))
        if alloc.ledger.f != frag_oracle(alloc):
            failures += 1
            break
        if step % 5000 == 0 and alloc.ledger.f != walk_oracle(alloc):
            failures += 1
            break
    for p in live:
        alloc.free(p)
    final_ok = alloc.ledger.f == frag_oracle(alloc) == walk_oracle(alloc)
    elapsed = time.perf_counter() - started
    _report(3, failures == 0 and final_ok,
            f"ledger == brute-force free-payload sum after each of {ops} "
            f"ops (exact; {elapsed:.1f}s)")


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
    peak_eager = run(cfg, ablate((), arena_bytes=1 << 31)).peak_committed_bytes
    peak_lazy = run(cfg, ablate(("lazy_reclaim",),
                                arena_bytes=1 << 31)).peak_committed_bytes
    direction = peak_eager <= peak_lazy
    _report(5, eager_inline and lazy_deferred and direction,
            f"last free pools inline={eager_inline}, lazy defers="
            f"{lazy_deferred}; threadtest x8 peak eager={peak_eager} "
            f"<= lazy={peak_lazy}: {direction}")


# -- 6: pool correctness -----------------------------------------------------------------

def test_c06_pool_counting_lifo_aba():
    from spanalloc.span import SpanSpace, pack_owner
    from spanalloc.span_pool import SpanPool

    provider = SimProvider()
    arena = Arena(provider.reserve(512 * MB2))
    space = SpanSpace(arena, provider)
    pool = SpanPool(space, width=4)
    spans = []
    for _ in range(64):
        h = space.header_for_base(arena.acquire_virtual_span(), create=True)
        h.init_for_class(class_for_size(64), pack_owner(1, 0))
        spans.append(h)
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
    for t in threads:
        t.start()
    for t in threads:
        t.join()
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

    # ABA probe: a stale top snapshot must fail after pop/pop/push-back.
    a, b = spans[0], spans[1]
    aba_ok = True
    for _ in range(10_000):
        stack.push(b)
        stack.push(a)
        observed = stack.load_top()
        nxt = space.headers[(observed & (1 << 48) - 1) - 1].link & 0xFFFFFF
        stale = ((((observed >> 48) + 1) & 0xFFFF) << 48) | nxt
        stack.pop(space)
        stack.pop(space)
        stack.push(a)
        if stack.cas_top(observed, stale):
            aba_ok = False
            break
        if stack.pop(space) is not a or stack.pop(space) is not None:
            aba_ok = False
            break
    _report(6, conserved and lifo and aba_ok,
            f"8x{pairs} put/get pairs conserved 64 spans={conserved}; "
            f"LIFO exact={lifo}; ABA probe 10^4 iterations={aba_ok}")


# -- 7: frontend safety ---------------------------------------------------------------------

def test_c07_frontend_safety_stress():
    alloc = make_allocator(arena_bytes=1 << 31, instrument=True)
    n_threads = 8
    ops_per_thread = 100_000
    live_lock = threading.Lock()
    live = set()
    overlaps = []
    inboxes = [[] for _ in range(n_threads)]
    inbox_locks = [threading.Lock() for _ in range(n_threads)]
    errors = []

    def worker(tid):
        rng = random.Random(1000 + tid)
        alloc.attach_thread()
        try:
            ops = 0
            while ops < ops_per_thread:
                if rng.random() < 0.5:
                    p = alloc.malloc(rng.choice((16, 64, 64, 256, 512)))
                    with live_lock:
                        if p in live:
                            overlaps.append(p)
                        live.add(p)
                    target = rng.randrange(n_threads)
                    with inbox_locks[target]:
                        inboxes[target].append(p)
                    ops += 1
                else:
                    with inbox_locks[tid]:
                        mine = inboxes[tid][:]
                        inboxes[tid].clear()
                    for p in mine:
                        with live_lock:
                            live.discard(p)
                        alloc.free(p)
                    ops += len(mine)
        except Exception as exc:              # pragma: no cover
            errors.append(exc)
        finally:
            alloc.detach_thread()

    started = time.perf_counter()
    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Quiescence: free the stragglers left in inboxes.
    for box in inboxes:
        for p in box:
            live.discard(p)
            alloc.free(p)
    elapsed = time.perf_counter() - started

    conservation_bad = []
    for h in alloc.space.iter_headers():
        if h.size_class < 0:
            continue
        if epoch_state(h.epoch.load()) == STATE_FREE:
            # Pooled: emptiness was proven by the free transition, and
            # decommit may have wiped the list words of large spans.
            if h.live_blocks() != 0:
                conservation_bad.append(h.slot)
            continue
        listed = len(h.walk_local()) + len(h.walk_remote())
        never = h.blocks_per_span - h.bump_limit
        span_live = sum(1 for p in live
                        if alloc.arena.owning_span_base(p) == h.base)
        if listed + never + span_live != h.blocks_per_span:
            conservation_bad.append(h.slot)
    transitions = validate_transition_trace(alloc)
    ok = not errors and not overlaps and not conservation_bad
    _report(7, ok,
            f"8x{ops_per_thread} mixed ops in {elapsed:.1f}s: "
            f"overlaps={len(overlaps)}, conservation mismatches="
            f"{len(conservation_bad)}, {transitions} transitions all "
            f"legal edges (no race detector exists for pure Python)")


# -- 8: false sharing probes ------------------------------------------------------------------

def test_c08_false_sharing_probes():
    active = run(WorkloadConfig(name="falseshare_active", threads=2,
                                objects_per_round=2000, object_size=8),
                 ablate((), arena_bytes=1 << 30))
    passive = run(WorkloadConfig(name="falseshare_passive", threads=2,
                                 objects_per_round=100, object_size=8),
                  ablate((), arena_bytes=1 << 30))
    _report(8, active.extra["probe_ok"] and passive.extra["probe_ok"],
            f"active: spans shared={active.extra['spans_shared']} "
            f"(want 0); passive: victim returned to freeing thread="
            f"{passive.extra['victim_returned']} (want False)")


# -- 9: producer-consumer boundedness ------------------------------------------------------------

def test_c09_prodcons_boundedness():
    cfg = WorkloadConfig(name="prodcons", threads=8, producers=4,
                         rounds=100, objects_per_round=400,
                         object_size=64, seed=21)
    report = run(cfg, ablate((), arena_bytes=1 << 31))
    peaks = report.extra["epoch_peaks"]
    ok = len(peaks) == 100 and peaks[99] <= 1.5 * peaks[9]
    _report(9, ok,
            f"epoch peaks: e10={peaks[9]} e100={peaks[99]} "
            f"ratio={peaks[99] / peaks[9]:.3f} (<= 1.5)")


# -- 10: thread termination ------------------------------------------------------------------

def test_c10_thread_termination_larson():
    alloc = ablate((), arena_bytes=1 << 31)
    baseline = alloc.committed_bytes
    cfg = WorkloadConfig(name="larson_like", threads=2, rounds=300,
                         objects_per_round=500, handoffs=8, seed=4)
    report = run(cfg, alloc)
    stats = alloc.stats()
    live_left = [h.slot for h in alloc.space.iter_headers()
                 if h.size_class >= 0 and h.live_blocks() != 0]
    stranded_nonfree = [
        h.slot for h in alloc.space.iter_headers()
        if h.size_class >= 0
        and epoch_state(h.epoch.load()) != STATE_FREE
        and h.live_blocks() != 0]
    lost = span_homes(alloc)
    labs = len(alloc.frontend.labs)
    bound = 2 * 32768 * max(labs, 1)
    delta = alloc.committed_bytes - baseline
    ok = (report.extra["leaked_blocks"] == 0 and not live_left
          and not stranded_nonfree and stats["adopts"] > 0
          and not lost and delta <= bound)
    _report(10, ok,
            f"8 hand-offs x2 chains: adopts={stats['adopts']}, live "
            f"blocks left={len(live_left)}, spans with no home={lost}, "
            f"committed delta={delta} <= {bound} (2 real spans x {labs} "
            f"LABs)")


# -- 11: directional scalability (soft) ------------------------------------------------------------

def test_c11_directional_scalability():
    cores = (__import__("os").cpu_count() or 1)
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()

    def throughput(threads, flags=()):
        cfg = WorkloadConfig(name="threadtest", threads=threads, rounds=5,
                             objects_per_round=4000, object_size=64,
                             seed=2, touch_objects=False)
        report = run(cfg, ablate(flags, arena_bytes=1 << 31))
        return report.ops_per_sec

    t1 = throughput(1)
    t8 = throughput(8)
    t8_narrow = throughput(8, ("pool_width_1",))
    speedup = t8 / t1 if t1 else 0.0
    detail = (f"threadtest ops/s: 1T={t1:,.0f} 8T={t8:,.0f} "
              f"(speedup {speedup:.2f}x, want >= 3); pool_width_1 8T="
              f"{t8_narrow:,.0f} <= default={t8_narrow <= t8}")
    if cores < 8 or gil:
        _info(11, detail + f" [informational: cores={cores}, "
              f"GIL={'on' if gil else 'off'}; parallel speedup is not "
              f"attainable on this interpreter/host]")
        pytest.skip("criterion 11 is informational on this host "
                    f"(cores={cores}, GIL={'on' if gil else 'off'})")
    _report(11, speedup >= 3.0 and t8_narrow <= t8, detail)
