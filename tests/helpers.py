"""Plain test helpers: allocator construction and brute-force oracles.

Kept out of conftest.py so test modules can import them by a name that
no other test directory's conftest shadows.
"""

import sys
import threading
import time

from spanalloc import Allocator, AllocatorConfig
from spanalloc.config import DECOMMIT_THRESHOLD, PAGE_SIZE, SPAN_SHIFT
from spanalloc.span import (
    STATE_FREE, STATE_REUSABLE, epoch_counter, epoch_state,
)
from spanalloc.span_pool import TOP_REF_MASK

# Small arena (64 spans) keeps unit tests snappy; tests that need more
# construct their own allocator.
SMALL_ARENA = 64 * (2 << 20)


def make_allocator(**overrides):
    overrides.setdefault("arena_bytes", SMALL_ARENA)
    return Allocator(AllocatorConfig(**overrides))


def frag_oracle(allocator):
    """Brute-force span-internal fragmentation: free payload bytes over
    every span currently in the frontend (any state but free)."""
    total = 0
    for h in allocator.space.iter_headers():
        if h.size_class < 0:
            continue
        if epoch_state(h.epoch.load()) == STATE_FREE:
            continue
        total += h.free_block_count() * h.block_size
    return total


def walk_oracle(allocator):
    """Like frag_oracle but recounts free blocks by walking the actual
    free-list words in span memory instead of trusting counters."""
    total = 0
    for h in allocator.space.iter_headers():
        if h.size_class < 0:
            continue
        if epoch_state(h.epoch.load()) == STATE_FREE:
            continue
        listed = len(h.walk_local()) + len(h.walk_remote())
        never_used = h.blocks_per_span - h.bump_limit
        total += (listed + never_used) * h.block_size
    return total


def stray_pages(allocator):
    """Committed arena pages that no span accounts for (sim provider):
    pages outside their slot's current real span or in a slot with no
    header, and, with decommit on, pages after the first of a pooled
    span above the decommit threshold. Huge mappings lie outside the
    arena and are bounds-checked by the provider itself."""
    space, arena = allocator.space, allocator.arena
    decommit = allocator.config.decommit_enabled
    stray = set()
    for idx in allocator.provider.committed_page_indices():
        addr = idx * PAGE_SIZE
        if not arena.contains(addr):
            continue
        slot = (addr - arena.base) >> SPAN_SHIFT
        h = space.headers[slot] if slot < len(space.headers) else None
        if h is None or addr >= h.base + h.real_span_size:
            stray.add(idx)
        elif decommit and addr >= h.base + PAGE_SIZE \
                and h.real_span_size > DECOMMIT_THRESHOLD \
                and epoch_state(h.epoch.load()) == STATE_FREE:
            stray.add(idx)
    return stray


def pooled_slots(pool):
    """Slots of the spans on a span pool's stacks, walked from each top
    through the link words; a span pooled twice fails the walk."""
    headers = pool.space.headers
    slots = []
    for row in pool.stacks:
        for stack in row:
            ref = stack.load_top() & TOP_REF_MASK
            while ref:
                assert ref - 1 not in slots, \
                    f"span in slot {ref - 1} pooled twice"
                slots.append(ref - 1)
                ref = headers[ref - 1].link
    return slots


def pool_depth(pool):
    """Spans in a span pool, counted by walking its stacks."""
    return len(pooled_slots(pool))


def set_entries(allocator):
    """Check the live entries of every LAB's reusable sets, those whose
    stamp equals their span's epoch: each span is reusable, of its
    set's class, owned by the LAB's current owner word and not pooled,
    and no span has two. Stale entries are skipped, as take skips them.
    Returns the number of live entries."""
    pooled = set(pooled_slots(allocator.pool))
    seen = set()
    for lab in allocator.frontend.labs:
        for sc, the_set in enumerate(lab.reusable):
            for span, stamp in list(the_set.stamps.items()):
                epoch = span.epoch.load()
                if stamp != epoch:
                    continue
                where = f"span in slot {span.slot}, LAB {lab.index}"
                assert epoch_state(epoch) == STATE_REUSABLE, where
                assert span.size_class == sc, where
                assert span.owner.load() == lab.owner_word.load(), where
                assert span.slot not in pooled, f"{where} is pooled"
                assert span.slot not in seen, f"{where} has two entries"
                seen.add(span.slot)
    return len(seen)


def validate_transition_trace(allocator):
    """Check a recorded transition trace: legal edges only, strictly
    increasing per-span epoch counters."""
    from spanalloc.span import LEGAL_EDGES

    assert allocator.ledger is not None, "allocator not instrumented"
    per_span = {}
    for slot, old, new in allocator.ledger.trace:
        per_span.setdefault(slot, []).append((old, new))
    for slot, entries in per_span.items():
        entries.sort(key=lambda e: epoch_counter(e[0]))
        prev_new = None
        for old, new in entries:
            edge = (epoch_state(old), epoch_state(new))
            assert edge in LEGAL_EDGES, f"illegal edge {edge} on span {slot}"
            assert epoch_counter(new) == epoch_counter(old) + 1
            if prev_new is not None:
                assert old == prev_new, f"gap in span {slot} transition chain"
            prev_new = new
    return sum(len(v) for v in per_span.values())


def in_threads(work, threads_n):
    """Run `work(i)` in threads i = 0 .. threads_n - 1, switching every
    microsecond, and restore the switch interval afterwards; returns the
    elapsed seconds."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        elapsed = time.perf_counter() - start
    finally:
        sys.setswitchinterval(interval)
    assert sys.getswitchinterval() == interval
    assert not any(t.is_alive() for t in threads)
    return elapsed
