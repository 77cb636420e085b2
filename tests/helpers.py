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
    STATE_FREE, STATE_HOT, STATE_NAMES, STATE_REUSABLE, epoch_counter,
    epoch_owner, epoch_state, owner_lab_ref,
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
                assert epoch_owner(epoch) == lab.owner_word.load(), where
                assert span.slot not in pooled, f"{where} is pooled"
                assert span.slot not in seen, f"{where} has two entries"
                seen.add(span.slot)
    return len(seen)


def span_homes(allocator):
    """Spans that no allocator structure can reach, at quiescence: each
    span's header state must match a home. A free span sits on exactly
    one pool stack (a span pooled twice fails the walk) and no other
    span sits on one. A hot span is the hot span of its class in its
    owner's LAB, and that owner is alive (the LAB's word still equals
    the span's owner word). A reusable span has a live entry in its
    live owner's set. A floating span has a dead owner or a free count
    at or below the threshold, so that a later free marks it.

    A floating span should also hold a live block, or no free will ever
    reach it; that clause is left out, because termination floats an
    empty hot span, which then stays floating for good (ROADMAP item
    1's leak 1). Returns `(slot, state name)` for each span without a
    home."""
    labs = allocator.frontend.labs
    pooled = set(pooled_slots(allocator.pool))
    lost = []
    for h in allocator.space.iter_headers():
        epoch = h.epoch.load()
        state = epoch_state(epoch)
        if state == STATE_FREE:
            home = h.slot in pooled
        else:
            lab = labs[owner_lab_ref(epoch)]
            alive = lab.owner_word.load() == epoch_owner(epoch)
            if state == STATE_HOT:
                home = alive and lab.hot_spans[h.size_class] is h
            elif state == STATE_REUSABLE:
                home = alive and h in lab.reusable[h.size_class]
            else:
                home = not alive \
                    or h.free_block_count() <= h.reuse_threshold_blocks
            home = home and h.slot not in pooled
        if not home:
            lost.append((h.slot, STATE_NAMES[state]))
    return lost


def validate_transition_trace(allocator):
    """Check a recorded transition trace: legal edges only, strictly
    increasing per-span epoch counters, and an owner that only free ->
    hot may set and only reusable -> reusable (adoption) must change."""
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
            if edge != (STATE_FREE, STATE_HOT):
                kept = epoch_owner(new) == epoch_owner(old)
                assert kept != (edge == (STATE_REUSABLE, STATE_REUSABLE)), \
                    f"owner {'kept' if kept else 'changed'} on {edge} " \
                    f"of span {slot}"
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
