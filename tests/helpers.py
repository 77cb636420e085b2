"""Plain test helpers: allocator construction and brute-force oracles.

Kept out of conftest.py so test modules can import them by a name that
no other test directory's conftest shadows.
"""

import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

from spanalloc import Allocator, AllocatorConfig
from spanalloc.config import DECOMMIT_THRESHOLD, PAGE_SIZE, SPAN_SHIFT
from spanalloc.size_classes import TABLE, class_for_size
from spanalloc.span import (
    STATE_FLOATING, STATE_FREE, STATE_HOT, STATE_NAMES, STATE_REUSABLE,
    epoch_counter, epoch_owner, epoch_state,
)
from spanalloc.span_pool import TOP_REF_MASK

# Small arena (64 spans) keeps unit tests snappy; tests that need more
# construct their own allocator.
SMALL_ARENA = 64 * (2 << 20)


def make_allocator(**overrides):
    overrides.setdefault("arena_bytes", SMALL_ARENA)
    return Allocator(AllocatorConfig(**overrides))


def floated_span(allocator, size):
    """Fill one span of `size` blocks, then float it with one more
    malloc; returns the span, its blocks and the extra block."""
    blocks = [allocator.malloc(size)
              for _ in range(TABLE[class_for_size(size)].blocks_per_span)]
    extra = allocator.malloc(size)
    span = allocator.space.span_of(blocks[0])
    assert epoch_state(span.epoch.load()) == STATE_FLOATING
    return span, blocks, extra


def live_entry(lab, span):
    """Whether `lab`'s reusable set of `span`'s class holds a live entry
    of it: one whose stamp equals the span's epoch (`in` on the set
    would also see a stale entry)."""
    stamps = lab.reusable.get(span.size_class, {})
    return stamps.get(span) == span.epoch.load()


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


@dataclass
class Census:
    """One walk of an allocator's spans; see `census`."""
    pooled: list        # slots on the pool stacks, in walk order
    holders: dict       # slot -> owners of the LABs holding the span hot
                        # or in a live entry
    entries: int        # live reusable-set entries
    lost: list          # (slot, state name) of each span with no home
    bad: list           # broken live entries, spans that do not add up
    frag_walked: int    # free payload bytes, free lists walked
    stray: set          # committed page indices no span accounts for


def census(allocator, live=None):
    """One walk, at quiescence, of the pool stacks, the LABs' hot spans
    and reusable sets, the span headers and the sim provider's committed
    pages. `live` holds the handed-out blocks (by default the ledger's
    on an instrumented allocator; with neither, spans are not added up).

    A set entry is live while its stamp equals its span's epoch. It is
    broken unless its span is reusable, of the set's class, owned by
    the LAB's owner, not pooled, and in no other entry.

    A span has a home when its state matches one. Free: on exactly one
    pool stack, where no other span sits. Hot: its class's hot span in
    its owner's LAB, and that owner alive (a key of `frontend.labs`,
    which holds live LABs only). Reusable: a live entry in its live
    owner's set. Floating: a live block, and a dead owner or free blocks
    at or below the threshold, so that a later free marks or retires it.

    A span adds up when, pooled, it holds no live block (decommit may
    have wiped its list words), or else when its walked free-list,
    never-used and `live` blocks make its block count.

    A committed arena page is stray outside its slot's real span, in a
    slot with no header, or, with decommit on, past the first page of a
    pooled span above the decommit threshold. Huge mappings lie outside
    the arena; the provider bounds-checks them."""
    if live is None and allocator.ledger is not None:
        live = allocator.ledger.live
    space, arena = allocator.space, allocator.arena
    labs = allocator.frontend.labs
    pooled = pooled_slots(allocator.pool)
    in_pool = set(pooled)
    holders, bad, entered = {}, [], set()
    for owner, lab in labs.items():
        for span in lab.hot_spans:
            if span is not None:
                holders.setdefault(span.slot, []).append(owner)
        for sc, stamps in lab.reusable.items():
            for span, stamp in list(stamps.items()):
                epoch = span.epoch.load()
                if stamp != epoch:
                    continue
                if epoch_state(epoch) != STATE_REUSABLE \
                        or span.size_class != sc \
                        or epoch_owner(epoch) != owner \
                        or span.slot in in_pool or span.slot in entered:
                    bad.append(f"broken entry: span in slot {span.slot}, "
                               f"LAB {owner}")
                entered.add(span.slot)
                holders.setdefault(span.slot, []).append(owner)
    live_in = Counter((addr - arena.base) >> SPAN_SHIFT for addr in live or ())
    lost, frag_walked = [], 0
    for h in space.iter_headers():
        epoch = h.epoch.load()
        state = epoch_state(epoch)
        if state == STATE_FREE:
            home = h.slot in in_pool
        else:
            lab = labs.get(epoch_owner(epoch))
            alive = lab is not None
            if state == STATE_HOT:
                home = alive and lab.hot_spans[h.size_class] is h
            elif state == STATE_REUSABLE:
                home = alive and live_entry(lab, h)
            else:
                home = not h.is_empty() and (
                    not alive
                    or h.free_block_count() <= h.reuse_threshold_blocks)
            home = home and h.slot not in in_pool
        if not home:
            lost.append((h.slot, STATE_NAMES[state]))
        if h.size_class < 0:
            continue
        n_live = live_in[h.slot]
        if state == STATE_FREE:
            if h.live_blocks() or n_live:
                bad.append(f"pooled span in slot {h.slot} holds live blocks")
            continue
        free = len(h.walk_local()) + len(h.walk_remote()) \
            + h.blocks_per_span - h.bump_limit
        frag_walked += free * h.block_size
        if live is not None and free + n_live != h.blocks_per_span:
            bad.append(f"span in slot {h.slot}: {free} free + {n_live} "
                       f"live != {h.blocks_per_span} blocks")
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
    return Census(pooled, holders, len(entered), lost, bad, frag_walked,
                  stray)


def check_heap(allocator, live=None):
    """Assert the whole census at quiescence: nothing broken, lost or
    stray; the pool's depth equals `puts - gets_from_pool`; the walked
    fragmentation equals `frag_oracle` and, when instrumented, the
    `frag_bytes` of `stats()`, with a valid transition trace. Returns
    the census."""
    heap = census(allocator, live)
    assert not heap.bad, heap.bad
    assert not heap.lost, f"spans with no home: {heap.lost}"
    assert not heap.stray, f"stray pages: {sorted(heap.stray)[:8]}"
    pool = allocator.pool
    depth = pool.puts.load() - pool.gets_from_pool.load()
    assert len(heap.pooled) == depth, \
        f"{len(heap.pooled)} spans pooled, puts - gets = {depth}"
    counted = frag_oracle(allocator)
    assert heap.frag_walked == counted, \
        f"walked frag {heap.frag_walked} != counted {counted}"
    if allocator.ledger is not None:
        frag_bytes = allocator.stats()["frag_bytes"]
        assert heap.frag_walked == frag_bytes, \
            f"walked frag {heap.frag_walked} != frag_bytes {frag_bytes}"
        validate_transition_trace(allocator)
    return heap


def validate_transition_trace(allocator):
    """Check a recorded transition trace: legal edges only, strictly
    increasing per-span epoch counters, and an owner that only free ->
    hot and floating -> reusable (an adopting marking) may change."""
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
            if edge not in ((STATE_FREE, STATE_HOT),
                            (STATE_FLOATING, STATE_REUSABLE)):
                assert epoch_owner(new) == epoch_owner(old), \
                    f"owner changed on {edge} of span {slot}"
            if prev_new is not None:
                assert old == prev_new, f"gap in span {slot} transition chain"
            prev_new = new
    return sum(len(v) for v in per_span.values())


# Seconds. A healthy barrier wait lasts milliseconds, so a barrier whose
# partner thread died fails well before the joins' bound.
JOIN_TIMEOUT = 30
BARRIER_TIMEOUT = 10


def run_threads(threads):
    """Start `threads` as daemons, join each with `JOIN_TIMEOUT`, and
    fail naming any thread still alive: a stuck thread fails its test
    instead of hanging the suite, and cannot block interpreter exit."""
    for t in threads:
        t.daemon = True
        t.start()
    for t in threads:
        t.join(JOIN_TIMEOUT)
    stuck = [t.name for t in threads if t.is_alive()]
    assert not stuck, f"threads still running after {JOIN_TIMEOUT} s: {stuck}"


def run_in_thread(fn, *args):
    """`fn(*args)` in a new thread: its result, or its exception raised
    again here."""
    out = {}

    def runner():
        try:
            out["result"] = fn(*args)
        except BaseException as exc:
            out["error"] = exc

    run_threads([threading.Thread(target=runner)])
    if "error" in out:
        raise out["error"]
    return out.get("result")


def in_threads(work, threads_n):
    """Run `work(i)` in threads i = 0 .. threads_n - 1, switching every
    microsecond, and restore the switch interval afterwards; returns the
    elapsed seconds."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        run_threads([threading.Thread(target=work, args=(i,))
                     for i in range(threads_n)])
        elapsed = time.perf_counter() - start
    finally:
        sys.setswitchinterval(interval)
    assert sys.getswitchinterval() == interval
    return elapsed
