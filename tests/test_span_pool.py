import random
import threading

import pytest

import scenarios
from explore import explore, replay
from helpers import (
    census, in_threads, make_allocator, pooled_slots, run_threads,
)
from spanalloc.arena import Arena
from spanalloc.config import PAGE_SIZE, VIRTUAL_SPAN_SIZE
from spanalloc.errors import ArenaExhausted, WildFree
from spanalloc.size_classes import (
    NUM_REAL_SPAN_SIZES, REAL_SPAN_SIZES, TABLE, class_for_size,
)
from spanalloc.span import STATE_FREE, SpanSpace, epoch_state
from spanalloc.span_pool import TOP_REF_MASK, SpanPool, TaggedStack
from spanalloc.vmem import SimProvider


def make_pool(spans=64, width=4, **kw):
    provider = SimProvider()
    arena = Arena(provider.reserve(spans * VIRTUAL_SPAN_SIZE))
    space = SpanSpace(arena, provider)
    return SpanPool(space, width, **kw), space, provider, arena


def pooled_span(pool, space, arena, size=64):
    """A span set up for `size` in state free, as put() expects."""
    return space.header_for_base(arena.acquire_virtual_span(),
                                 class_for_size(size))


def test_put_get_same_thread_fast_path():
    pool, space, provider, arena = make_pool()
    a = pooled_span(pool, space, arena)
    b = pooled_span(pool, space, arena)
    pool.put(a, thread_id=3)
    pool.put(b, thread_id=3)
    assert pool.get(class_for_size(64), thread_id=3) is b   # LIFO
    assert pool.get(class_for_size(64), thread_id=3) is a


def test_put_decommits_large_spans_only():
    pool, space, provider, arena = make_pool()
    big = pooled_span(pool, space, arena, size=512)         # 68KB real span
    provider.write(big.base + PAGE_SIZE, b"\xcc" * (big.real_span_size - PAGE_SIZE))
    assert provider.committed_in(big.base, VIRTUAL_SPAN_SIZE) == big.real_span_size
    pool.put(big, thread_id=0)
    assert provider.committed_in(big.base, VIRTUAL_SPAN_SIZE) == PAGE_SIZE

    small = pooled_span(pool, space, arena, size=64)        # 32KB real span
    provider.write(small.base + PAGE_SIZE, b"\xdd" * (32768 - PAGE_SIZE))
    before = provider.committed_in(small.base, VIRTUAL_SPAN_SIZE)
    pool.put(small, thread_id=0)
    assert provider.committed_in(small.base, VIRTUAL_SPAN_SIZE) == before
    assert provider.stats.decommit_calls == 1


def test_no_decommit_ablation():
    pool, space, provider, arena = make_pool(decommit_enabled=False)
    big = pooled_span(pool, space, arena, size=512)
    provider.write(big.base + PAGE_SIZE, b"\xcc" * (big.real_span_size - PAGE_SIZE))
    pool.put(big, thread_id=0)
    assert provider.committed_in(big.base, VIRTUAL_SPAN_SIZE) == big.real_span_size
    assert provider.stats.decommit_calls == 0


def test_get_empty_pool_falls_back_to_arena():
    pool, space, provider, arena = make_pool()
    span = pool.get(class_for_size(64), thread_id=0)
    assert span.base == arena.base
    assert epoch_state(span.epoch.load()) == STATE_FREE
    assert span.size_class == class_for_size(64)        # built for it
    assert (span.bump_limit, span.remote.load()) == (0, 0)
    assert pool.gets_from_arena.load() == 1


def counting_pops(monkeypatch):
    """Patch TaggedStack.pop to record each stack it pops; returns the
    list it appends to."""
    popped = []
    real_pop = TaggedStack.pop

    def counting_pop(stack, space):
        popped.append(stack)
        return real_pop(stack, space)

    monkeypatch.setattr(TaggedStack, "pop", counting_pop)
    return popped


def test_miss_pops_each_stack_once(monkeypatch):
    pool, space, provider, arena = make_pool(width=4)
    big = pooled_span(pool, space, arena, size=1 << 20)
    pool.put(big, thread_id=3)                        # the last stack scanned
    assert pool._scan_order[-1] is pool.stacks[-1][3]
    fresh = arena.spans_handed_out()
    popped = counting_pops(monkeypatch)
    assert pool.get(class_for_size(64), thread_id=1) is big
    assert len(popped) == NUM_REAL_SPAN_SIZES * 4
    assert len(set(map(id, popped))) == len(popped)
    assert popped[0] is pool.stacks[0][1]             # own stack first
    assert popped[-1] is pool.stacks[-1][3]
    assert pool.gets_from_pool.load() == 1
    assert arena.spans_handed_out() == fresh


def test_empty_pool_miss_pops_nothing(monkeypatch):
    pool, space, provider, arena = make_pool(width=4)
    pool.put(pooled_span(pool, space, arena), thread_id=0)
    pool.get(class_for_size(64), thread_id=0)         # empties the pool
    fresh = arena.spans_handed_out()
    popped = counting_pops(monkeypatch)
    span = pool.get(class_for_size(64), thread_id=1)
    assert popped == []
    assert arena.spans_handed_out() == fresh + 1
    assert epoch_state(span.epoch.load()) == STATE_FREE


@pytest.mark.parametrize("width", [1, 2, 4])
def test_depth_hint_matches_walked_stacks(width):
    # The hint get() reads, puts - gets_from_pool, against the spans
    # actually chained on the stacks, after every step; a get reaches
    # the arena exactly when the walk finds the pool empty.
    rng = random.Random(7 + width)
    pool, space, provider, arena = make_pool(spans=256, width=width)
    sizes = [64, 512, 4096, 1 << 16, 1 << 20]
    held = []
    for _ in range(400):
        if held and rng.random() < 0.5:
            pool.put(held.pop(rng.randrange(len(held))), rng.randrange(8))
        else:
            sc = class_for_size(rng.choice(sizes))
            empty = not pooled_slots(pool)
            fresh = pool.gets_from_arena.load()
            span = pool.get(sc, rng.randrange(8))
            assert (pool.gets_from_arena.load() > fresh) == empty
            assert span.size_class == sc
            held.append(span)
        assert pool.puts.load() - pool.gets_from_pool.load() \
            == len(pooled_slots(pool))
    assert pool.gets_from_pool.load() and pool.gets_from_arena.load() > 1


def test_get_scans_other_sizes_and_indices():
    pool, space, provider, arena = make_pool(width=4)
    big = pooled_span(pool, space, arena, size=512)
    pool.put(big, thread_id=2)          # lands on stack [rs=1][idx=2]
    got = pool.get(class_for_size(64), thread_id=0)   # wants rs=0, idx=0
    assert got is big                   # scan found it, and re-classed it
    assert got.size_class == class_for_size(64)
    assert pool.gets_from_pool.load() == 1


def test_arena_exhaustion_propagates():
    pool, space, provider, arena = make_pool(spans=2)
    pool.get(class_for_size(64), 0)
    pool.get(class_for_size(64), 0)
    with pytest.raises(ArenaExhausted):
        pool.get(class_for_size(64), 0)
    assert pool.gets_from_arena.load() == 2


def test_stack_lifo_exact_single_thread():
    pool, space, provider, arena = make_pool(width=1)
    spans = [pooled_span(pool, space, arena) for _ in range(10)]
    stack = pool.stacks[0][0]
    for s in spans:
        stack.push(s)
    popped = [stack.pop(space) for _ in range(10)]
    assert popped == spans[::-1]
    assert stack.pop(space) is None
    assert stack.retries == 0


def test_stack_tag_increments_on_every_replacement():
    pool, space, provider, arena = make_pool(width=1)
    stack = pool.stacks[0][0]
    span = pooled_span(pool, space, arena)
    tags = [stack.load_top() >> 48]
    for _ in range(3):
        stack.push(span)
        tags.append(stack.load_top() >> 48)
        stack.pop(space)
        tags.append(stack.load_top() >> 48)
    assert tags == [t % (1 << 16) for t in range(7)]


def test_aba_interleaving_probe():
    # Every schedule of a pop against a pop and two pushes keeps both
    # spans. The classic one: the pop reads top a (next: none), thread 1
    # pops a and pushes b and a back; the tag fails the stale replace,
    # and the retry pops a from over b.
    def check(w):
        assert w.stack.retries == 1 and w.held[0] is w.a
        assert [s.slot for s in w.held[1:]] == [w.b.slot]

    assert explore(scenarios.aba) > 1
    replay(scenarios.aba, [0, 0, 1], check)


def test_pooled_span_link_holds_only_the_next_reference():
    # Two spans pass through a reusable set side by side before each is
    # emptied and pooled; the link word then chains the stack and holds
    # nothing else.
    alloc = make_allocator()
    c64 = class_for_size(64)
    blocks = TABLE[c64].blocks_per_span
    threshold = blocks * 80 // 100
    a = [alloc.malloc(64) for _ in range(blocks)]
    b = [alloc.malloc(64) for _ in range(blocks)]
    alloc.malloc(64)                      # floats both spans
    span_a, span_b = alloc.space.span_of(a[0]), alloc.space.span_of(b[0])
    for x in a[:threshold + 1] + b[:threshold + 1]:
        alloc.free(x)                     # both reusable, a before b
    for x in b[threshold + 1:] + a[threshold + 1:]:
        alloc.free(x)                     # b, still behind a, empties first
    assert alloc.pool.puts.load() == 2
    assert span_b.link == 0               # bottom of the stack
    assert span_a.link == span_b.slot + 1     # pushed on top of b
    tops = [s.load_top() & TOP_REF_MASK for row in alloc.pool.stacks
            for s in row]
    assert span_a.slot + 1 in tops


def test_counting_stress_no_loss_no_duplication():
    pool, space, provider, arena = make_pool(spans=256, width=4)
    spans = [pooled_span(pool, space, arena) for _ in range(128)]
    for i, s in enumerate(spans):
        pool.put(s, thread_id=i % 8)
    cycles = 2000
    errors = []
    held_all = [[] for _ in range(8)]

    def worker(tid):
        held = held_all[tid]
        try:
            for i in range(cycles):
                span = pool.get(3, tid)
                held.append(span)
                pool.put(held.pop(0), tid)
        except Exception as exc:          # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
    run_threads(threads)
    assert not errors
    # Drain the pool completely; exactly the original spans come out,
    # each exactly once. The first arena fallback marks true emptiness.
    drained = []
    before_arena = pool.gets_from_arena.load()
    while True:
        s = pool.get(3, 0)
        if pool.gets_from_arena.load() > before_arena:
            break                          # pool is empty
        drained.append(s)
    assert len(drained) == len(set(id(s) for s in drained)) == 128
    assert set(id(s) for s in drained) == set(id(s) for s in spans)


def test_disjoint_indices_see_no_contention():
    pool, space, provider, arena = make_pool(spans=128, width=8)
    per_thread = [[pooled_span(pool, space, arena) for _ in range(4)]
                  for _ in range(8)]

    def worker(tid):
        mine = per_thread[tid]
        for _ in range(500):
            for s in mine:
                pool.put(s, tid)
            for i in range(len(mine)):
                mine[i] = pool.get(3, tid)

    fresh = arena.spans_handed_out()
    threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
    run_threads(threads)
    assert all(retries == 0 for _, _, retries in pool.stack_counters())
    assert arena.spans_handed_out() == fresh


def test_pool_width_one_single_stack_per_size():
    pool, space, provider, arena = make_pool(width=1)
    a = pooled_span(pool, space, arena)
    pool.put(a, thread_id=123)            # any thread id maps to stack 0
    assert pool.stacks[0][0].pop(space) is a
    pool.put(a, thread_id=123)
    assert pool.get(class_for_size(64), thread_id=456) is a


def test_stack_counters_exported():
    pool, space, provider, arena = make_pool(width=2)
    s = pooled_span(pool, space, arena)
    pool.put(s, 0)
    pool.get(class_for_size(64), 0)
    rows = pool.stack_counters()
    assert rows == [(i, j, 0) for i in range(NUM_REAL_SPAN_SIZES)
                    for j in range(2)]
    assert pool.puts.load() == pool.gets_from_pool.load() == 1


def test_pooled_large_span_reads_zero_after_reuse():
    pool, space, provider, arena = make_pool()
    big = pooled_span(pool, space, arena, size=1024)
    provider.write(big.base + PAGE_SIZE, b"\x7e" * (big.real_span_size - PAGE_SIZE))
    pool.put(big, thread_id=0)
    got = pool.get(class_for_size(2048), thread_id=0)   # scan hit
    assert got is big and got.size_class == class_for_size(2048)
    payload = provider.read(got.base + PAGE_SIZE,
                            got.real_span_size - PAGE_SIZE)
    assert payload == bytes(len(payload))


# -- the span fetch path ---------------------------------------------------

def count_commits(monkeypatch, provider):
    """Record the provider's `touch` and page-commit calls."""
    calls = {"touch": [], "_commit_page": []}
    for name, seen in calls.items():
        real = getattr(provider, name)

        def spy(*args, real=real, seen=seen):
            seen.append(args)
            return real(*args)
        monkeypatch.setattr(provider, name, spy)
    return calls


def test_stack_top_does_not_share_a_header_lock():
    pool, space, provider, arena = make_pool(width=1)
    span = pooled_span(pool, space, arena)
    pool.put(span, 0)
    top = pool.stacks[TABLE[span.size_class].real_span_index][0]._top
    assert top._lock is not span.epoch._lock
    assert top._lock is not pool.puts._lock


def test_fresh_span_malloc_commits_the_header_page_at_creation(monkeypatch):
    alloc = make_allocator()
    calls = count_commits(monkeypatch, alloc.provider)
    p = alloc.malloc(1 << 20)                   # a fresh arena span
    span = alloc.space.span_of(p)
    assert alloc.stats()["arena_spans"] == 1
    assert calls["touch"] == [(span.base, PAGE_SIZE)]
    assert calls["_commit_page"] == [(span.base // PAGE_SIZE,)]
    assert alloc.provider.committed_page_indices() == {span.base // PAGE_SIZE}
    # The header's fields live in the SpanHeader and the 1M block starts
    # on the next page, so the header page has no bytes.
    assert alloc.provider._pages[span.base // PAGE_SIZE] is None


def test_pool_hit_reclass_through_every_real_span_size_commits_nothing(
        monkeypatch):
    alloc = make_allocator()
    pool, provider = alloc.pool, alloc.provider
    # One class of each real-span size, smallest first.
    classes = [next(g.class_id for g in TABLE if g.real_span_size == rs)
               for rs in REAL_SPAN_SIZES]
    span = pool.get(classes[-1], 0)             # from the arena
    pool.put(span, 0)
    committed = provider.committed_bytes
    calls = count_commits(monkeypatch, provider)
    for sc in classes:
        assert pool.get(sc, 0) is span          # a pool hit, re-classed
        assert span.real_span_size == TABLE[sc].real_span_size
        pool.put(span, 0)
        assert provider.committed_bytes == committed
        assert not census(alloc).stray
    assert calls == {"touch": [], "_commit_page": []}
    assert pool.gets_from_arena.load() == 1


def test_concurrent_fresh_spans_get_one_header_each():
    alloc = make_allocator(arena_bytes=512 * VIRTUAL_SPAN_SIZE)
    space, pool = alloc.space, alloc.pool
    c1m = class_for_size(1 << 20)
    threads_n, per_thread = 4, 64
    got = [[] for _ in range(threads_n)]

    def work(i):
        for _ in range(per_thread):
            got[i].append(pool.get(c1m, i))

    elapsed = in_threads(work, threads_n)
    spans = sorted((h for mine in got for h in mine), key=lambda h: h.slot)
    # No two threads got the same slot, and every slot handed out has
    # exactly one header: the one its thread got.
    assert [h.slot for h in spans] == list(range(threads_n * per_thread))
    assert list(space.iter_headers()) == spans
    for h in spans:
        assert space.headers[h.slot] is h
        assert h.base == alloc.arena.base_of_slot(h.slot)
    assert alloc.provider.committed_page_indices() == \
        {h.base // PAGE_SIZE for h in spans}
    assert elapsed < 1.0
    # One more header grows the list past it; a free into a grown slot
    # that holds no header is wild.
    p = alloc.malloc(1 << 20)
    last = space.span_of(p).slot
    assert last == threads_n * per_thread and len(space.headers) > last + 1
    with pytest.raises(WildFree):
        alloc.free(alloc.arena.base_of_slot(len(space.headers) - 1)
                   + PAGE_SIZE)
    alloc.free(p)
