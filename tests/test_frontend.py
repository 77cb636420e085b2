import threading

from helpers import make_allocator, validate_transition_trace
from spanalloc.config import CLAB
from spanalloc.size_classes import TABLE, class_for_size
from spanalloc.span import (
    STATE_FLOATING, STATE_FREE, STATE_HOT, STATE_REUSABLE,
    TERMINATED, epoch_state, pack_owner,
)

C64 = class_for_size(64)       # 508 blocks, threshold 406
B64 = TABLE[C64].blocks_per_span
T64 = B64 * 80 // 100


def span_of(alloc, addr):
    return alloc.space.span_of(addr)


def state_of(span):
    return epoch_state(span.epoch.load())


def run_in_thread(fn, *args):
    out = {}

    def runner():
        out["result"] = fn(*args)

    t = threading.Thread(target=runner)
    t.start()
    t.join()
    return out.get("result")


def test_warm_fast_path_no_extra_fetches(alloc):
    a = alloc.malloc(64)
    stats_before = alloc.stats()
    b = alloc.malloc(64)
    stats_after = alloc.stats()
    assert span_of(alloc, a) is span_of(alloc, b)
    assert stats_after["pool_fetches"] == stats_before["pool_fetches"]
    assert stats_after["set_fetches"] == stats_before["set_fetches"]


def test_fetch_bound_single_threaded(alloc):
    for i in range(3 * B64):
        alloc.malloc(64)
    assert alloc.stats()["max_fetches_per_alloc"] <= 2


def test_exhausted_hot_span_goes_floating(alloc):
    blocks = [alloc.malloc(64) for _ in range(B64)]
    first_span = span_of(alloc, blocks[0])
    assert state_of(first_span) == STATE_HOT
    extra = alloc.malloc(64)
    assert span_of(alloc, extra) is not first_span
    assert state_of(first_span) == STATE_FLOATING


def test_refill_from_remotes_after_exhaustion(alloc):
    blocks = [alloc.malloc(64) for _ in range(B64)]
    span = span_of(alloc, blocks[0])

    def remote_free_many():
        for b in blocks[:T64 + 1]:
            alloc.free(b)

    run_in_thread(remote_free_many)
    assert span.remote_count() == T64 + 1
    drained_before = alloc.stats()["drains"]
    nxt = alloc.malloc(64)
    # Enough remote blocks: the hot span is refilled and serves.
    assert span_of(alloc, nxt) is span
    assert alloc.stats()["drains"] == drained_before + 1
    assert span.remote_count() == 0


def test_not_enough_remotes_means_new_span(alloc):
    blocks = [alloc.malloc(64) for _ in range(B64)]
    span = span_of(alloc, blocks[0])

    def remote_free_few():
        for b in blocks[:10]:
            alloc.free(b)

    run_in_thread(remote_free_few)
    nxt = alloc.malloc(64)
    assert span_of(alloc, nxt) is not span
    assert state_of(span) == STATE_FLOATING
    assert span.remote_count() == 10    # unclaimed below threshold


def test_local_frees_drive_floating_to_reusable_to_reuse(alloc):
    blocks = [alloc.malloc(64) for _ in range(B64)]
    span = span_of(alloc, blocks[0])
    extra = alloc.malloc(64)            # exhausts + replaces hot
    assert state_of(span) == STATE_FLOATING
    for b in blocks[:T64]:
        alloc.free(b)
    assert state_of(span) == STATE_FLOATING   # at threshold: not yet
    alloc.free(blocks[T64])
    assert state_of(span) == STATE_REUSABLE   # crossed strictly
    assert span.set_token is not None
    # Exhaust the current hot span; the reusable one must come back.
    current = span_of(alloc, extra)
    fills = [alloc.malloc(64) for _ in range(B64 - 1)]
    again = alloc.malloc(64)
    assert span_of(alloc, again) is span
    assert state_of(span) == STATE_HOT
    assert span.set_token is None


def test_eager_reclamation_pools_before_free_returns(alloc):
    blocks = [alloc.malloc(64) for _ in range(B64)]
    span = span_of(alloc, blocks[0])
    alloc.malloc(64)                    # float the span
    for b in blocks[:-1]:
        alloc.free(b)
    assert state_of(span) == STATE_REUSABLE
    puts_before = alloc.pool.puts.load()
    alloc.free(blocks[-1])              # last block
    assert alloc.pool.puts.load() == puts_before + 1
    assert state_of(span) == STATE_FREE
    assert span.set_token is None


def test_lazy_reclaim_defers_to_allocation_slow_path():
    alloc = make_allocator(eager_reclaim=False)
    blocks = [alloc.malloc(64) for _ in range(B64)]
    span = span_of(alloc, blocks[0])
    alloc.malloc(64)
    for b in blocks:
        alloc.free(b)
    # Fully empty but not pooled: still reusable, parked in the set.
    assert state_of(span) == STATE_REUSABLE
    assert alloc.pool.puts.load() == 0
    # Exhaust the hot span to force the slow path.
    for _ in range(B64 - 1):
        alloc.malloc(64)
    puts_before = alloc.pool.puts.load()
    alloc.malloc(64)
    assert alloc.pool.puts.load() >= puts_before + 1   # reclaimed now
    assert state_of(span) in (STATE_FREE, STATE_HOT)


def test_remote_frees_insert_into_owners_set(alloc):
    blocks = [alloc.malloc(64) for _ in range(B64)]
    span = span_of(alloc, blocks[0])
    alloc.malloc(64)

    def remote_free_past_threshold():
        for b in blocks[:T64 + 1]:
            alloc.free(b)

    run_in_thread(remote_free_past_threshold)
    assert state_of(span) == STATE_REUSABLE
    owner_lab = alloc.frontend.labs[0]
    assert span.set_token is owner_lab.reusable[C64]
    assert alloc.stats()["adopts"] == 0    # owner alive: no adoption


def test_remote_last_free_pools_span(alloc):
    blocks = [alloc.malloc(64) for _ in range(B64)]
    span = span_of(alloc, blocks[0])
    alloc.malloc(64)

    def remote_free_all():
        for b in blocks:
            alloc.free(b)

    run_in_thread(remote_free_all)
    assert state_of(span) == STATE_FREE
    assert alloc.pool.puts.load() == 1
    assert span.set_token is None


def test_block_never_live_twice_mixed_workload(alloc):
    import random
    rng = random.Random(42)
    live = {}
    for i in range(20_000):
        if live and (rng.random() < 0.45 or len(live) > 4000):
            addr = live.pop(rng.choice(list(live)))
            alloc.free(addr)
        else:
            size = rng.choice([16, 64, 64, 256, 512])
            p = alloc.malloc(size)
            assert p != 0
            assert p not in live, "live block handed out twice"
            span = span_of(alloc, p)
            off = p - span.payload
            assert off % span.block_size == 0
            live[p] = p
    for addr in live.values():
        alloc.free(addr)


def test_conservation_at_quiescence(alloc):
    import random
    rng = random.Random(3)
    live = []
    for _ in range(5000):
        if live and rng.random() < 0.5:
            alloc.free(live.pop(rng.randrange(len(live))))
        else:
            live.append(alloc.malloc(rng.choice([16, 64, 256])))
    per_span_live = {}
    for p in live:
        per_span_live[span_of(alloc, p).slot] = \
            per_span_live.get(span_of(alloc, p).slot, 0) + 1
    for h in alloc.space.iter_headers():
        if h.size_class < 0:
            continue
        if state_of(h) == STATE_FREE:
            assert h.live_blocks() == 0     # pooled spans are empty
            continue
        listed = len(h.walk_local()) + len(h.walk_remote())
        never = h.blocks_per_span - h.bump_limit
        expect_live = per_span_live.get(h.slot, 0)
        assert listed + never + expect_live == h.blocks_per_span
    for p in live:
        alloc.free(p)


def test_transition_trace_validates(traced_alloc):
    alloc = traced_alloc
    blocks = [alloc.malloc(64) for _ in range(2 * B64)]
    for b in blocks:
        alloc.free(b)
    count = validate_transition_trace(alloc)
    assert count >= 4


def test_active_false_sharing_probe(alloc):
    spans_seen = [set(), set()]
    barrier = threading.Barrier(2)

    def worker(i):
        alloc.attach_thread()
        barrier.wait()
        for _ in range(600):
            p = alloc.malloc(64)
            spans_seen[i].add(span_of(alloc, p).slot)
        alloc.detach_thread()

    ts = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert not (spans_seen[0] & spans_seen[1])


def test_passive_false_sharing_probe(alloc):
    mine = [alloc.malloc(64) for _ in range(4)]
    victim = mine[2]

    def freeing_thread():
        alloc.attach_thread()
        alloc.free(victim)
        got = [alloc.malloc(64) for _ in range(50)]
        alloc.detach_thread()
        return got

    got = run_in_thread(freeing_thread)
    assert victim not in got
    owner_span = span_of(alloc, victim)
    assert victim - alloc.arena.base in owner_span.walk_remote()


def test_thread_termination_orphans_adopted_and_reclaimed(alloc):
    holder = {}

    def short_lived():
        alloc.attach_thread()
        holder["blocks"] = [alloc.malloc(64) for _ in range(B64 // 2)]
        alloc.detach_thread()

    run_in_thread(short_lived)
    blocks = holder["blocks"]
    span = span_of(alloc, blocks[0])
    assert state_of(span) == STATE_FLOATING       # floated by terminate
    lab0 = alloc.frontend.labs[owner_ref(span)]
    assert lab0.owner_word.load() == TERMINATED
    adopts_before = alloc.stats()["adopts"]
    alloc.free(blocks[0])                          # adopter
    assert alloc.stats()["adopts"] == adopts_before + 1
    my_word = alloc.frontend.labs[span.owner.load() & ((1 << 48) - 1)] \
        .owner_word.load()
    assert span.owner.load() == my_word
    for b in blocks[1:]:
        alloc.free(b)
    assert state_of(span) == STATE_FREE            # reclaimed when empty
    assert alloc.pool.puts.load() >= 1


def owner_ref(span):
    return span.owner.load() & ((1 << 48) - 1)


def test_terminate_races_last_free_single_winner(alloc):
    # A span sitting reusable in a terminating LAB while another thread
    # frees its last block: exactly one of floating-marking and
    # reusable->free wins. Run many times to shake interleavings.
    for _ in range(50):
        holder = {}

        def owner_thread():
            alloc.attach_thread()
            blocks = [alloc.malloc(64) for _ in range(B64)]
            alloc.malloc(64)                       # float it
            for b in blocks[:-1]:
                alloc.free(b)                      # now reusable
            holder["span"] = span_of(alloc, blocks[0])
            holder["last"] = blocks[-1]
            holder["leftover"] = blocks
            barrier.wait()                         # racer go
            alloc.detach_thread()                  # terminate here

        def racer_thread():
            alloc.attach_thread()
            barrier.wait()
            alloc.free(holder["last"])
            alloc.detach_thread()

        barrier = threading.Barrier(2)
        t1 = threading.Thread(target=owner_thread)
        t2 = threading.Thread(target=racer_thread)
        t1.start(); t2.start(); t1.join(); t2.join()
        span = holder["span"]
        st = state_of(span)
        assert st in (STATE_FREE, STATE_FLOATING)
        if st == STATE_FLOATING:
            # Orphaned with zero live blocks; anyone freeing later would
            # adopt, but it is consistent: not in any set, not pooled.
            assert span.set_token is None
        # Clean up for the next round: leftover hot-span block.


def make_reusable(span):
    """Walk a fresh span to the reusable state via legal transitions."""
    for target in (STATE_HOT, STATE_FLOATING, STATE_REUSABLE):
        assert span.try_transition(span.epoch.load(), target)

def test_generation_gating_after_lab_reuse(alloc):
    from spanalloc.frontend import ReusableSet

    s = ReusableSet(alloc.space)
    word1 = pack_owner(1, 0)
    word2 = pack_owner(2, 0)
    span = alloc.space.header_for_base(alloc.arena.acquire_virtual_span(),
                                       create=True)
    span.init_for_class(C64, word1)
    make_reusable(span)
    s.open(word1)
    assert s.put(word1, span)
    assert s.take() is span
    s.close()
    assert not s.put(word1, span)          # closed: TERMINATED gate
    s.open(word2)                          # LAB reused, new generation
    assert not s.put(word1, span)          # stale generation rejected
    assert s.put(word2, span)
    assert s.remove(word2, span)
    assert not s.remove(word2, span)       # already gone
    assert s.take() is None


def test_reusable_set_put_take_remove_order(alloc):
    from spanalloc.frontend import ReusableSet

    s = ReusableSet(alloc.space)
    word = pack_owner(1, 0)
    s.open(word)
    spans = []
    for i in range(3):
        sp = alloc.space.header_for_base(alloc.arena.acquire_virtual_span(),
                                         create=True)
        sp.init_for_class(C64, word)
        make_reusable(sp)
        spans.append(sp)
        assert s.put(word, sp)
    assert s.size == 3
    assert s.remove(word, spans[1])        # middle removal, O(1)
    assert s.take() is spans[0]
    assert s.take() is spans[2]
    assert s.take() is None
    assert s.size == 0


def test_clab_mode_shares_lab_and_frees_remotely():
    alloc = make_allocator(lab_mode=CLAB)
    width = alloc.frontend.clab_width
    results = {}

    def worker(i):
        alloc.attach_thread()
        ptrs = [alloc.malloc(64) for _ in range(100)]
        results[i] = ptrs
        barrier.wait()
        for p in results[(i + 1) % n]:
            alloc.free(p)
        alloc.detach_thread()

    n = 4
    barrier = threading.Barrier(n)
    ts = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    stats = alloc.stats()
    assert stats["frees_local"] == 0           # CLAB frees are remote
    assert stats["frees"] == 400
    assert len(alloc.frontend.labs) <= width


def test_lab_indices_recycled_tlab(alloc):
    def use_and_exit():
        alloc.attach_thread()
        alloc.malloc(64)
        alloc.detach_thread()

    for _ in range(5):
        run_in_thread(use_and_exit)
    # All worker LABs terminated; indices get reused instead of growing.
    assert len(alloc.frontend.labs) <= 2


def test_get_span_skips_span_raced_to_free(alloc):
    # Build a reusable span, then play the racing deallocator's half by
    # hand: mark it free and pool it while it still sits in the set
    # (the window between try-mark-free and try-remove). get_span must
    # pop it, notice the state, skip it, and recover it via the pool.
    blocks = [alloc.malloc(64) for _ in range(B64)]
    span = span_of(alloc, blocks[0])
    extra = alloc.malloc(64)
    for b in blocks[:T64 + 1]:
        alloc.free(b)
    assert state_of(span) == STATE_REUSABLE and span.set_token is not None
    for b in blocks[T64 + 1:]:
        span.free_local(b)                     # backdoor: no state work
    assert span.is_empty()
    assert span.try_transition(span.epoch.load(), STATE_FREE)
    alloc.pool.put(span, 0)                    # racer pooled it; set stale
    # Exhaust the hot span; the slow path must not trip on the stale
    # set entry and must end up reusing the pooled span.
    hot = span_of(alloc, extra)
    for _ in range(B64 - 1):
        alloc.malloc(64)
    p = alloc.malloc(64)
    assert p != 0
    assert span_of(alloc, p) is span           # recovered via the pool
    assert state_of(span) == STATE_HOT
    assert alloc.frontend.labs[0].reusable[C64].size == 0


def test_clab_contention_stress_conserves_blocks():
    alloc = make_allocator(lab_mode=CLAB, arena_bytes=1 << 31)
    n = 6                                  # more threads than cores
    errors = []

    def worker(seed):
        import random
        rng = random.Random(seed)
        alloc.attach_thread()
        mine = []
        try:
            for _ in range(5000):
                if mine and rng.random() < 0.5:
                    alloc.free(mine.pop(rng.randrange(len(mine))))
                else:
                    p = alloc.malloc(rng.choice([16, 64, 256]))
                    assert p != 0
                    mine.append(p)
            for p in mine:
                alloc.free(p)
        except Exception as exc:           # pragma: no cover
            errors.append(exc)
        finally:
            alloc.detach_thread()

    ts = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert not errors
    stats = alloc.stats()
    assert stats["allocs"] == stats["frees"]
    for h in alloc.space.iter_headers():
        if h.size_class < 0:
            continue
        if state_of(h) == STATE_FREE:
            assert h.live_blocks() == 0     # pooled spans are empty
            continue
        listed = len(h.walk_local()) + len(h.walk_remote())
        never = h.blocks_per_span - h.bump_limit
        assert listed + never == h.blocks_per_span   # nothing live


def test_set_put_rejects_span_no_longer_reusable(alloc):
    # The window: a deallocator wins floating -> reusable but is delayed
    # before its set insert; meanwhile the last free empties the span,
    # marks it free, and pools it. The late insert must be refused, or
    # the set and the pool stack would share the span's link word.
    blocks = [alloc.malloc(64) for _ in range(B64)]
    span = span_of(alloc, blocks[0])
    alloc.malloc(64)                            # hot -> floating
    for b in blocks[:T64 + 1]:
        span.free_local(b)                      # backdoor: no state work
    owner_word = alloc.frontend.labs[0].owner_word.load()
    the_set = alloc.frontend.labs[0].reusable[C64]
    e = span.epoch.load()
    assert span.try_transition(e, STATE_REUSABLE)   # marker's half, no put
    for b in blocks[T64 + 1:]:
        span.free_local(b)                      # now empty
    e = span.epoch.load()
    assert span.try_transition(e, STATE_FREE)       # racing last free wins
    alloc.pool.put(span, 0)
    assert not the_set.put(owner_word, span)        # late insert refused
    assert span.set_token is None and the_set.size == 0
    # The pooled span must come back intact.
    got = alloc.pool.get(C64, 0)
    assert got is span
    got.init_for_class(C64, owner_word)
    e = got.epoch.load()
    assert got.try_transition(e, STATE_HOT)
    assert not the_set.put(owner_word, span)        # hot is refused too


def test_crossing_and_emptying_in_one_free_still_pools(alloc):
    # Single-block spans (1MB class): the first free both crosses the
    # threshold and empties the span. The refreshed snapshot lets that
    # one call run floating -> reusable -> free and pool the span.
    a = alloc.malloc(1 << 20)
    span = span_of(alloc, a)
    b = alloc.malloc(1 << 20)               # exhausts + floats span a
    assert state_of(span) == STATE_FLOATING
    puts_before = alloc.pool.puts.load()
    alloc.free(a)
    assert state_of(span) == STATE_FREE
    assert alloc.pool.puts.load() == puts_before + 1
    assert span.set_token is None
    assert alloc.frontend.labs[0].reusable[span.size_class].size == 0
    alloc.free(b)
