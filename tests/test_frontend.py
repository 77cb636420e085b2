import gc
import random
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from helpers import (
    BARRIER_TIMEOUT, census, check_heap, make_allocator, pooled_slots,
    run_threads, validate_transition_trace,
)
from spanalloc.atomic import AtomicWord
from spanalloc.config import CLAB
from spanalloc.frontend import Frontend, ReusableSet
from spanalloc.size_classes import TABLE, class_for_size
from spanalloc.span import (
    OWNER_REF_MASK, REMOTE_COUNT_SHIFT, STATE_FLOATING, STATE_FREE,
    STATE_HOT, STATE_REUSABLE, TERMINATED, SpanHeader, epoch_owner,
    epoch_state, owner_lab_ref, pack_owner,
)

C64 = class_for_size(64)       # 508 blocks, threshold 406
B64 = TABLE[C64].blocks_per_span
T64 = B64 * 80 // 100


def span_of(alloc, addr):
    return alloc.space.span_of(addr)


def state_of(span):
    return epoch_state(span.epoch.load())


def owner_of(span):
    return epoch_owner(span.epoch.load())


def in_a_set(alloc, span):
    """Whether any LAB's reusable set holds `span`."""
    return any(span in s for lab in alloc.frontend.labs for s in lab.reusable)


def run_in_thread(fn, *args):
    """`fn(*args)` in a new thread: its result, or its exception raised
    again here."""
    out = {}

    def runner():
        try:
            out["result"] = fn(*args)
        except BaseException as exc:
            out["error"] = exc

    t = threading.Thread(target=runner)
    run_threads([t])
    if "error" in out:
        raise out["error"]
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
    assert in_a_set(alloc, span)
    # Exhaust the current hot span; the reusable one must come back.
    current = span_of(alloc, extra)
    fills = [alloc.malloc(64) for _ in range(B64 - 1)]
    again = alloc.malloc(64)
    assert span_of(alloc, again) is span
    assert state_of(span) == STATE_HOT
    assert not in_a_set(alloc, span)


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
    assert not in_a_set(alloc, span)


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
    assert span in owner_lab.reusable[C64]
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
    assert not in_a_set(alloc, span)


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
    check_heap(alloc, live)
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
    barrier = threading.Barrier(2, timeout=BARRIER_TIMEOUT)

    def worker(i):
        alloc.attach_thread()
        barrier.wait()
        for _ in range(600):
            p = alloc.malloc(64)
            spans_seen[i].add(span_of(alloc, p).slot)
        alloc.detach_thread()

    ts = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    run_threads(ts)
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
    # The victim is the one block on its span's remote list.
    assert span_of(alloc, victim).remote.load() \
        == (1 << REMOTE_COUNT_SHIFT) | (victim - alloc.arena.base)


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
    alloc.free(blocks[0])                          # a plain remote push
    assert alloc.stats()["adopts"] == adopts_before
    my_word = alloc.frontend._tls.attached[3]
    # The free that crosses the reuse threshold marks the span; the dead
    # owner's set refuses it, and that free adopts it.
    crossing = span.reuse_threshold_blocks + 1 - span.free_block_count()
    for b in blocks[1:crossing]:
        alloc.free(b)
    assert state_of(span) == STATE_FLOATING
    assert alloc.stats()["adopts"] == adopts_before
    alloc.free(blocks[crossing])                   # adopter
    assert alloc.stats()["adopts"] == adopts_before + 1
    assert state_of(span) == STATE_REUSABLE
    assert owner_of(span) == my_word
    check_heap(alloc)
    for b in blocks[crossing + 1:]:
        alloc.free(b)
    assert state_of(span) == STATE_FREE            # reclaimed when empty
    assert alloc.pool.puts.load() >= 1
    check_heap(alloc)


def owner_ref(span):
    return owner_lab_ref(span.epoch.load())


def test_terminate_races_last_free_single_winner(alloc):
    # A span sitting reusable in a terminating LAB while another thread
    # frees its last block: exactly one of floating-marking and
    # reusable->free wins. Run many times to shake interleavings.
    for _ in range(50):
        holder = {}

        def owner_thread():
            try:
                alloc.attach_thread()
                blocks = [alloc.malloc(64) for _ in range(B64)]
                alloc.malloc(64)                   # float it
                for b in blocks[:-1]:
                    alloc.free(b)                  # now reusable
                holder["span"] = span_of(alloc, blocks[0])
                holder["last"] = blocks[-1]
                holder["leftover"] = blocks
            except BaseException:
                barrier.abort()                    # the racer fails now
                raise
            barrier.wait()                         # racer go
            alloc.detach_thread()                  # terminate here

        def racer_thread():
            try:
                alloc.attach_thread()
            except BaseException:
                barrier.abort()
                raise
            barrier.wait()
            alloc.free(holder["last"])
            alloc.detach_thread()

        barrier = threading.Barrier(2, timeout=BARRIER_TIMEOUT)
        t1 = threading.Thread(target=owner_thread)
        t2 = threading.Thread(target=racer_thread)
        run_threads([t1, t2])
        span = holder["span"]
        st = state_of(span)
        assert st in (STATE_FREE, STATE_FLOATING)
        if st == STATE_FLOATING:
            # Orphaned with zero live blocks; anyone freeing later would
            # adopt, but it is consistent: not in any set, not pooled.
            assert not in_a_set(alloc, span)
        # Clean up for the next round: leftover hot-span block.


def make_reusable(span, owner):
    """Walk a fresh span to the reusable state via legal transitions,
    taking it hot for `owner`."""
    assert span.try_transition(span.epoch.load(), STATE_HOT, owner)
    for target in (STATE_FLOATING, STATE_REUSABLE):
        assert span.try_transition(span.epoch.load(), target)

def test_generation_gating_after_lab_reuse(alloc):
    owner = AtomicWord(TERMINATED)
    s = ReusableSet(owner)
    word1 = pack_owner(1, 0)
    word2 = pack_owner(2, 0)
    span = alloc.space.header_for_base(alloc.arena.acquire_virtual_span(),
                                       create=True)
    span.init_for_class(C64)
    make_reusable(span, word1)
    stamp = span.epoch.load()
    owner.store(word1)
    assert s.put(span, stamp)
    assert s.take() == (span, stamp)
    owner.store(TERMINATED)
    assert not s.put(span, stamp)          # closed: LAB terminated
    owner.store(word2)                     # LAB reused, new generation
    assert not s.put(span, stamp)          # stale generation rejected
    adopted = span.try_adopt(stamp, word2)  # re-marked for the new one
    assert adopted and epoch_owner(adopted) == word2
    assert not s.put(span, stamp)          # the old stamp is stale now
    assert s.put(span, adopted)
    assert s.take() == (span, adopted)
    assert s.take() is None


def test_reusable_set_take_order_and_stale_entries(alloc):
    word = pack_owner(1, 0)
    s = ReusableSet(AtomicWord(word))
    spans = []
    for i in range(3):
        sp = alloc.space.header_for_base(alloc.arena.acquire_virtual_span(),
                                         create=True)
        sp.init_for_class(C64)
        make_reusable(sp, word)
        spans.append(sp)
    stamps = [sp.epoch.load() for sp in spans]
    for sp, stamp in zip(spans, stamps):
        assert s.put(sp, stamp)
    assert len(s) == 3 and all(sp in s for sp in spans)
    # A stamp the span's epoch has moved past is refused.
    assert not s.put(spans[0], stamps[0] - 1)
    # Span 1 moves on (reusable -> free): its entry stays, stale, in
    # place. len() counts it, `in` does not.
    assert spans[1].try_transition(stamps[1], STATE_FREE)
    assert len(s) == 3 and spans[1] not in s
    # Back through hot and floating to reusable: the new marking's
    # entry replaces the stale one at the back, as a fresh put would.
    make_reusable(spans[1], word)
    renewed = spans[1].epoch.load()
    assert s.put(spans[1], renewed)
    assert len(s) == 3 and spans[1] in s
    assert [s.take() for _ in range(3)] == [
        (spans[0], stamps[0]), (spans[2], stamps[2]), (spans[1], renewed)]
    assert s.take() is None and len(s) == 0


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
    barrier = threading.Barrier(n, timeout=BARRIER_TIMEOUT)
    ts = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    run_threads(ts)
    stats = alloc.stats()
    assert stats["frees_local"] == 0           # CLAB frees are remote
    assert stats["frees"] == 400
    assert len(alloc.frontend.labs) <= width


def test_clab_latch_is_released_when_the_span_fetch_raises():
    # One arena slot: the 64 B span takes it, so the 1M malloc's fetch
    # raises ArenaExhausted inside _get_span, under the 1M class latch.
    # The malloc returns NULL and leaves the latch free: a thread that
    # lands on the same shared LAB gets its own NULL instead of blocking.
    alloc = make_allocator(lab_mode=CLAB, arena_bytes=2 << 20)
    assert alloc.malloc(64) != 0
    assert alloc.malloc(1 << 20) == 0
    lab = alloc.frontend._tls.attached[0]
    latch = lab.class_latches[class_for_size(1 << 20)]
    assert not latch.locked()
    for _ in range(alloc.frontend.clab_width - 1):
        attach_and_detach(alloc)

    def sharer():
        alloc.attach_thread()
        assert alloc.frontend._tls.attached[0] is lab
        try:
            return alloc.malloc(1 << 20)
        finally:
            alloc.detach_thread()

    assert run_in_thread(sharer) == 0
    assert not latch.locked()


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
    # hand: mark it free and pool it, leaving its set entry stale.
    # get_span must pop the entry, fail its transition from the stamp,
    # skip it, and recover the span via the pool.
    blocks = [alloc.malloc(64) for _ in range(B64)]
    span = span_of(alloc, blocks[0])
    extra = alloc.malloc(64)
    for b in blocks[:T64 + 1]:
        alloc.free(b)
    assert state_of(span) == STATE_REUSABLE and in_a_set(alloc, span)
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
    assert len(alloc.frontend.labs[0].reusable[C64]) == 0


def test_clab_contention_stress_conserves_blocks():
    alloc = make_allocator(lab_mode=CLAB, arena_bytes=1 << 31)
    n = 6                                  # more threads than cores
    errors = []
    # Workers park twice, before freeing what they hold: in between,
    # the main thread checks the sets of live LABs.
    parked = threading.Barrier(n + 1, timeout=60)

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
            parked.wait()
            parked.wait()
            for p in mine:
                alloc.free(p)
        except Exception as exc:           # pragma: no cover
            errors.append(exc)
            parked.abort()
        finally:
            alloc.detach_thread()

    ts = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in ts:
        t.start()
    parked.wait()
    try:
        assert not census(alloc).bad
    finally:
        parked.wait()
    for t in ts:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in ts)
    assert not errors
    stats = alloc.stats()
    assert stats["allocs"] == stats["frees"]
    check_heap(alloc, live=())


def test_set_put_rejects_span_no_longer_reusable(alloc):
    # The window: a deallocator wins floating -> reusable but is delayed
    # before its set insert; meanwhile the last free empties the span,
    # marks it free, and pools it. The late insert must be refused: its
    # stamp is no longer the span's epoch.
    blocks = [alloc.malloc(64) for _ in range(B64)]
    span = span_of(alloc, blocks[0])
    alloc.malloc(64)                            # hot -> floating
    for b in blocks[:T64 + 1]:
        span.free_local(b)                      # backdoor: no state work
    owner_word = alloc.frontend.labs[0].owner_word.load()
    the_set = alloc.frontend.labs[0].reusable[C64]
    e = span.epoch.load()
    assert span.try_transition(e, STATE_REUSABLE)   # marker's half, no put
    stamp = span.epoch.load()
    for b in blocks[T64 + 1:]:
        span.free_local(b)                      # now empty
    e = span.epoch.load()
    assert span.try_transition(e, STATE_FREE)       # racing last free wins
    alloc.pool.put(span, 0)
    assert not the_set.put(span, stamp)         # late insert refused
    assert not in_a_set(alloc, span) and len(the_set) == 0
    # The pooled span must come back intact.
    got = alloc.pool.get(C64, 0)
    assert got is span
    got.init_for_class(C64)
    e = got.epoch.load()
    assert got.try_transition(e, STATE_HOT, owner_word)
    assert not the_set.put(span, stamp)         # hot is refused too


def test_crossing_and_emptying_in_one_free_still_pools(alloc):
    # Single-block spans (1MB class): the first free both crosses the
    # threshold and empties the span. That one call retires it,
    # floating -> free, and pools it.
    a = alloc.malloc(1 << 20)
    span = span_of(alloc, a)
    b = alloc.malloc(1 << 20)               # exhausts + floats span a
    assert state_of(span) == STATE_FLOATING
    puts_before = alloc.pool.puts.load()
    alloc.free(a)
    assert state_of(span) == STATE_FREE
    assert alloc.pool.puts.load() == puts_before + 1
    assert not in_a_set(alloc, span)
    assert len(alloc.frontend.labs[0].reusable[span.size_class]) == 0
    alloc.free(b)


@pytest.mark.parametrize("eager", [True, False], ids=["eager", "lazy"])
@pytest.mark.parametrize("lab_mode", ["tlab", CLAB])
def test_remote_crossing_and_emptying_in_one_free(lab_mode, eager):
    # The remote twin of the case above: another thread's one free of a
    # single-block span both crosses the threshold and empties it.
    alloc = make_allocator(lab_mode=lab_mode, eager_reclaim=eager)
    a = alloc.malloc(1 << 20)
    span = span_of(alloc, a)
    b = alloc.malloc(1 << 20)               # exhausts + floats span a
    assert state_of(span) == STATE_FLOATING
    owner_set = alloc.frontend.labs[0].reusable[span.size_class]
    puts_before = alloc.pool.puts.load()
    run_in_thread(alloc.free, a)
    assert alloc.stats()["frees_remote"] == 1
    if eager:
        assert state_of(span) == STATE_FREE
        assert alloc.pool.puts.load() == puts_before + 1
        assert not in_a_set(alloc, span)
    else:
        assert state_of(span) == STATE_REUSABLE
        assert alloc.pool.puts.load() == puts_before
        assert span in owner_set and len(owner_set) == 1
    alloc.free(b)


def test_settle_runs_only_when_state_can_change(alloc, monkeypatch):
    # The sequence of test_local_frees_drive_floating_to_reusable_to_reuse,
    # counting the frees that enter the state work.
    settled = []
    real_settle = Frontend._settle

    def counting_settle(frontend, span, *args):
        settled.append(span)
        return real_settle(frontend, span, *args)

    monkeypatch.setattr(Frontend, "_settle", counting_settle)
    blocks = [alloc.malloc(64) for _ in range(B64)]
    span = span_of(alloc, blocks[0])
    extra = alloc.malloc(64)            # exhausts + replaces hot
    current = span_of(alloc, extra)
    for b in blocks[:T64]:
        alloc.free(b)
    assert settled == []                # floating, at or below threshold
    assert state_of(span) == STATE_FLOATING
    alloc.free(blocks[T64])
    assert settled == [span]            # the crossing free
    assert state_of(span) == STATE_REUSABLE and in_a_set(alloc, span)

    hot_blocks = [alloc.malloc(64) for _ in range(10)]
    assert {span_of(alloc, p) for p in hot_blocks} == {current}

    def remote_free_into_hot():
        for p in hot_blocks:
            alloc.free(p)

    run_in_thread(remote_free_into_hot)
    assert settled == [span]            # hot: no state work, remote too
    assert state_of(current) == STATE_HOT
    assert current.remote_count() == 10

    for b in blocks[T64 + 1:T64 + 4]:
        alloc.free(b)
    assert settled == [span]            # reusable, not emptied: no call
    assert state_of(span) == STATE_REUSABLE and in_a_set(alloc, span)
    assert alloc.pool.puts.load() == 0
    # Exhaust the current hot span; the reusable one must come back.
    fills = [alloc.malloc(64) for _ in range(B64 - 11)]
    again = alloc.malloc(64)
    assert span_of(alloc, again) is span
    assert state_of(span) == STATE_HOT
    assert not in_a_set(alloc, span)
    assert settled == [span]


# -- retirement: a free that marks and empties a span skips the set -----------

def count_set_ops(monkeypatch):
    """Patch ReusableSet.put to count its calls; returns the dict of
    counts."""
    counts = {"put": 0}

    def counting(name):
        real = getattr(ReusableSet, name)

        def wrapper(the_set, *args):
            counts[name] += 1
            return real(the_set, *args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(ReusableSet, name, counting(name))
    return counts


def floated_span(alloc, size):
    """Fill one span of `size` blocks, then float it with one more
    malloc; returns the span, its blocks and the extra block."""
    blocks = [alloc.malloc(size)
              for _ in range(TABLE[class_for_size(size)].blocks_per_span)]
    extra = alloc.malloc(size)
    span = span_of(alloc, blocks[0])
    assert state_of(span) == STATE_FLOATING
    return span, blocks, extra


def span_edges(alloc, span):
    return [(epoch_state(old), epoch_state(new))
            for slot, old, new in alloc.ledger.trace if slot == span.slot]


@pytest.mark.parametrize("size,remote", [
    (1 << 20, False), (1 << 20, True), (1 << 19, False), (1 << 18, False),
], ids=["1M-own", "1M-remote", "512K-own", "256K-own"])
def test_marking_free_that_empties_skips_the_set(size, remote, monkeypatch):
    # 1, 2 and 4 blocks per span: the free that crosses the threshold
    # is also the one that empties the span, and retires it with one
    # floating -> free, never marking it.
    alloc = make_allocator(instrument=True)
    span, blocks, extra = floated_span(alloc, size)
    for b in blocks[:-1]:
        alloc.free(b)
    assert state_of(span) == STATE_FLOATING
    counts = count_set_ops(monkeypatch)
    puts_before = alloc.pool.puts.load()
    if remote:
        run_in_thread(alloc.free, blocks[-1])
        assert alloc.stats()["frees_remote"] == 1
    else:
        alloc.free(blocks[-1])
    assert counts == {"put": 0}
    assert alloc.pool.puts.load() == puts_before + 1
    assert state_of(span) == STATE_FREE and not in_a_set(alloc, span)
    assert len(alloc.frontend.labs[0].reusable[span.size_class]) == 0
    validate_transition_trace(alloc)
    assert span_edges(alloc, span)[-2:] == [
        (STATE_HOT, STATE_FLOATING), (STATE_FLOATING, STATE_FREE)]
    alloc.free(extra)


def test_lazy_marking_free_that_empties_stays_in_the_set(monkeypatch):
    alloc = make_allocator(eager_reclaim=False)
    span, blocks, extra = floated_span(alloc, 1 << 20)
    counts = count_set_ops(monkeypatch)
    alloc.free(blocks[0])
    assert counts == {"put": 1}
    assert alloc.pool.puts.load() == 0
    assert state_of(span) == STATE_REUSABLE
    assert span in alloc.frontend.labs[0].reusable[span.size_class]


def test_crossing_then_emptying_uses_the_set(monkeypatch):
    # 128K: 8 blocks, threshold 6. The 7th free crosses, the 8th empties.
    alloc = make_allocator()
    span, blocks, extra = floated_span(alloc, 1 << 17)
    for b in blocks[:6]:
        alloc.free(b)
    counts = count_set_ops(monkeypatch)
    alloc.free(blocks[6])
    assert counts == {"put": 1}
    assert state_of(span) == STATE_REUSABLE and in_a_set(alloc, span)
    alloc.free(blocks[7])
    assert counts == {"put": 1}
    assert alloc.pool.puts.load() == 1
    assert state_of(span) == STATE_FREE and not in_a_set(alloc, span)
    # Its entry stays behind, stale, until the owner's take skips it.
    the_set = alloc.frontend.labs[0].reusable[span.size_class]
    assert list(the_set.stamps) == [span] and span not in the_set


def test_marking_free_loses_retirement_to_racing_last_free(monkeypatch):
    # 128K: 8 blocks, threshold 6. The 7th free marks the span; between
    # its marking and its emptiness test another thread frees the 8th
    # block, sees the span reusable and empty, and pools it. The marking
    # free then finds the span empty too, and its reusable -> free must
    # lose, so the span is pooled once.
    alloc = make_allocator(instrument=True)
    span, blocks, extra = floated_span(alloc, 1 << 17)
    for b in blocks[:6]:
        alloc.free(b)
    real_is_empty = SpanHeader.is_empty
    racer = []

    def is_empty_after_racer(s):
        if s is span and not racer:
            racer.append(True)      # first: the racer's free calls this too
            run_in_thread(alloc.free, blocks[7])
        return real_is_empty(s)

    monkeypatch.setattr(SpanHeader, "is_empty", is_empty_after_racer)
    counts = count_set_ops(monkeypatch)
    alloc.free(blocks[6])
    assert racer and alloc.stats()["frees_remote"] == 1
    assert counts == {"put": 0}
    assert alloc.pool.puts.load() == 1
    assert pooled_slots(alloc.pool) == [span.slot]
    assert state_of(span) == STATE_FREE and not in_a_set(alloc, span)
    validate_transition_trace(alloc)
    alloc.free(extra)


def retire_race_setup(monkeypatch):
    """A floated 128K span (8 blocks, threshold 6) freed down to its
    threshold on an instrumented allocator: the next free crosses the
    threshold, the one after empties the span. Returns the allocator,
    the span, its blocks, the extra block and the set-put counts."""
    alloc = make_allocator(instrument=True)
    span, blocks, extra = floated_span(alloc, 1 << 17)
    for b in blocks[:T128K]:
        alloc.free(b)
    assert state_of(span) == STATE_FLOATING
    return alloc, span, blocks, extra, count_set_ops(monkeypatch)


def assert_retired_once(alloc, span, extra, counts):
    assert counts == {"put": 0}
    assert pooled_slots(alloc.pool) == [span.slot]
    assert alloc.pool.puts.load() == 1
    assert state_of(span) == STATE_FREE and not in_a_set(alloc, span)
    validate_transition_trace(alloc)
    alloc.free(extra)
    check_heap(alloc, live=())


def test_last_free_retires_before_the_crossing_free_marks(monkeypatch):
    # The crossing (7th) free is held at its floating -> reusable while
    # the last free, from the same floating snapshot, retires the span
    # floating -> free. The marking then fails, and nothing else runs.
    alloc, span, blocks, extra, counts = retire_race_setup(monkeypatch)
    ran = hold(monkeypatch, SpanHeader, "try_transition",
               lambda sp, observed, to, owner=None:
                   sp is span and to == STATE_REUSABLE,
               lambda: run_in_thread(alloc.free, blocks[T128K + 1]))
    alloc.free(blocks[T128K])
    assert ran and alloc.stats()["frees_remote"] == 1
    assert span_edges(alloc, span)[-2:] == [
        (STATE_HOT, STATE_FLOATING), (STATE_FLOATING, STATE_FREE)]
    assert_retired_once(alloc, span, extra, counts)


def test_crossing_free_marks_before_the_last_free_retires(monkeypatch):
    # The crossing (7th) free is held at its floating -> reusable while
    # the last free pushes, counts the span empty and reaches its
    # floating -> free, where it is held until the crossing free
    # returns. The marking wins, its fresh emptiness test sees the last
    # push and retires the span reusable -> free; the last free's
    # retire then fails on its stale snapshot.
    alloc, span, blocks, extra, counts = retire_race_setup(monkeypatch)
    real = SpanHeader.try_transition
    main = threading.current_thread()
    # `settled` is set when the last free reaches its hooked retire
    # (`reached`) or ends without reaching it, so a free path that never
    # gets there fails the marking at once instead of at the bound.
    reached, settled, release = \
        threading.Event(), threading.Event(), threading.Event()
    racer = []

    def held(sp, observed, to, owner=None):
        if sp is span and to == STATE_REUSABLE and not racer:
            racer.append(other.submit(alloc.free, blocks[T128K + 1]))
            racer[0].add_done_callback(lambda _: settled.set())
            assert settled.wait(30)
            assert reached.is_set(), \
                "the last free ended without reaching its floating -> free"
        elif sp is span and to == STATE_FREE \
                and epoch_state(observed) == STATE_FLOATING \
                and threading.current_thread() is not main:
            reached.set()
            settled.set()
            assert release.wait(30)
        return real(sp, observed, to, owner)

    monkeypatch.setattr(SpanHeader, "try_transition", held)
    with ThreadPoolExecutor(max_workers=1) as other:
        try:
            alloc.free(blocks[T128K])
            assert state_of(span) == STATE_FREE
        finally:
            release.set()
        assert racer and racer[0].result(timeout=30) is None
        other.submit(alloc.detach_thread).result(timeout=30)
    assert alloc.stats()["frees_remote"] == 1
    assert span_edges(alloc, span)[-3:] == [
        (STATE_HOT, STATE_FLOATING), (STATE_FLOATING, STATE_REUSABLE),
        (STATE_REUSABLE, STATE_FREE)]
    assert_retired_once(alloc, span, extra, counts)


def test_span_retirement_under_dense_interleaving():
    # Spans of 1..16 blocks, freed by other threads, with preemption
    # inside the retire path: the free that marks a span and the free
    # that empties it can be one call or two racing ones. Each emptied
    # span must end up pooled exactly once and in no reusable set.
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        alloc = make_allocator(arena_bytes=1 << 32, instrument=True)
        n = 4                                   # more threads than cores
        inboxes = [[] for _ in range(n)]
        locks = [threading.Lock() for _ in range(n)]
        errors = []
        # Workers park twice before detaching: in between, the main
        # thread checks the sets of live LABs.
        parked = threading.Barrier(n + 1, timeout=60)

        def worker(tid):
            rng = random.Random(9100 + tid)
            alloc.attach_thread()
            try:
                for _ in range(500):
                    if rng.random() < 0.5:
                        p = alloc.malloc(rng.choice(
                            (1 << 14, 1 << 17, 1 << 18, 1 << 19, 1 << 20)))
                        target = rng.randrange(n)
                        with locks[target]:
                            inboxes[target].append(p)
                    else:
                        with locks[tid]:
                            mine, inboxes[tid][:] = inboxes[tid][:], []
                        for p in mine:
                            alloc.free(p)
                parked.wait()
                parked.wait()
            except Exception as exc:            # pragma: no cover
                errors.append(exc)
                parked.abort()
            finally:
                alloc.detach_thread()

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n)]
        for t in threads:
            t.start()
        parked.wait()
        try:
            assert not census(alloc).bad
        finally:
            parked.wait()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        for box in inboxes:
            for p in box:
                alloc.free(p)
        check_heap(alloc, live=())
    finally:
        sys.setswitchinterval(old)


def churn_span_rounds(alloc, size, rounds):
    """`rounds` times: malloc one span's worth of `size` blocks, then
    free the previous round's. Then free the last round."""
    per_round = TABLE[class_for_size(size)].blocks_per_span
    prev = []
    for _ in range(rounds):
        cur = [alloc.malloc(size) for _ in range(per_round)]
        for p in prev:
            alloc.free(p)
        prev = cur
    for p in prev:
        alloc.free(p)


@pytest.mark.parametrize("size", [64, 1 << 20])
def test_full_reuse_percent_does_not_leak_spans(size):
    # At reuse_percent=100 the threshold must still sit below
    # blocks_per_span, or an emptied floating span never goes reusable
    # and never returns to the pool: every round took a new arena span.
    # Every round empties its span, so 100 must do what 80 does.
    results = []
    for pct in (80, 100):
        alloc = make_allocator(reuse_percent=pct, arena_bytes=1 << 30)
        churn_span_rounds(alloc, size, rounds=200)
        check_heap(alloc, live=())
        stats = alloc.stats()
        results.append((stats["arena_spans"], stats["pool_puts"],
                        alloc.committed_bytes))
    assert results[1] == results[0]
    arena_spans, pool_puts, committed = results[1]
    assert arena_spans == 2 and pool_puts == 199
    assert committed <= 2 * TABLE[class_for_size(size)].real_span_size
    assert all(h.reuse_threshold_blocks < h.blocks_per_span
               for h in alloc.space.iter_headers())


# -- set hand-offs: one conditional replace from the marking's stamp ----------
#
# Each test holds one hand-off of a reusable span open in its window, and
# meanwhile sends the span round its life cycle through another LAB: it
# is emptied, pooled, reused there and marked reusable again. It reads as
# reusable once more, so only the stamp tells the two markings apart.

B128K = TABLE[class_for_size(1 << 17)].blocks_per_span     # 8
T128K = B128K * 80 // 100                                   # 6


def send_round(other, alloc, span, last_blocks):
    """On executor `other`'s thread, attached to its own LAB: free
    `last_blocks`, the last live blocks of the 128K `span`, which
    empties and pools it; take it back from the pool, fill and float
    it, and free all but one of its blocks so that it is reusable in
    that LAB's set. Returns the blocks left live."""
    def go():
        for p in last_blocks:
            alloc.free(p)
        assert state_of(span) == STATE_FREE
        mine = [alloc.malloc(1 << 17) for _ in range(B128K + 1)]
        assert {span_of(alloc, p) for p in mine[:-1]} == {span}
        for p in mine[1:-1]:
            alloc.free(p)
        assert state_of(span) == STATE_REUSABLE
        return [mine[0], mine[-1]]
    return other.submit(go).result(timeout=30)


def hold(monkeypatch, cls, name, when, run):
    """Patch method `name` of `cls` so that its first call whose
    arguments satisfy `when` calls `run()` before it goes on. Returns a
    list that then holds run's result."""
    real = getattr(cls, name)
    ran = []

    def held(*args):
        if not ran and when(*args):
            ran.append(None)
            ran[0] = run()
        return real(*args)

    monkeypatch.setattr(cls, name, held)
    return ran


def test_late_set_put_is_refused_after_the_span_went_round(monkeypatch):
    # The window between a free's floating -> reusable marking and its
    # set put. The late put must not add the span to LAB 0's set while
    # it is reusable in LAB 1's.
    alloc = make_allocator(instrument=True)
    alloc.attach_thread()                               # LAB 0
    with ThreadPoolExecutor(max_workers=1) as other:
        other.submit(alloc.attach_thread).result(timeout=30)   # LAB 1
        span, blocks, extra = floated_span(alloc, 1 << 17)
        for b in blocks[:T128K]:
            alloc.free(b)
        ran = hold(monkeypatch, ReusableSet, "put",
                   lambda the_set, sp, stamp: sp is span,
                   lambda: send_round(other, alloc, span, blocks[T128K + 1:]))
        alloc.free(blocks[T128K])           # marks, then puts late
        heap = check_heap(alloc)
        assert ran and heap.holders[span.slot] == [1] and heap.entries == 1
        assert state_of(span) == STATE_REUSABLE
        for p in ran[0]:
            other.submit(alloc.free, p).result(timeout=30)
        other.submit(alloc.detach_thread).result(timeout=30)
    alloc.free(extra)


def test_set_take_skips_a_span_that_went_round(monkeypatch):
    # The window between the owner's take of a set entry and its
    # reusable -> hot. The owner must not make the span hot while it is
    # reusable in LAB 1's set.
    alloc = make_allocator(instrument=True)
    alloc.attach_thread()                               # LAB 0
    with ThreadPoolExecutor(max_workers=1) as other:
        other.submit(alloc.attach_thread).result(timeout=30)   # LAB 1
        span, blocks, extra = floated_span(alloc, 1 << 17)
        for b in blocks[:T128K + 1]:
            alloc.free(b)
        assert state_of(span) == STATE_REUSABLE
        assert census(alloc).holders[span.slot] == [0]
        ran = hold(monkeypatch, SpanHeader, "try_transition",
                   lambda sp, observed, to, owner=None:
                       sp is span and to == STATE_HOT,
                   lambda: send_round(other, alloc, span, blocks[T128K + 1:]))
        # Fill the hot span; the next malloc fetches from the set.
        fills = [alloc.malloc(1 << 17) for _ in range(B128K)]
        heap = check_heap(alloc)
        assert ran and heap.holders[span.slot] == [1] and heap.entries == 1
        assert state_of(span) == STATE_REUSABLE
        assert all(span_of(alloc, p) is not span for p in fills)
        for p in ran[0]:
            other.submit(alloc.free, p).result(timeout=30)
        other.submit(alloc.detach_thread).result(timeout=30)
    for p in fills + [extra]:
        alloc.free(p)


def test_lab_termination_skips_a_span_that_went_round(monkeypatch):
    # LAB 0 terminates with a reusable span in its set: the window
    # between the take and the reusable -> floating. Termination must
    # not float the span while it is reusable in LAB 1's set.
    alloc = make_allocator(instrument=True)
    alloc.attach_thread()                               # LAB 0
    with ThreadPoolExecutor(max_workers=1) as other:
        other.submit(alloc.attach_thread).result(timeout=30)   # LAB 1
        span, blocks, extra = floated_span(alloc, 1 << 17)
        for b in blocks[:T128K + 1]:
            alloc.free(b)
        assert state_of(span) == STATE_REUSABLE
        assert census(alloc).holders[span.slot] == [0]
        ran = hold(monkeypatch, SpanHeader, "try_transition",
                   lambda sp, observed, to, owner=None:
                       sp is span and to == STATE_FLOATING,
                   lambda: send_round(other, alloc, span, blocks[T128K + 1:]))
        alloc.detach_thread()               # terminates LAB 0
        heap = check_heap(alloc)
        assert ran and heap.holders[span.slot] == [1] and heap.entries == 1
        assert state_of(span) == STATE_REUSABLE
        for p in ran[0]:
            other.submit(alloc.free, p).result(timeout=30)
        other.submit(alloc.detach_thread).result(timeout=30)
    alloc.free(extra)


def test_adopting_free_that_marks_puts_in_adopters_set():
    # A free that adopts an orphan and crosses its threshold in the same
    # call marks it reusable for the adopter: the dead owner's set is
    # closed and would refuse it, leaving it reusable in no set.
    alloc = make_allocator(instrument=True)
    alloc.attach_thread()                               # LAB 0

    def producer():
        alloc.attach_thread()                           # LAB 1
        span, blocks, extra = floated_span(alloc, 1 << 17)
        for b in blocks[:T128K]:
            alloc.free(b)                               # at the threshold
        alloc.detach_thread()                           # orphans the span
        return span, blocks[T128K:], extra

    span, left, extra = run_in_thread(producer)
    assert state_of(span) == STATE_FLOATING
    adopts = alloc.stats()["adopts"]
    alloc.free(left[0])                                 # adopts and marks
    assert alloc.stats()["adopts"] == adopts + 1
    assert state_of(span) == STATE_REUSABLE
    assert owner_of(span) == alloc.frontend.labs[0].owner_word.load()
    heap = check_heap(alloc)
    assert heap.holders[span.slot] == [0] and heap.entries == 1
    arena_spans = alloc.stats()["arena_spans"]
    reused = [alloc.malloc(1 << 17) for _ in range(T128K)]
    assert {span_of(alloc, p) for p in reused} == {span}
    assert alloc.stats()["arena_spans"] == arena_spans
    for p in reused + left[1:] + [extra]:
        alloc.free(p)
    validate_transition_trace(alloc)


def test_refused_set_put_is_adopted_by_the_freeing_thread(monkeypatch):
    # The owner LAB terminates between a remote free's floating ->
    # reusable marking and its set put. Its closed set refuses the
    # entry: the freeing thread adopts the span into its own set rather
    # than leave it reusable in no set.
    alloc = make_allocator(instrument=True)
    alloc.attach_thread()                               # LAB 0
    with ThreadPoolExecutor(max_workers=1) as other:
        other.submit(alloc.attach_thread).result(timeout=30)   # LAB 1
        span, blocks, extra = other.submit(
            floated_span, alloc, 1 << 17).result(timeout=30)
        for b in blocks[:T128K]:
            alloc.free(b)                               # at the threshold
        assert state_of(span) == STATE_FLOATING
        ran = hold(monkeypatch, ReusableSet, "put",
                   lambda the_set, sp, stamp: sp is span,
                   lambda: other.submit(alloc.detach_thread).result(30))
        adopts = alloc.stats()["adopts"]
        alloc.free(blocks[T128K])           # marks; LAB 1 ends before the put
        assert ran and alloc.frontend.labs[1].owner_word.load() == TERMINATED
    assert state_of(span) == STATE_REUSABLE
    assert alloc.stats()["adopts"] == adopts + 1
    assert owner_of(span) == alloc.frontend.labs[0].owner_word.load()
    heap = check_heap(alloc)
    assert heap.holders[span.slot] == [0] and heap.entries == 1
    arena_spans = alloc.stats()["arena_spans"]
    again = alloc.malloc(1 << 17)
    assert span_of(alloc, again) is span
    assert alloc.stats()["arena_spans"] == arena_spans
    for p in [again] + blocks[T128K + 1:] + [extra]:
        alloc.free(p)
    validate_transition_trace(alloc)


def test_marking_during_termination_is_adopted_by_the_freeing_thread(
        monkeypatch):
    # LAB 1 terminates while a remote free marks one of its floating
    # spans: the marking lands after termination's first step (here at
    # its hot -> floating of LAB 1's hot span). The owner word must
    # already read TERMINATED there, so that the freeing thread adopts
    # the span into its own set rather than leave it in no set.
    alloc = make_allocator(instrument=True)
    alloc.attach_thread()                               # LAB 0
    with ThreadPoolExecutor(max_workers=1) as other:
        other.submit(alloc.attach_thread).result(timeout=30)   # LAB 1
        span, blocks, extra = other.submit(
            floated_span, alloc, 1 << 17).result(timeout=30)
        hot = span_of(alloc, extra)
        for b in blocks[:T128K]:
            alloc.free(b)                               # at the threshold
        at_hook, marked = threading.Event(), threading.Event()

        def wait_for_marking():
            at_hook.set()
            assert marked.wait(30)

        ran = hold(monkeypatch, SpanHeader, "try_transition",
                   lambda sp, observed, to, owner=None:
                       sp is hot and to == STATE_FLOATING,
                   wait_for_marking)
        adopts = alloc.stats()["adopts"]
        detached = other.submit(alloc.detach_thread)
        try:
            assert at_hook.wait(30)
            alloc.free(blocks[T128K])           # marks while LAB 1 ends
        finally:
            marked.set()
        detached.result(timeout=30)
        assert ran
    assert state_of(span) == STATE_REUSABLE
    assert alloc.stats()["adopts"] == adopts + 1
    assert owner_of(span) == alloc.frontend.labs[0].owner_word.load()
    heap = check_heap(alloc)
    assert heap.holders[span.slot] == [0] and heap.entries == 1
    arena_spans = alloc.stats()["arena_spans"]
    again = alloc.malloc(1 << 17)
    assert span_of(alloc, again) is span
    assert alloc.stats()["arena_spans"] == arena_spans
    for p in [again] + blocks[T128K + 1:] + [extra]:
        alloc.free(p)
    validate_transition_trace(alloc)


B32K = TABLE[class_for_size(1 << 15)].blocks_per_span       # 16
T32K = B32K * 80 // 100                                     # 12


def test_only_the_marking_free_adopts_a_refused_span(monkeypatch):
    # LAB 0 marks LAB 1's floating span; LAB 1 terminates before the
    # put, and LAB 2 frees a block into the span meanwhile. LAB 2's free
    # is a plain remote push: only a marking free adopts. LAB 1's set
    # refuses LAB 0's put, so LAB 0 adopts the span into its own set.
    alloc = make_allocator(instrument=True)
    alloc.attach_thread()                               # LAB 0
    with ThreadPoolExecutor(max_workers=1) as one, \
            ThreadPoolExecutor(max_workers=1) as two:
        one.submit(alloc.attach_thread).result(timeout=30)     # LAB 1
        two.submit(alloc.attach_thread).result(timeout=30)     # LAB 2
        span, blocks, extra = one.submit(
            floated_span, alloc, 1 << 15).result(timeout=30)
        for b in blocks[:T32K]:
            alloc.free(b)                               # at the threshold
        assert state_of(span) == STATE_FLOATING

        def free_from_lab_2():
            one.submit(alloc.detach_thread).result(timeout=30)
            two.submit(alloc.free, blocks[T32K + 1]).result(timeout=30)

        ran = hold(monkeypatch, ReusableSet, "put",
                   lambda the_set, sp, stamp: sp is span,
                   free_from_lab_2)
        adopts = alloc.stats()["adopts"]
        alloc.free(blocks[T32K])            # marks; LAB 2 pushes meanwhile
        assert ran
        assert alloc.stats()["adopts"] == adopts + 1
        assert state_of(span) == STATE_REUSABLE
        assert owner_of(span) == alloc.frontend.labs[0].owner_word.load()
        heap = check_heap(alloc)
        assert heap.holders[span.slot] == [0] and heap.entries == 1
        arena_spans = alloc.stats()["arena_spans"]
        again = alloc.malloc(1 << 15)
        assert span_of(alloc, again) is span
        assert alloc.stats()["arena_spans"] == arena_spans
        for p in [again] + blocks[T32K + 2:] + [extra]:
            alloc.free(p)
        two.submit(alloc.detach_thread).result(timeout=30)
    validate_transition_trace(alloc)


def test_marking_free_reads_its_owner_after_its_epoch(monkeypatch):
    # Just before the main thread's free reads the span's epoch, LAB 2
    # adopts LAB 1's orphan, takes it hot, floats it and frees it back
    # to the threshold. The free's one load of the epoch word reads the
    # state and the owner together, so the owner is LAB 2 and the free's
    # marking puts the span in LAB 2's set. An owner read before that
    # epoch would be LAB 1's dead one: its set refuses the put and the
    # adoption fails, and the span stays reusable in no set.
    alloc = make_allocator(instrument=True)
    alloc.attach_thread()                               # LAB 0
    main = threading.current_thread()
    with ThreadPoolExecutor(max_workers=1) as one, \
            ThreadPoolExecutor(max_workers=1) as two:
        one.submit(alloc.attach_thread).result(timeout=30)     # LAB 1
        two.submit(alloc.attach_thread).result(timeout=30)     # LAB 2
        span, blocks, extra = one.submit(
            floated_span, alloc, 1 << 15).result(timeout=30)
        for b in blocks[:T32K]:
            alloc.free(b)                               # at the threshold
        one.submit(alloc.detach_thread).result(timeout=30)     # orphans it
        adopts = alloc.stats()["adopts"]

        def adopt_and_reuse():
            alloc.free(blocks[T32K])                    # marks and adopts
            assert owner_of(span) \
                == alloc.frontend.labs[2].owner_word.load()
            got = [alloc.malloc(1 << 15) for _ in range(B32K - 2)]
            assert {span_of(alloc, p) for p in got[:-1]} == {span}
            assert state_of(span) == STATE_FLOATING    # exhausted
            for p in got[:T32K]:
                alloc.free(p)                           # at the threshold
            return got[T32K:]

        ran = hold(monkeypatch, AtomicWord, "load",
                   lambda word: word is span.epoch
                   and threading.current_thread() is main,
                   lambda: two.submit(adopt_and_reuse).result(timeout=30))
        alloc.free(blocks[T32K + 1])                    # marks
        assert ran
        assert state_of(span) == STATE_REUSABLE
        assert alloc.stats()["adopts"] == adopts + 1
        heap = check_heap(alloc)
        assert heap.holders[span.slot] == [2] and heap.entries == 1
        arena_spans = alloc.stats()["arena_spans"]
        # LAB 2 serves from the hot span that got[-1] came from first.
        again = two.submit(
            lambda: [alloc.malloc(1 << 15) for _ in range(B32K)]).result(30)
        assert span_of(alloc, again[-1]) is span
        assert alloc.stats()["arena_spans"] == arena_spans
        for p in again + ran[0] + blocks[T32K + 2:] + [extra]:
            two.submit(alloc.free, p).result(timeout=30)
        two.submit(alloc.detach_thread).result(timeout=30)
    validate_transition_trace(alloc)


def test_late_adoption_leaves_the_spans_next_life_alone(monkeypatch):
    # LAB 0 marks LAB 1's floating span and is held before its put.
    # Meanwhile the span empties and is pooled, LAB 1 takes it back
    # under the same owner word and terminates, and LAB 2 marks the span
    # in this next life and is held before its own put. LAB 1's set
    # refuses both puts. An adoption that compared the owner alone would
    # let LAB 0 take the span under its stale stamp, so that LAB 2's
    # adoption failed and the span stayed reusable in no set; an
    # adoption replaces the whole epoch word from the marking's stamp,
    # counter included, so LAB 0's fails and LAB 2 adopts the span.
    alloc = make_allocator(instrument=True)
    alloc.attach_thread()                               # LAB 0
    main = threading.current_thread()
    with ThreadPoolExecutor(max_workers=1) as one, \
            ThreadPoolExecutor(max_workers=1) as two:
        one.submit(alloc.attach_thread).result(timeout=30)     # LAB 1
        two.submit(alloc.attach_thread).result(timeout=30)     # LAB 2
        span, blocks, extra = one.submit(
            floated_span, alloc, 1 << 15).result(timeout=30)
        for b in blocks[:T32K]:
            alloc.free(b)                               # at the threshold
        at_second_put, second_go = threading.Event(), threading.Event()

        def refill():
            got = []
            while len(got) < B32K:
                p = alloc.malloc(1 << 15)
                if span_of(alloc, p) is span:
                    got.append(p)
            alloc.detach_thread()                       # floats the span
            return got

        def next_life():
            for b in blocks[T32K + 1:]:
                one.submit(alloc.free, b).result(timeout=30)
            assert state_of(span) == STATE_FREE         # pooled
            got = one.submit(refill).result(timeout=30)
            assert state_of(span) == STATE_FLOATING
            for p in got[:T32K]:
                two.submit(alloc.free, p).result(timeout=30)
            marking = two.submit(alloc.free, got[T32K])
            assert at_second_put.wait(30)
            return got, marking

        def wait_at_second_put():
            at_second_put.set()
            assert second_go.wait(30)

        first = hold(monkeypatch, ReusableSet, "put",
                     lambda the_set, sp, stamp: sp is span
                     and threading.current_thread() is main, next_life)
        second = hold(monkeypatch, ReusableSet, "put",
                      lambda the_set, sp, stamp: sp is span
                      and threading.current_thread() is not main,
                      wait_at_second_put)
        adopts = alloc.stats()["adopts"]
        try:
            alloc.free(blocks[T32K])                    # marks, then held
        finally:
            second_go.set()
        got, marking = first[0]
        marking.result(timeout=30)
        assert second
        assert state_of(span) == STATE_REUSABLE
        assert owner_of(span) == alloc.frontend.labs[2].owner_word.load()
        assert alloc.stats()["adopts"] == adopts + 1
        heap = check_heap(alloc)
        assert heap.holders[span.slot] == [2] and heap.entries == 1
        arena_spans = alloc.stats()["arena_spans"]
        again = two.submit(alloc.malloc, 1 << 15).result(timeout=30)
        assert span_of(alloc, again) is span
        assert alloc.stats()["arena_spans"] == arena_spans
        for p in [again] + got[T32K + 1:]:
            two.submit(alloc.free, p).result(timeout=30)
        two.submit(alloc.detach_thread).result(timeout=30)
    validate_transition_trace(alloc)


def test_last_free_that_read_the_marking_loses_to_the_adoption(monkeypatch):
    # LAB 0 marks LAB 1's orphaned 32K span; LAB 1's set refuses the put
    # and LAB 0 is held before its adoption. Meanwhile LAB 2 frees the
    # span's other blocks, and its free of the last one snapshots the
    # marking's word and is held before its push until LAB 0's free has
    # returned. The adoption moved the epoch past that word, so the last
    # free's retire fails: the span stays empty and reusable in LAB 0's
    # set, and LAB 0's next malloc of the class reuses it.
    alloc = make_allocator(instrument=True)
    alloc.attach_thread()                               # LAB 0
    with ThreadPoolExecutor(max_workers=1) as one, \
            ThreadPoolExecutor(max_workers=1) as two:
        one.submit(alloc.attach_thread).result(timeout=30)     # LAB 1
        two.submit(alloc.attach_thread).result(timeout=30)     # LAB 2
        span, blocks, extra = one.submit(
            floated_span, alloc, 1 << 15).result(timeout=30)
        for b in blocks[:T32K]:
            alloc.free(b)                               # at the threshold
        one.submit(alloc.detach_thread).result(timeout=30)     # orphans it
        last = blocks[-1]
        at_push, push_go = threading.Event(), threading.Event()

        def wait_at_push():
            at_push.set()
            assert push_go.wait(30)

        def free_the_rest():
            for b in blocks[T32K + 1:-1]:
                two.submit(alloc.free, b).result(timeout=30)
            last_free = two.submit(alloc.free, last)
            assert at_push.wait(30)
            return last_free

        pushed = hold(monkeypatch, SpanHeader, "free_remote",
                      lambda sp, addr: addr == last, wait_at_push)
        adopting = hold(monkeypatch, SpanHeader, "try_adopt",
                        lambda sp, stamp, owner: sp is span, free_the_rest)
        stats = alloc.stats()
        try:
            alloc.free(blocks[T32K])            # marks, then adopts late
        finally:
            push_go.set()
        adopting[0].result(timeout=30)
        assert pushed
        assert state_of(span) == STATE_REUSABLE and span.is_empty()
        assert owner_of(span) == alloc.frontend.labs[0].owner_word.load()
        after = alloc.stats()
        assert after["adopts"] == stats["adopts"] + 1
        assert after["pool_puts"] == stats["pool_puts"]     # not pooled
        heap = check_heap(alloc)
        assert heap.holders[span.slot] == [0] and heap.entries == 1
        again = alloc.malloc(1 << 15)
        assert span_of(alloc, again) is span and state_of(span) == STATE_HOT
        assert alloc.stats()["arena_spans"] == after["arena_spans"]
        for p in (again, extra):
            alloc.free(p)
        two.submit(alloc.detach_thread).result(timeout=30)
    check_heap(alloc)


# -- the attachment record caches its LAB's owner word ------------------------

def attach_and_detach(alloc):
    run_in_thread(lambda: (alloc.attach_thread(), alloc.detach_thread()))


def attached_word(alloc):
    """Attach the calling thread; the owner word its record holds,
    checked against its LAB's current one."""
    alloc.attach_thread()
    lab, _, _, mine, _ = alloc.frontend._tls.attached
    assert mine == lab.owner_word.load() != TERMINATED
    return mine


@pytest.mark.parametrize("lab_mode", ["tlab", CLAB])
def test_attachment_record_holds_the_current_owner_word(lab_mode):
    alloc = make_allocator(lab_mode=lab_mode)
    width = alloc.frontend.clab_width
    first = attached_word(alloc)                        # tid 0: LAB 0
    p, q = alloc.malloc(64), alloc.malloc(64)
    span = span_of(alloc, p)
    alloc.detach_thread()                               # orphans the span
    for _ in range(width - 1):                          # tids 1..width-1
        attach_and_detach(alloc)
    second = attached_word(alloc)                       # tid width: LAB 0
    assert second & OWNER_REF_MASK == first & OWNER_REF_MASK == 0
    assert second >> 48 > first >> 48                   # a new generation
    for _ in range(width - 1):
        attach_and_detach(alloc)

    def sharer():
        # tid 2 * width: LAB 0 again in CLAB mode, shared with the main
        # thread; a LAB of its own in TLAB mode.
        word = attached_word(alloc)
        alloc.detach_thread()
        return word

    other = run_in_thread(sharer)
    assert (other == second) == (lab_mode == CLAB)
    adopts = alloc.stats()["adopts"]
    alloc.free(p)                       # into its predecessor's span
    assert alloc.stats()["adopts"] == adopts + 1
    assert owner_of(span) == second
    alloc.free(q)
    assert state_of(span) == STATE_FREE


# -- own-span fast path: same transitions, memory and counts ----------------

SEQUENCE_SIZES = [64, 64, 256, 1 << 19]     # 508, 127 and 2 blocks per span


def own_span_sequence(alloc, seed=11):
    """Grow and shrink a live set from one thread, checking the oracles
    after every phase. Returns how many frees found their span hot,
    floating or reusable, and how many frees both crossed the threshold
    and emptied their span."""
    rng = random.Random(seed)
    live = []
    seen = {STATE_HOT: 0, STATE_FLOATING: 0, STATE_REUSABLE: 0,
            "cross_and_empty": 0}
    for target in (1500, 100, 1200, 300, 0):
        while len(live) < target:
            p = alloc.malloc(rng.choice(SEQUENCE_SIZES))
            assert p
            live.append(p)
        while len(live) > target:
            p = live.pop(rng.randrange(len(live)))
            span = span_of(alloc, p)
            before = state_of(span)
            alloc.free(p)
            seen[before] += 1
            if before == STATE_FLOATING and state_of(span) == STATE_FREE:
                seen["cross_and_empty"] += 1
        check_heap(alloc, live)
    return seen


# committed_bytes and stats() of own_span_sequence, recorded from the
# implementation before the own-span fast path existed.
SEQUENCE_BEFORE = {
    "tlab": (966656, {
        "allocs": 2600, "frees_local": 2600, "frees_remote": 0,
        "pool_fetches": 341, "set_fetches": 3, "drains": 0, "adopts": 0,
        "max_fetches_per_alloc": 1, "frees": 2600,
        "remote_free_fraction": 0.0, "pool_puts": 338, "pool_gets": 142,
        "arena_spans": 199, "stack_pushes": 338, "stack_pops": 142,
        "stack_retries": 0, "frag_bytes": 1113600}),
    CLAB: (962560, {
        "allocs": 2600, "frees_local": 0, "frees_remote": 2600,
        "pool_fetches": 342, "set_fetches": 3, "drains": 4, "adopts": 0,
        "max_fetches_per_alloc": 1, "frees": 2600,
        "remote_free_fraction": 1.0, "pool_puts": 339, "pool_gets": 143,
        "arena_spans": 199, "stack_pushes": 339, "stack_pops": 143,
        "stack_retries": 0, "frag_bytes": 1113600}),
}


@pytest.mark.parametrize("lab_mode", ["tlab", CLAB])
def test_own_span_sequence_matches_slow_path_results(lab_mode):
    alloc = make_allocator(lab_mode=lab_mode, arena_bytes=1 << 31,
                           instrument=True)
    seen = own_span_sequence(alloc)
    assert seen[STATE_HOT] and seen[STATE_FLOATING] \
        and seen[STATE_REUSABLE] and seen["cross_and_empty"]
    committed, stats = SEQUENCE_BEFORE[lab_mode]
    assert alloc.committed_bytes == committed
    assert alloc.stats() == stats
    # CLAB frees always take the remote path, TLAB own-span frees never.
    assert stats["frees_remote"] == (stats["frees"] if lab_mode == CLAB else 0)


# -- per-thread counters stay bounded ----------------------------------------

def test_thread_stats_fold_into_retired_total(alloc):
    keep = [alloc.malloc(64) for _ in range(50)]
    snapshots = []

    def short_lived(i):
        alloc.attach_thread()
        mine = [alloc.malloc(64) for _ in range(3)]
        alloc.free(mine[0])
        alloc.free(mine[1])
        alloc.free(keep[i])                 # remote: the main thread's span
        snapshots.append(alloc.stats())     # still attached
        alloc.detach_thread()
        snapshots.append(alloc.stats())     # retired
        alloc.free(mine[2])                 # re-attaches; detached below
        alloc.detach_thread()

    for i in range(50):
        run_in_thread(short_lived, i)
        assert len(alloc.frontend.thread_stats) <= 1      # the main thread
    for attached, retired in zip(snapshots[::2], snapshots[1::2]):
        assert attached == retired
    stats = alloc.stats()
    assert stats["allocs"] == 50 + 50 * 3
    assert stats["frees"] == 50 * 4
    assert stats["frees_remote"] == 50 * 2
    assert stats["remote_free_fraction"] == 0.5
    assert stats["max_fetches_per_alloc"] == 1


def test_finalizer_folds_threads_that_never_detach(alloc):
    def no_detach():
        alloc.free(alloc.malloc(64))

    threads = [threading.Thread(target=no_detach) for _ in range(20)]
    for t in threads:
        run_threads([t])
    del threads, t
    gc.collect()
    assert len(alloc.frontend.thread_stats) == 0
    stats = alloc.stats()
    assert stats["allocs"] == stats["frees"] == stats["frees_local"] == 20


def test_detached_allocator_is_collected():
    # A long-lived thread's detach retires its finalizer, which would
    # otherwise hold the frontend, and through it every committed page,
    # for as long as the Thread object lives.
    alloc = make_allocator()
    alloc.free(alloc.malloc(64))
    alloc.detach_thread()
    frontend = weakref.ref(alloc.frontend)
    del alloc
    gc.collect()
    assert frontend() is None


def test_clab_finalizer_does_not_release_a_detached_thread_again():
    # Two threads share one CLAB LAB. The one that detached explicitly
    # must not release the LAB a second time when its Thread object is
    # collected, which would terminate it under the thread still on it.
    alloc = make_allocator(lab_mode=CLAB)
    fe = alloc.frontend
    width = fe.clab_width
    go = threading.Event()
    seen = {}

    def long_lived():
        alloc.attach_thread()
        p = alloc.malloc(64)
        go.wait(10)
        lab = fe.labs[0]
        seen["attached"] = lab.attached
        seen["live"] = lab.owner_word.load() != TERMINATED
        alloc.free(p)
        alloc.detach_thread()

    def short_lived():
        alloc.attach_thread()
        alloc.malloc(64)
        alloc.detach_thread()

    holder = threading.Thread(target=long_lived)    # tid 0 -> LAB 0
    holder.start()
    for _ in range(width - 1):                       # tids 1..width-1
        run_in_thread(short_lived)
    sharer = threading.Thread(target=short_lived)   # tid width -> LAB 0
    run_threads([sharer])
    del sharer
    gc.collect()
    go.set()
    holder.join(10)
    assert not holder.is_alive()
    assert seen == {"attached": 1, "live": True}
