import gc
import random
import threading
import weakref

import pytest

import scenarios
from explore import Scenario, replay, sample
from helpers import (
    BARRIER_TIMEOUT, check_heap, floated_span, live_entry, make_allocator,
    run_in_thread, run_threads, validate_transition_trace,
)
from scenarios import span_edges
from spanalloc import atomic
from spanalloc.bench import WorkloadConfig
from spanalloc.config import CLAB
from spanalloc.frontend import LAB, Frontend
from spanalloc.size_classes import NUM_CLASSES, TABLE, class_for_size
from spanalloc.span import (
    REMOTE_COUNT_SHIFT, STATE_FLOATING, STATE_FREE, STATE_HOT,
    STATE_REUSABLE, epoch_owner, epoch_state,
)
from spanalloc.traces import make_trace
from spanalloc.traces import replay as replay_trace

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
    """Whether any LAB's reusable set holds a live entry of `span`."""
    return any(live_entry(lab, span) for lab in alloc.frontend.labs.values())


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

    def remote_free_to_cross():
        for b in blocks[:T64 + 1]:
            alloc.free(b)

    run_in_thread(remote_free_to_cross)
    assert state_of(span) == STATE_REUSABLE
    owner_lab = alloc.frontend.labs[0]
    assert live_entry(owner_lab, span)
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


def test_active_false_sharing_probe():
    # Two threads' mallocs race under seeded schedules; no span serves
    # both.
    def build(seed):
        alloc = make_allocator()
        seen = [set(), set()]

        def fill(i):
            return lambda: seen[i].update(
                span_of(alloc, alloc.malloc(64)).slot for _ in range(600))

        def check(w):
            assert not seen[0] & seen[1]

        return Scenario(
            steps=[(i, alloc.attach_thread) for i in range(2)],
            threads=[fill(0), fill(1)],
            after=[(i, alloc.detach_thread) for i in range(2)], check=check)

    assert sample(build, range(5)) == 5


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
    assert owner_of(span) not in alloc.frontend.labs   # its LAB is gone
    adopts_before = alloc.stats()["adopts"]
    alloc.free(blocks[0])                          # a plain remote push
    assert alloc.stats()["adopts"] == adopts_before
    my_word = alloc.frontend._tls.attached[3]
    # The free that crosses the reuse threshold marks the span; the dead
    # owner's LAB is gone, so that free adopts it.
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


def make_floating(span, owner):
    """Walk a span from free to floating via legal transitions, taking
    it hot for `owner`; returns the float's word."""
    assert span.try_transition(span.epoch.load(), STATE_HOT, owner)
    return span.try_transition(span.epoch.load(), STATE_FLOATING)


def test_terminated_lab_refuses_every_marking_and_the_next_gets_a_new_owner(
        alloc):
    lab = LAB(0, latched=False)
    span = alloc.space.header_for_base(alloc.arena.acquire_virtual_span())
    span.init_for_class(C64)
    stamp = lab.mark(C64, span, make_floating(span, 0))
    assert epoch_state(stamp) == STATE_REUSABLE and epoch_owner(stamp) == 0
    assert lab.take(C64) == (span, stamp)
    floating = span.try_transition(stamp, STATE_FLOATING)
    assert lab.close() == []
    # Closed: LAB terminated. A refused marking changes nothing.
    assert lab.mark(C64, span, floating) is None
    assert span.epoch.load() == floating and lab.take(C64) is None
    adopter = LAB(1, latched=False)
    adopted = adopter.mark(C64, span, floating)     # the adopting marking
    assert adopted == span.epoch.load() and epoch_owner(adopted) == 1
    assert adopter.mark(C64, span, floating) is False       # word moved on
    assert adopter.take(C64) == (span, adopted)
    assert adopter.take(C64) is None
    # Each attachment gets a fresh LAB, whose owner no LAB had before,
    # and the LAB leaves `labs` when it terminates.
    frontend = alloc.frontend
    owners = [run_in_thread(lambda: (frontend.attach().owner,
                                     frontend.detach())[0])
              for _ in range(3)]
    assert owners == [0, 1, 2] and frontend.labs == {}


def test_reusable_set_take_order_and_stale_entries(alloc):
    lab = LAB(7, latched=False)
    word, stamps_of = lab.owner, lab.reusable[C64]
    spans = []
    for i in range(3):
        sp = alloc.space.header_for_base(alloc.arena.acquire_virtual_span())
        sp.init_for_class(C64)
        spans.append(sp)
    floats = [make_floating(sp, word) for sp in spans]
    stamps = [lab.mark(C64, sp, f) for sp, f in zip(spans, floats)]
    assert all(stamps)
    assert len(stamps_of) == 3 and all(live_entry(lab, sp) for sp in spans)
    # A marking from a word the span's epoch has moved past fails its
    # replace and makes no entry; the live one stays in place.
    assert lab.mark(C64, spans[0], floats[0]) is False
    assert list(stamps_of.items()) == list(zip(spans, stamps))
    # Span 1 moves on (reusable -> free): its entry stays, stale, in
    # place. len() counts it, `live_entry` does not.
    assert spans[1].try_transition(stamps[1], STATE_FREE)
    assert len(stamps_of) == 3 and not live_entry(lab, spans[1])
    # Back through hot and floating: the new marking's entry replaces
    # the stale one at the back.
    renewed = lab.mark(C64, spans[1], make_floating(spans[1], word))
    assert len(stamps_of) == 3 and live_entry(lab, spans[1])
    assert [lab.take(C64) for _ in range(3)] == [
        (spans[0], stamps[0]), (spans[2], stamps[2]), (spans[1], renewed)]
    assert lab.take(C64) is None and len(stamps_of) == 0
    # close empties every set in one go, each in take order, and refuses
    # every marking after it.
    again = [lab.mark(C64, spans[i],
                      spans[i].try_transition(stamps[i], STATE_FLOATING))
             for i in (2, 0)]
    assert lab.close() == [(spans[2], again[0]), (spans[0], again[1])]
    assert lab.take(C64) is None and lab.closed


@pytest.mark.parametrize("latched", [False, True], ids=["tlab", "clab"])
def test_one_latch_guards_all_of_a_labs_sets(monkeypatch, latched):
    # A CLAB LAB adds its class latches, one per size class.
    built = []

    def latch():
        built.append(threading.Lock())
        return built[-1]

    monkeypatch.setattr(atomic, "Latch", latch)
    lab = LAB(0, latched)
    assert len(built) == 1 + NUM_CLASSES * latched
    # No set exists before its class's first marking.
    assert built[0] is lab.latch and len(lab.reusable) == 0


def test_clab_mode_shares_lab_and_frees_remotely():
    # Four threads malloc in turn on the shared LABs, then each frees its
    # neighbour's blocks under seeded schedules.
    n = 4

    def build(seed):
        alloc = make_allocator(lab_mode=CLAB)
        got = {}

        def fill(i):
            got[i] = [alloc.malloc(64) for _ in range(100)]

        def free_neighbours(i):
            return lambda: [alloc.free(p) for p in got[(i + 1) % n]]

        def check(w):
            stats = alloc.stats()
            assert stats["frees_local"] == 0       # CLAB frees are remote
            assert stats["frees"] == 400
            assert len(alloc.frontend.labs) <= alloc.frontend.clab_width
            check_heap(alloc, live=())

        return Scenario(
            steps=[(i, alloc.attach_thread) for i in range(n)]
            + [(i, lambda i=i: fill(i)) for i in range(n)],
            threads=[free_neighbours(i) for i in range(n)],
            after=[(i, alloc.detach_thread) for i in range(n)], check=check)

    assert sample(build, range(5)) == 5


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


def test_terminated_labs_leave_labs_tlab(alloc):
    def use_and_exit():
        alloc.attach_thread()
        alloc.malloc(64)
        alloc.detach_thread()

    for _ in range(5):
        run_in_thread(use_and_exit)
    # Each worker had a LAB of its own, dropped when it terminated.
    assert alloc.frontend.labs == {}


def test_get_span_skips_span_raced_to_free():
    # LAB 0's take waits before its reusable -> hot while LAB 1's free of
    # the last block retires the span: the take skips the stale entry and
    # the span comes back hot from the pool.
    def check(w):
        assert span_of(w.alloc, w.fills[-1]) is w.span
        assert state_of(w.span) == STATE_HOT
        assert len(w.alloc.frontend.labs[0].reusable[w.span.size_class]) == 0
    replay(scenarios.late_take, [0] * 5 + [1] * 10 + [0], check)


def test_set_put_rejects_span_no_longer_reusable():
    # LAB 0's marking free holds its set's latch and waits before its
    # replace while the last free retires the span. The late marking
    # must make no entry, and so must a marking from that floating word
    # once the pooled span is hot again.
    def check(w):
        scenarios.retired_by((STATE_HOT, STATE_FLOATING),
                             (STATE_FLOATING, STATE_FREE))(w)
        lab, sc = w.alloc.frontend.labs[0], w.span.size_class
        assert len(lab.reusable[sc]) == 0
        floating = [new for slot, _, new in w.alloc.ledger.trace
                    if slot == w.span.slot][-2]
        got = w.alloc.pool.get(sc, 0)
        assert got is w.span
        got.init_for_class(sc)
        assert got.try_transition(got.epoch.load(), STATE_HOT, lab.owner)
        assert lab.mark(sc, got, floating) is False
        assert len(lab.reusable[sc]) == 0
    replay(scenarios.retire_race, [0] * 4 + [1], check)


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
        assert live_entry(alloc.frontend.labs[0], span) \
            and len(owner_set) == 1
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
    """Patch LAB.mark to count its calls; returns the counts."""
    counts, real = {"mark": 0}, LAB.mark

    def mark(lab, *args):
        counts["mark"] += 1
        return real(lab, *args)

    monkeypatch.setattr(LAB, "mark", mark)
    return counts


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
    assert counts == {"mark": 0}
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
    assert counts == {"mark": 1}
    assert alloc.pool.puts.load() == 0
    assert state_of(span) == STATE_REUSABLE
    assert live_entry(alloc.frontend.labs[0], span)


def test_crossing_then_emptying_uses_the_set(monkeypatch):
    # 128K: 8 blocks, threshold 6. The 7th free crosses, the 8th empties.
    alloc = make_allocator()
    span, blocks, extra = floated_span(alloc, 1 << 17)
    for b in blocks[:6]:
        alloc.free(b)
    counts = count_set_ops(monkeypatch)
    alloc.free(blocks[6])
    assert counts == {"mark": 1}
    assert state_of(span) == STATE_REUSABLE and in_a_set(alloc, span)
    alloc.free(blocks[7])
    assert counts == {"mark": 1}
    assert alloc.pool.puts.load() == 1
    assert state_of(span) == STATE_FREE and not in_a_set(alloc, span)
    # Its entry stays behind, stale, until the owner's take skips it.
    lab = alloc.frontend.labs[0]
    assert list(lab.reusable[span.size_class]) == [span] \
        and not live_entry(lab, span)


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


@pytest.mark.parametrize("eager", [True, False], ids=["eager", "lazy"])
@pytest.mark.parametrize("size", [64, 4096, 1 << 17])
def test_thread_churn_retires_empty_spans(size, eager):
    # 200 threads one after another, each doing malloc, free and detach:
    # termination pools the thread's empty hot span, under lazy
    # reclamation too, so the next thread reuses it.
    alloc = make_allocator(eager_reclaim=eager, arena_bytes=1 << 30)
    for _ in range(200):
        run_in_thread(lambda: (alloc.free(alloc.malloc(size)),
                               alloc.detach_thread()))
    check_heap(alloc, live=())
    assert alloc.stats()["arena_spans"] <= 2


def containers(alloc):
    """Everything an allocator keeps between workloads: arena spans,
    headers, pool depth, each LAB's set lengths (stale entries too),
    LABs, the provider's slot records and committed bytes."""
    pool, labs = alloc.pool, alloc.frontend.labs
    return {
        "arena_spans": alloc.stats()["arena_spans"],
        "headers": len(list(alloc.space.iter_headers())),
        "pool_depth": pool.puts.load() - pool.gets_from_pool.load(),
        "set_lengths": [{sc: len(s) for sc, s in lab.reusable.items()}
                        for lab in labs.values()],
        "labs": len(labs),
        "slots": len(alloc.provider._slots),
        "committed_bytes": alloc.committed_bytes,
    }


@pytest.mark.parametrize("config", [
    WorkloadConfig(name="larson_like", threads=2, handoffs=8, rounds=20,
                   objects_per_round=200, size_range=(16, 4096), seed=11),
    WorkloadConfig(name="prodcons", threads=4, rounds=3,
                   objects_per_round=200, size_range=(16, 1 << 21), seed=11),
], ids=lambda config: config.name)
def test_a_replayed_trace_plateaus(config):
    # A long-lived allocator runs one workload again and again: after 10
    # replays of one trace, 10 more change nothing it keeps. One trace,
    # since a fresh seed may reach a new peak without leaking.
    alloc = make_allocator(arena_bytes=1 << 31)
    trace = make_trace(config)
    marks = []
    for _ in range(2):
        for _ in range(10):
            replay_trace(trace, alloc)
        check_heap(alloc, live=())
        marks.append(containers(alloc))
    assert marks[0] == marks[1]


def test_adopting_free_that_marks_puts_in_adopters_set():
    # A free that adopts an orphan and crosses its threshold in the same
    # call marks it reusable for the adopter: the dead owner's LAB is
    # gone, and its sets were closed, so none of them can take it.
    alloc = make_allocator(instrument=True)
    alloc.attach_thread()                               # LAB 0

    def producer():
        alloc.attach_thread()                           # LAB 1
        span, blocks, extra = floated_span(alloc, 1 << 17)
        for b in blocks[:6]:
            alloc.free(b)                               # at the threshold
        alloc.detach_thread()                           # orphans the span
        return span, blocks[6:], extra

    span, left, extra = run_in_thread(producer)
    assert state_of(span) == STATE_FLOATING
    adopts = alloc.stats()["adopts"]
    alloc.free(left[0])                                 # adopts and marks
    assert alloc.stats()["adopts"] == adopts + 1
    assert state_of(span) == STATE_REUSABLE
    assert owner_of(span) == alloc.frontend.labs[0].owner
    heap = check_heap(alloc)
    assert heap.holders[span.slot] == [0] and heap.entries == 1
    arena_spans = alloc.stats()["arena_spans"]
    reused = [alloc.malloc(1 << 17) for _ in range(6)]
    assert {span_of(alloc, p) for p in reused} == {span}
    assert alloc.stats()["arena_spans"] == arena_spans
    for p in reused + left[1:] + [extra]:
        alloc.free(p)
    validate_transition_trace(alloc)


# -- races: schedules the hand-held race tests forced, replayed from
# scenarios.py (test_races.py explores each one) with their end checks ----

def test_last_free_retires_before_the_crossing_free_marks(monkeypatch):
    # The crossing free waits at its marking's latch while the last free
    # retires; its one `mark` call then fails the replace.
    replay(scenarios.retire_race, [0, 0, 0, 1], scenarios.retired_once(
        count_set_ops(monkeypatch), 1,
        (STATE_HOT, STATE_FLOATING), (STATE_FLOATING, STATE_FREE)))


def test_crossing_free_marks_before_the_last_free_retires(monkeypatch):
    # The crossing free waits at its marking while the last free pushes
    # and reads the floating word again. The crossing free then marks
    # the span into LAB 0's set and, testing after the marking, retires
    # it, which leaves that entry stale; the last free's retire from the
    # floating word fails.
    replay(scenarios.retire_race, [0] * 3 + [1] * 5 + [0],
           scenarios.retired_once(
               count_set_ops(monkeypatch), 1, (STATE_HOT, STATE_FLOATING),
               (STATE_FLOATING, STATE_REUSABLE), (STATE_REUSABLE, STATE_FREE),
               stale=1))


def test_marking_free_loses_retirement_to_racing_last_free(monkeypatch):
    # Between the marking and its emptiness test, the last free pushes,
    # reads the marking's word and retires the span from it: the
    # marking's entry is left stale and its own retire fails.
    replay(scenarios.retire_race, [0] * 6 + [1], scenarios.retired_once(
        count_set_ops(monkeypatch), 1,
        (STATE_FLOATING, STATE_REUSABLE), (STATE_REUSABLE, STATE_FREE),
        stale=1))


def test_marking_free_retires_the_span_its_owners_last_free_emptied():
    # LAB 1's own last free reads the floating word and pushes after
    # LAB 0's free counted and before it marks: the owner's retire from
    # the floating word fails, and only the marking free's emptiness
    # test after its marking can retire the span.
    replay(scenarios.marking_vs_own_last_free, [0] * 6 + [1] * 2 + [0],
           scenarios.retired_by((STATE_FLOATING, STATE_REUSABLE),
                                (STATE_REUSABLE, STATE_FREE)))


def test_float_marks_the_span_a_racing_push_took_over_its_threshold():
    # LAB 1's seventh free reads the hot word before LAB 0's drain test
    # and pushes after it, which leaves the span to LAB 0's float. The
    # float counts 7 free blocks and marks the span into LAB 0's set;
    # the refetch takes it straight back hot and drains it.
    def check(w):
        assert span_edges(w.alloc, w.span)[-3:] == [
            (STATE_HOT, STATE_FLOATING), (STATE_FLOATING, STATE_REUSABLE),
            (STATE_REUSABLE, STATE_HOT)]
        assert span_of(w.alloc, w.got) is w.span
        stats = w.alloc.stats()
        assert (stats["set_fetches"], stats["drains"], stats["arena_spans"]) \
            == (1, 1, 1)
    replay(scenarios.float_vs_crossing_push, [1] + [0] * 2 + [1], check)


def test_terminate_races_last_free_single_winner():
    # The last free has counted the span empty when LAB 0's termination
    # retires the empty entry from its stamp; the free's retire fails.
    replay(scenarios.terminate_race, [1] * 5 + [0],
           scenarios.retired_by((STATE_REUSABLE, STATE_FREE)))


def test_late_set_put_is_refused_after_the_span_went_round():
    # LAB 0's marking free holds its set's latch and waits before its
    # replace, which then fails: no entry is made.
    replay(scenarios.late_put, [0] * 5 + [1], scenarios.went_round)


def test_set_take_skips_a_span_that_went_round():
    # LAB 0's take waits before its reusable -> hot.
    replay(scenarios.late_take, [0] * 5 + [1], scenarios.went_round)


def test_lab_termination_skips_a_span_that_went_round():
    # LAB 0's termination waits before its reusable -> floating.
    replay(scenarios.late_float, [0] * 8 + [1], scenarios.went_round)


def test_refused_set_put_is_adopted_by_the_freeing_thread():
    # LAB 0's marking waits to take LAB 1's latch while LAB 1 closes and
    # terminates; the marking then finds the LAB closed and is refused.
    replay(scenarios.marking_vs_termination, [0] * 6 + [1],
           scenarios.adopted_into(0, terminated=1))


def test_marking_during_termination_is_adopted_by_the_freeing_thread():
    # LAB 0 marks while LAB 1's termination waits at its first float,
    # after its close.
    replay(scenarios.marking_vs_termination, [1] * 4 + [0],
           scenarios.adopted_into(0))


def test_only_the_marking_free_adopts_a_refused_span():
    # While LAB 0's marking waits to take LAB 1's latch, LAB 1 closes
    # and waits at its first float, and LAB 2's free of another block
    # crosses the threshold too: LAB 1's closed LAB refuses its marking,
    # and it waits before its adopting replace. LAB 0's marking is
    # refused in turn and adopts the span; LAB 2's replace then fails
    # and adopts nothing.
    replay(scenarios.marking_vs_termination_and_push,
           [0] * 6 + [1] * 3 + [2] * 8 + [0], scenarios.adopted_into(0))


def test_marking_free_reads_its_owner_after_its_epoch():
    # LAB 2 adopts and reuses the orphan before LAB 0's free reads the
    # epoch, whose one load gives state and owner: LAB 2's set gets it.
    replay(scenarios.marking_vs_reuse, [2], scenarios.adopted_into(2))


def test_late_adoption_leaves_the_spans_next_life_alone():
    # LAB 0's marking waits to take LAB 1's latch while the span lives
    # again in LAB 1 under the same owner, and LAB 1 closes and
    # terminates; LAB 2's free finds no LAB of that owner and waits
    # before its adopting replace. LAB 0's marking is refused by the
    # closed LAB, and its adopting one, from its stale floating word,
    # fails; LAB 2's wins.
    replay(scenarios.adoption_in_the_next_life,
           [0] * 6 + [1] * 25 + [2] * 37 + [0], scenarios.adopted_into(2))


def test_last_free_that_read_the_marking_retires_the_adopted_span():
    # LAB 2's last free starts once LAB 0's adopting marking has
    # replaced the span's word, and waits before its push until LAB 0
    # has tested the span live. Read after the push, the epoch is the
    # adoption's word, so that free retires the span, and LAB 0's next
    # malloc of the class takes it back from the pool.
    def check(w):
        assert span_edges(w.alloc, w.span)[-3:] == [
            (STATE_FLOATING, STATE_REUSABLE), (STATE_REUSABLE, STATE_FREE),
            (STATE_FREE, STATE_HOT)]
        assert state_of(w.span) == STATE_HOT and w.empty
        assert w.alloc.frontend.labs[0].hot_spans[w.span.size_class] \
            is w.span and w.grew == 0
        stats = w.alloc.stats()
        assert (stats["adopts"], stats["pool_puts"]) == (1, 1)
    replay(scenarios.last_free_vs_adoption, [0] * 8 + [2, 2, 0], check)


# -- the attachment record caches its LAB's owner -----------------------------

def attach_and_detach(alloc):
    run_in_thread(lambda: (alloc.attach_thread(), alloc.detach_thread()))


def attached_word(alloc):
    """Attach the calling thread; the owner its record holds, checked
    against its live LAB's owner."""
    alloc.attach_thread()
    record = alloc.frontend._tls.attached
    stats = dict(alloc.frontend.thread_stats)
    alloc.attach_thread()                   # a second attach changes nothing
    assert alloc.frontend._tls.attached is record
    assert alloc.frontend.thread_stats == stats
    lab, _, _, mine, _ = record
    assert mine == lab.owner and not lab.closed
    assert alloc.frontend.labs[mine] is lab
    return mine


@pytest.mark.parametrize("lab_mode", ["tlab", CLAB])
def test_attachment_record_holds_its_labs_owner(lab_mode):
    alloc = make_allocator(lab_mode=lab_mode)
    width = alloc.frontend.clab_width
    first = attached_word(alloc)            # tid 0: CLAB slot 0
    p, q = alloc.malloc(64), alloc.malloc(64)
    span = span_of(alloc, p)
    alloc.detach_thread()                   # orphans the span
    for _ in range(width - 1):              # tids 1..width-1
        attach_and_detach(alloc)
    second = attached_word(alloc)           # tid width: CLAB slot 0
    assert second != first                  # a new LAB, a new owner
    for _ in range(width - 1):
        attach_and_detach(alloc)

    def sharer():
        # tid 2 * width: CLAB slot 0 again, whose LAB it shares with the
        # main thread; a LAB of its own in TLAB mode.
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
    lab0 = []
    # The holder attaches first (tid 0 -> LAB 0), then waits until the
    # sharer (tid width -> LAB 0) has detached and been collected.
    parked = threading.Barrier(2, timeout=BARRIER_TIMEOUT)

    def long_lived():
        p = alloc.malloc(64)
        parked.wait()
        parked.wait()
        lab = alloc.frontend.labs[0]
        lab0.append((lab.attached, not lab.closed))
        alloc.free(p)
        alloc.detach_thread()

    def share_and_collect():
        parked.wait()
        for _ in range(alloc.frontend.clab_width):  # the last one shares
            sharer = threading.Thread(target=lambda: (
                alloc.malloc(64), alloc.detach_thread()))
            run_threads([sharer])
        del sharer
        gc.collect()
        parked.wait()

    run_threads([threading.Thread(target=long_lived),
                 threading.Thread(target=share_and_collect)])
    assert lab0 == [(1, True)]
