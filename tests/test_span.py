import threading

import pytest

from helpers import BARRIER_TIMEOUT, run_threads
from spanalloc.arena import Arena
from spanalloc.atomic import AtomicWord
from spanalloc.config import PAGE_SIZE, VIRTUAL_SPAN_SIZE
from spanalloc.fragmeter import FragLedger
from spanalloc.size_classes import NUM_CLASSES, TABLE, class_for_size
from spanalloc.span import (
    EPOCH_COUNTER_MASK, EPOCH_OWNER_SHIFT, EPOCH_STATE_SHIFT, LEGAL_EDGES,
    STATE_FLOATING, STATE_FREE, STATE_HOT, STATE_NAMES, STATE_REUSABLE,
    SpanHeader, SpanSpace, epoch_counter, epoch_owner, epoch_state,
    next_epoch_word,
)
from spanalloc.vmem import SimProvider

OWNER = 1
OTHER = 2


def make_space(spans=16, **kw):
    provider = SimProvider()
    arena = Arena(provider.reserve(spans * VIRTUAL_SPAN_SIZE))
    return SpanSpace(arena, provider, **kw), provider, arena


def fresh_span(space, arena, size=64):
    return space.header_for_base(arena.acquire_virtual_span(),
                                 class_for_size(size))


def floating_span(space, arena):
    """A fresh span taken hot by OWNER and floated; returns it and its
    float's word."""
    span = fresh_span(space, arena)
    assert span.try_transition(span.epoch.load(), STATE_HOT, OWNER)
    stamp = span.try_transition(span.epoch.load(), STATE_FLOATING)
    assert stamp == span.epoch.load() and epoch_owner(stamp) == OWNER
    return span, stamp


def test_init_commits_only_header_page():
    space, provider, arena = make_space()
    span = fresh_span(space, arena, 64)
    assert span.blocks_per_span == 508
    assert provider.committed_in(span.base, VIRTUAL_SPAN_SIZE) == PAGE_SIZE
    assert span.bump_limit == 0 and span.local_count == 0
    assert span.remote_count() == 0


def test_header_page_is_committed_when_the_header_is_created():
    # The header is built for its class, free and with no block handed
    # out, and is the slot's header from then on; its creation commits
    # the slot's first page, and a re-class commits nothing more.
    space, provider, arena = make_space()
    base = arena.acquire_virtual_span()
    c1m, c64 = class_for_size(1 << 20), class_for_size(64)
    span = space.header_for_base(base, c1m)
    assert (span.size_class, span.block_size, span.real_span_size) == \
        (c1m, TABLE[c1m].block_size, TABLE[c1m].real_span_size)
    assert span.payload == base + TABLE[c1m].header_size
    assert span.reuse_threshold_blocks == space.reuse_thresholds[c1m]
    assert (span.local_head, span.local_count, span.bump_limit) == (0, 0, 0)
    assert (span.epoch.load(), span.remote.load(), span.link) == \
        (STATE_FREE << EPOCH_STATE_SHIFT, 0, 0)
    assert provider.committed_page_indices() == {base // PAGE_SIZE}
    assert space.span_of(base) is span
    span.init_for_class(c64)
    assert span.payload == base + TABLE[c64].header_size
    assert provider.committed_page_indices() == {base // PAGE_SIZE}


def test_header_words_share_one_lock():
    space, provider, arena = make_space()
    span, other = fresh_span(space, arena), fresh_span(space, arena)
    lock = span.epoch._lock
    assert span.remote._lock is lock
    assert other.epoch._lock is not lock
    # The owner rides in the epoch word: these are the header's atomics.
    assert [name for name in SpanHeader.__slots__
            if isinstance(getattr(span, name), AtomicWord)] \
        == ["epoch", "remote"]


@pytest.mark.parametrize("pct", [0, 50, 80, 100])
def test_reuse_thresholds_match_the_per_init_formula(pct):
    space, provider, arena = make_space(reuse_percent=pct)
    assert len(space.reuse_thresholds) == NUM_CLASSES == 28
    for geo in TABLE:
        assert space.reuse_thresholds[geo.class_id] == min(
            geo.blocks_per_span * pct // 100, geo.blocks_per_span - 1)
    span = fresh_span(space, arena, 1 << 17)
    assert span.reuse_threshold_blocks == \
        space.reuse_thresholds[class_for_size(1 << 17)]


def test_alloc_bump_then_lifo_reuse():
    space, provider, arena = make_space()
    span = fresh_span(space, arena, 64)
    first = span.alloc_block()
    assert first == span.payload
    second = span.alloc_block()
    assert second == span.payload + 64
    span.free_local(second)
    assert span.alloc_block() == second     # LIFO: list before bump


def test_blocks_are_16_byte_aligned_and_in_bounds():
    space, provider, arena = make_space()
    for size in (16, 64, 256, 512, 4096, 1 << 20):
        span = fresh_span(space, arena, size)
        end = span.base + span.real_span_size
        for _ in range(min(span.blocks_per_span, 64)):
            b = span.alloc_block()
            assert b % 16 == 0
            assert span.payload <= b and b + span.block_size <= end


def test_exhaustion_returns_empty():
    space, provider, arena = make_space()
    span = fresh_span(space, arena, 64)
    for _ in range(508):
        assert span.alloc_block() != 0
    assert span.alloc_block() == 0          # 509th


def test_ping_pong_keeps_bump_at_one():
    space, provider, arena = make_space()
    span = fresh_span(space, arena, 64)
    b = span.alloc_block()
    for _ in range(100):
        assert span.free_local(b) == 1
        assert span.alloc_block() == b
    assert span.bump_limit == 1


def test_block_conservation_quiescent():
    space, provider, arena = make_space()
    span = fresh_span(space, arena, 256)
    live = [span.alloc_block() for _ in range(80)]
    for b in live[:30]:
        span.free_local(b)
    for b in live[30:50]:
        span.free_remote(b)
    local = len(span.walk_local())
    remote = len(span.walk_remote())
    never = span.blocks_per_span - span.bump_limit
    assert local == span.local_count == 30
    assert remote == span.remote_count() == 20
    assert 30 + local + remote + never == span.blocks_per_span
    assert span.live_blocks() == 30
    assert span.free_block_count() == span.blocks_per_span - 30


def test_remote_free_counts_and_list():
    space, provider, arena = make_space()
    span = fresh_span(space, arena, 64)
    blocks = [span.alloc_block() for _ in range(3)]
    assert span.free_remote(blocks[0]) == 1
    assert span.free_remote(blocks[1]) == 2
    word = span.remote.load()
    assert word >> 48 == 2
    offsets = span.walk_remote()
    assert [space.arena_base + o for o in offsets] == [blocks[1], blocks[0]]


def test_drain_threshold_boundary():
    space, provider, arena = make_space()
    span = fresh_span(space, arena, 64)      # threshold = 508*80//100 = 406
    t = span.reuse_threshold_blocks
    assert t == 406
    blocks = [span.alloc_block() for _ in range(508)]
    for b in blocks[:t]:
        span.free_remote(b)
    assert span.drain_remotes() == 0         # at threshold: not enough
    span.free_remote(blocks[t])
    moved = span.drain_remotes()
    assert moved == t + 1                    # threshold+1: all moved
    assert span.remote.load() == 0
    assert span.local_count == t + 1
    assert len(span.walk_local()) == t + 1


def test_transitions_happy_path_and_stale_failure():
    space, provider, arena = make_space()
    span = fresh_span(space, arena, 64)
    e0 = span.epoch.load()
    assert epoch_state(e0) == STATE_FREE
    e1 = span.try_transition(e0, STATE_HOT, OWNER)      # installs the owner
    assert not span.try_transition(e0, STATE_HOT, OWNER)  # stale epoch
    assert e1 == span.epoch.load()
    assert epoch_state(e1) == STATE_HOT and epoch_owner(e1) == OWNER
    assert epoch_counter(e1) == epoch_counter(e0) + 1
    e2 = span.try_transition(e1, STATE_FLOATING)
    e3 = span.try_transition(e2, STATE_REUSABLE)
    e4 = span.try_transition(e3, STATE_FREE)
    assert e4 == span.epoch.load() and epoch_state(e4) == STATE_FREE
    assert {epoch_owner(e) for e in (e2, e3, e4)} == {OWNER}   # kept
    assert space.ledger is None                 # nothing traced


def test_transition_race_single_winner():
    space, provider, arena = make_space()
    span = fresh_span(space, arena, 64)
    e = span.epoch.load()
    span.try_transition(e, STATE_HOT)
    span.try_transition(span.epoch.load(), STATE_FLOATING)
    span.try_transition(span.epoch.load(), STATE_REUSABLE)
    observed = span.epoch.load()
    results = []
    barrier = threading.Barrier(2, timeout=BARRIER_TIMEOUT)

    def racer(target):
        barrier.wait()
        results.append(span.try_transition(observed, target))

    a = threading.Thread(target=racer, args=(STATE_FREE,))
    b = threading.Thread(target=racer, args=(STATE_HOT,))
    run_threads([a, b])
    assert results.count(False) == 1
    assert span.epoch.load() in results


def test_illegal_edge_asserts():
    space, provider, arena = make_space(ledger=FragLedger())
    span = fresh_span(space, arena, 64)
    e = span.epoch.load()                    # state free
    with pytest.raises(AssertionError):
        span.try_transition(e, STATE_REUSABLE)
    for src in STATE_NAMES:
        for target in STATE_NAMES:
            if (src, target) in LEGAL_EDGES:
                continue
            observed = (src << EPOCH_STATE_SHIFT) | 5
            span.epoch.store(observed)
            with pytest.raises(AssertionError):
                span.try_transition(observed, target)
            assert span.epoch.load() == observed
    assert space.ledger.trace == []


def test_reusable_to_reusable_asserts():
    # An owner changes on free -> hot and on an adopting marking from
    # the floating word, never on a span already reusable.
    space, provider, arena = make_space(ledger=FragLedger())
    span, floating = floating_span(space, arena)
    reusable = span.try_transition(floating, STATE_REUSABLE)
    trace = list(space.ledger.trace)
    for owner in (None, OTHER):
        with pytest.raises(AssertionError, match="reusable -> reusable"):
            span.try_transition(reusable, STATE_REUSABLE, owner)
    with pytest.raises(AssertionError, match="reusable -> reusable"):
        span.try_adopt(reusable, OTHER)
    assert span.epoch.load() == reusable and space.ledger.trace == trace


def test_adopt_single_winner():
    space, provider, arena = make_space()
    span, stamp = floating_span(space, arena)
    results = []
    barrier = threading.Barrier(2, timeout=BARRIER_TIMEOUT)

    def adopter(word):
        barrier.wait()
        results.append(span.try_adopt(stamp, word))

    a = threading.Thread(target=adopter, args=(5,))
    b = threading.Thread(target=adopter, args=(6,))
    run_threads([a, b])
    assert results.count(False) == 1
    won = next(r for r in results if r is not False)
    assert won == span.epoch.load()
    assert epoch_owner(won) in (5, 6)
    assert epoch_state(won) == STATE_REUSABLE
    assert epoch_counter(won) == epoch_counter(stamp) + 1


def test_adopt_fails_once_the_epoch_moved_past_the_stamp():
    # The owner word alone recurs: the span's next life may have the
    # same owner, but not the same epoch.
    space, provider, arena = make_space()
    span, stamp = floating_span(space, arena)
    free = span.try_transition(stamp, STATE_FREE)
    hot = span.try_transition(free, STATE_HOT, OWNER)   # the owner recurs
    again = span.try_transition(hot, STATE_FLOATING)
    assert epoch_state(again) == STATE_FLOATING and again != stamp
    assert epoch_owner(again) == epoch_owner(stamp) == OWNER
    assert not span.try_adopt(stamp, OTHER)
    assert span.epoch.load() == again
    adopted = span.try_adopt(again, OTHER)
    assert adopted == span.epoch.load() and epoch_owner(adopted) == OTHER
    assert epoch_state(adopted) == STATE_REUSABLE


def test_reinit_same_real_span_is_header_rewrite():
    space, provider, arena = make_space()
    span = fresh_span(space, arena, 16)
    blocks = [span.alloc_block() for _ in range(10)]
    for b in blocks:
        span.free_local(b)
    committed = provider.committed_in(span.base, VIRTUAL_SPAN_SIZE)
    epoch = span.epoch.load()
    span.init_for_class(class_for_size(256))
    assert span.block_size == 256
    assert span.blocks_per_span == 127
    assert span.local_count == 0 and span.bump_limit == 0
    # No decommit happens on re-init; the touched pages stay.
    assert provider.committed_in(span.base, VIRTUAL_SPAN_SIZE) == committed
    assert span.epoch.load() == epoch           # the epoch is left alone


def test_trace_records_transitions():
    space, provider, arena = make_space(ledger=FragLedger())
    span = fresh_span(space, arena, 64)
    e = span.epoch.load()
    span.try_transition(e, STATE_HOT)
    span.try_transition(span.epoch.load(), STATE_FLOATING)
    assert len(space.ledger.trace) == 2
    slot, old, new = space.ledger.trace[0]
    assert slot == span.slot
    assert epoch_state(old) == STATE_FREE and epoch_state(new) == STATE_HOT


@pytest.mark.parametrize("counter", [0, 1, EPOCH_COUNTER_MASK],
                         ids=["counter0", "counter1", "wrap"])
@pytest.mark.parametrize("edge", sorted(LEGAL_EDGES),
                         ids=lambda e: f"{STATE_NAMES[e[0]]}-{STATE_NAMES[e[1]]}")
def test_transition_installs_next_epoch_word(edge, counter):
    # try_transition computes its word inline; it must be exactly the
    # reference helper's, the owner kept and the counter wrapping to 0
    # at the mask.
    src, target = edge
    space, provider, arena = make_space(ledger=FragLedger())
    span = fresh_span(space, arena, 64)
    owner = OTHER << EPOCH_OWNER_SHIFT
    observed = (src << EPOCH_STATE_SHIFT) | owner | counter
    span.epoch.store(observed)
    stale = (src << EPOCH_STATE_SHIFT) | owner \
        | ((counter - 1) & EPOCH_COUNTER_MASK)
    assert not span.try_transition(stale, target)
    assert span.epoch.load() == observed and space.ledger.trace == []
    new = next_epoch_word(observed, target)
    assert span.try_transition(observed, target) == new
    assert span.epoch.load() == new
    assert epoch_state(new) == target and epoch_owner(new) == OTHER
    assert epoch_counter(new) == (0 if counter == EPOCH_COUNTER_MASK
                                  else counter + 1)
    assert space.ledger.trace == [(span.slot, observed, new)]
    assert not span.try_transition(observed, target)       # now stale
    assert span.epoch.load() == new and len(space.ledger.trace) == 1


def test_is_empty_agrees_with_live_blocks():
    space, provider, arena = make_space()
    span = fresh_span(space, arena, 1024)          # 64 blocks, threshold 51

    def check():
        assert span.is_empty() == (span.live_blocks() == 0)
        return span.is_empty()

    assert check()                                  # fresh
    blocks = [span.alloc_block() for _ in range(60)]
    assert not check()                              # bump only
    for b in blocks[:3]:
        span.free_local(b)
    assert span.local_count == 3 and not check()    # with a local list
    for b in blocks[3:]:
        span.free_remote(b)
    assert span.remote_count() == 57 and check()    # with a remote list
    # Take the local list back so the drain finds it empty.
    again = [span.alloc_block() for _ in range(3)]
    assert sorted(again) == sorted(blocks[:3]) and span.local_head == 0
    assert not check()
    assert span.drain_remotes() == 57               # after a drain
    assert span.remote_count() == 0 and span.local_count == 57
    assert not check()
    for b in again:
        span.free_local(b)
    assert check()
