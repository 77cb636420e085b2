"""Per-path call budgets for `Allocator.malloc` and `Allocator.free`.

Each test counts the Python-level function calls (`sys.setprofile`
"call" events, the outer `malloc` or `free` included) that one call
makes on a `sim` allocator, uninstrumented but for one path, on one
path of the paper's free: a retirement of a floating 1M-class span to
the pool, a free that empties a reusable 128K-class span with 8
committed block pages, a huge free, a local free into the caller's own
hot span, a CLAB free into the shared LAB's hot span, a local free into
the caller's own floating span that leaves it below the reuse
threshold, a local free into the caller's own reusable 64 B span that
leaves it live, a remote free into a floating span below the
threshold, a remote free into a live owner's hot span, and three
marking frees: an own one into the caller's set, a remote one into a
live owner's set, and one that adopts an orphaned span into the
caller's set;
of its malloc: a small malloc served from the hot span's bump region,
in TLAB and in CLAB mode, one that pops the hot span's local list (the
commonest malloc of a churn), a malloc that takes its span from the
reusable set, a 1M malloc that takes a pooled span, one that takes a
fresh arena slot, and a huge malloc; of `Allocator.realloc`, a 64 B
block moved to 128 B; of a small malloc from the hot span and its local
free on an instrumented allocator; and one attach and detach of a
thread, which builds its LAB. `malloc` and `free` route every request
in their own frame: the size class is an index into `CLASS_OF`, and a
huge object is mapped and unmapped there.
Builtins and C methods (dict and set operations, lock acquire and
release) make no "call" event and are not counted.

The budgets are the counts of the current code. A path over its budget
is a finding to explain or fix, not a bound to raise: the count only
grows when a call was added to that path, and the failure lists the
path's calls by `module:function`, so it names the one added. Call
events differ between interpreter versions, so the tests run on
CPython 3.11 only.
"""

import sys

import pytest

from helpers import live_entry, make_allocator, run_in_thread
from spanalloc.config import CLAB, PAGE_SIZE
from spanalloc.span import (
    STATE_FLOATING, STATE_FREE, STATE_HOT, STATE_REUSABLE, epoch_state,
)

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="call events are counted as CPython 3.11 makes them")

KB = 1024
MB = 1024 * KB


def calls_in(fn, *args):
    """The calls `fn(*args)` makes, itself included, as a list of
    `module:function` names in call order, one per "call" profile
    event. The caller's profiler, if any, is restored afterwards."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(f"{frame.f_globals.get('__name__')}:"
                         f"{frame.f_code.co_qualname}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls


def assert_budget(calls, budget):
    """`calls` is `budget` calls long; a failure lists every call, so
    it names the one that was added."""
    assert len(calls) == budget, \
        f"{len(calls)} calls, budget {budget}: " + ", ".join(calls)


def state(alloc, addr):
    return epoch_state(alloc.space.span_of(addr).epoch.load())


def test_free_that_retires_a_floating_1m_span():
    # One floating -> free and a pool put that decommits the span's one
    # block page, all in this free.
    alloc = make_allocator()
    p = alloc.malloc(MB)
    alloc.provider.write_word(p, 1)      # its block page, as a user would
    alloc.malloc(MB)                     # floats p's span
    assert state(alloc, p) == STATE_FLOATING
    span = alloc.space.span_of(p)
    assert_budget(calls_in(alloc.free, p), 15)
    assert epoch_state(span.epoch.load()) == STATE_FREE
    assert alloc.stats()["pool_puts"] == 1
    assert alloc.provider.stats.decommit_calls == 1


def test_free_that_empties_a_reusable_128k_span():
    alloc = make_allocator()
    blocks = [alloc.malloc(128 * KB) for _ in range(8)]
    alloc.malloc(128 * KB)               # floats the full span
    span = alloc.space.span_of(blocks[0])
    for p in blocks[:7]:                 # the 7th free marks it reusable
        alloc.free(p)
    assert epoch_state(span.epoch.load()) == STATE_REUSABLE
    alloc.provider.write_word(blocks[7], 1)
    # The header page and each block's first page, which holds its
    # free-list word (the last one's written above).
    assert alloc.provider.committed_in(span.base, span.real_span_size) \
        == 9 * PAGE_SIZE
    assert_budget(calls_in(alloc.free, blocks[7]), 15)
    assert epoch_state(span.epoch.load()) == STATE_FREE
    assert alloc.provider.committed_in(span.base, span.real_span_size) \
        == PAGE_SIZE


def test_huge_free():
    alloc = make_allocator()
    p = alloc.malloc(3 * MB)
    alloc.provider.write_word(p, 1)
    assert_budget(calls_in(alloc.free, p), 4)
    assert alloc.provider.unmap_calls == 1 and alloc.committed_bytes == 0


def test_huge_malloc():
    # The mapping is the object: no header page is written. `malloc`
    # maps it in its own frame, before any class lookup.
    alloc = make_allocator()
    committed = alloc.committed_bytes
    assert_budget(calls_in(alloc.malloc, 3 * MB), 4)
    assert alloc.provider.map_calls == 1
    assert alloc.committed_bytes == committed


def test_small_malloc_from_the_hot_span():
    # A bump in the hot span, no fetch; `malloc` indexes the size class
    # itself.
    alloc = make_allocator()
    span = alloc.space.span_of(alloc.malloc(64))
    assert_budget(calls_in(alloc.malloc, 64), 3)
    assert alloc.frontend.labs[0].hot_spans[span.size_class] is span
    assert span.bump_limit == 2
    assert alloc.stats()["arena_spans"] == 1


def test_clab_small_malloc_from_the_hot_span():
    # The same bump in a shared LAB, under its class latch: the latch's
    # acquire and release are C calls and make no call event.
    alloc = make_allocator(lab_mode=CLAB)
    span = alloc.space.span_of(alloc.malloc(64))
    assert_budget(calls_in(alloc.malloc, 64), 3)
    lab = alloc.frontend.labs[0]
    assert lab.hot_spans[span.size_class] is span
    assert not lab.class_latches[span.size_class].locked()
    assert span.bump_limit == 2


def test_small_malloc_that_pops_the_hot_spans_local_list():
    # The commonest malloc of a churn: a free pushed a block on the hot
    # span's local list, and the pop reads its free-list word.
    alloc = make_allocator()
    p = alloc.malloc(64)
    alloc.malloc(64)
    alloc.free(p)
    span = alloc.space.span_of(p)
    calls = calls_in(alloc.malloc, 64)
    assert_budget(calls, 4)
    assert calls[-1] == "spanalloc.vmem:SimProvider.read_word"
    assert span.local_count == 0 and span.bump_limit == 2


def test_malloc_that_takes_its_span_from_the_reusable_set():
    # The hot span runs dry and floats, and the float settles it from
    # one count, a load of its remote word, which finds nothing to do;
    # the replacement is the span that 7 frees marked reusable, taken
    # from the caller's set.
    alloc = make_allocator()
    blocks = [alloc.malloc(128 * KB) for _ in range(8)]
    alloc.malloc(128 * KB)               # floats the full span
    span = alloc.space.span_of(blocks[0])
    for p in blocks[:7]:                 # the 7th free marks it reusable
        alloc.free(p)
    assert epoch_state(span.epoch.load()) == STATE_REUSABLE
    for _ in range(7):                   # fills the second span
        alloc.malloc(128 * KB)
    assert_budget(calls_in(alloc.malloc, 128 * KB), 15)
    assert alloc.frontend.labs[0].hot_spans[span.size_class] is span
    assert epoch_state(span.epoch.load()) == STATE_HOT
    stats = alloc.stats()
    assert (stats["set_fetches"], stats["pool_gets"], stats["arena_spans"]) \
        == (1, 0, 2)


def test_1m_malloc_that_takes_a_pooled_span():
    # The float of the exhausted hot span settles it from one count, then
    # a pooled span is re-classed and taken hot.
    alloc = make_allocator()
    p = alloc.malloc(MB)
    alloc.malloc(MB)                     # floats p's span
    alloc.free(p)                        # and pools it
    span = alloc.space.span_of(p)
    assert epoch_state(span.epoch.load()) == STATE_FREE
    assert_budget(calls_in(alloc.malloc, MB), 24)
    assert epoch_state(span.epoch.load()) == STATE_HOT
    assert alloc.stats()["pool_gets"] == 1
    assert alloc.stats()["arena_spans"] == 2


def test_1m_malloc_from_a_fresh_arena_slot():
    # The float settles the exhausted hot span from one count, as above.
    # An empty pool sends the get straight to the arena; the new
    # header's slot is computed inline and its page committed with no
    # bytes. The header builds two atomic words, epoch and remote.
    alloc = make_allocator()
    alloc.malloc(MB)
    committed = alloc.committed_bytes
    assert_budget(calls_in(alloc.malloc, MB), 30)
    assert alloc.stats()["arena_spans"] == 2
    assert alloc.committed_bytes == committed + PAGE_SIZE


def test_local_free_into_own_hot_span():
    # The most frequent free: a push on the caller's own hot span's
    # local list, and no count, since a hot span has no state work.
    alloc = make_allocator()
    p = alloc.malloc(64)
    alloc.malloc(64)
    alloc.provider.write_word(p, 1)
    span = alloc.space.span_of(p)
    assert_budget(calls_in(alloc.free, p), 4)
    assert state(alloc, p) == STATE_HOT
    assert (span.local_count, span.remote_count()) == (1, 0)
    assert alloc.stats()["frees_local"] == 1


def test_clab_free_into_the_shared_labs_hot_span():
    # In CLAB mode every free is a push on the remote list, into the
    # shared LAB's hot span too, and reads the epoch again after its
    # push; the class latch is not taken.
    alloc = make_allocator(lab_mode=CLAB)
    p = alloc.malloc(64)
    alloc.malloc(64)
    alloc.provider.write_word(p, 1)
    span = alloc.space.span_of(p)
    assert_budget(calls_in(alloc.free, p), 8)
    assert state(alloc, p) == STATE_HOT
    assert (span.local_count, span.remote_count()) == (0, 1)
    assert not alloc.frontend.labs[0].class_latches[span.size_class].locked()
    assert alloc.stats()["frees_remote"] == 1


def test_local_free_into_own_floating_span_below_threshold():
    # The common free of a span that went floating: a push on the local
    # list and one count against the reuse threshold (6 of 8 blocks).
    alloc = make_allocator()
    blocks = [alloc.malloc(128 * KB) for _ in range(8)]
    alloc.malloc(128 * KB)               # floats the full span
    alloc.provider.write_word(blocks[0], 1)
    assert state(alloc, blocks[0]) == STATE_FLOATING
    assert_budget(calls_in(alloc.free, blocks[0]), 5)
    assert state(alloc, blocks[0]) == STATE_FLOATING


def test_local_free_into_own_reusable_span_that_leaves_it_live():
    # A 64 B span (508 blocks, threshold 406) marked reusable by its
    # 407th free: the next free pushes and counts once, and makes no
    # further call while the span keeps a live block.
    alloc = make_allocator()
    blocks = [alloc.malloc(64) for _ in range(508)]
    alloc.malloc(64)                     # floats the full span
    for p in blocks[:407]:               # the 407th free marks it reusable
        alloc.free(p)
    p = blocks[407]
    alloc.provider.write_word(p, 1)
    assert state(alloc, p) == STATE_REUSABLE
    assert_budget(calls_in(alloc.free, p), 5)
    assert state(alloc, p) == STATE_REUSABLE
    assert alloc.stats()["pool_puts"] == 0


def test_remote_free_into_a_floating_span_below_threshold():
    # An attached thread's free into the main thread's floating 128K
    # span: a push on the remote list, a second epoch load, and one
    # count against the threshold (6 of 8 blocks).
    alloc = make_allocator()
    blocks = [alloc.malloc(128 * KB) for _ in range(8)]
    alloc.malloc(128 * KB)               # floats the full span
    p = blocks[0]
    alloc.provider.write_word(p, 1)
    assert state(alloc, p) == STATE_FLOATING
    calls = []

    def remote():
        alloc.attach_thread()
        calls.append(calls_in(alloc.free, p))
        alloc.detach_thread()

    run_in_thread(remote)
    assert len(calls) == 1
    assert_budget(calls[0], 9)
    assert state(alloc, p) == STATE_FLOATING
    assert alloc.stats()["frees_remote"] == 1


def test_remote_free_into_a_live_owners_hot_span():
    # The common remote free: a push on the span's remote list, and an
    # epoch load after it that still reads hot. A free into a span it
    # does not own neither tests the owner for orphanhood nor adopts;
    # only a free that marks a span reusable may adopt it.
    alloc = make_allocator()
    p = alloc.malloc(64)                 # the main thread's hot span
    alloc.provider.write_word(p, 1)
    calls = []

    def remote():
        alloc.attach_thread()
        calls.append(calls_in(alloc.free, p))
        alloc.detach_thread()

    run_in_thread(remote)
    assert len(calls) == 1
    assert_budget(calls[0], 8)
    assert state(alloc, p) == STATE_HOT
    assert alloc.stats()["frees_remote"] == 1


def floated_128k_span_at_its_threshold(alloc):
    """A 128K span of the caller's filled, floated and freed down to its
    threshold (6 of 8 blocks); returns the span and its two live
    blocks, the first one's page written."""
    blocks = [alloc.malloc(128 * KB) for _ in range(8)]
    alloc.malloc(128 * KB)               # floats the full span
    for p in blocks[:6]:
        alloc.free(p)
    alloc.provider.write_word(blocks[6], 1)
    span = alloc.space.span_of(blocks[0])
    assert epoch_state(span.epoch.load()) == STATE_FLOATING
    return span, blocks[6:]


def test_own_marking_free_into_the_callers_set():
    # A local push and one count take the caller's own floating span
    # over the threshold: the marking's test of `closed`, replace and
    # set entry are one critical section of the caller's LAB latch, and
    # one emptiness test from the marking's word follows.
    alloc = make_allocator()
    span, left = floated_128k_span_at_its_threshold(alloc)
    assert_budget(calls_in(alloc.free, left[0]), 12)
    assert epoch_state(span.epoch.load()) == STATE_REUSABLE
    assert live_entry(alloc.frontend.labs[0], span)
    assert alloc.stats()["adopts"] == 0


def test_remote_marking_free_into_a_live_owners_set():
    # The same marking from an attached thread's free: a push on the
    # remote list and a second epoch load come first, and the marking
    # enters the span in its live owner's set, not the caller's.
    alloc = make_allocator()
    span, left = floated_128k_span_at_its_threshold(alloc)
    calls = []

    def remote():
        alloc.attach_thread()
        calls.append(calls_in(alloc.free, left[0]))
        alloc.detach_thread()

    run_in_thread(remote)
    assert len(calls) == 1
    assert_budget(calls[0], 16)
    assert epoch_state(span.epoch.load()) == STATE_REUSABLE
    assert live_entry(alloc.frontend.labs[0], span)
    assert alloc.stats()["adopts"] == 0


def test_marking_free_that_adopts_an_orphan():
    # Another thread fills and floats a 128K span, frees it down to the
    # threshold and detaches. The main thread's free marks the orphan:
    # the dead owner's LAB is gone from `labs`, so the free marks the
    # span into its own set with its own owner, one replace from the
    # floating word that adopts it, and locks no other LAB.
    alloc = make_allocator()
    alloc.attach_thread()                # LAB 0
    left = []

    def producer():
        left.extend(floated_128k_span_at_its_threshold(alloc)[1])
        alloc.detach_thread()            # orphans the span

    run_in_thread(producer)
    span = alloc.space.span_of(left[0])
    assert epoch_state(span.epoch.load()) == STATE_FLOATING
    assert_budget(calls_in(alloc.free, left[0]), 16)
    assert epoch_state(span.epoch.load()) == STATE_REUSABLE
    assert live_entry(alloc.frontend.labs[0], span)
    assert alloc.stats()["adopts"] == 1


def test_instrumented_small_malloc_and_its_local_free():
    # An instrumented malloc from the hot span adds its block to the
    # ledger's live set; its local free's DoubleFree test and removal
    # are one call, `FragLedger.on_free`.
    alloc = make_allocator(instrument=True)
    first = alloc.malloc(64)
    p = first + 64                       # the hot span's next bump
    calls = calls_in(alloc.malloc, 64)
    assert alloc.ledger.live == {first, p}
    alloc.provider.write_word(p, 1)
    calls += calls_in(alloc.free, p)
    assert_budget(calls, 9)
    assert calls.count("spanalloc.fragmeter:FragLedger.on_free") == 1
    assert alloc.ledger.live == {first}
    assert state(alloc, p) == STATE_HOT
    assert alloc.space.span_of(p).local_count == 1


def test_realloc_of_a_64b_block_to_128b():
    # The malloc takes the 128 B class's first span from a fresh arena
    # slot, the copy moves the block, and the free pushes it on the
    # local list of its own hot span. The block's WildFree test runs
    # twice: in `block_span`, with one epoch load, before the malloc,
    # and again inside the free.
    alloc = make_allocator()
    p = alloc.malloc(64)
    calls = calls_in(alloc.realloc, p, 128)
    assert_budget(calls, 34)
    assert calls.count("spanalloc.span:SpanSpace.block_span") == 1
    assert alloc.stats()["frees_local"] == 1
    assert alloc.stats()["arena_spans"] == 2


def test_attach_and_detach_of_a_tlab_thread():
    # Attach builds the thread's LAB, owned by the thread's id, and
    # termination's one `close` closes all of its reusable sets and
    # empties them under the LAB's one latch: neither makes a call per
    # set, and attach builds no set, since a class's set is built at its
    # first marking. Detach calls the attachment's finalizer,
    # which calls the release: one call more than a direct release, and
    # no finalizer left behind holding the allocator. The released LAB
    # leaves `labs`.
    alloc = make_allocator()
    calls = []

    def counted():
        calls.append(calls_in(alloc.attach_thread)
                      + calls_in(alloc.detach_thread))

    run_in_thread(counted)
    assert len(calls) == 1
    assert_budget(calls[0], 14)
    assert len(alloc.frontend.labs) == 0
