"""Per-path call budgets for `Allocator.free`.

Each test counts the Python-level function calls (`sys.setprofile`
"call" events, the outer `free` included) that one free makes on an
uninstrumented `sim` allocator, on one path of the paper's free: a
retirement of a 1M-class span to the pool, a free that empties a
reusable 128K-class span with 8 committed block pages, a huge free, a
local free into the caller's own floating span that leaves it below
the reuse threshold, and a remote free into a live owner's hot span;
one huge malloc; and one attach and detach of a thread on a recycled
LAB. Builtins and C methods (dict and set
operations, lock acquire and release) make no "call" event and are not
counted.

The budgets are the counts of the current code. A path over its budget
is a finding to explain or fix, not a bound to raise: the count only
grows when a call was added to that path. Call events differ between
interpreter versions, so the tests run on CPython 3.11 only.
"""

import sys
import threading

import pytest

from helpers import make_allocator
from spanalloc.config import PAGE_SIZE
from spanalloc.span import (
    STATE_FLOATING, STATE_FREE, STATE_HOT, STATE_REUSABLE, epoch_state,
)

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="call events are counted as CPython 3.11 makes them")

KB = 1024
MB = 1024 * KB


def calls_in(fn, *args):
    """The "call" profile events of `fn(*args)`, which is counted too.
    The caller's profiler, if any, is restored afterwards."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return count


def state(alloc, addr):
    return epoch_state(alloc.space.span_of(addr).epoch.load())


def test_free_that_retires_a_floating_1m_span():
    # floating -> reusable -> free and a pool put that decommits the
    # span's one block page, all in this free.
    alloc = make_allocator()
    p = alloc.malloc(MB)
    alloc.provider.write_word(p, 1)      # its block page, as a user would
    alloc.malloc(MB)                     # floats p's span
    assert state(alloc, p) == STATE_FLOATING
    span = alloc.space.span_of(p)
    assert calls_in(alloc.free, p) == 26
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
    assert calls_in(alloc.free, blocks[7]) == 22
    assert epoch_state(span.epoch.load()) == STATE_FREE
    assert alloc.provider.committed_in(span.base, span.real_span_size) \
        == PAGE_SIZE


def test_huge_free():
    alloc = make_allocator()
    p = alloc.malloc(3 * MB)
    alloc.provider.write_word(p, 1)
    assert calls_in(alloc.free, p) == 5
    assert alloc.provider.unmap_calls == 1 and alloc.committed_bytes == 0


def test_huge_malloc():
    # The mapping is the object: no header page is written.
    alloc = make_allocator()
    committed = alloc.committed_bytes
    assert calls_in(alloc.malloc, 3 * MB) == 8
    assert alloc.provider.map_calls == 1
    assert alloc.committed_bytes == committed


def test_local_free_into_own_floating_span_below_threshold():
    # The common free of a span that went floating: a push on the local
    # list and one count against the reuse threshold (6 of 8 blocks).
    alloc = make_allocator()
    blocks = [alloc.malloc(128 * KB) for _ in range(8)]
    alloc.malloc(128 * KB)               # floats the full span
    alloc.provider.write_word(blocks[0], 1)
    assert state(alloc, blocks[0]) == STATE_FLOATING
    assert calls_in(alloc.free, blocks[0]) == 10
    assert state(alloc, blocks[0]) == STATE_FLOATING


def test_remote_free_into_a_live_owners_hot_span():
    # The common remote free: a push on the span's remote list. A free
    # into a span it does not own neither tests the owner for orphanhood
    # nor adopts; only a free that marks a span reusable may adopt it.
    alloc = make_allocator()
    p = alloc.malloc(64)                 # the main thread's hot span
    alloc.provider.write_word(p, 1)
    counts = []

    def remote():
        alloc.attach_thread()
        counts.append(calls_in(alloc.free, p))
        alloc.detach_thread()

    t = threading.Thread(target=remote)
    t.start()
    t.join(30)
    assert not t.is_alive()
    assert counts == [10]
    assert state(alloc, p) == STATE_HOT
    assert alloc.stats()["frees_remote"] == 1


def test_attach_and_detach_of_a_tlab_thread():
    # Activation stores the recycled LAB's owner word, and termination's
    # one TERMINATED store closes all of its reusable sets: neither
    # makes a call per set. Detach calls the attachment's finalizer,
    # which calls the release: one call more than a direct release, and
    # no finalizer left behind holding the allocator.
    alloc = make_allocator()
    counts = []

    def warm_up():
        alloc.attach_thread()
        alloc.detach_thread()               # leaves a free LAB behind

    def counted():
        counts.append(calls_in(alloc.attach_thread)
                      + calls_in(alloc.detach_thread))

    for work in (warm_up, counted):         # a fresh thread each
        t = threading.Thread(target=work)
        t.start()
        t.join(30)
        assert not t.is_alive()
    assert counts == [44]
    assert len(alloc.frontend.labs) == 1
