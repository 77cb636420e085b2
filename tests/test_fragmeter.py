import random
import threading

import pytest

from helpers import check_heap, make_allocator, run_threads
from spanalloc import DoubleFree
from spanalloc.size_classes import TABLE, class_for_size
from spanalloc.span import STATE_FREE, epoch_state

C64 = class_for_size(64)
B64 = TABLE[C64].blocks_per_span
U64 = B64 * 64


def instrumented(**kw):
    kw.setdefault("instrument", True)
    return make_allocator(**kw)


def frag(alloc):
    return alloc.stats()["frag_bytes"]


def frag_from_live(alloc, sizes):
    """The free payload bytes, from no free count: the block bytes of
    every span in the frontend, less the class block size of each
    request size in `sizes`, one per block the test holds live."""
    span_bytes = sum(h.blocks_per_span * h.block_size
                     for h in alloc.space.iter_headers()
                     if epoch_state(h.epoch.load()) != STATE_FREE)
    return span_bytes - sum(TABLE[class_for_size(size)].block_size
                            for size in sizes)


def test_first_alloc_charges_whole_span():
    alloc = instrumented()
    alloc.malloc(64)
    assert frag(alloc) == U64 - 64 == 32512 - 64
    assert frag(alloc) == frag_from_live(alloc, [64])


def test_alloc_from_hot_span_decreases():
    alloc = instrumented()
    alloc.malloc(64)
    before = frag(alloc)
    alloc.malloc(64)
    assert frag(alloc) == before - 64


def test_exhausting_span_takes_new_span_branch():
    alloc = instrumented()
    for _ in range(B64):
        alloc.malloc(64)
    assert frag(alloc) == U64 - B64 * 64 == 0
    alloc.malloc(64)                       # forces a fresh span
    assert frag(alloc) == U64 - 64
    assert frag(alloc) == frag_from_live(alloc, [64] * (B64 + 1))


def test_ordinary_free_increases_by_class_size():
    alloc = instrumented()
    p = alloc.malloc(64)
    alloc.malloc(64)
    before = frag(alloc)
    alloc.free(p)
    assert frag(alloc) == before + 64


def test_last_block_free_releases_whole_payload():
    alloc = instrumented()
    blocks = [alloc.malloc(64) for _ in range(B64)]
    alloc.malloc(64)                       # float the first span
    for b in blocks[:-1]:
        alloc.free(b)
    before = frag(alloc)
    alloc.free(blocks[-1])                 # empties + pools the span
    assert frag(alloc) == before + 64 - U64
    assert frag(alloc) == frag_from_live(alloc, [64])   # the extra block


def test_span_lifecycle_telescopes_to_zero_net():
    alloc = instrumented()
    blocks = [alloc.malloc(64) for _ in range(B64)]
    extra = alloc.malloc(64)               # new span's first block
    f_after_extra = frag(alloc)
    for b in blocks:
        alloc.free(b)
    # The first span's whole life nets out once it returns to the pool.
    assert frag(alloc) == f_after_extra - U64 + 64 * B64
    assert frag(alloc) == frag_from_live(alloc, [64])
    alloc.free(extra)
    assert frag(alloc) == frag_from_live(alloc, []) == U64


def test_ledger_matches_oracle_after_every_op():
    alloc = instrumented()
    rng = random.Random(11)
    sizes = [16, 48, 64, 256, 512, 4096]
    live = []                              # (address, request size)
    for step in range(4000):
        if live and (rng.random() < 0.48 or len(live) > 900):
            alloc.free(live.pop(rng.randrange(len(live)))[0])
        else:
            size = rng.choice(sizes)
            live.append((alloc.malloc(size), size))
        assert frag(alloc) == frag_from_live(
            alloc, [size for _, size in live]), step
        if step % 500 == 0:
            check_heap(alloc, [addr for addr, _ in live])
    while live:
        alloc.free(live.pop()[0])
        assert frag(alloc) == frag_from_live(
            alloc, [size for _, size in live])
    check_heap(alloc, live=())
    assert frag(alloc) >= 0


def test_lazy_reclaim_keeps_oracle_equality():
    alloc = instrumented(eager_reclaim=False)
    rng = random.Random(5)
    live = []                              # (address, request size)
    for step in range(3000):
        if live and rng.random() < 0.5:
            alloc.free(live.pop(rng.randrange(len(live)))[0])
        else:
            size = rng.choice([64, 256])
            live.append((alloc.malloc(size), size))
        assert frag(alloc) == frag_from_live(
            alloc, [size for _, size in live]), step
    while live:
        alloc.free(live.pop()[0])
    assert frag(alloc) == frag_from_live(alloc, [])


def test_double_free_raises_and_leaves_the_lists_alone():
    alloc = instrumented()
    keep = alloc.malloc(64)                 # keeps the span out of the pool
    p = alloc.malloc(64)
    span = alloc.space.span_of(p)

    def lists():
        return span.walk_local(), span.walk_remote()

    alloc.free(p)
    before, f = lists(), frag(alloc)
    with pytest.raises(DoubleFree):         # local repeat free
        alloc.free(p)

    raised = []

    def free_elsewhere():                   # remote repeat free
        try:
            alloc.free(p)
        except DoubleFree:
            raised.append(True)
        alloc.detach_thread()

    t = threading.Thread(target=free_elsewhere)
    run_threads([t])
    assert raised == [True]
    assert lists() == before and frag(alloc) == f
    assert alloc.stats()["frees"] == 1

    q = alloc.malloc(64)                    # the block handed out again
    assert q == p
    alloc.free(q)
    with pytest.raises(DoubleFree):
        alloc.free(p)
    handed = [alloc.malloc(64) for _ in range(3)]
    assert len(set(handed)) == 3 and keep not in handed
    for x in handed + [keep]:
        alloc.free(x)
    check_heap(alloc, live=())


def test_realloc_of_freed_block_raises_before_allocating():
    alloc = instrumented()
    keep = alloc.malloc(64)                 # keeps the span out of the pool
    p = alloc.malloc(64)
    alloc.free(p)
    allocs, live, f = alloc.stats()["allocs"], set(alloc.ledger.live), \
        frag(alloc)
    with pytest.raises(DoubleFree):
        alloc.realloc(p, 128)
    assert alloc.stats()["allocs"] == allocs
    assert alloc.ledger.live == live == {keep}
    assert frag(alloc) == f


def test_live_set_empties_when_every_block_is_freed():
    alloc = instrumented()
    rng = random.Random(3)
    blocks = [alloc.malloc(rng.choice([16, 64, 256, 4096]))
              for _ in range(3000)]
    assert len(alloc.ledger.live) == len(blocks)
    rng.shuffle(blocks)
    for b in blocks:
        alloc.free(b)
    assert alloc.ledger.live == set()


def test_plain_allocator_has_no_ledger():
    alloc = make_allocator()
    assert alloc.ledger is None and alloc.space.ledger is None
    p = alloc.malloc(64)
    alloc.free(p)
    assert "frag_bytes" not in alloc.stats()
