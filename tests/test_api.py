import pytest

from helpers import SMALL_ARENA, census, check_heap, make_allocator
from spanalloc import (
    NULL, Allocator, AllocatorConfig, ReservationError, WildFree,
)
from spanalloc.bench import WorkloadConfig
from spanalloc.config import CLAB, PAGE_SIZE, TLAB, VIRTUAL_SPAN_SIZE
from spanalloc.size_classes import MAX_CLASS_BLOCK, TABLE, class_for_size
from spanalloc.traces import make_trace, replay


def test_size_routing(alloc):
    p = alloc.malloc(100)
    assert alloc.usable_size(p) == 112
    q = alloc.malloc(1 << 20)
    assert alloc.arena.contains(q)
    assert alloc.usable_size(q) == 1 << 20
    r = alloc.malloc((1 << 20) + 1)
    assert not alloc.arena.contains(r)
    assert alloc.usable_size(r) == 257 * PAGE_SIZE     # page-rounded
    for x in (p, q, r):
        alloc.free(x)


@pytest.mark.parametrize("lab_mode", [TLAB, CLAB])
def test_the_hot_span_pops_its_local_list_lifo_and_bumps_ascending(lab_mode):
    # `malloc`'s inline fast path makes the pop and the bump of
    # `SpanHeader.alloc_block`. A 32 KB span has 16 blocks and reuse
    # threshold 12: 14 are bumped and 13 of them freed. A TLAB free is a
    # local push, popped before the two bumps left; a CLAB free is a
    # remote push, so the span bumps to its end first, and a drain moves
    # the 13 to the local list.
    size = 1 << 15
    alloc = make_allocator(lab_mode=lab_mode)
    blocks = [alloc.malloc(size) for _ in range(14)]
    span = alloc.space.span_of(blocks[0])
    assert (span.blocks_per_span, span.reuse_threshold_blocks) == (16, 12)
    bumps = [span.payload + i * size for i in range(16)]
    assert blocks == bumps[:14]
    for p in blocks[:13]:
        alloc.free(p)
    lifo = blocks[12::-1]
    expected = lifo + bumps[14:] if lab_mode == TLAB else bumps[14:] + lifo
    assert [alloc.malloc(size) for _ in range(15)] == expected
    assert alloc.stats()["drains"] == (lab_mode == CLAB)
    assert span.local_count == 0 and span.bump_limit == 16
    assert alloc.space.span_of(alloc.malloc(size)) is not span


def test_every_class_boundary_routes_by_usable_size(alloc):
    # A class's own block size is served by that class, one byte more by
    # the next one up; one byte past the largest class is one mapping.
    for row, above in zip(TABLE, TABLE[1:]):
        for size, usable in ((row.block_size, row.block_size),
                             (row.block_size + 1, above.block_size)):
            p = alloc.malloc(size)
            assert alloc.usable_size(p) == usable, size
            alloc.free(p)
    p = alloc.malloc(TABLE[-1].block_size)
    assert alloc.usable_size(p) == MAX_CLASS_BLOCK
    alloc.free(p)
    maps = alloc.provider.map_calls
    p = alloc.malloc(MAX_CLASS_BLOCK + 1)
    assert alloc.provider.map_calls == maps + 1 and not alloc.arena.contains(p)
    alloc.free(p)


def test_malloc_zero_gives_unique_freeable_address(alloc):
    a = alloc.malloc(0)
    b = alloc.malloc(0)
    assert a != NULL and b != NULL and a != b
    assert alloc.usable_size(a) == 16
    alloc.free(a)
    alloc.free(b)


def test_free_null_is_noop(alloc):
    alloc.free(NULL)


def test_huge_mapping_geometry(alloc):
    committed = alloc.committed_bytes
    p = alloc.malloc((1 << 20) + 1)
    # The block is the mapping's base: 257 pages, no header page, and
    # nothing committed until the caller writes.
    assert p % VIRTUAL_SPAN_SIZE == 0
    assert alloc.provider.mapping_length(p) == 257 * PAGE_SIZE
    assert alloc.committed_bytes == committed
    alloc.free(p)
    assert alloc.provider.mapping_length(p) is None


def test_huge_free_drops_all_committed(alloc):
    size = 3 << 20
    p = alloc.malloc(size)
    alloc.provider.write(p, b"\x5a" * size)   # touch the whole payload
    total = alloc.provider.mapping_length(p)
    before = alloc.committed_bytes
    assert before >= total
    alloc.free(p)
    assert before - alloc.committed_bytes == total


def test_huge_blocks_writable(alloc):
    size = (2 << 20) + 12345
    p = alloc.malloc(size)
    alloc.provider.write(p + size - 4, b"tail")
    assert alloc.provider.read(p + size - 4, 4) == b"tail"
    alloc.free(p)


def test_wild_free_detected(alloc):
    with pytest.raises(WildFree):
        alloc.free(0x5000)                 # far outside anything
    p = alloc.malloc(2 << 20)
    with pytest.raises(WildFree):
        alloc.free(p + PAGE_SIZE)          # inside mapping, wrong addr
    alloc.free(p)
    q = alloc.malloc(64)
    with pytest.raises(WildFree):
        # In-arena address of a slot that holds no span.
        alloc.free(alloc.arena.base + 10 * VIRTUAL_SPAN_SIZE + 64)
    # A header created past the others leaves a gap of empty slots, and
    # is itself uninitialized until its span is handed out.
    alloc.space.header_for_base(alloc.arena.base_of_slot(20))
    for slot in (15, 20):
        with pytest.raises(WildFree):
            alloc.free(alloc.arena.base_of_slot(slot) + PAGE_SIZE)
    alloc.free(q)


def test_bad_huge_addresses_change_nothing(alloc):
    p = alloc.malloc(3 << 20)
    alloc.provider.write_word(p, 1)
    length = alloc.provider.mapping_length(p)
    committed = alloc.committed_bytes
    stats = alloc.stats()
    for bad in (p + 8, p + PAGE_SIZE,
                p + (2 << 20),           # in the mapping's second slot
                -PAGE_SIZE, 0x5000):     # negative, wild
        for op in (alloc.free, alloc.usable_size,
                   lambda addr: alloc.realloc(addr, 64)):
            with pytest.raises(WildFree, match="not an allocated address"):
                op(bad)
            assert alloc.provider.mapping_length(p) == length
            assert alloc.committed_bytes == committed
            assert alloc.stats() == stats
    alloc.free(p)
    assert alloc.provider.mapping_length(p) is None
    with pytest.raises(WildFree, match="not an allocated address"):
        alloc.free(p)                                   # second free


@pytest.mark.parametrize("lab_mode", [TLAB, CLAB])
def test_bad_arena_addresses_change_nothing(lab_mode):
    # free checks inline what realloc and usable_size check through
    # `block_span`: each rejects the same addresses, with the same
    # message, and changes no span word, list or counter.
    alloc = make_allocator(lab_mode=lab_mode)
    p = alloc.malloc(64)
    alloc.free(alloc.malloc(64))       # a listed block, local or remote
    span = alloc.space.span_of(p)
    limit = span.payload + span.bump_limit * span.block_size
    a = alloc.malloc(1 << 20)
    alloc.malloc(1 << 20)              # floats a's span
    alloc.free(a)                      # empties and pools it
    alloc.space.header_for_base(alloc.arena.base_of_slot(20))

    def words():
        return [(h.epoch.load(), h.local_head, h.local_count, h.remote.load())
                for h in alloc.space.iter_headers()]

    before = words()
    committed = alloc.committed_bytes
    stats = alloc.stats()
    for bad in (alloc.arena.base_of_slot(15) + PAGE_SIZE,   # a gap slot
                alloc.arena.base_of_slot(20) + PAGE_SIZE,   # unused header
                span.payload - 16, span.payload - 64,       # header bytes
                p + 8,                                      # interior
                limit, limit + 10 * 64,                     # at, above limit
                a):                                         # pooled span
        with pytest.raises(WildFree) as freed:
            alloc.free(bad)
        with pytest.raises(WildFree) as reallocated:
            alloc.realloc(bad, 64)
        assert str(freed.value) == str(reallocated.value)
        if bad == p + 8:
            assert alloc.usable_size(bad) == 64
        else:
            with pytest.raises(WildFree) as sized:
                alloc.usable_size(bad)
            assert str(sized.value) == str(freed.value)
        assert words() == before
        assert alloc.committed_bytes == committed
        assert alloc.stats() == stats
    alloc.free(p)


def test_huge_objects_commit_only_their_pages(alloc):
    # 64 live huge objects, 1MB+1 .. 4MB: their mallocs commit nothing,
    # and writing each one's first word commits exactly that word's page.
    baseline = alloc.committed_bytes
    step = ((4 << 20) - (1 << 20) - 1) // 63
    blocks = [alloc.malloc((1 << 20) + 1 + i * step) for i in range(64)]
    assert alloc.committed_bytes == baseline
    for p in blocks:
        alloc.provider.write_word(p, p)
    assert alloc.committed_bytes == baseline + 64 * PAGE_SIZE
    for p in blocks:
        alloc.free(p)
    assert alloc.committed_bytes == baseline
    assert alloc.provider.map_calls == alloc.provider.unmap_calls == 64


def test_os_provider_huge_objects():
    try:
        alloc = Allocator(provider="os", arena_bytes=1 << 27)
    except ReservationError:               # pragma: no cover
        pytest.skip("mmap refused in this environment")
    size = (3 << 20) + 5
    p = alloc.malloc(size)
    assert p != NULL and p % PAGE_SIZE == 0
    alloc.provider.write(p + size - 1, b"z")
    assert alloc.provider.read(p + size - 1, 1) == b"z"
    assert alloc.usable_size(p) >= size
    alloc.provider.write(p, b"prefix")
    q = alloc.realloc(p, 5 << 20)
    assert q != NULL
    assert alloc.provider.read(q, 6) == b"prefix"
    with pytest.raises(WildFree):
        alloc.free(q + PAGE_SIZE)          # interior
    alloc.free(q)
    with pytest.raises(WildFree):
        alloc.free(q)                      # second free
    assert alloc.provider.map_calls == alloc.provider.unmap_calls == 2


def test_interior_free_rejected(alloc):
    p = alloc.malloc(64)
    with pytest.raises(WildFree):
        alloc.free(p + 8)                  # not a block boundary
    with pytest.raises(WildFree):
        alloc.free(alloc.space.span_of(p).payload - 16)   # in the header
    q = alloc.malloc(64)
    assert q != p + 8 and (q - p) % 64 == 0
    alloc.free(p)
    alloc.free(q)
    assert alloc.stats()["frees"] == 2


def test_free_of_never_handed_out_block_rejected(alloc):
    p = alloc.malloc(64)
    span = alloc.space.span_of(p)
    assert span.bump_limit == 1
    with pytest.raises(WildFree):
        alloc.free(p + 64)                 # index == bump_limit
    with pytest.raises(WildFree):
        alloc.free(p + 10 * 64)            # above it
    assert span.local_count == 0 and span.remote_count() == 0
    alloc.free(p)


def test_free_into_pooled_span_rejected(alloc):
    # 1MB blocks have a span each; freeing `a` after its span floated
    # empties it and pools it, so a second free finds it in state free.
    a = alloc.malloc(1 << 20)
    b = alloc.malloc(1 << 20)
    alloc.free(a)
    puts = alloc.pool.puts.load()
    with pytest.raises(WildFree):
        alloc.free(a)
    assert alloc.pool.puts.load() == puts
    c = alloc.malloc(1 << 20)
    d = alloc.malloc(1 << 20)
    assert c != d                           # not handed out twice
    for x in (b, c, d):
        alloc.free(x)


def test_usable_size_validates_like_free(alloc):
    p = alloc.malloc(64)
    span = alloc.space.span_of(p)
    # An address inside a handed-out block answers for that block.
    assert alloc.usable_size(p + 8) == alloc.usable_size(p) == 64
    for bad in (
        span.payload - 16,                  # in the header
        p + 64,                             # at the bump limit
        alloc.arena.base + 10 * VIRTUAL_SPAN_SIZE + 64,   # past every header
    ):
        with pytest.raises(WildFree):
            alloc.usable_size(bad)
    alloc.space.header_for_base(alloc.arena.base_of_slot(20))
    for slot in (15, 20):                   # a gap slot, an unused header
        with pytest.raises(WildFree):
            alloc.usable_size(alloc.arena.base_of_slot(slot) + PAGE_SIZE)
    with pytest.raises(KeyError):           # span_of at the gap
        alloc.space.span_of(alloc.arena.base_of_slot(15))
    a = alloc.malloc(1 << 20)
    alloc.malloc(1 << 20)                   # floats a's span
    alloc.free(a)                           # empties and pools it
    with pytest.raises(WildFree):
        alloc.usable_size(a)
    alloc.free(p)


def test_realloc_of_interior_pointer_rejected_before_allocating(alloc):
    p = alloc.malloc(64)
    allocs = alloc.stats()["allocs"]
    with pytest.raises(WildFree):
        alloc.realloc(p + 8, 128)
    assert alloc.stats()["allocs"] == allocs
    assert alloc.realloc(p, 128) != NULL


def test_calloc_zeroes_recycled_blocks(alloc):
    p = alloc.malloc(256)
    alloc.provider.write(p, b"\xa5" * 256)
    alloc.free(p)                          # free-list link now in block
    q = alloc.calloc(4, 64)
    assert q == p                          # LIFO reuse of the dirty block
    assert alloc.provider.read(q, 256) == bytes(256)
    alloc.free(q)


def test_calloc_huge_fresh_zero(alloc):
    q = alloc.calloc(1, (1 << 20) + 5)
    assert alloc.provider.read(q + (1 << 20) - 8, 13) == bytes(13)
    alloc.free(q)


def test_realloc_copies_and_routes(alloc):
    p = alloc.malloc(48)
    alloc.provider.write(p, b"0123456789abcdef" * 3)
    q = alloc.realloc(p, 4096)
    assert alloc.provider.read(q, 48) == b"0123456789abcdef" * 3
    r = alloc.realloc(q, 2 << 20)          # span -> huge
    assert alloc.provider.read(r, 48) == b"0123456789abcdef" * 3
    s = alloc.realloc(r, 32)               # huge -> span
    assert alloc.provider.read(s, 32) == b"0123456789abcdef" * 2
    alloc.free(s)
    assert alloc.realloc(NULL, 64) != NULL


def test_realloc_commits_only_what_the_source_committed(alloc):
    p = alloc.malloc(3 << 20)
    alloc.provider.write_word(p, 0x5EED)
    assert alloc.committed_bytes == PAGE_SIZE
    q = alloc.realloc(p, 5 << 20)
    assert alloc.provider.read_word(q) == 0x5EED
    assert alloc.committed_bytes == PAGE_SIZE
    alloc.free(q)


def test_realloc_into_a_recycled_block_copies_the_sources_zeros(alloc):
    # realloc's new 32K block is a recycled one with a stale word on
    # every page; the 16K source wrote only its first page.
    stale = alloc.malloc(32 << 10)
    for k in range(8):
        alloc.provider.write_word(stale + k * PAGE_SIZE, 0xDEAD)
    alloc.free(stale)
    src = alloc.malloc(16 << 10)
    alloc.provider.write_word(src, 7)
    committed = alloc.committed_bytes
    new = alloc.realloc(src, 32 << 10)
    assert new == stale
    assert [alloc.provider.read_word(new + k * PAGE_SIZE)
            for k in range(4)] == [7, 0, 0, 0]
    assert alloc.provider.read(new, 16 << 10) \
        == (7).to_bytes(8, "little") + bytes((16 << 10) - 8)
    assert alloc.committed_bytes == committed
    alloc.free(new)


def test_aligned_alloc(alloc):
    for align in (1, 2, 16, 32, 64, 256, 512, 4096):
        for size in (1, 24, 100, 513, 5000):
            p = alloc.aligned_alloc(align, size)
            assert p % align == 0, (align, size)
            assert alloc.usable_size(p) >= size
            alloc.free(p)
    p = alloc.malloc(64)
    stats, committed = alloc.stats(), alloc.committed_bytes
    for call, args in (
        (alloc.aligned_alloc, (48, 100)),      # not a power of two
        (alloc.aligned_alloc, (8192, 100)),    # beyond the 4KB cap
        (alloc.aligned_alloc, (64, -1)),       # negative sizes
        (alloc.aligned_alloc, (8, -1)),
        (alloc.malloc, (-1,)),
        (alloc.calloc, (-2, -3)),
        (alloc.calloc, (-2, 3)),
        (alloc.calloc, (0, -1)),
        (alloc.realloc, (p, -1)),              # raises before freeing p
        (alloc.realloc, (NULL, -1)),
    ):
        with pytest.raises(ValueError):
            call(*args)
    assert alloc.stats() == stats              # nothing allocated or freed
    assert alloc.committed_bytes == committed
    alloc.free(p)


def test_out_of_memory_returns_null():
    alloc = make_allocator(arena_bytes=2 * VIRTUAL_SPAN_SIZE)
    seen = []
    while True:
        p = alloc.malloc(1 << 20)          # one block per span
        if p == NULL:
            break
        seen.append(p)
    assert len(seen) == 2
    alloc.free(seen[0])
    assert alloc.malloc(1 << 20) != NULL   # recycled after free
    assert alloc.malloc(1 << 47) == NULL   # huge, past the reservation cap


def test_realloc_to_zero_or_past_memory():
    # realloc(p, 0) frees p and returns a minimal block; a realloc whose
    # malloc fails returns NULL and leaves p live with its bytes.
    alloc = make_allocator(instrument=True)
    p = alloc.malloc(64)
    q = alloc.realloc(p, 0)
    assert alloc.usable_size(q) == 16 and alloc.ledger.live == {q}
    alloc.provider.write_word(q, 0x5EED)
    assert alloc.realloc(q, 1 << 47) == NULL
    assert alloc.ledger.live == {q} and alloc.provider.read_word(q) == 0x5EED
    alloc.free(q)


def test_roundtrip_sweep_restores_committed(alloc):
    # Log-spaced sizes across the class range and into huge territory.
    sizes = [1 << i for i in range(0, 22)] + [(1 << 21) - 1]
    for size in sizes:
        baseline = alloc.committed_bytes
        p = alloc.malloc(size)
        assert p != NULL
        alloc.provider.write(p, b"\x11" * size)       # fully writable
        sc = class_for_size(size)
        alloc.free(p)
        after = alloc.committed_bytes
        if sc >= 0:
            slack = TABLE[sc].real_span_size + TABLE[sc].header_size
        else:
            slack = 0                                  # huge: all unmapped
        assert after - baseline <= slack, size


def test_span_tails_stay_uncommitted():
    # Blocks of a 32KB real span, and the free-list words their frees
    # write, commit nothing past the real span in its 2MB slot.
    alloc = make_allocator()
    blocks = [alloc.malloc(256) for _ in range(600)]
    for q in blocks:
        span = alloc.space.span_of(q)
        assert span.real_span_size == 32 * 1024
        assert span.base < q and q + 256 <= span.base + span.real_span_size
        alloc.provider.write(q, b"x" * 256)
    check_heap(alloc, blocks)
    for q in blocks:
        alloc.free(q)
    check_heap(alloc, live=())


@pytest.mark.parametrize("decommit", [True, False],
                         ids=["decommit", "no_decommit"])
def test_reclassed_slot_commits_only_its_real_span(decommit):
    # One slot is re-classed 32KB -> 1028KB -> 32KB through the pool.
    alloc = make_allocator(decommit_enabled=decommit)
    blocks = [alloc.malloc(16) for _ in range(2032)]   # one full 32KB span
    span = alloc.space.span_of(blocks[0])
    alloc.malloc(16)                       # float it
    for b in blocks:
        alloc.free(b)                      # last free pools the span
    assert not census(alloc).stray
    # The pool scan hands the slot to a 512KB-class request.
    half = 512 * 1024
    big = [alloc.malloc(half) for _ in range(2)]       # fill it
    assert {alloc.space.span_of(p) for p in big} == {span}
    assert span.real_span_size == 1028 * 1024
    for p in big:
        alloc.provider.write(p, b"y" * half)
    assert not census(alloc).stray
    alloc.malloc(half)                     # float it
    for p in big:
        alloc.free(p)                      # pools it; decommits if enabled
    assert not census(alloc).stray
    tail = {idx for idx in alloc.provider.committed_page_indices()
            if span.base + 32 * 1024 <= idx * PAGE_SIZE
            < span.base + VIRTUAL_SPAN_SIZE}
    assert bool(tail) != decommit          # only decommit empties it
    # Back to 32KB: the scan hands the pooled slot to malloc(32).
    small = [alloc.malloc(32) for _ in range(1016)]    # fill it
    assert {alloc.space.span_of(p) for p in small} == {span}
    assert span.real_span_size == 32 * 1024
    for p in small:
        alloc.provider.write(p, b"z" * 32)
    # Without decommit the old tail stays committed; nothing is added.
    assert census(alloc).stray == tail


# The keys of `stats()`; an instrumented allocator adds `frag_bytes`.
STATS_KEYS = {
    "allocs", "frees_local", "frees_remote", "set_fetches", "drains",
    "adopts", "max_fetches_per_alloc", "frees", "remote_free_fraction",
    "pool_puts", "pool_gets", "arena_spans", "pool_fetches",
    "stack_pushes", "stack_pops", "stack_retries",
}


def test_stats_shape():
    # A seeded two-thread prodcons replay pools spans and takes them
    # back. Each restated key reads the one counter it restates: a stack
    # push is a pool put, a pop a pool get, and a span fetch a pool get
    # or an arena span.
    trace = make_trace(WorkloadConfig(name="prodcons", threads=2, rounds=6,
                                      objects_per_round=1500, seed=5))
    for instrument in (False, True):
        alloc = make_allocator(instrument=instrument)
        replay(trace, alloc)
        s = alloc.stats()
        assert set(s) == STATS_KEYS | ({"frag_bytes"} if instrument else set())
        assert s["allocs"] == s["frees"] == 18000
        assert s["pool_puts"] > s["pool_gets"] > 0 and s["arena_spans"] > 0
        assert s["stack_pushes"] == s["pool_puts"]
        assert s["stack_pops"] == s["pool_gets"]
        assert s["pool_fetches"] == s["pool_gets"] + s["arena_spans"]
        assert s["stack_retries"] \
            == sum(row[-1] for row in alloc.pool.stack_counters())


@pytest.mark.parametrize("bad", [
    {"arena_bytes": VIRTUAL_SPAN_SIZE + PAGE_SIZE},
    {"provider": "mmap"},
    {"lab_mode": "per_core"},
])
def test_config_fields_are_validated_as_fields_and_as_overrides(bad):
    with pytest.raises(ValueError):
        AllocatorConfig(**bad)
    with pytest.raises(ValueError):
        Allocator(AllocatorConfig(arena_bytes=SMALL_ARENA), **bad)
    # A valid override replaces its field and keeps the others.
    alloc = Allocator(AllocatorConfig(arena_bytes=SMALL_ARENA), pool_width=1)
    assert (alloc.config.arena_bytes, alloc.config.pool_width) \
        == (SMALL_ARENA, 1)
