import pytest

from helpers import make_allocator
from spanalloc import NULL, GuardViolation, WildFree
from spanalloc.api import HUGE_MAGIC, HugeHeader
from spanalloc.config import PAGE_SIZE, VIRTUAL_SPAN_SIZE
from spanalloc.size_classes import TABLE, class_for_size


def test_size_routing(alloc):
    p = alloc.malloc(100)
    assert alloc.usable_size(p) == 112
    q = alloc.malloc(1 << 20)
    assert alloc.arena.contains(q)
    assert alloc.usable_size(q) == 1 << 20
    r = alloc.malloc((1 << 20) + 1)
    assert not alloc.arena.contains(r)
    assert alloc.usable_size(r) == (1 << 20) + 1
    for x in (p, q, r):
        alloc.free(x)


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
    size = (1 << 20) + 1
    p = alloc.malloc(size)
    assert p % PAGE_SIZE == 0
    base = p - PAGE_SIZE
    # 1 header page + 257 payload pages.
    assert alloc.provider.mapping_length(base) == 258 * PAGE_SIZE
    header = HugeHeader.unpack(alloc.provider.read(base, 24))
    assert header.magic == HUGE_MAGIC
    assert header.payload_size == size
    assert header.total_mapping == 258 * PAGE_SIZE
    alloc.free(p)
    assert alloc.provider.mapping_length(base) is None


def test_huge_free_drops_all_committed(alloc):
    size = 3 << 20
    p = alloc.malloc(size)
    alloc.provider.write(p, b"\x5a" * size)   # touch the whole payload
    total = alloc.provider.mapping_length(p - PAGE_SIZE)
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
    alloc.free(q)


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


def test_aligned_alloc(alloc):
    for align in (1, 2, 16, 32, 64, 256, 512, 4096):
        for size in (1, 24, 100, 513, 5000):
            p = alloc.aligned_alloc(align, size)
            assert p % align == 0, (align, size)
            assert alloc.usable_size(p) >= size
            alloc.free(p)
    with pytest.raises(ValueError):
        alloc.aligned_alloc(48, 100)       # not a power of two
    with pytest.raises(ValueError):
        alloc.aligned_alloc(8192, 100)     # beyond the 4KB cap


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
            slack = PAGE_SIZE                          # huge: header page
        assert after - baseline <= slack, size


def test_guard_pages_protect_span_tails():
    alloc = make_allocator(guard_pages=True)
    p = alloc.malloc(64)
    span = alloc.space.span_of(p)
    alloc.provider.write(p, b"x" * 64)                 # block access fine
    with pytest.raises(GuardViolation):
        alloc.provider.write(span.base + span.real_span_size + PAGE_SIZE, b"x")
    # No allocation may land inside a guarded page.
    guards = alloc.provider.guarded_ranges()
    for _ in range(600):
        q = alloc.malloc(256)
        assert q // PAGE_SIZE not in guards
    alloc.free(p)


def test_guard_pages_retreat_when_real_span_grows():
    alloc = make_allocator(guard_pages=True)
    blocks = [alloc.malloc(16) for _ in range(2032)]   # one full 32KB span
    span = alloc.space.span_of(blocks[0])
    alloc.malloc(16)                       # float it
    for b in blocks:
        alloc.free(b)                      # last free pools the span
    # The pool scan hands the 32KB-real-span slot to a 512KB-class
    # request; reinitialization must pull the guard back past 1028KB.
    big = alloc.malloc(512 * 1024)
    span2 = alloc.space.span_of(big)
    assert span2 is span                   # same slot, larger real span
    assert span2.real_span_size == 1028 * 1024
    alloc.provider.write(big, b"y" * (512 * 1024))     # no trap
    with pytest.raises(GuardViolation):
        alloc.provider.write(span2.base + span2.real_span_size, b"z")
    alloc.free(big)


def test_stats_shape(alloc):
    p = alloc.malloc(64)
    alloc.free(p)
    s = alloc.stats()
    for key in ("allocs", "frees", "pool_puts", "remote_free_fraction",
                "stack_pushes", "arena_spans"):
        assert key in s
    assert s["allocs"] == 1 and s["frees"] == 1


def test_config_from_env(monkeypatch):
    from spanalloc import AllocatorConfig

    monkeypatch.setenv("SPANALLOC_ARENA_BYTES", str(1 << 26))
    monkeypatch.setenv("SPANALLOC_PROVIDER", "sim")
    monkeypatch.setenv("SPANALLOC_GUARD_PAGES", "yes")
    monkeypatch.setenv("SPANALLOC_REUSE_PERCENT", "90")
    monkeypatch.setenv("SPANALLOC_LAB_MODE", "clab")
    monkeypatch.setenv("SPANALLOC_POOL_WIDTH", "3")
    cfg = AllocatorConfig.from_env()
    assert cfg.arena_bytes == 1 << 26
    assert cfg.guard_pages is True
    assert cfg.reuse_percent == 90
    assert cfg.lab_mode == "clab"
    assert cfg.effective_pool_width() == 3
    override = AllocatorConfig.from_env(reuse_percent=75)
    assert override.reuse_percent == 75
