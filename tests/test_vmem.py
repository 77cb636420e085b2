import random

import pytest

from spanalloc.config import PAGE_SIZE, VIRTUAL_SPAN_SIZE
from spanalloc.errors import GuardViolation, ReservationError
from spanalloc.vmem import OsProvider, SimProvider

MB2 = VIRTUAL_SPAN_SIZE


def test_reserve_postconditions():
    p = SimProvider()
    region = p.reserve(1 << 35)
    assert region.base % MB2 == 0
    assert region.length == 1 << 35
    assert p.committed_bytes == 0
    # Desk default: 2^35 of arena holds 2^35 / 2^21 virtual spans.
    assert region.length // MB2 == 16384


def test_reserve_multiple_regions_disjoint():
    p = SimProvider()
    regions = [p.reserve(4 * MB2) for _ in range(5)]
    spans = sorted((r.base, r.end) for r in regions)
    for (b1, e1), (b2, e2) in zip(spans, spans[1:]):
        assert e1 <= b2
    assert p.stats.reserve_calls == 5


def test_reserve_validates_arguments():
    p = SimProvider()
    with pytest.raises(ValueError):
        p.reserve(MB2 + 1)
    with pytest.raises(ValueError):
        p.reserve(0)


def test_reservation_cap():
    p = SimProvider(reservation_cap=4 * MB2)
    p.reserve(2 * MB2)
    with pytest.raises(ReservationError):
        p.reserve(4 * MB2)


def test_write_commits_read_does_not():
    p = SimProvider()
    r = p.reserve(2 * MB2)
    assert p.read(r.base, 64) == bytes(64)
    assert p.committed_bytes == 0          # reads never commit
    p.write(r.base + 100, b"abc")
    assert p.committed_bytes == PAGE_SIZE
    assert p.read(r.base + 100, 3) == b"abc"


def test_word_roundtrip_and_cross_page_write():
    p = SimProvider()
    r = p.reserve(2 * MB2)
    p.write_word(r.base + 8, 0xDEADBEEF)
    assert p.read_word(r.base + 8) == 0xDEADBEEF
    assert p.read_word(r.base + 64) == 0
    blob = bytes(range(256)) * 33          # crosses two page boundaries
    p.write(r.base + PAGE_SIZE - 100, blob)
    assert p.read(r.base + PAGE_SIZE - 100, len(blob)) == blob


def test_decommit_releases_and_reads_zero():
    p = SimProvider()
    r = p.reserve(2 * MB2)
    span = r.base
    p.write(span, b"\xff" * (68 * 1024))   # touch a whole 68KB real span
    assert p.committed_in(span, MB2) == 68 * 1024
    p.decommit(span + PAGE_SIZE, 68 * 1024 - PAGE_SIZE)
    assert p.committed_in(span, MB2) == PAGE_SIZE
    assert p.read(span + PAGE_SIZE, 16) == bytes(16)
    assert p.read(span, 4) == b"\xff" * 4  # first page survives


def test_decommit_full_span_and_untouched_range():
    p = SimProvider()
    r = p.reserve(2 * MB2)
    p.write(r.base, b"x" * PAGE_SIZE * 3)
    p.decommit(r.base, PAGE_SIZE * 3)
    assert p.committed_bytes == 0
    before = p.stats.committed_bytes
    p.decommit(r.base + (1 << 20), PAGE_SIZE * 4)   # never touched
    assert p.stats.committed_bytes == before


def test_decommit_validates_range():
    p = SimProvider()
    r = p.reserve(2 * MB2)
    with pytest.raises(ValueError):
        p.decommit(r.base + 1, PAGE_SIZE)
    with pytest.raises(ValueError):
        p.decommit(r.end, PAGE_SIZE)


def test_write_outside_reservation_rejected():
    p = SimProvider()
    p.reserve(2 * MB2)
    with pytest.raises(ValueError):
        p.write(0x1000, b"x")


def test_guards_trap_and_release():
    p = SimProvider()
    r = p.reserve(2 * MB2)
    tail = r.base + 64 * 1024
    p.protect_guard(tail, MB2 - 64 * 1024, True)
    with pytest.raises(GuardViolation):
        p.write(tail + PAGE_SIZE, b"x")
    with pytest.raises(GuardViolation):
        p.read(tail + PAGE_SIZE, 8)
    p.protect_guard(tail, MB2 - 64 * 1024, False)
    p.write(tail + PAGE_SIZE, b"x")        # no trap once released
    assert p.read(tail + PAGE_SIZE, 1) == b"x"


def test_page_mappings_account_and_unmap():
    p = SimProvider()
    base = p.map_pages(10 * PAGE_SIZE)
    assert base % PAGE_SIZE == 0
    p.write(base, b"y" * (3 * PAGE_SIZE))
    assert p.committed_bytes == 3 * PAGE_SIZE
    assert p.mapping_length(base) == 10 * PAGE_SIZE
    p.unmap(base)
    assert p.committed_bytes == 0
    assert p.mapping_length(base) is None


def test_zero_committed_leaves_uncommitted_alone():
    p = SimProvider()
    r = p.reserve(2 * MB2)
    p.write(r.base, b"\xaa" * 100)
    p.zero_committed(r.base, 2 * PAGE_SIZE)
    assert p.read(r.base, 100) == bytes(100)
    assert p.committed_bytes == PAGE_SIZE  # second page still uncommitted


def test_shadow_page_set_oracle_random_ops():
    # committed_bytes must always equal page_size * |written pages not
    # since decommitted|, independently recounted from the page store.
    p = SimProvider()
    r = p.reserve(8 * MB2)
    rng = random.Random(7)
    shadow = set()
    for _ in range(2000):
        page = rng.randrange(r.length // PAGE_SIZE)
        addr = r.base + page * PAGE_SIZE
        if rng.random() < 0.6:
            p.write(addr + rng.randrange(PAGE_SIZE - 8), b"z")
            shadow.add(addr // PAGE_SIZE)
        else:
            n = rng.randint(1, 4)
            n = min(n, (r.end - addr) // PAGE_SIZE)
            p.decommit(addr, n * PAGE_SIZE)
            shadow -= set(range(addr // PAGE_SIZE, addr // PAGE_SIZE + n))
        assert p.committed_page_indices() == shadow
        assert p.committed_bytes == len(shadow) * PAGE_SIZE
    assert p.peak_committed_bytes >= p.committed_bytes


def test_shadow_page_set_oracle_with_page_mappings():
    # Exact accounting with page mappings live: random maps (up to 1100
    # pages, three 2MB slots), writes and decommits that cross slot
    # boundaries, and unmaps, recounted against a shadow page set.
    p = SimProvider()
    r = p.reserve(2 * MB2)
    rng = random.Random(11)
    live = {}                              # base -> length
    shadow = set()

    def pages(base, length):
        return set(range(base // PAGE_SIZE, (base + length) // PAGE_SIZE))

    def pick_page(base, length):
        # Half the picks land within two pages of a 2MB slot boundary.
        if rng.random() < 0.5 and length > MB2:
            off = rng.randrange(MB2, length, MB2) \
                + rng.randrange(-2, 2) * PAGE_SIZE
        else:
            off = rng.randrange(0, length, PAGE_SIZE)
        return base + off

    for _ in range(1500):
        op = rng.random()
        ranges = [(r.base, r.length)] + list(live.items())
        if op < 0.12 or not live:
            length = rng.choice([1, 3, 511, 512, 513, 1025, 1100]) * PAGE_SIZE
            base = p.map_pages(length)
            live[base] = length
            assert p.mapping_length(base) == length
            slack = base + -(-length // MB2) * MB2
            for addr in (base + length, slack, slack + MB2 - PAGE_SIZE):
                with pytest.raises(ValueError):
                    p.write(addr, b"x")
            with pytest.raises(ValueError):
                p.decommit(base + length - PAGE_SIZE, 2 * PAGE_SIZE)
        elif op < 0.2:
            base = rng.choice(list(live))
            length = live.pop(base)
            p.unmap(base)
            shadow -= pages(base, length)
            assert p.mapping_length(base) is None
            with pytest.raises(ValueError):
                p.write(base, b"x")
        elif op < 0.65:
            base, length = rng.choice(ranges)
            addr = pick_page(base, length) + rng.randrange(PAGE_SIZE)
            n = min(rng.randint(1, 3 * PAGE_SIZE), base + length - addr)
            p.write(addr, b"w" * n)
            shadow |= set(range(addr // PAGE_SIZE, -(-(addr + n) // PAGE_SIZE)))
        else:
            base, length = rng.choice(ranges)
            addr = pick_page(base, length)
            n = min(rng.randint(1, 700) * PAGE_SIZE, base + length - addr)
            p.decommit(addr, n)
            shadow -= pages(addr, n)
        assert p.committed_page_indices() == shadow
        assert p.committed_bytes == len(shadow) * PAGE_SIZE
        base, length = rng.choice([(r.base, r.length)] + list(live.items()))
        assert p.committed_in(base, length) == \
            len(shadow & pages(base, length)) * PAGE_SIZE
    for base in list(live):
        p.unmap(base)
    assert p.committed_bytes == len(shadow & pages(r.base, r.length)) * PAGE_SIZE


def test_window_peak():
    p = SimProvider()
    r = p.reserve(2 * MB2)
    p.write(r.base, bytes(PAGE_SIZE * 4))
    p.decommit(r.base, PAGE_SIZE * 4)
    p.begin_window()
    p.write(r.base, b"x")
    assert p.window_peak == PAGE_SIZE
    assert p.peak_committed_bytes == 4 * PAGE_SIZE


# -- os provider (functional smoke; exact accounting is sim-only) -------------

def _os_provider():
    try:
        return OsProvider()
    except Exception:                      # pragma: no cover
        pytest.skip("os provider unavailable")


def test_os_provider_roundtrip():
    p = _os_provider()
    try:
        r = p.reserve(4 * MB2)
    except ReservationError:               # pragma: no cover
        pytest.skip("mmap refused in this environment")
    p.write(r.base + 123, b"hello")
    assert p.read(r.base + 123, 5) == b"hello"
    p.write_word(r.base + PAGE_SIZE, 42)
    assert p.read_word(r.base + PAGE_SIZE) == 42
    p.decommit(r.base, PAGE_SIZE)
    assert p.read(r.base, 8) == bytes(8)   # DONTNEED pages read back zero
    assert p.stats.decommit_calls == 1
    base = p.map_pages(4 * PAGE_SIZE)
    p.write(base, b"q")
    p.unmap(base)
    assert p.committed_bytes % PAGE_SIZE == 0


def test_os_provider_reserves_default_arena():
    # The default 32 GB arena exceeds the memory of many hosts; it is
    # reserved with MAP_NORESERVE, which only strict overcommit refuses.
    try:
        with open("/proc/sys/vm/overcommit_memory") as fh:
            strict = fh.read().strip() == "2"
    except OSError:                        # pragma: no cover
        strict = False
    if strict:                             # pragma: no cover
        pytest.skip("strict overcommit refuses unbacked reservations")
    p = OsProvider()
    region = p.reserve(1 << 35)
    p.write(region.end - PAGE_SIZE, b"tail")
    assert p.read(region.end - PAGE_SIZE, 4) == b"tail"


def test_os_provider_guards_unsupported():
    p = _os_provider()
    with pytest.warns(UserWarning):
        assert p.protect_guard(0, PAGE_SIZE, True) is False
