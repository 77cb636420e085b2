import random
import struct
import threading

import pytest

from helpers import BARRIER_TIMEOUT, in_threads, make_allocator
from spanalloc.config import PAGE_SIZE, VIRTUAL_SPAN_SIZE
from spanalloc.errors import ReservationError
from spanalloc.vmem import OsProvider, SimProvider

MB2 = VIRTUAL_SPAN_SIZE
KB = 1024


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
    assert len(p._regions) == 5


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


def test_words_agree_with_bytes_and_follow_commit():
    p = SimProvider()
    r = p.reserve(2 * MB2)
    last = r.base + PAGE_SIZE - 8          # last word of the first page
    p.write_word(last, (1 << 64) - 2)
    assert p.read(last, 8) == ((1 << 64) - 2).to_bytes(8, "little")
    assert p.read(last + 8, 8) == bytes(8)              # next page untouched
    assert p.committed_bytes == PAGE_SIZE
    p.write(r.base + 16, (0x0102030405060708).to_bytes(8, "little"))
    assert p.read_word(r.base + 16) == 0x0102030405060708
    p.decommit(r.base, PAGE_SIZE)
    assert p.read_word(last) == 0 and p.committed_bytes == 0
    p.write_word(last, 7)                  # recommits a zeroed page
    assert p.read_word(last) == 7 and p.read_word(r.base + 16) == 0
    assert p.committed_bytes == PAGE_SIZE


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
    p.decommit(r.base + (1 << 20), PAGE_SIZE * 4)   # never touched
    assert p.committed_bytes == 0 and p.stats.decommit_calls == 2


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


@pytest.mark.parametrize("offset", [0, 100])
def test_copy_reads_like_read_and_commits_no_zeros(offset):
    p = SimProvider()
    r = p.reserve(2 * MB2)
    src, dst = r.base, r.base + MB2 + offset
    p.write(src + PAGE_SIZE, b"\x11" * PAGE_SIZE)      # source page 1 only
    p.write(dst, b"\xee" * (2 * PAGE_SIZE))            # stale destination
    committed = p.committed_bytes
    p.copy(dst, src, 3 * PAGE_SIZE)
    assert p.read(dst, 3 * PAGE_SIZE) == p.read(src, 3 * PAGE_SIZE)
    # Source page 1 lands on committed pages; the zeros of pages 0 and
    # 2 commit nothing, not even the page past the stale range.
    assert p.committed_bytes == committed


def test_touched_page_is_committed_zeros_without_bytes():
    p = SimProvider()
    r = p.reserve(2 * MB2)
    idx = r.base // PAGE_SIZE
    p.touch(r.base, PAGE_SIZE)
    assert p._pages[idx] is None                    # no bytes yet
    assert p.committed_bytes == PAGE_SIZE == p.window_peak
    assert p.committed_in(r.base, MB2) == PAGE_SIZE
    assert p.committed_page_indices() == {idx}
    assert p.read(r.base, PAGE_SIZE) == bytes(PAGE_SIZE)
    assert p.read_word(r.base + 8) == 0
    p.zero_committed(r.base, PAGE_SIZE)
    p.touch(r.base + 100, 8)                        # touched again
    assert p._pages[idx] is None and p.committed_bytes == PAGE_SIZE


@pytest.mark.parametrize("first_write", ["write", "write_word"])
def test_first_write_to_a_touched_page_counts_it_once(first_write):
    p = SimProvider()
    r = p.reserve(2 * MB2)
    idx = r.base // PAGE_SIZE
    p.touch(r.base, 2 * PAGE_SIZE)
    if first_write == "write":
        p.write(r.base + PAGE_SIZE - 4, b"\x01" * 8)  # both pages
    else:
        p.write_word(r.base + 8, 0x0101)
        p.write_word(r.base + PAGE_SIZE, 0x0101010101010101)
    assert p._pages[idx] is not None and p._pages[idx + 1] is not None
    assert p.committed_bytes == 2 * PAGE_SIZE == p.window_peak
    assert p.committed_page_indices() == {idx, idx + 1}
    assert p.read(r.base + PAGE_SIZE, 4) == b"\x01" * 4
    assert p.read(r.base, 8) == bytes(8)


@pytest.mark.parametrize("release", ["decommit", "unmap"])
def test_touched_page_without_bytes_is_released(release):
    p = SimProvider()
    if release == "decommit":
        base = p.reserve(2 * MB2).base
    else:
        base = p.map_pages(3 * PAGE_SIZE)
    p.touch(base, PAGE_SIZE)                        # no bytes
    p.write(base + PAGE_SIZE, b"x")                 # bytes
    assert p.committed_bytes == 2 * PAGE_SIZE
    if release == "decommit":
        p.decommit(base, 3 * PAGE_SIZE)
    else:
        p.unmap(base)
    assert p.committed_bytes == 0
    assert not p._pages and not p._committed


def test_copy_from_a_touched_page_commits_the_destination_as_zeros():
    # A touched page reads as the zeros it would have held as bytes, so
    # a copy from it commits the destination as a write of them did.
    p = SimProvider()
    r = p.reserve(2 * MB2)
    src, dst = r.base, r.base + MB2 + 100
    p.touch(src, 2 * PAGE_SIZE)
    p.write(dst, b"\xee" * 64)                      # stale destination
    p.copy(dst, src, 2 * PAGE_SIZE)
    assert p.read(dst, 2 * PAGE_SIZE) == bytes(2 * PAGE_SIZE)
    # Destination pages 0-2 (the copy straddles three), committed as
    # the source's two written pages would commit them.
    assert p.committed_in(dst, 2 * PAGE_SIZE) == 3 * PAGE_SIZE
    assert p.committed_bytes == 5 * PAGE_SIZE
    assert p._pages[dst // PAGE_SIZE + 1] is None   # still no bytes


@pytest.mark.parametrize("commit", ["touch", "write", "write_word"])
def test_commit_outside_any_reservation_leaves_no_bookkeeping(commit):
    # _locate fails before the page's slot gets an entry in _committed.
    p = SimProvider()
    r = p.reserve(2 * MB2)
    with pytest.raises(ValueError):
        if commit == "touch":
            p.touch(r.end, PAGE_SIZE)
        elif commit == "write":
            p.write(r.end, b"x")
        else:
            p.write_word(r.end, 1)
    assert not p._pages and not p._committed
    assert p.committed_bytes == 0 == p.window_peak


def test_shadow_page_set_oracle_random_ops():
    # committed_bytes must always equal page_size * |touched or written
    # pages not since decommitted|, independently recounted from the
    # page store; a touched page reads as zeros until written.
    p = SimProvider()
    r = p.reserve(8 * MB2)
    rng = random.Random(7)
    shadow = set()
    written = {}                           # page index -> byte offset written
    for _ in range(2000):
        page = rng.randrange(r.length // PAGE_SIZE)
        addr = r.base + page * PAGE_SIZE
        op = rng.random()
        if op < 0.45:
            off = rng.randrange(PAGE_SIZE - 8)
            p.write(addr + off, b"z")
            shadow.add(addr // PAGE_SIZE)
            written.setdefault(addr // PAGE_SIZE, off)
        elif op < 0.6:
            n = rng.randint(1, 3 * PAGE_SIZE)
            n = min(n, r.end - addr)
            p.touch(addr, n)
            shadow |= set(range(addr // PAGE_SIZE, -(-(addr + n) // PAGE_SIZE)))
            if addr // PAGE_SIZE not in written:
                assert p.read(addr, PAGE_SIZE) == bytes(PAGE_SIZE)
        else:
            n = rng.randint(1, 4)
            n = min(n, (r.end - addr) // PAGE_SIZE)
            p.decommit(addr, n * PAGE_SIZE)
            dropped = set(range(addr // PAGE_SIZE, addr // PAGE_SIZE + n))
            shadow -= dropped
            for idx in dropped:
                written.pop(idx, None)
        assert p.committed_page_indices() == shadow
        assert p.committed_bytes == len(shadow) * PAGE_SIZE
        assert all(p._committed.values())
    assert p.window_peak >= p.committed_bytes
    for idx, off in written.items():
        assert p.read(idx * PAGE_SIZE + off, 1) == b"z"


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
        assert all(p._committed.values())          # no slot keeps an empty set
        base, length = rng.choice([(r.base, r.length)] + list(live.items()))
        assert p.committed_in(base, length) == \
            len(shadow & pages(base, length)) * PAGE_SIZE
    for base in list(live):
        p.unmap(base)
        assert all(p._committed.values())
    assert p.committed_bytes == len(shadow & pages(r.base, r.length)) * PAGE_SIZE


def test_decommit_across_a_slot_boundary_keeps_the_pages_outside():
    # The range starts after slot A's first page, crosses into slot B
    # and ends before B's last committed page.
    p = SimProvider()
    r = p.reserve(2 * MB2)
    first = r.base // PAGE_SIZE
    per_slot = MB2 // PAGE_SIZE
    written = [first, first + 1, first + 7, first + per_slot - 2,
               first + per_slot - 1, first + per_slot, first + per_slot + 3,
               first + per_slot + 9, first + per_slot + 20]
    for n, idx in enumerate(written):
        p.write(idx * PAGE_SIZE, bytes([n + 1]) * PAGE_SIZE)
    lo, hi = first + 1, first + per_slot + 9        # drop [lo, hi)
    p.decommit(lo * PAGE_SIZE, (hi - lo) * PAGE_SIZE)
    kept = [idx for idx in written if not lo <= idx < hi]
    assert kept == [first, first + per_slot + 9, first + per_slot + 20]
    assert p.committed_page_indices() == set(kept)
    assert p.committed_bytes == len(kept) * PAGE_SIZE
    for n, idx in enumerate(written):
        want = bytes([n + 1]) * PAGE_SIZE if idx in kept else bytes(PAGE_SIZE)
        assert p.read(idx * PAGE_SIZE, PAGE_SIZE) == want
    assert all(p._committed.values()) and len(p._committed) == 2


def test_huge_cycles_leave_the_slot_indexes_as_they_were():
    # Each mapping takes fresh slots, so one stale entry per huge object
    # in either index would grow without bound.
    alloc = make_allocator()
    p = alloc.provider
    alloc.free(alloc.malloc(3 << 20))
    committed, slots = len(p._committed), len(p._slots)
    for _ in range(1000):
        addr = alloc.malloc(3 << 20)               # two slots
        p.write_word(addr + MB2, 1)                # a page in the second
        alloc.free(addr)
    assert (len(p._committed), len(p._slots)) == (committed, slots)
    assert all(p._committed.values())


# -- page buffers: a page's bytes end at its last written word -----------------

class FullPages:
    """The page model with a whole page of bytes behind every committed
    page, which the provider kept before a page's buffer ended at its
    last written word: the reference of the differential test below.
    Pages commit on touch and on write; a copy writes each committed
    source page's chunk, zeros included, and zeroes the destination's
    committed bytes for an uncommitted one."""

    def __init__(self):
        self.pages = {}                    # page index -> bytearray(PAGE_SIZE)

    @staticmethod
    def chunks(addr, n):
        """(page index, offset, position, length) of each page's part of
        [addr, addr+n)."""
        pos = 0
        while pos < n:
            idx, off = divmod(addr + pos, PAGE_SIZE)
            take = min(PAGE_SIZE - off, n - pos)
            yield idx, off, pos, take
            pos += take

    def touch(self, addr, n):
        for idx, _, _, _ in self.chunks(addr, n):
            self.pages.setdefault(idx, bytearray(PAGE_SIZE))

    def write(self, addr, data):
        for idx, off, pos, take in self.chunks(addr, len(data)):
            page = self.pages.setdefault(idx, bytearray(PAGE_SIZE))
            page[off:off + take] = data[pos:pos + take]

    def read(self, addr, n):
        out = bytearray(n)
        for idx, off, pos, take in self.chunks(addr, n):
            if idx in self.pages:
                out[pos:pos + take] = self.pages[idx][off:off + take]
        return bytes(out)

    def zero_committed(self, addr, n):
        for idx, off, _, take in self.chunks(addr, n):
            if idx in self.pages:
                self.pages[idx][off:off + take] = bytes(take)

    def copy(self, dst, src, n):
        for idx, off, pos, take in self.chunks(src, n):
            if idx in self.pages:
                self.write(dst + pos, self.pages[idx][off:off + take])
            else:
                self.zero_committed(dst + pos, take)

    def drop(self, addr, n):
        for idx, _, _, _ in self.chunks(addr, n):
            self.pages.pop(idx, None)


def test_short_page_buffers_read_as_full_pages():
    # One seeded sequence of every data, commit and release operation
    # on the provider and on the full-page model; after each, both hold
    # the same committed pages with the same bytes. Accesses crowd the
    # first and last pages of each range, so word writes land past a
    # short buffer's end, byte writes straddle pages, and copies read
    # short, grown and bufferless pages.
    p = SimProvider()
    ref = FullPages()
    r = p.reserve(2 * MB2)
    ranges = {r.base: r.length}            # the arena and live mappings
    rng = random.Random(5)
    short = grown = 0

    def pick(align=1):
        base, length = rng.choice(list(ranges.items()))
        pages = length // PAGE_SIZE
        page = rng.choice([*range(min(pages, 5)), pages - 1])
        off = rng.randrange(0, PAGE_SIZE, align)
        return base + page * PAGE_SIZE + off, base + length

    def extent(limit, most):
        return lambda addr: min(rng.randint(1, most), limit - addr)

    for _ in range(2500):
        op = rng.random()
        if op < 0.25:
            addr, _ = pick(8)
            value = rng.getrandbits(64)
            p.write_word(addr, value)
            ref.write(addr, value.to_bytes(8, "little"))
        elif op < 0.4:
            addr, end = pick()
            data = rng.randbytes(extent(end, 300)(addr))
            p.write(addr, data)
            ref.write(addr, data)
        elif op < 0.5:
            addr, end = pick()
            n = extent(end, 2 * PAGE_SIZE)(addr)
            p.touch(addr, n)
            ref.touch(addr, n)
        elif op < 0.6:
            addr, end = pick()
            n = extent(end, 2 * PAGE_SIZE)(addr)
            assert p.read(addr, n) == ref.read(addr, n)
            addr, _ = pick(8)
            assert p.read_word(addr) == \
                int.from_bytes(ref.read(addr, 8), "little")
        elif op < 0.7:
            src, src_end = pick()
            dst, dst_end = pick()
            n = min(rng.randint(1, 2 * PAGE_SIZE), src_end - src,
                    dst_end - dst)
            if src + n <= dst or dst + n <= src:   # copies never overlap
                p.copy(dst, src, n)
                ref.copy(dst, src, n)
        elif op < 0.78:
            addr, end = pick()
            n = extent(end, 2 * PAGE_SIZE)(addr)
            p.zero_committed(addr, n)
            ref.zero_committed(addr, n)
        elif op < 0.9:
            addr, end = pick()
            addr -= addr % PAGE_SIZE
            n = min(rng.randint(1, 4) * PAGE_SIZE, end - addr)
            p.decommit(addr, n)
            ref.drop(addr, n)
        elif op < 0.96 or len(ranges) == 1:
            if len(ranges) < 5:
                length = rng.randint(1, 12) * PAGE_SIZE
                ranges[p.map_pages(length)] = length
        else:
            base = rng.choice([b for b in ranges if b != r.base])
            p.unmap(base)
            ref.drop(base, ranges.pop(base))
        assert p.committed_page_indices() == set(ref.pages)
        for idx, page in ref.pages.items():
            assert p.read(idx * PAGE_SIZE, PAGE_SIZE) == page
        for buf in p._pages.values():
            if buf is not None:
                assert len(buf) % 8 == 0 and len(buf) <= PAGE_SIZE
                short += len(buf) < PAGE_SIZE
                grown += len(buf) == PAGE_SIZE
    assert short and grown                 # both kinds of buffer were met


@pytest.mark.parametrize("value", [-1, 1 << 64])
def test_write_word_of_a_value_out_of_range_changes_no_byte(value):
    # The pack clears its word before it checks the value (CPython's
    # struct does), so each target word holds zeros: one inside a short
    # buffer, one past its end, one inside a full buffer, and one on a
    # page with no bytes yet.
    p = SimProvider()
    base = p.reserve(2 * MB2).base
    p.write_word(base + 8, 0x1122)                     # a 16-byte buffer
    p.write(base + 2 * PAGE_SIZE - 96, b"\x5a" * 96)   # a full one
    before = p.read(base, 3 * PAGE_SIZE)
    for addr in (base, base + 64, base + PAGE_SIZE + 8,
                 base + 2 * PAGE_SIZE):
        with pytest.raises(struct.error):
            p.write_word(addr, value)
        assert p.read(base, 3 * PAGE_SIZE) == before
    assert p.read_word(base + 8) == 0x1122


def test_page_buffers_of_a_large_object_churn_stay_small():
    # Blocks of 4 KB to 1 MB, each tagged in its first word: a page
    # whose only write is a tag or a free-list link keeps a buffer of a
    # few bytes, so the buffers hold far less than the committed bytes.
    alloc = make_allocator(arena_bytes=1 << 30)
    p = alloc.provider
    rng = random.Random(17)
    live = {}                              # address -> tag
    for step in range(3000):
        if live and (len(live) >= 200 or rng.random() < 0.5):
            addr = rng.choice(list(live))
            assert p.read_word(addr) == live.pop(addr)
            alloc.free(addr)
        else:
            addr = alloc.malloc(int(4 * KB * 256 ** rng.random()))
            p.write_word(addr, step + 1)
            live[addr] = step + 1
    held = sum(len(buf) for buf in p._pages.values() if buf is not None)
    assert held < p.committed_bytes / 8


def test_racing_first_writes_to_a_page_keep_every_word():
    # Four threads write words at their own offsets into the same fresh
    # pages, so one thread's first write leaves a short buffer that the
    # others find and grow (unless the first ended at the last word, at
    # 3000). A growth that ran twice would leave a buffer past
    # PAGE_SIZE; one that replaced the buffer would lose a word written
    # into the old one.
    p = SimProvider()
    base = p.reserve(2 * MB2).base
    pages, threads_n = 1024, 4             # every page of the reservation
    barrier = threading.Barrier(threads_n, timeout=BARRIER_TIMEOUT)

    def work(i):
        for k in range(pages):
            barrier.wait()                 # all threads on the same page
            p.write_word(base + k * PAGE_SIZE + i * 1000, k * 8 + i)

    in_threads(work, threads_n)
    for k in range(pages):
        assert len(p._pages[base // PAGE_SIZE + k]) in (3008, PAGE_SIZE)
        for i in range(threads_n):
            assert p.read_word(base + k * PAGE_SIZE + i * 1000) == k * 8 + i


def test_window_peak():
    p = SimProvider()
    r = p.reserve(2 * MB2)
    p.write(r.base, bytes(PAGE_SIZE * 4))
    p.decommit(r.base, PAGE_SIZE * 4)
    p.begin_window()
    p.write(r.base, b"x")
    assert p.window_peak == PAGE_SIZE


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
