"""Virtual-memory providers.

The allocator core never talks to the operating system directly; it goes
through a provider that reserves address space and releases physical
backing (decommit). Two implementations:

* SimProvider - keeps a sparse page table with exact accounting:
  committed bytes are page_size times the size of that table, the pages
  touched or written and not since decommitted. A committed page gets
  its bytearray on its first write, one that ends at the word that write
  ends in; a later write past that end grows it to the full page, once.
  Bytes past a buffer's end, and all of a page with none yet, read as
  zeros. So a page committed only for the accounting (a large span's
  header page, whose fields live in the SpanHeader object) costs no
  buffer, and one whose only write is a large block's first word (its
  free-list link) costs a few bytes, not a page. This is what makes
  memory-consumption claims assertable in tests.

* OsProvider - real anonymous mappings, reserved with MAP_NORESERVE so a
  large arena costs no swap or overcommit charge until it is touched;
  decommit is madvise(DONTNEED), so the kernel reclaims the physical
  frames. Committed bytes are reported as the process resident set size
  (best effort, not range-exact). Benchmarks use this; tests use sim.

Addresses are plain integers assigned by the provider from a private
cursor, always 2MB-aligned, with one unused 2MB slot of slack after each
reservation or page mapping, so no two of them share a slot. Address 0
is never handed out and doubles as the null sentinel.

Cost model: finding the reservation or mapping that holds an address is
O(1) - a check of the short list of arena reservations, then one lookup
in an index of page mappings keyed by 2MB slot. `unmap` and sim
`decommit` cost is proportional to the pages committed in the 2MB slots
their range touches, not to the length of the range: a sim decommit
walks the committed sets of those slots, one pass per page, with no
helper call or temporary list, and drops a slot's set once it is empty.
"""

import mmap
import struct
import threading
from collections import defaultdict
from dataclasses import dataclass

from .config import PAGE_SIZE, SPAN_SHIFT, VIRTUAL_SPAN_SIZE
from .errors import ReservationError

# First address handed out; keeps 0 free for the null sentinel and makes
# accidental small-integer addresses stand out.
_BASE_CURSOR = 1 << 33
_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_SLOT_PAGE_SHIFT = (VIRTUAL_SPAN_SIZE // PAGE_SIZE).bit_length() - 1
# Upper bound on the address space one provider reserves in total.
RESERVATION_CAP = 1 << 46
# Python's mmap module does not export MAP_NORESERVE (Linux value).
_MAP_NORESERVE = 0x4000
# Sim word access packs straight into the page's bytearray. A typed view
# kept per page (memoryview or array) would be an object the cyclic
# collector tracks, one per committed page, and more frequent
# collections show up in the allocator's tail latency.
_WORD = struct.Struct("<Q")
_pack_word = _WORD.pack_into
_unpack_word = _WORD.unpack_from


@dataclass
class VmRegion:
    base: int
    length: int
    page_size: int = PAGE_SIZE

    def __post_init__(self):
        assert self.base % VIRTUAL_SPAN_SIZE == 0
        assert self.length > 0 and self.length % VIRTUAL_SPAN_SIZE == 0

    @property
    def end(self):
        return self.base + self.length


@dataclass
class VmStats:
    """Provider counters that no table of the provider already holds."""
    decommit_calls: int = 0


class _Provider:
    """Reservation bookkeeping both providers share. A record is
    (base, length, backing), the backing being the os provider's mmap
    object (None on sim). Arena reservations sit in a short list; a page
    mapping is indexed under every 2MB slot it covers, slack slots never.
    `map_pages`, `unmap`, `decommit` and the sim page commit take the
    lock with `acquire()` and release it in `finally`, which is cheaper
    than `with` (see `atomic.py`).
    """

    def __init__(self, reservation_cap=RESERVATION_CAP):
        self._lock = threading.Lock()
        self._cursor = _BASE_CURSOR
        self._cap = reservation_cap
        self._reserved = 0
        self._regions = []            # arena reservation records
        self._slots = {}              # 2MB slot -> page-mapping record
        self.stats = VmStats()
        self.map_calls = 0
        self.unmap_calls = 0
        # Peak committed bytes since begin_window, else since creation.
        self.window_peak = 0

    # -- reservation / mapping ------------------------------------------

    def reserve(self, length):
        if length <= 0 or length % VIRTUAL_SPAN_SIZE:
            raise ValueError("reservation must be a positive multiple of 2MB")
        with self._lock:
            record = self._claim(length, length)
            self._regions.append(record)
        return VmRegion(record[0], length)

    def map_pages(self, length):
        """Reserve a standalone page-granular mapping, committing nothing.
        A huge object is such a mapping: its record (base, length) is the
        object's header, and `unmap` and `mapping_length` accept only the
        exact base."""
        if length <= 0 or length % PAGE_SIZE:
            raise ValueError("mapping must be a positive multiple of the page size")
        lock = self._lock
        lock.acquire()
        try:
            record = self._claim(
                length, -(-length // VIRTUAL_SPAN_SIZE) * VIRTUAL_SPAN_SIZE)
            base = record[0]
            slots = self._slots
            for slot in range(base >> SPAN_SHIFT,
                              ((base + length - 1) >> SPAN_SHIFT) + 1):
                slots[slot] = record
            self.map_calls += 1
        finally:
            lock.release()
        return base

    def unmap(self, base):
        """Drop a page mapping and all of its committed pages."""
        lock = self._lock
        lock.acquire()
        try:
            slots = self._slots
            record = slots.get(base >> SPAN_SHIFT)
            if record is None or record[0] != base:
                raise ValueError(f"unmap of unknown mapping {base:#x}")
            length = record[1]
            for slot in range(base >> SPAN_SHIFT,
                              ((base + length - 1) >> SPAN_SHIFT) + 1):
                del slots[slot]
            self._reserved -= length
            self.unmap_calls += 1
            self._release(record)
        finally:
            lock.release()

    def mapping_length(self, base):
        record = self._slots.get(base >> SPAN_SHIFT)
        return record[1] if record is not None and record[0] == base else None

    def decommit(self, base, length):
        if base % PAGE_SIZE or length % PAGE_SIZE:
            raise ValueError("decommit range must be page-aligned")
        record = self._locate(base, length)
        lock = self._lock
        lock.acquire()
        try:
            self.stats.decommit_calls += 1
            self._decommit(record, base, length)
        finally:
            lock.release()

    # -- accounting -------------------------------------------------------

    def begin_window(self):
        with self._lock:
            self.window_peak = self.committed_bytes

    # -- internals --------------------------------------------------------

    def _claim(self, length, footprint):
        """Take the next range off the cursor; the caller holds the lock."""
        if self._reserved + length > self._cap:
            raise ReservationError(
                f"reservation of {length:#x} exceeds cap {self._cap:#x}")
        record = (self._cursor, length, self._back(length))
        self._cursor += footprint + VIRTUAL_SPAN_SIZE
        self._reserved += length
        return record

    def _back(self, length):
        return None

    def _locate(self, addr, n):
        """The record holding all of [addr, addr+n); ValueError if none."""
        end = addr + n
        for record in self._regions:
            if record[0] <= addr and end <= record[0] + record[1]:
                return record
        # A slot's record starts at or below the slot, so only the end
        # needs checking.
        record = self._slots.get(addr >> SPAN_SHIFT)
        if record is not None and end <= record[0] + record[1]:
            return record
        raise ValueError(f"{addr:#x}+{n:#x} outside any reservation or mapping")


class SimProvider(_Provider):
    """Byte-array backed provider with exact page accounting.

    Pages commit on first write or on `touch` (reads of uncommitted
    pages return zeros without committing, mirroring on-demand zero
    pages). A committed page's entry in `_pages` is None until its
    first write gives it a bytearray, which ends at the 8-byte word
    that write ends in. A later write past that end grows it in place
    to PAGE_SIZE, once, under the lock, so two writers cannot both
    extend it; the word paths find a short buffer in the `except` of
    their pack or unpack, which costs the common case nothing. Reads,
    `zero_committed` and `copy` treat the bytes past a buffer's end,
    and a page with no buffer, as committed zeros; decommit drops any
    page alike. Word access is 8-byte aligned, so a word is wholly
    inside a buffer or wholly past its end. All bookkeeping mutations
    are serialized internally; data writes to already-committed pages
    rely on callers targeting disjoint ranges.
    """

    name = "sim"

    def __init__(self, reservation_cap=RESERVATION_CAP):
        super().__init__(reservation_cap)
        self._pages = {}              # page index -> bytearray of up to
                                      # PAGE_SIZE bytes, or None while
                                      # committed and unwritten
        self._committed = defaultdict(set)  # 2MB slot -> its page indices in _pages

    # -- data access ------------------------------------------------------

    def write(self, addr, data):
        n = len(data)
        pos = 0
        while pos < n:
            idx, off = divmod(addr + pos, PAGE_SIZE)
            take = min(PAGE_SIZE - off, n - pos)
            page = self._pages.get(idx)
            if page is None:
                page = self._commit_page(idx, (off + take + 7) & -8)
            if len(page) < off + take:
                self._grow_page(page)
            page[off:off + take] = data[pos:pos + take]
            pos += take

    def read(self, addr, n):
        out = bytearray(n)
        pos = 0
        while pos < n:
            idx, off = divmod(addr + pos, PAGE_SIZE)
            take = min(PAGE_SIZE - off, n - pos)
            page = self._pages.get(idx)
            if page is not None:
                chunk = page[off:off + take]
                out[pos:pos + len(chunk)] = chunk
            pos += take
        return bytes(out)

    def copy(self, dst, src, n):
        """Copy n bytes from src to dst, committing no destination page
        the copy would only fill with zeros: the zeros of an uncommitted
        source page zero the destination's committed bytes instead. The
        zeros of a committed source page (past its buffer's end, or all
        of it before its first write) commit their destination, as
        written zeros would, and give it no bytes."""
        pages = self._pages
        pos = 0
        while pos < n:
            idx, off = divmod(src + pos, PAGE_SIZE)
            take = min(PAGE_SIZE - off, n - pos)
            page = pages.get(idx)
            chunk = page[off:off + take] if page is not None else b""
            if chunk:
                self.write(dst + pos, chunk)
            rest = len(chunk)
            if rest < take:
                if idx in pages:
                    self.touch(dst + pos + rest, take - rest)
                self.zero_committed(dst + pos + rest, take - rest)
            pos += take

    def write_word(self, addr, value):
        # Word writes are 8 bytes at 8-byte-aligned addresses, so they
        # never straddle a page boundary. A pack past a short buffer's
        # end fails and grows it; a value out of range fails again.
        idx = addr >> 12
        page = self._pages.get(idx)
        if page is None:
            page = self._commit_page(idx, (addr & 0xFFF) + 8)
        try:
            _pack_word(page, addr & 0xFFF, value)
        except struct.error:
            self._grow_page(page)
            _pack_word(page, addr & 0xFFF, value)

    def read_word(self, addr):
        page = self._pages.get(addr >> 12)
        if page is None:
            return 0
        try:
            return _unpack_word(page, addr & 0xFFF)[0]
        except struct.error:            # past the buffer's end
            return 0

    def touch(self, addr, nbytes):
        """Commit every page overlapping [addr, addr+nbytes), giving none
        of them bytes: each reads as zeros until its first write.

        Stands in for writes whose content lives elsewhere (span header
        fields), so the page accounting still sees them.
        """
        pages = self._pages
        for idx in range(addr // PAGE_SIZE, -(-(addr + nbytes) // PAGE_SIZE)):
            if idx not in pages:
                self._commit_page(idx)

    def zero_committed(self, addr, nbytes):
        """Zero the committed portion of a range without committing more."""
        pos = 0
        while pos < nbytes:
            idx, off = divmod(addr + pos, PAGE_SIZE)
            take = min(PAGE_SIZE - off, nbytes - pos)
            page = self._pages.get(idx)
            if page is not None:
                # Past the buffer's end the page already reads as zeros.
                end = min(off + take, len(page))
                if off < end:
                    page[off:end] = bytes(end - off)
            pos += take

    # -- accounting -------------------------------------------------------

    @property
    def committed_bytes(self):
        return len(self._pages) << _PAGE_SHIFT

    def committed_in(self, base, length):
        """Committed bytes inside [base, base+length), page-exact."""
        total = 0
        for idx in range(base // PAGE_SIZE, -(-(base + length) // PAGE_SIZE)):
            if idx in self._pages:
                total += PAGE_SIZE
        return total

    def committed_page_indices(self):
        """Shadow page-set oracle: every page currently committed, with
        bytes or without."""
        return set(self._pages)

    # -- internals --------------------------------------------------------

    def _commit_page(self, idx, end=0):
        """Commit page `idx` if it is not, raising `window_peak` to the
        page table's new size. For a write, whose bytes end at `end` (a
        multiple of 8), also give the page a bytearray of `end` zeros
        if it has none, and return the page's bytearray: one that
        another writer gave it first may be shorter. A page outside every
        reservation and mapping fails in `_locate` before any
        bookkeeping changes."""
        lock = self._lock
        lock.acquire()
        try:
            pages = self._pages
            page = pages.get(idx)
            if page is not None:
                return page
            if idx not in pages:
                self._locate(idx * PAGE_SIZE, PAGE_SIZE)
                self._committed[idx >> _SLOT_PAGE_SHIFT].add(idx)
                committed = (len(pages) + 1) << _PAGE_SHIFT
                if committed > self.window_peak:
                    self.window_peak = committed
            page = pages[idx] = bytearray(end) if end else None
            return page
        finally:
            lock.release()

    def _grow_page(self, page):
        """Extend a page's bytearray in place with zeros to PAGE_SIZE.
        The length is read again under the lock, so of two writers that
        both found the buffer short only the first extends it."""
        lock = self._lock
        lock.acquire()
        try:
            page.extend(bytes(PAGE_SIZE - len(page)))
        finally:
            lock.release()

    def _decommit(self, record, base, length):
        """Drop the committed pages in [base, base+length): one pass over
        the committed set of each slot the range touches, with no helper
        call or temporary list; a set left empty goes. The caller holds
        the lock."""
        end = base + length
        lo, hi = base >> _PAGE_SHIFT, end >> _PAGE_SHIFT
        committed, pages = self._committed, self._pages
        for slot in range(base >> SPAN_SHIFT, ((end - 1) >> SPAN_SHIFT) + 1):
            held = committed.get(slot)
            if held:
                for idx in tuple(held):
                    if lo <= idx < hi:
                        held.remove(idx)
                        del pages[idx]
                if not held:
                    del committed[slot]

    def _release(self, record):
        self._decommit(record, record[0], record[1])


class OsProvider(_Provider):
    """Real anonymous mappings; decommit is madvise(MADV_DONTNEED).

    Committed-bytes reporting is the process RSS (page-granular but
    process-wide); tests that need range-exact accounting use sim.
    """

    name = "os"

    def write(self, addr, data):
        mbase, _, mm = self._locate(addr, len(data))
        off = addr - mbase
        mm[off:off + len(data)] = data

    def read(self, addr, n):
        mbase, _, mm = self._locate(addr, n)
        off = addr - mbase
        return bytes(mm[off:off + n])

    def copy(self, dst, src, n):
        self.write(dst, self.read(src, n))

    def write_word(self, addr, value):
        self.write(addr, value.to_bytes(8, "little"))

    def read_word(self, addr):
        return int.from_bytes(self.read(addr, 8), "little")

    def touch(self, addr, nbytes):
        # Writing zeros is enough to fault the pages in.
        self.write(addr, bytes(nbytes))

    def zero_committed(self, addr, nbytes):
        self.write(addr, bytes(nbytes))

    @property
    def committed_bytes(self):
        rss = _process_rss_bytes()
        if rss > self.window_peak:
            self.window_peak = rss
        return rss

    def committed_in(self, base, length):
        raise NotImplementedError("range-exact accounting needs the sim provider")

    def _back(self, length):
        try:
            return mmap.mmap(-1, length, flags=mmap.MAP_PRIVATE
                             | mmap.MAP_ANONYMOUS | _MAP_NORESERVE)
        except (OSError, OverflowError) as exc:
            raise ReservationError(
                f"OS refused mapping of {length:#x}: {exc}") from exc

    def _decommit(self, record, base, length):
        mbase, _, mm = record
        if hasattr(mm, "madvise"):
            mm.madvise(mmap.MADV_DONTNEED, base - mbase, length)

    def _release(self, record):
        record[2].close()


def _process_rss_bytes():
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return 0


def make_provider(config):
    if config.provider == "os":
        return OsProvider()
    return SimProvider()
