"""Virtual-memory providers.

The allocator core never talks to the operating system directly; it goes
through a provider that reserves address space, releases physical backing
(decommit), and optionally guards unused ranges. Two implementations:

* SimProvider - backs committed pages with bytearrays in a sparse page
  table and keeps exact accounting: committed bytes are precisely
  page_size times the number of pages written and not since decommitted.
  This is what makes memory-consumption claims assertable in tests.

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
their range touches, not to the length of the range.
"""

import mmap
import threading
from collections import defaultdict
from dataclasses import dataclass

from .config import PAGE_SIZE, VIRTUAL_SPAN_SIZE
from .errors import GuardViolation, ReservationError

# First address handed out; keeps 0 free for the null sentinel and makes
# accidental small-integer addresses stand out.
_BASE_CURSOR = 1 << 33
_SLOT_SHIFT = VIRTUAL_SPAN_SIZE.bit_length() - 1
_SLOT_PAGE_SHIFT = (VIRTUAL_SPAN_SIZE // PAGE_SIZE).bit_length() - 1
# Python's mmap module does not export MAP_NORESERVE (Linux value).
_MAP_NORESERVE = 0x4000


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
    committed_bytes: int = 0
    decommit_calls: int = 0
    reserve_calls: int = 0


class _Provider:
    """Reservation bookkeeping both providers share. A record is
    (base, length, backing), the backing being the os provider's mmap
    object (None on sim). Arena reservations sit in a short list; a page
    mapping is indexed under every 2MB slot it covers, slack slots never.
    """

    def __init__(self, reservation_cap):
        self._lock = threading.Lock()
        self._cursor = _BASE_CURSOR
        self._cap = reservation_cap
        self._reserved = 0
        self._regions = []            # arena reservation records
        self._slots = {}              # 2MB slot -> page-mapping record
        self.stats = VmStats()
        self.map_calls = 0
        self.unmap_calls = 0
        self.peak_committed_bytes = 0
        self._window_peak = 0

    # -- reservation / mapping ------------------------------------------

    def reserve(self, length):
        if length <= 0 or length % VIRTUAL_SPAN_SIZE:
            raise ValueError("reservation must be a positive multiple of 2MB")
        with self._lock:
            record = self._claim(length, length)
            self._regions.append(record)
            self.stats.reserve_calls += 1
        return VmRegion(record[0], length)

    def map_pages(self, length):
        """Reserve a standalone page-granular mapping (huge objects)."""
        if length <= 0 or length % PAGE_SIZE:
            raise ValueError("mapping must be a positive multiple of the page size")
        with self._lock:
            record = self._claim(length, _round_up(length, VIRTUAL_SPAN_SIZE))
            for slot in _slots_of(record[0], length):
                self._slots[slot] = record
            self.map_calls += 1
        return record[0]

    def unmap(self, base):
        """Drop a page mapping and all of its committed pages."""
        with self._lock:
            record = self._slots.get(base >> _SLOT_SHIFT)
            if record is None or record[0] != base:
                raise ValueError(f"unmap of unknown mapping {base:#x}")
            for slot in _slots_of(base, record[1]):
                del self._slots[slot]
            self._reserved -= record[1]
            self.unmap_calls += 1
            self._release(record)

    def mapping_length(self, base):
        record = self._slots.get(base >> _SLOT_SHIFT)
        return record[1] if record is not None and record[0] == base else None

    def decommit(self, base, length):
        if base % PAGE_SIZE or length % PAGE_SIZE:
            raise ValueError("decommit range must be page-aligned")
        record = self._locate(base, length)
        with self._lock:
            self.stats.decommit_calls += 1
            self._decommit(record, base, length)

    # -- accounting -------------------------------------------------------

    def begin_window(self):
        with self._lock:
            self._window_peak = self.committed_bytes

    @property
    def window_peak(self):
        return self._window_peak

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
        record = self._slots.get(addr >> _SLOT_SHIFT)
        if record is not None and end <= record[0] + record[1]:
            return record
        raise ValueError(f"{addr:#x}+{n:#x} outside any reservation or mapping")


class SimProvider(_Provider):
    """Byte-array backed provider with exact page accounting.

    Pages commit on first write (reads of uncommitted pages return
    zeros without committing, mirroring on-demand zero pages). All
    bookkeeping mutations are serialized internally; data writes to
    already-committed pages rely on callers targeting disjoint ranges.
    """

    name = "sim"
    supports_guards = True

    def __init__(self, reservation_cap=1 << 46):
        super().__init__(reservation_cap)
        self._pages = {}              # page index -> bytearray(PAGE_SIZE)
        self._committed = defaultdict(set)  # 2MB slot -> its page indices in _pages
        self._guards = set()          # guarded page indices

    # -- guards ---------------------------------------------------------

    def protect_guard(self, base, length, enable):
        if base % PAGE_SIZE or length % PAGE_SIZE:
            raise ValueError("guard range must be page-aligned")
        with self._lock:
            span = range(base // PAGE_SIZE, (base + length) // PAGE_SIZE)
            if enable:
                self._guards.update(span)
            else:
                self._guards.difference_update(span)
        return True

    def guarded_ranges(self):
        return set(self._guards)

    # -- data access ------------------------------------------------------

    def write(self, addr, data):
        n = len(data)
        pos = 0
        while pos < n:
            idx, off = divmod(addr + pos, PAGE_SIZE)
            take = min(PAGE_SIZE - off, n - pos)
            page = self._pages.get(idx)
            if page is None:
                page = self._commit_page(idx)
            page[off:off + take] = data[pos:pos + take]
            pos += take

    def read(self, addr, n):
        out = bytearray(n)
        pos = 0
        while pos < n:
            idx, off = divmod(addr + pos, PAGE_SIZE)
            take = min(PAGE_SIZE - off, n - pos)
            if self._guards and idx in self._guards:
                raise GuardViolation(f"read inside guarded page {idx:#x}")
            page = self._pages.get(idx)
            if page is not None:
                out[pos:pos + take] = page[off:off + take]
            pos += take
        return bytes(out)

    def write_word(self, addr, value):
        # Word writes are 8 bytes at 8-byte-aligned addresses, so they
        # never straddle a page boundary.
        idx = addr >> 12
        page = self._pages.get(idx)
        if page is None:
            page = self._commit_page(idx)
        off = addr & 0xFFF
        page[off:off + 8] = value.to_bytes(8, "little")

    def read_word(self, addr):
        page = self._pages.get(addr >> 12)
        if page is None:
            if self._guards and (addr >> 12) in self._guards:
                raise GuardViolation(f"read inside guarded page {addr >> 12:#x}")
            return 0
        off = addr & 0xFFF
        return int.from_bytes(page[off:off + 8], "little")

    def touch(self, addr, nbytes):
        """Commit every page overlapping [addr, addr+nbytes).

        Stands in for writes whose content lives elsewhere (span header
        fields), so the page accounting still sees them.
        """
        for idx in range(addr // PAGE_SIZE, -(-(addr + nbytes) // PAGE_SIZE)):
            if self._pages.get(idx) is None:
                self._commit_page(idx)

    def zero_committed(self, addr, nbytes):
        """Zero the committed portion of a range without committing more."""
        pos = 0
        while pos < nbytes:
            idx, off = divmod(addr + pos, PAGE_SIZE)
            take = min(PAGE_SIZE - off, nbytes - pos)
            page = self._pages.get(idx)
            if page is not None:
                page[off:off + take] = bytes(take)
            pos += take

    # -- accounting -------------------------------------------------------

    @property
    def committed_bytes(self):
        return self.stats.committed_bytes

    def committed_in(self, base, length):
        """Committed bytes inside [base, base+length), page-exact."""
        total = 0
        for idx in range(base // PAGE_SIZE, -(-(base + length) // PAGE_SIZE)):
            if idx in self._pages:
                total += PAGE_SIZE
        return total

    def committed_page_indices(self):
        """Shadow page-set oracle: every page currently backed."""
        return set(self._pages)

    # -- internals --------------------------------------------------------

    def _commit_page(self, idx):
        with self._lock:
            page = self._pages.get(idx)
            if page is not None:
                return page
            if self._guards and idx in self._guards:
                raise GuardViolation(f"write inside guarded page {idx:#x}")
            self._locate(idx * PAGE_SIZE, PAGE_SIZE)
            page = bytearray(PAGE_SIZE)
            self._pages[idx] = page
            self._committed[idx >> _SLOT_PAGE_SHIFT].add(idx)
            committed = self.stats.committed_bytes + PAGE_SIZE
            self.stats.committed_bytes = committed
            if committed > self.peak_committed_bytes:
                self.peak_committed_bytes = committed
            if committed > self._window_peak:
                self._window_peak = committed
            return page

    def _decommit(self, record, base, length):
        """Drop the committed pages in [base, base+length), visiting each
        touched slot's committed set; the caller holds the lock."""
        lo, hi = base // PAGE_SIZE, (base + length) // PAGE_SIZE
        dropped = 0
        for slot in _slots_of(base, length):
            held = self._committed.get(slot)
            if not held:
                continue
            doomed = [idx for idx in held if lo <= idx < hi]
            for idx in doomed:
                held.remove(idx)
                del self._pages[idx]
            if not held:
                del self._committed[slot]
            dropped += len(doomed)
        self.stats.committed_bytes -= dropped * PAGE_SIZE

    def _release(self, record):
        self._decommit(record, record[0], record[1])


class OsProvider(_Provider):
    """Real anonymous mappings; decommit is madvise(MADV_DONTNEED).

    Committed-bytes reporting is the process RSS (page-granular but
    process-wide); tests that need range-exact accounting use sim.
    Guard pages are unsupported and reported once.
    """

    name = "os"
    supports_guards = False

    def __init__(self, reservation_cap=1 << 46):
        super().__init__(reservation_cap)
        self._guard_warned = False

    def protect_guard(self, base, length, enable):
        if not self._guard_warned:
            self._guard_warned = True
            import warnings
            warnings.warn("guard pages unsupported on the os provider; disabled")
        return False

    def write(self, addr, data):
        mbase, _, mm = self._locate(addr, len(data))
        off = addr - mbase
        mm[off:off + len(data)] = data

    def read(self, addr, n):
        mbase, _, mm = self._locate(addr, n)
        off = addr - mbase
        return bytes(mm[off:off + n])

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
        if rss > self.peak_committed_bytes:
            self.peak_committed_bytes = rss
        if rss > self._window_peak:
            self._window_peak = rss
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


def _round_up(value, step):
    return -(-value // step) * step


def _slots_of(base, length):
    """The 2MB slots that [base, base+length) touches."""
    return range(base >> _SLOT_SHIFT, ((base + length - 1) >> _SLOT_SHIFT) + 1)


def _process_rss_bytes():
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return 0


def make_provider(config):
    if config.provider == "os":
        return OsProvider(reservation_cap=config.reservation_cap)
    return SimProvider(reservation_cap=config.reservation_cap)
