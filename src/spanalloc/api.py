"""Public allocator facade.

Routes requests by size: anything that fits a class goes through the
frontend; larger requests get their own page mapping with a one-page
header recording the size, so a later free can validate and unmap it.
Addresses are integers; 0 is the null sentinel (returned on
out-of-memory, ignored by free, POSIX style).
"""

import dataclasses
import struct

from .arena import Arena
from .config import PAGE_SIZE, AllocatorConfig
from .errors import OutOfMemory, ReservationError, WildFree
from .fragmeter import FragLedger
from .frontend import Frontend
from .size_classes import HUGE, class_for_size
from .span import SpanSpace
from .span_pool import SpanPool
from .vmem import make_provider

NULL = 0

HUGE_MAGIC = 0x48554745424C4B31  # "HUGEBLK1"
_HUGE_HEADER = struct.Struct("<QQQ")
MAX_ALIGNMENT = 4096


@dataclasses.dataclass(frozen=True)
class HugeHeader:
    magic: int
    payload_size: int
    total_mapping: int

    def pack(self):
        return _HUGE_HEADER.pack(self.magic, self.payload_size,
                                 self.total_mapping)

    @classmethod
    def unpack(cls, data):
        return cls(*_HUGE_HEADER.unpack(data[:_HUGE_HEADER.size]))


class Allocator:
    """One allocator instance: arena, span pool, LABs, and huge-object
    mappings over a single virtual-memory provider."""

    def __init__(self, config=None, **overrides):
        if config is None:
            config = AllocatorConfig(**overrides)
        elif overrides:
            config = dataclasses.replace(config, **overrides)
        self.config = config
        self.provider = make_provider(config)
        self.region = self.provider.reserve(config.arena_bytes)
        self.arena = Arena(self.region)
        self.space = SpanSpace(
            self.arena, self.provider,
            reuse_percent=config.reuse_percent,
            guard_pages=config.guard_pages,
            trace_transitions=config.trace_transitions,
            debug_checks=config.debug_checks,
        )
        self.pool = SpanPool(self.space, config.effective_pool_width(),
                             decommit_enabled=config.decommit_enabled)
        self.ledger = FragLedger() if config.instrument else None
        self.frontend = Frontend(self.space, self.pool, config,
                                 ledger=self.ledger)

    # -- allocation entry points ------------------------------------------

    def malloc(self, size):
        """A block of at least `size` bytes; NULL on out-of-memory."""
        sc = class_for_size(size)
        if sc == HUGE:
            return self._huge_alloc(size)
        try:
            return self.frontend.allocate(sc)
        except OutOfMemory:
            return NULL

    def free(self, addr):
        if addr == NULL:
            return
        if self.arena.contains(addr):
            try:
                self.frontend.deallocate(addr)
            except KeyError:
                raise WildFree(
                    f"{addr:#x} is in the arena but not in any span") from None
        else:
            self._huge_free(addr)

    def calloc(self, nmemb, size):
        total = nmemb * size
        addr = self.malloc(total)
        if addr != NULL and self.arena.contains(addr):
            # Fresh pages read as zero on first touch; recycled blocks
            # carry stale free-list words and must be cleared.
            self.provider.zero_committed(addr, total)
        return addr

    def realloc(self, addr, size):
        if addr == NULL:
            return self.malloc(size)
        if size == 0:
            self.free(addr)
            return self.malloc(0)
        old_usable = self.usable_size(addr)
        new = self.malloc(size)
        if new == NULL:
            return NULL
        n = min(old_usable, size)
        self.provider.write(new, self.provider.read(addr, n))
        self.free(addr)
        return new

    def aligned_alloc(self, alignment, size):
        """Alignment up to 4KB (power of two); size is rounded up so the
        serving block is itself alignment-aligned."""
        if alignment <= 0 or alignment & (alignment - 1):
            raise ValueError("alignment must be a power of two")
        if alignment > MAX_ALIGNMENT:
            raise ValueError(f"alignment above {MAX_ALIGNMENT} not supported")
        if alignment <= 16:
            return self.malloc(size)
        rounded = -(-max(size, 1) // alignment) * alignment
        return self.malloc(rounded)

    def usable_size(self, addr):
        if self.arena.contains(addr):
            return self.space.span_of(addr).block_size
        header = self._read_huge_header(addr)
        return header.payload_size

    # -- huge objects -------------------------------------------------------

    def _huge_alloc(self, size):
        pages = -(-size // PAGE_SIZE)
        total = (pages + 1) * PAGE_SIZE
        try:
            base = self.provider.map_pages(total)
        except ReservationError:
            return NULL
        self.provider.write(
            base, HugeHeader(HUGE_MAGIC, size, total).pack())
        return base + PAGE_SIZE

    def _huge_free(self, addr):
        self._read_huge_header(addr)   # validation only: raises WildFree
        self.provider.unmap(addr - PAGE_SIZE)

    def _read_huge_header(self, addr):
        base = addr - PAGE_SIZE
        if base < 0 or self.provider.mapping_length(base) is None:
            raise WildFree(f"{addr:#x} is not an allocated address")
        header = HugeHeader.unpack(self.provider.read(base, _HUGE_HEADER.size))
        if header.magic != HUGE_MAGIC:
            raise WildFree(
                f"{addr:#x}: bad huge-object header "
                f"(magic {header.magic:#x})")
        return header

    # -- threads ------------------------------------------------------------

    def attach_thread(self):
        self.frontend.attach()

    def detach_thread(self):
        self.frontend.detach()

    # -- introspection --------------------------------------------------------

    @property
    def committed_bytes(self):
        return self.provider.committed_bytes

    def stats(self):
        out = self.frontend.aggregate_stats()
        out["pool_puts"] = self.pool.puts.load()
        out["pool_gets"] = self.pool.gets_from_pool.load()
        out["arena_spans"] = self.arena.spans_handed_out()
        out.update({f"stack_{k}": v
                    for k, v in self.pool.counter_totals().items()})
        if self.ledger is not None:
            out["frag_bytes"] = self.ledger.f
        return out
