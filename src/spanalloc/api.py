"""Public allocator facade.

Routes requests by size, each in the entry point's own frame: anything
that fits a class goes through the frontend, its class one index into
`CLASS_OF`; a larger request is its own page mapping, returned at the
mapping's base. The provider's mapping record (base and length) is the
huge object's header: a free unmaps exactly a live mapping's base, and
anything else fails there, before it changes anything. So a huge malloc
commits nothing, and its usable size is the page-rounded length.
Addresses are integers; 0 is the null sentinel (returned on
out-of-memory, ignored by free, POSIX style).
"""

import dataclasses

from .arena import Arena
from .config import PAGE_SIZE, AllocatorConfig
from .errors import OutOfMemory, ReservationError, WildFree
from .fragmeter import FragLedger
from .frontend import Frontend
# class_for_size is not called here (malloc indexes CLASS_OF itself);
# perfbench/tracing.py wraps it under this module's name.
from .size_classes import CLASS_OF, MAX_CLASS_BLOCK, class_for_size
from .span import EPOCH_STATE_SHIFT, STATE_FREE, SpanSpace
from .span_pool import SpanPool
from .vmem import make_provider

NULL = 0

MAX_ALIGNMENT = 4096


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
        self.arena = Arena(self.provider.reserve(config.arena_bytes))
        # The arena range, for the routing test of free, realloc, calloc
        # and usable_size, without a call.
        self._arena_lo, self._arena_hi = self.arena.base, self.arena.end
        self.ledger = FragLedger() if config.instrument else None
        self.space = SpanSpace(
            self.arena, self.provider,
            reuse_percent=config.reuse_percent,
            ledger=self.ledger,
        )
        self.pool = SpanPool(self.space, config.pool_width,
                             decommit_enabled=config.decommit_enabled)
        self.frontend = Frontend(self.space, self.pool, config)

    # -- allocation entry points ------------------------------------------

    def malloc(self, size):
        """A block of at least `size` bytes; NULL on out-of-memory,
        ValueError for a negative size."""
        if size > MAX_CLASS_BLOCK:
            try:
                return self.provider.map_pages(
                    -(-size // PAGE_SIZE) * PAGE_SIZE)
            except ReservationError:
                return NULL
        if size < 0:
            raise ValueError(f"negative size {size}")
        try:
            return self.frontend.allocate(CLASS_OF[(size + 15) >> 4])
        except OutOfMemory:
            return NULL

    def free(self, addr):
        if addr == NULL:
            return
        if self._arena_lo <= addr < self._arena_hi:
            self.frontend.deallocate(addr)
            return
        # unmap checks that `addr` is a live mapping's base before it
        # drops anything.
        try:
            self.provider.unmap(addr)
        except ValueError:
            raise WildFree(f"{addr:#x} is not an allocated address") from None

    def calloc(self, nmemb, size):
        if nmemb < 0 or size < 0:
            raise ValueError("negative calloc argument")
        total = nmemb * size
        addr = self.malloc(total)
        if self._arena_lo <= addr < self._arena_hi:
            # Fresh pages read as zero on first touch; recycled blocks
            # carry stale free-list words and must be cleared.
            self.provider.zero_committed(addr, total)
        return addr

    def realloc(self, addr, size):
        # A negative size fails in malloc, before anything is freed.
        if addr == NULL:
            return self.malloc(size)
        if size == 0:
            self.free(addr)
            return self.malloc(0)
        if self._arena_lo <= addr < self._arena_hi:
            # WildFree and DoubleFree before, not after, malloc.
            old_usable = self.space.block_span(addr)[0].block_size
            if self.ledger is not None:
                self.ledger.check_live(addr)
        else:
            old_usable = self.usable_size(addr)
        new = self.malloc(size)
        if new == NULL:
            return NULL
        self.provider.copy(new, addr, min(old_usable, size))
        self.free(addr)
        return new

    def aligned_alloc(self, alignment, size):
        """Alignment up to 4KB (power of two); size is rounded up so the
        serving block is itself alignment-aligned."""
        if alignment <= 0 or alignment & (alignment - 1):
            raise ValueError("alignment must be a power of two")
        if alignment > MAX_ALIGNMENT:
            raise ValueError(f"alignment above {MAX_ALIGNMENT} not supported")
        if size < 0:
            raise ValueError(f"negative size {size}")
        if alignment <= 16:
            return self.malloc(size)
        rounded = -(-max(size, 1) // alignment) * alignment
        return self.malloc(rounded)

    def usable_size(self, addr):
        """Usable bytes of the handed-out block that holds `addr` (a huge
        object's whole mapping, page-rounded); WildFree when `addr` is in
        no handed-out block and is no huge mapping's base."""
        if self._arena_lo <= addr < self._arena_hi:
            return self.space.block_span(addr, interior=True)[0].block_size
        length = self.provider.mapping_length(addr)
        if length is None:
            raise WildFree(f"{addr:#x} is not an allocated address")
        return length

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
        """The frontend's counters, the pool's and the arena's, each
        counted once; the keys that restate them are derived here."""
        out = self.frontend.aggregate_stats()
        pool = self.pool
        out["pool_puts"] = out["stack_pushes"] = pool.puts.load()
        out["pool_gets"] = out["stack_pops"] = pool.gets_from_pool.load()
        out["arena_spans"] = self.arena.spans_handed_out()
        out["pool_fetches"] = out["pool_gets"] + out["arena_spans"]
        out["stack_retries"] = sum(
            retries for _, _, retries in pool.stack_counters())
        if self.ledger is not None:
            # The free bytes of every span in the frontend.
            out["frag_bytes"] = sum(
                h.free_block_count() * h.block_size
                for h in self.space.iter_headers()
                if h.epoch.load() >> EPOCH_STATE_SHIFT != STATE_FREE)
        return out
