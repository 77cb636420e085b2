"""Public allocator facade.

Routes requests by size, each in the entry point's own frame: anything
that fits a class goes to its class, one index into `CLASS_OF`; a
larger request is its own page mapping, returned at the mapping's
base. The provider's mapping record (base and length) is the huge
object's header: a free unmaps exactly a live mapping's base, and
anything else fails there, before it changes anything. So a huge malloc
commits nothing, and its usable size is the page-rounded length.
Addresses are integers; 0 is the null sentinel (returned on
out-of-memory, ignored by free, POSIX style).

The hot-span fast paths run here too, in the same frames. `malloc`
serves every block, under the class latch in CLAB mode, with its one
pop of the hot span's local list or bump; when the hot span is missing
or dry it first calls the slow path `Frontend.allocate`, a refill that
returns a hot span holding a block. `free` makes the WildFree and
DoubleFree checks, the local or remote push and the one count of the
span's free blocks, and calls the slow path `Frontend.deallocate` only
when that count calls for a retirement or a marking.
`SpanSpace.block_span` makes the same WildFree test for `realloc` and
`usable_size`.
"""

import dataclasses

from .arena import Arena
from .config import PAGE_SIZE, SPAN_SHIFT, AllocatorConfig
from .errors import OutOfMemory, ReservationError, WildFree
from .fragmeter import FragLedger
from .frontend import Frontend
# Names kept only because perfbench/tracing.py wraps them by name, and
# which go with its wrap list: `class_for_size` in this module (malloc
# indexes CLASS_OF itself), `SpanHeader.alloc_block` (malloc pops and
# bumps inline), `SpanHeader.free_local` and `SpanHeader.free_remote`
# (free pushes inline; the span tests call all three) and
# `SpanHeader.try_adopt` (`LAB.mark` adopts through `try_transition`).
from .size_classes import CLASS_OF, MAX_CLASS_BLOCK, class_for_size
from .span import (
    EPOCH_OWNER_FIELD, EPOCH_OWNER_SHIFT, EPOCH_STATE_SHIFT,
    REMOTE_COUNT_SHIFT, REMOTE_OFFSET_MASK, STATE_FLOATING, STATE_FREE,
    SpanSpace,
)
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
        # Plain references the fast paths read: the attachment records,
        # and `headers`, which grows in place. No bound method is cached,
        # so a patched class method is seen.
        self._tls = self.frontend._tls
        self._headers = self.space.headers
        self._eager_reclaim = config.eager_reclaim

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
        sc = CLASS_OF[(size + 15) >> 4]
        try:
            lab, tid, stats, mine, _ = self._tls.attached
        except AttributeError:
            lab, tid, stats, mine, _ = self.frontend._current()
        latches = lab.class_latches
        if latches is not None:
            latch = latches[sc]
            latch.acquire()
        try:
            stats.allocs += 1
            hot = lab.hot_spans[sc]
            while True:
                head = hot.local_head if hot is not None else 0
                if head:
                    # The pop of `SpanHeader.alloc_block`.
                    block = self._arena_lo + head
                    hot.local_head = self.provider.read_word(block)
                    hot.local_count -= 1
                    break
                if hot is not None and hot.bump_limit < hot.blocks_per_span:
                    block = hot.payload + hot.bump_limit * hot.block_size
                    hot.bump_limit += 1
                    break
                # The refill: a hot span that holds a block.
                hot = self.frontend.allocate(lab, tid, stats, mine, sc)
            if self.ledger is not None:
                self.ledger.on_alloc(block)
            return block
        except OutOfMemory:
            return NULL
        finally:
            if latches is not None:
                latch.release()

    def free(self, addr):
        """Free `addr`; NULL is ignored.

        The checks come first, each O(1) and before any list push:
        WildFree for an address that is no handed-out block (the rule
        of `SpanSpace.block_span`) and no huge mapping's base, then,
        when instrumented, the ledger's DoubleFree. The span's state and
        owner come from one load of its epoch word. A TLAB free into a
        span the caller owns pushes on the local list; every other free
        makes the remote list's Treiber push and then loads the epoch
        word again, and only that word decides its state work.

        A hot or free word has none. Any other free counts its span's
        free blocks once, after its push, so the free with the last push
        sees every block. Under eager reclamation the free that counts
        the span empty retires it; short of empty, a floating word above
        the reuse threshold goes to the marking. Both are the slow path,
        `Frontend.deallocate`.
        """
        if addr == NULL:
            return
        lo = self._arena_lo
        if not lo <= addr < self._arena_hi:
            # unmap checks that `addr` is a live mapping's base before it
            # drops anything.
            try:
                self.provider.unmap(addr)
            except ValueError:
                raise WildFree(
                    f"{addr:#x} is not an allocated address") from None
            return
        # After the range test: a negative index would wrap.
        try:
            span = self._headers[(addr - lo) >> SPAN_SHIFT]
        except IndexError:
            span = None
        if span is None:
            raise WildFree(f"{addr:#x} is in the arena but not in any span")
        epoch = span.epoch.load()
        state = epoch >> EPOCH_STATE_SHIFT
        off = addr - span.payload
        size = span.block_size
        if state == STATE_FREE or off < 0 \
                or off >= span.bump_limit * size or off % size:
            raise WildFree(f"{addr:#x} is not a handed-out block of its span")
        if self.ledger is not None:
            self.ledger.on_free(addr)
        try:
            lab, tid, stats, mine, _ = self._tls.attached
        except AttributeError:
            lab, tid, stats, mine, _ = self.frontend._current()
        own = (epoch & EPOCH_OWNER_FIELD) >> EPOCH_OWNER_SHIFT == mine \
            and self.frontend.tlab
        if own:
            # The push of `SpanHeader.free_local`.
            self.provider.write_word(addr, span.local_head)
            span.local_head = addr - lo
            span.local_count += 1
            stats.frees_local += 1
        else:
            # The push of `SpanHeader.free_remote`.
            remote = span.remote
            while True:
                old = remote.load()
                self.provider.write_word(addr, old & REMOTE_OFFSET_MASK)
                if remote.compare_exchange(
                        old, (((old >> REMOTE_COUNT_SHIFT) + 1)
                              << REMOTE_COUNT_SHIFT) | (addr - lo)):
                    break
            stats.frees_remote += 1
            epoch = span.epoch.load()
            state = epoch >> EPOCH_STATE_SHIFT
        if state < STATE_FLOATING:      # hot, or free after the re-read
            return
        blocks = span.blocks_per_span
        # A fresh load, not the push's count: a drain since the push may
        # have moved the pushed block onto the local list.
        free = span.local_count + (span.remote.load() >> REMOTE_COUNT_SHIFT) \
            + blocks - span.bump_limit
        retire = free == blocks and self._eager_reclaim
        if retire or state == STATE_FLOATING \
                and free > span.reuse_threshold_blocks:
            self.frontend.deallocate(span, epoch, retire, own,
                                     lab, tid, stats)

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
            old_usable = self.space.block_span(addr).block_size
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
            return self.space.block_span(addr, interior=True).block_size
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
