"""Real-span headers, block free lists, and the span state machine.

A virtual span's first bytes hold its header: a link word (chains
pooled spans through a span pool stack, which alone reads and writes
it), an epoch word (life-cycle state, owner, and a counter bumped on
every transition, which is what defeats ABA on state changes), the
owner-private local free list, and the concurrent remote free list
whose single atomic word carries both the list head and the element
count. The two atomic words share one lock, as they would share the
header's cache line. A header is built for the class that first takes
its slot. Its page, the slot's first, is committed then, once, and gets
bytes only if a small class's block on it is written; no decommit
releases it, so re-classing a pooled span rewrites the header in place
and commits nothing. Blocks carry no metadata while live; a freed block's first
word becomes the next-pointer of whichever free list it sits on,
written straight into span memory so page accounting sees it.

Life cycle: free -> hot -> floating -> reusable -> {hot, free}, with
floating also reachable from reusable at thread termination, and
floating -> free for the free that empties a floating span. A fresh
arena slot has no header, and so no state, until the span pool hands it
out, free. Every successful transition is a single conditional replace
of the epoch word, recorded in the ledger's trace when instrumented.
The word holds the owner too, so one load is a consistent snapshot.
An owner is the id of one LAB's one life, never reused. Only free -> hot
and an adopting marking (floating -> reusable into a live thread's set,
when the owner terminated) change the owner.
"""

import threading

from .atomic import AtomicWord
from .config import PAGE_SIZE, SPAN_SHIFT
from .errors import WildFree
from .size_classes import TABLE

# Epoch word: one-hot state in the top four bits, the 64-bit owner word
# below it, and a 60-bit counter at the bottom.
STATE_FREE = 1
STATE_HOT = 2
STATE_FLOATING = 4
STATE_REUSABLE = 8
EPOCH_OWNER_SHIFT = 60
EPOCH_STATE_SHIFT = EPOCH_OWNER_SHIFT + 64
EPOCH_COUNTER_MASK = (1 << EPOCH_OWNER_SHIFT) - 1
EPOCH_OWNER_FIELD = ((1 << 64) - 1) << EPOCH_OWNER_SHIFT

STATE_NAMES = {
    STATE_FREE: "free",
    STATE_HOT: "hot",
    STATE_FLOATING: "floating",
    STATE_REUSABLE: "reusable",
}

LEGAL_EDGES = frozenset([
    (STATE_FREE, STATE_HOT),
    (STATE_HOT, STATE_FLOATING),
    (STATE_FLOATING, STATE_REUSABLE),
    (STATE_FLOATING, STATE_FREE),       # the free that empties the span
    (STATE_REUSABLE, STATE_HOT),
    (STATE_REUSABLE, STATE_FREE),
    (STATE_REUSABLE, STATE_FLOATING),   # thread termination
])

# Per legal edge, the add that moves an epoch word along it and keeps
# its owner: the state's change, and 1 on the counter. Indexed by
# `source << 4 | target`; None for an illegal edge.
EDGE_ADDS = [None] * ((STATE_REUSABLE << 4 | STATE_REUSABLE) + 1)
for _src, _dst in LEGAL_EDGES:
    EDGE_ADDS[_src << 4 | _dst] = ((_dst - _src) << EPOCH_STATE_SHIFT) + 1
del _src, _dst

# Remote free list word: 16-bit element count above the 48-bit arena
# offset of the head block. Offset 0 is never a block, so 0 is empty.
REMOTE_OFFSET_MASK = (1 << 48) - 1
REMOTE_COUNT_SHIFT = 48


def epoch_state(word):
    return word >> EPOCH_STATE_SHIFT


def epoch_counter(word):
    return word & EPOCH_COUNTER_MASK


def epoch_owner(word):
    return (word & EPOCH_OWNER_FIELD) >> EPOCH_OWNER_SHIFT


def next_epoch_word(observed, target_state):
    """The epoch word a successful transition that keeps the owner
    installs."""
    return (target_state << EPOCH_STATE_SHIFT) \
        | (observed & EPOCH_OWNER_FIELD) | ((observed + 1) & EPOCH_COUNTER_MASK)


class SpanHeader:
    __slots__ = (
        "space", "slot", "base", "epoch", "link",
        "size_class", "block_size", "blocks_per_span", "real_span_size",
        "payload", "reuse_threshold_blocks",
        "local_head", "local_count", "bump_limit", "remote",
    )

    def __init__(self, space, slot, base, class_id):
        """The header of a fresh slot, built for `class_id`: state free,
        both atomic words 0, and no block handed out."""
        self.space = space
        self.slot = slot
        self.base = base
        lock = threading.Lock()
        self.epoch = AtomicWord(STATE_FREE << EPOCH_STATE_SHIFT, lock)
        self.remote = AtomicWord(0, lock)
        self.link = 0
        self._set_class(class_id)

    # -- initialization --------------------------------------------------

    def init_for_class(self, class_id):
        """Re-class a pooled span; epoch is left untouched.

        Only called on spans in state free with a single reference, so
        plain stores are safe. Reuse of a pooled span, of any real-span
        size, is exactly this header rewrite: the header page has been
        committed since the header was created, so it touches no memory.
        """
        self._set_class(class_id)
        self.remote.store(0)

    def _set_class(self, class_id):
        """The class fields of `class_id`, and empty local lists."""
        geo = TABLE[class_id]
        self.size_class = class_id
        self.block_size = geo.block_size
        self.blocks_per_span = geo.blocks_per_span
        self.real_span_size = geo.real_span_size
        self.payload = self.base + geo.header_size
        self.reuse_threshold_blocks = self.space.reuse_thresholds[class_id]
        self.local_head = 0
        self.local_count = 0
        self.bump_limit = 0

    # -- block allocation (owning thread only) ---------------------------

    def alloc_block(self):
        """Pop the local free list, else bump; 0 when exhausted.

        `Allocator.malloc` makes this same pop and bump inline, in its
        own frame, for every block, after `Frontend.allocate` refilled
        the hot span if need be; this method serves span-level tests and
        per-layer tracing, which wraps it by name."""
        head = self.local_head
        if head:
            space = self.space
            addr = space.arena_base + head
            self.local_head = space.provider.read_word(addr)
            self.local_count -= 1
            return addr
        b = self.bump_limit
        if b < self.blocks_per_span:
            self.bump_limit = b + 1
            return self.payload + b * self.block_size
        return 0

    def free_local(self, addr):
        """Push onto the local list (LIFO); returns the new local count.

        `Allocator.free` makes this same push inline, in its own frame;
        this method serves span-level tests and per-layer tracing, which
        wraps it by name."""
        space = self.space
        space.provider.write_word(addr, self.local_head)
        self.local_head = addr - space.arena_base
        count = self.local_count + 1
        self.local_count = count
        return count

    # -- remote free list (any non-owning thread) -------------------------

    def free_remote(self, addr):
        """Treiber push carrying the count in the top word; lock-free;
        returns the new remote count.

        `Allocator.free` makes this same push inline, in its own frame;
        this method serves span-level tests and per-layer tracing, which
        wraps it by name. The remote word carries no ABA tag on purpose:
        pushes only ever grow the list and the one consumer takes
        everything in a single swap, so a top value coming back around
        changes nothing the consumer relies on.
        """
        off = addr - self.space.arena_base
        provider = self.space.provider
        remote = self.remote
        while True:
            old = remote.load()
            provider.write_word(addr, old & REMOTE_OFFSET_MASK)
            new = (((old >> REMOTE_COUNT_SHIFT) + 1) << REMOTE_COUNT_SHIFT) | off
            if remote.compare_exchange(old, new):
                return new >> REMOTE_COUNT_SHIFT

    def remote_count(self):
        return self.remote.load() >> REMOTE_COUNT_SHIFT

    def drain_remotes(self):
        """Move all remote blocks into the local list if there are more
        than the reusability threshold; returns the count moved.

        Owner only, and only once the local list is empty: the
        refill drains a hot span that holds no block. One atomic swap
        empties the remote word, so pushes racing the swap either come
        along or retry onto the emptied list.
        """
        if (self.remote.load() >> REMOTE_COUNT_SHIFT) <= self.reuse_threshold_blocks:
            return 0
        assert self.local_head == 0, "drain into a nonempty local list"
        word = self.remote.exchange(0)
        count = word >> REMOTE_COUNT_SHIFT
        self.local_head = word & REMOTE_OFFSET_MASK
        self.local_count = count
        return count

    # -- counts ------------------------------------------------------------

    def free_block_count(self):
        """Blocks not currently live: listed frees plus never-used."""
        return (self.local_count + (self.remote.load() >> REMOTE_COUNT_SHIFT)
                + self.blocks_per_span - self.bump_limit)

    def live_blocks(self):
        return self.bump_limit - self.local_count \
            - (self.remote.load() >> REMOTE_COUNT_SHIFT)

    def is_empty(self):
        """No live block; agrees with `live_blocks() == 0`, computed in
        one expression on the free path."""
        return self.bump_limit == \
            self.local_count + (self.remote.load() >> REMOTE_COUNT_SHIFT)

    # -- state machine -------------------------------------------------------

    def try_transition(self, observed_epoch, target_state, owner=None):
        """One conditional replace of the epoch word: the installed
        word (never 0), or False when the word no longer equals
        `observed_epoch`. The new word carries `target_state`, `owner`
        or else the observed owner, and counter+1 (wrapping at the
        counter mask); without `owner` it equals `next_epoch_word`.
        A word that keeps its owner is the observed word plus the edge's
        add from `EDGE_ADDS`; an owner install and the counter's wrap
        compute the word in full.
        Callers check the observed state first; an illegal edge here is
        a programming error, and has no add.
        """
        src = observed_epoch >> EPOCH_STATE_SHIFT
        add = EDGE_ADDS[src << 4 | target_state]
        assert add, f"illegal span transition {STATE_NAMES.get(src)} -> " \
            f"{STATE_NAMES.get(target_state)}"
        if owner is None and ~observed_epoch & EPOCH_COUNTER_MASK:
            # The counter is below its mask, so the add does not carry.
            new = observed_epoch + add
        else:
            new = (target_state << EPOCH_STATE_SHIFT) \
                | ((observed_epoch + 1) & EPOCH_COUNTER_MASK) \
                | (observed_epoch & EPOCH_OWNER_FIELD if owner is None
                   else owner << EPOCH_OWNER_SHIFT)
        if not self.epoch.compare_exchange(observed_epoch, new):
            return False
        ledger = self.space.ledger
        if ledger is not None:
            ledger.trace.append((self.slot, observed_epoch, new))
        return new

    def try_adopt(self, stamp, new_owner):
        """The adopting marking's replace, floating -> reusable from
        `stamp` with `new_owner` installed; `LAB.mark` makes it through
        `try_transition`, and per-layer tracing wraps this name."""
        return self.try_transition(stamp, STATE_REUSABLE, new_owner)

    # -- test / debug helpers --------------------------------------------

    def walk_local(self):
        return self._walk(self.local_head, "local")

    def walk_remote(self):
        return self._walk(self.remote.load() & REMOTE_OFFSET_MASK, "remote")

    def _walk(self, off, name):
        """Arena offsets of a free list's blocks, from head `off`."""
        provider = self.space.provider
        base = self.space.arena_base
        seen = []
        while off:
            seen.append(off)
            off = provider.read_word(base + off)
            if len(seen) > self.blocks_per_span:
                raise AssertionError(f"{name} free list cycle")
        return seen

    def __repr__(self):
        e = self.epoch.load()
        return (f"<Span slot={self.slot} class={self.size_class} "
                f"state={STATE_NAMES.get(epoch_state(e))} "
                f"live={self.live_blocks()}>")


class SpanSpace:
    """Registry mapping virtual-span slots to their headers.

    Header objects are created on a slot's first use and mutated in
    place across reuses, mirroring headers living at the span base.
    `headers` is indexed by slot, so `span_of` is one subtract, one
    shift and one index. The list grows geometrically, at least
    doubling, when a header is created past its end (on the arena slow
    path), so it holds None for every slot without a header: gaps below
    the last header and grown slots past it. Each class's reuse
    threshold is computed here once.
    """

    def __init__(self, arena, provider, reuse_percent=80, ledger=None):
        self.arena = arena
        self.arena_base = arena.base
        self.provider = provider
        self.ledger = ledger        # a FragLedger on instrumented allocators
        # Below blocks_per_span even at 100%, so an emptied span still
        # crosses it and can go back to the pool.
        self.reuse_thresholds = tuple(
            min(g.blocks_per_span * reuse_percent // 100,
                g.blocks_per_span - 1) for g in TABLE)
        self.headers = []
        self._grow_lock = threading.Lock()

    def header_for_base(self, base, class_id):
        """The header of the fresh slot at `base`, which the arena just
        handed out, built for `class_id`; this commits the slot's first
        page (with no bytes: the header's fields live in this object,
        and only a small class's blocks, which share the page, write to
        it).

        Creation takes no lock: the arena hands each slot out exactly
        once, so no two threads create the same header. Only growing
        `headers` takes `_grow_lock`; a store into the grown list and a
        concurrent extend are each atomic under the GIL. The list is not
        presized to the arena: a 2^46-byte arena has 2^25 slots.
        """
        slot = (base - self.arena_base) >> SPAN_SHIFT
        headers = self.headers
        if slot >= len(headers):
            with self._grow_lock:
                n = len(headers)
                if slot >= n:
                    headers.extend([None] * max(n, slot + 1 - n))
        self.provider.touch(base, PAGE_SIZE)
        header = headers[slot] = SpanHeader(self, slot, base, class_id)
        return header

    def span_of(self, addr):
        """Header of the span containing `addr` (which must be in-arena).
        A LookupError when its slot has no header: IndexError past the
        end of `headers`, KeyError for a None slot (a gap below the last
        header, or a grown slot past it). The WildFree checks,
        `block_span` and `Allocator.free`, make the same index
        themselves."""
        header = self.headers[(addr - self.arena_base) >> SPAN_SHIFT]
        if header is None:
            raise KeyError(f"no span header at {addr:#x}")
        return header

    def block_span(self, addr, interior=False):
        """The span of `addr`, a handed-out block (with `interior`, any
        address inside one). O(1) WildFree when the slot has no header,
        the span is free, or `addr` is not a block below the bump limit.
        This is the check of `realloc` and of `usable_size`
        (`interior`); `Allocator.free` inlines the same rule, with the
        same messages."""
        try:
            span = self.headers[(addr - self.arena_base) >> SPAN_SHIFT]
        except IndexError:
            span = None
        if span is None:
            raise WildFree(f"{addr:#x} is in the arena but not in any span")
        off = addr - span.payload
        size = span.block_size
        if span.epoch.load() >> EPOCH_STATE_SHIFT == STATE_FREE or off < 0 \
                or off >= span.bump_limit * size \
                or (off % size and not interior):
            raise WildFree(f"{addr:#x} is not a handed-out block of its span")
        return span

    def iter_headers(self):
        return (h for h in list(self.headers) if h is not None)
