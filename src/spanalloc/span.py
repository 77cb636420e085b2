"""Real-span headers, block free lists, and the span state machine.

A virtual span's first bytes hold its header: a link word (chains spans
through the span pool and reusable sets), an epoch word (life-cycle
state plus a counter bumped on every transition, which is what defeats
ABA on state changes), an owner word (LAB generation and reference),
the owner-private local free list, and the concurrent remote free list
whose single atomic word carries both the list head and the element
count. Blocks carry no metadata while live; a freed block's first word
becomes the next-pointer of whichever free list it sits on, written
straight into span memory so page accounting sees it.

Life cycle: free -> hot -> floating -> reusable -> {hot, free}, with
floating also reachable from reusable at thread termination. Fresh
arena slots are implicitly "expected" until their header is first
written. Every successful transition is a single conditional replace
of the epoch word.
"""

from .atomic import AtomicWord
from .config import VIRTUAL_SPAN_SIZE
from .errors import DoubleFree
from .size_classes import TABLE

# Epoch word: one-hot state in the top four bits, counter below.
STATE_FREE = 1
STATE_HOT = 2
STATE_FLOATING = 4
STATE_REUSABLE = 8
EPOCH_STATE_SHIFT = 60
EPOCH_COUNTER_MASK = (1 << EPOCH_STATE_SHIFT) - 1

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
    (STATE_REUSABLE, STATE_HOT),
    (STATE_REUSABLE, STATE_FREE),
    (STATE_REUSABLE, STATE_FLOATING),   # thread termination
])

# Owner word: 16-bit generation above a 48-bit LAB reference.
OWNER_REF_MASK = (1 << 48) - 1
TERMINATED = -1

# Link word: next span's reference (slot + 1; 0 ends the chain) in the low
# 24 bits, for pool stacks and reusable sets; reusable sets keep prev above.
LINK_NEXT_MASK = (1 << 24) - 1
LINK_PREV_SHIFT = 24

# Remote free list word: 16-bit element count above the 48-bit arena
# offset of the head block. Offset 0 is never a block, so 0 is empty.
REMOTE_OFFSET_MASK = (1 << 48) - 1
REMOTE_COUNT_SHIFT = 48


def epoch_state(word):
    return word >> EPOCH_STATE_SHIFT


def epoch_counter(word):
    return word & EPOCH_COUNTER_MASK


def next_epoch_word(observed, target_state):
    """The epoch word a successful transition installs."""
    return (target_state << EPOCH_STATE_SHIFT) | \
        ((observed + 1) & EPOCH_COUNTER_MASK)


def pack_owner(generation, lab_ref):
    return (generation << 48) | lab_ref


def owner_lab_ref(word):
    return word & OWNER_REF_MASK


class SpanHeader:
    __slots__ = (
        "space", "slot", "base", "epoch", "owner", "link",
        "size_class", "block_size", "blocks_per_span", "real_span_size",
        "payload", "reuse_threshold_blocks",
        "local_head", "local_count", "bump_limit", "remote",
        "set_token",
    )

    def __init__(self, space, slot, base):
        self.space = space
        self.slot = slot
        self.base = base
        self.epoch = AtomicWord(STATE_FREE << EPOCH_STATE_SHIFT)
        self.owner = AtomicWord(0)
        self.remote = AtomicWord(0)
        self.link = 0
        self.size_class = -1
        self.block_size = 0
        self.blocks_per_span = 0
        self.real_span_size = 0
        self.payload = 0
        self.reuse_threshold_blocks = 0
        self.local_head = 0
        self.local_count = 0
        self.bump_limit = 0
        self.set_token = None

    # -- initialization --------------------------------------------------

    def init_for_class(self, class_id, owner_word):
        """(Re)write the header for a class; epoch is left untouched.

        Only called on spans in state free with a single reference, so
        plain stores are safe. Reuse within the same real-span size is
        exactly this header rewrite.
        """
        geo = TABLE[class_id]
        self.size_class = class_id
        self.block_size = geo.block_size
        self.blocks_per_span = geo.blocks_per_span
        self.real_span_size = geo.real_span_size
        self.payload = self.base + geo.header_size
        self.reuse_threshold_blocks = \
            geo.blocks_per_span * self.space.reuse_percent // 100
        self.local_head = 0
        self.local_count = 0
        self.bump_limit = 0
        self.remote.store(0)
        self.owner.store(owner_word)
        space = self.space
        space.provider.touch(self.base, geo.header_size)
        if space.guard_pages:
            space.adjust_guards(self)

    # -- block allocation (owning thread only) ---------------------------

    def alloc_block(self):
        """Pop the local free list, else bump; 0 when exhausted."""
        head = self.local_head
        if head:
            addr = self.space.arena_base + head
            self.local_head = self.space.provider.read_word(addr)
            self.local_count -= 1
            return addr
        b = self.bump_limit
        if b < self.blocks_per_span:
            self.bump_limit = b + 1
            return self.payload + b * self.block_size
        return 0

    def free_local(self, addr):
        """Push onto the local list (LIFO); returns the new local count."""
        if self.space.debug_checks:
            self._debug_check_not_free(addr)
        off = addr - self.space.arena_base
        self.space.provider.write_word(addr, self.local_head)
        self.local_head = off
        count = self.local_count + 1
        self.local_count = count
        return count

    # -- remote free list (any non-owning thread) -------------------------

    def free_remote(self, addr):
        """Treiber push carrying the count in the top word; lock-free.

        The remote word carries no ABA tag on purpose: pushes only ever
        grow the list and the one consumer takes everything in a single
        swap, so a top value coming back around changes nothing the
        consumer relies on.
        """
        if self.space.debug_checks:
            self._debug_check_not_free(addr)
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

        Owner only. One atomic swap empties the remote word, so pushes
        racing the swap either come along or retry onto the emptied list.
        """
        if (self.remote.load() >> REMOTE_COUNT_SHIFT) <= self.reuse_threshold_blocks:
            return 0
        word = self.remote.exchange(0)
        count = word >> REMOTE_COUNT_SHIFT
        if count == 0:
            return 0
        head = word & REMOTE_OFFSET_MASK
        if self.local_head == 0:
            self.local_head = head
        else:
            # Rare: local list nonempty. Walk the drained chain and hook
            # its tail to the old head.
            provider = self.space.provider
            base = self.space.arena_base
            tail = head
            nxt = provider.read_word(base + tail)
            while nxt:
                tail = nxt
                nxt = provider.read_word(base + tail)
            provider.write_word(base + tail, self.local_head)
            self.local_head = head
        self.local_count += count
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
        return self.live_blocks() == 0

    # -- state machine -------------------------------------------------------

    def try_transition(self, observed_epoch, target_state):
        """One conditional replace of the epoch word.

        Succeeds iff the word still equals `observed_epoch`; the new
        word carries `target_state` and counter+1. Callers check the
        observed state first; an illegal edge here is a programming
        error.
        """
        src = observed_epoch >> EPOCH_STATE_SHIFT
        assert (src, target_state) in LEGAL_EDGES, \
            f"illegal span transition {STATE_NAMES.get(src)} -> " \
            f"{STATE_NAMES.get(target_state)}"
        new = next_epoch_word(observed_epoch, target_state)
        if not self.epoch.compare_exchange(observed_epoch, new):
            return False
        trace = self.space.trace
        if trace is not None:
            trace.append((self.slot, observed_epoch, new))
        return True

    def try_adopt(self, expected_owner, new_owner):
        """Claim an orphaned span for `new_owner`; loser defers to winner."""
        return self.owner.compare_exchange(expected_owner, new_owner)

    # -- test / debug helpers --------------------------------------------

    def walk_local(self):
        provider = self.space.provider
        base = self.space.arena_base
        off = self.local_head
        seen = []
        while off:
            seen.append(off)
            off = provider.read_word(base + off)
            if len(seen) > self.blocks_per_span:
                raise AssertionError("local free list cycle")
        return seen

    def walk_remote(self):
        provider = self.space.provider
        base = self.space.arena_base
        off = self.remote.load() & REMOTE_OFFSET_MASK
        seen = []
        while off:
            seen.append(off)
            off = provider.read_word(base + off)
            if len(seen) > self.blocks_per_span:
                raise AssertionError("remote free list cycle")
        return seen

    def _debug_check_not_free(self, addr):
        off = addr - self.space.arena_base
        idx = (addr - self.payload) // self.block_size
        if idx >= self.bump_limit:
            raise DoubleFree(f"block {addr:#x} was never allocated")
        if off in self.walk_local() or off in self.walk_remote():
            raise DoubleFree(f"block {addr:#x} is already free")

    def __repr__(self):
        e = self.epoch.load()
        return (f"<Span slot={self.slot} class={self.size_class} "
                f"state={STATE_NAMES.get(epoch_state(e))} "
                f"live={self.live_blocks()}>")


class SpanSpace:
    """Registry mapping virtual-span slots to their headers.

    Header objects are created on a slot's first use and mutated in
    place across reuses, mirroring headers living at the span base.
    """

    def __init__(self, arena, provider, reuse_percent=80, guard_pages=False,
                 trace_transitions=False, debug_checks=False):
        self.arena = arena
        self.arena_base = arena.base
        self.provider = provider
        self.reuse_percent = reuse_percent
        self.guard_pages = guard_pages and provider.supports_guards
        self.debug_checks = debug_checks
        self.trace = [] if trace_transitions else None
        self.headers = {}

    def header_for_base(self, base, create=False):
        slot = self.arena.slot_of(base)
        header = self.headers.get(slot)
        if header is None:
            if not create:
                raise KeyError(f"no span header at {base:#x}")
            header = self.headers.setdefault(slot, SpanHeader(self, slot, base))
        return header

    def span_of(self, addr):
        """Header of the span containing `addr` (which must be in-arena)."""
        return self.headers[self.arena.slot_of(self.arena.owning_span_base(addr))]

    def iter_headers(self):
        return iter(list(self.headers.values()))

    def adjust_guards(self, header):
        """Unprotect the real span, guard the rest of the virtual span."""
        rs = header.real_span_size
        self.provider.protect_guard(header.base, rs, False)
        self.provider.protect_guard(header.base + rs, VIRTUAL_SPAN_SIZE - rs, True)
