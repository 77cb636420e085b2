"""The global backend: a 2D array of ABA-tagged intrusive stacks.

Stacks are segregated by real-span size (first dimension) and by thread
id modulo the pool width (second dimension), so same-thread put/get
pairs hit the same stack and stay local. Each stack is one atomic top
word: a 48-bit element reference plus a 16-bit tag bumped on every
successful replacement, which makes the classic removed-and-reinserted
top race fail its conditional replace instead of corrupting the list.
Elements chain through the span headers' link words; the pool allocates
nothing of its own.

put() decommits all but the first page of real spans strictly larger
than the 32KB threshold before pushing, so pooled large spans cost one
page. get() tries the caller's own stack, then scans every stack in
ascending (real-span index, pool index) order, and finally falls back
to a fresh arena slot. Emptiness is not linearizable: a get may reach
the arena while puts are in flight, by design.
"""

from .atomic import AtomicWord
from .config import DECOMMIT_THRESHOLD, PAGE_SIZE
from .size_classes import NUM_REAL_SPAN_SIZES, TABLE, real_span_index_for_size
from .span import LINK_NEXT_MASK

TOP_REF_MASK = (1 << 48) - 1
TAG_SHIFT = 48


class TaggedStack:
    """Treiber stack over span headers with a tagged top word.

    The push/pop/retry counters are plain increments: exact when the
    stack is uncontended, best-effort under contention (bench output
    only; correctness tests count spans, not counters).
    """

    __slots__ = ("_top", "pushes", "pops", "retries")

    def __init__(self):
        self._top = AtomicWord(0)
        self.pushes = 0
        self.pops = 0
        self.retries = 0

    def load_top(self):
        return self._top.load()

    def cas_top(self, old, new):
        # Exposed for targeted interleaving tests.
        return self._top.compare_exchange(old, new)

    def push(self, span):
        ref = span.slot + 1
        top = self._top
        while True:
            old = top.load()
            span.link = (span.link & ~LINK_NEXT_MASK) | (old & TOP_REF_MASK)
            new = ((((old >> TAG_SHIFT) + 1) & 0xFFFF) << TAG_SHIFT) | ref
            if top.compare_exchange(old, new):
                self.pushes += 1
                return
            self.retries += 1

    def pop(self, space):
        top = self._top
        while True:
            old = top.load()
            ref = old & TOP_REF_MASK
            if ref == 0:
                return None
            span = space.headers[ref - 1]
            next_ref = span.link & LINK_NEXT_MASK
            new = ((((old >> TAG_SHIFT) + 1) & 0xFFFF) << TAG_SHIFT) | next_ref
            if top.compare_exchange(old, new):
                self.pops += 1
                return span
            self.retries += 1


class SpanPool:
    def __init__(self, space, width, decommit_enabled=True):
        self.space = space
        self.arena = space.arena
        self.provider = space.provider
        self.width = width
        self.decommit_enabled = decommit_enabled
        self.stacks = [[TaggedStack() for _ in range(width)]
                       for _ in range(NUM_REAL_SPAN_SIZES)]
        # Exact pool-level counters (the eager-reclamation hook).
        self.puts = AtomicWord(0)
        self.gets_from_pool = AtomicWord(0)
        self.gets_from_arena = AtomicWord(0)

    def put(self, span, thread_id):
        """Insert a span in state free; caller holds the only reference."""
        rs = span.real_span_size
        if self.decommit_enabled and rs > DECOMMIT_THRESHOLD:
            self.provider.decommit(span.base + PAGE_SIZE, rs - PAGE_SIZE)
        rs_idx = real_span_index_for_size(rs)
        self.stacks[rs_idx][thread_id % self.width].push(span)
        self.puts.fetch_add(1)

    def get(self, class_id, thread_id):
        """A span for `class_id`: own stack, then full scan, then arena.

        The returned span is in state free (pool hit, possibly of a
        different real-span size) or brand new; either way the caller
        reinitializes its header for the class.
        """
        rs_idx = TABLE[class_id].real_span_index
        span = self.stacks[rs_idx][thread_id % self.width].pop(self.space)
        if span is not None:
            self.gets_from_pool.fetch_add(1)
            return span
        for row in self.stacks:
            for stack in row:
                span = stack.pop(self.space)
                if span is not None:
                    self.gets_from_pool.fetch_add(1)
                    return span
        base = self.arena.acquire_virtual_span()
        self.gets_from_arena.fetch_add(1)
        return self.space.header_for_base(base, create=True)

    def approximate_size(self):
        return self.puts.load() - self.gets_from_pool.load()

    def stack_counters(self):
        """Per-stack (rs_index, pool_index, pushes, pops, retries) rows."""
        rows = []
        for i, row in enumerate(self.stacks):
            for j, stack in enumerate(row):
                rows.append((i, j, stack.pushes, stack.pops, stack.retries))
        return rows

    def counter_totals(self):
        pushes = pops = retries = 0
        for row in self.stacks:
            for stack in row:
                pushes += stack.pushes
                pops += stack.pops
                retries += stack.retries
        return {"pushes": pushes, "pops": pops, "retries": retries}
