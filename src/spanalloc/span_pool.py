"""The global backend: a 2D array of ABA-tagged intrusive stacks.

Stacks are segregated by real-span size (first dimension) and by thread
id modulo the pool width (second dimension), so same-thread put/get
pairs hit the same stack and stay local. Each stack is one atomic top
word: a 48-bit element reference plus a 16-bit tag bumped on every
successful replacement, which makes the classic removed-and-reinserted
top race fail its conditional replace instead of corrupting the list.
Elements chain through the span headers' link words, each holding the
next element's reference (slot + 1; 0 at the bottom of the stack). The
pool is the only reader and writer of that word, and it allocates
nothing of its own.

put() decommits all but the first page of real spans strictly larger
than the 32KB threshold before pushing, so pooled large spans cost one
page. get() reads the pool's depth from its exact put and get counters
first: an empty pool goes straight to a fresh arena slot without
popping any stack. Otherwise it tries the caller's own stack, then
scans every other stack in ascending (real-span index, pool index)
order, and only then falls back to the arena. Emptiness is not
linearizable: a get may reach the arena while puts are in flight, by
design.

get() returns a span set up for the requested class: a pooled one is
re-classed in place, and a fresh slot's header is built for the class.

Each event is counted once: `puts` and `gets_from_pool` count every
push and pop of every stack, `gets_from_arena` is the arena's cursor
word, which counts the fresh slots, and a stack counts only its own CAS
retries. `Allocator.stats()` derives the per-stack totals and the
frontend's span fetches from these.
"""

from .atomic import AtomicWord
from .config import DECOMMIT_THRESHOLD, PAGE_SIZE
from .size_classes import NUM_REAL_SPAN_SIZES, TABLE

TOP_REF_MASK = (1 << 48) - 1
TAG_SHIFT = 48


class TaggedStack:
    """Treiber stack over span headers with a tagged top word.

    `retries` counts failed replacements of the top word: a plain
    increment, exact when the stack is uncontended, best-effort under
    contention (bench output only). It is the one counter a stack keeps;
    the pool counts the pushes and pops of all its stacks.
    """

    __slots__ = ("_top", "retries")

    def __init__(self):
        self._top = AtomicWord(0)
        self.retries = 0

    def load_top(self):
        return self._top.load()

    def push(self, span):
        ref = span.slot + 1
        top = self._top
        while True:
            old = top.load()
            span.link = old & TOP_REF_MASK
            new = ((((old >> TAG_SHIFT) + 1) & 0xFFFF) << TAG_SHIFT) | ref
            if top.compare_exchange(old, new):
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
            new = ((((old >> TAG_SHIFT) + 1) & 0xFFFF) << TAG_SHIFT) \
                | span.link
            if top.compare_exchange(old, new):
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
        self._scan_order = [stack for row in self.stacks for stack in row]
        # Exact pool-level counters; their difference is the depth hint
        # that get() reads before popping anything.
        self.puts = AtomicWord(0)
        self.gets_from_pool = AtomicWord(0)
        self.gets_from_arena = self.arena.cursor

    def put(self, span, thread_id):
        """Insert a span in state free; caller holds the only reference."""
        rs = span.real_span_size
        if self.decommit_enabled and rs > DECOMMIT_THRESHOLD:
            self.provider.decommit(span.base + PAGE_SIZE, rs - PAGE_SIZE)
        rs_idx = TABLE[span.size_class].real_span_index
        self.stacks[rs_idx][thread_id % self.width].push(span)
        self.puts.fetch_add(1)

    def get(self, class_id, thread_id):
        """A span for `class_id`, in state free and set up for the
        class: own stack, then every other stack, then the arena;
        straight to the arena when the pool is empty. A pool hit, of any
        real-span size, is re-classed by `init_for_class`; a fresh
        slot's header is built for the class.

        The depth `puts - gets_from_pool` is a hint, which makes those
        two counters load-bearing: put counts after its push and get
        after its pop. The get count is read first, so a put and get
        that both complete between the two loads cannot make the hint
        read low; it reads low only by puts still in flight.
        """
        popped = self.gets_from_pool.load()
        if self.puts.load() > popped:
            rs_idx = TABLE[class_id].real_span_index
            own = self.stacks[rs_idx][thread_id % self.width]
            span = own.pop(self.space)
            if span is None:
                for stack in self._scan_order:
                    if stack is not own:
                        span = stack.pop(self.space)
                        if span is not None:
                            break
            if span is not None:
                self.gets_from_pool.fetch_add(1)
                span.init_for_class(class_id)
                return span
        return self.space.header_for_base(
            self.arena.acquire_virtual_span(), class_id)

    def stack_counters(self):
        """Per-stack (rs_index, pool_index, retries) rows."""
        return [(i, j, stack.retries)
                for i, row in enumerate(self.stacks)
                for j, stack in enumerate(row)]
