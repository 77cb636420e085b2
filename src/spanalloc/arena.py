"""The arena: one reserved region handing out 2MB virtual spans.

Fresh spans come from an atomic bump cursor (fetch-increment, wait-free),
so a slot is handed out exactly once; recycling is entirely the span
pool's business, and the pool reads the cursor as its count of fresh
slots. The arena also answers the membership question that routes
frees: in-arena addresses belong to spans, everything else is a huge
object.
"""

from .atomic import AtomicWord
from .config import SPAN_SHIFT, VIRTUAL_SPAN_SIZE
from .errors import ArenaExhausted


class Arena:
    def __init__(self, region):
        self.base = region.base
        self.end = region.base + region.length
        self.capacity = region.length >> SPAN_SHIFT
        self.cursor = AtomicWord(0)

    def acquire_virtual_span(self):
        """Next untouched 2MB-aligned slot; raises ArenaExhausted at the
        end, and takes its bump back, so that the cursor counts the
        slots handed out."""
        i = self.cursor.fetch_add(1)
        if i >= self.capacity:
            self.cursor.fetch_add(-1)
            raise ArenaExhausted(
                f"arena exhausted after {self.capacity} virtual spans")
        return self.base + (i << SPAN_SHIFT)

    def spans_handed_out(self):
        return self.cursor.load()

    def contains(self, addr):
        return self.base <= addr < self.end

    def owning_span_base(self, addr):
        if not self.contains(addr):
            raise ValueError(f"address {addr:#x} outside the arena")
        return addr - ((addr - self.base) & (VIRTUAL_SPAN_SIZE - 1))

    def slot_of(self, span_base):
        return (span_base - self.base) >> SPAN_SHIFT

    def base_of_slot(self, slot):
        return self.base + (slot << SPAN_SHIFT)
