"""Exception types shared across the allocator."""


class SpanAllocError(Exception):
    """Base class for allocator errors."""


class ReservationError(SpanAllocError):
    """Address-space reservation failed. Fatal at initialization."""


class OutOfMemory(SpanAllocError):
    """No arena slot / mapping available. The public facade maps this
    to the null sentinel."""


class ArenaExhausted(OutOfMemory):
    """The bump cursor ran past the end of the reserved arena."""


class WildFree(SpanAllocError):
    """free() was called on an address the allocator never produced."""


class DoubleFree(SpanAllocError):
    """free() was called on a block that is not handed out (checked on
    instrumented allocators only)."""
