"""spanalloc: a concurrent span-based allocator over reserved virtual
address space, with a simulated provider for exact memory accounting
and a benchmark harness.
"""

from .api import NULL, Allocator
from .config import (
    CLAB, DECOMMIT_THRESHOLD, PAGE_SIZE, TLAB, VIRTUAL_SPAN_SIZE,
    AllocatorConfig,
)
from .errors import (
    ArenaExhausted, DoubleFree, OutOfMemory,
    ReservationError, SpanAllocError, WildFree,
)
from .size_classes import HUGE, NUM_CLASSES, TABLE, class_for_size, geometry
from .vmem import OsProvider, SimProvider, VmRegion, VmStats

__version__ = "0.1.0"

__all__ = [
    "Allocator", "AllocatorConfig", "NULL",
    "TLAB", "CLAB", "PAGE_SIZE", "VIRTUAL_SPAN_SIZE", "DECOMMIT_THRESHOLD",
    "HUGE", "NUM_CLASSES", "TABLE", "class_for_size", "geometry",
    "SimProvider", "OsProvider", "VmRegion", "VmStats",
    "SpanAllocError", "OutOfMemory", "ArenaExhausted", "ReservationError",
    "WildFree", "DoubleFree",
    "__version__",
]
