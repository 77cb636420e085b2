"""The one instrumentation object of an instrumented allocator.

A FragLedger exists only when `AllocatorConfig.instrument` is set. It
holds `live`, the handed-out block addresses, so a repeated free raises
DoubleFree with one set operation, and `trace`, one (slot, old epoch,
new epoch) entry per successful span transition; each add or remove is
one call under the GIL, so neither needs a lock. The span-internal
fragmentation is not kept here: the span headers hold it, and
`Allocator.stats()` reads it off them as `frag_bytes`.
"""

from .errors import DoubleFree


class FragLedger:
    def __init__(self):
        self.live = set()
        self.trace = []

    def on_alloc(self, addr):
        self.live.add(addr)

    def check_live(self, addr):
        """DoubleFree unless `addr` is a handed-out block."""
        if addr not in self.live:
            raise DoubleFree(f"block {addr:#x} is not handed out")

    def on_free(self, addr):
        """Drop `addr` from the live blocks; DoubleFree unless it is one."""
        try:
            self.live.remove(addr)
        except KeyError:
            raise DoubleFree(f"block {addr:#x} is not handed out") from None
