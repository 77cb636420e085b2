"""The one instrumentation object of an instrumented allocator.

A FragLedger exists only when `AllocatorConfig.instrument` is set. It
holds `f`, the span-internal fragmentation (bytes of in-use real spans
that are free but unavailable to other size classes or LABs); `live`,
the handed-out block addresses, so a repeated free raises DoubleFree
with one set lookup; and `trace`, one (slot, old epoch, new epoch) entry
per successful span transition.

Closed-form updates of f, each inside the malloc or free that caused
it: a span taken from the pool adds its payload u, a block handed out
subtracts its size, a freed block adds it back, a span put back in the
pool subtracts u. At quiescence f equals the brute-force sum of free
payload bytes over all spans in the frontend; single-threaded tests
assert exact equality after every operation.

`live` needs no lock (each add or remove is one call under the GIL);
a lock serializes the updates of f.
"""

import threading

from .errors import DoubleFree


class FragLedger:
    def __init__(self):
        self.f = 0
        self.live = set()
        self.trace = []
        self._lock = threading.Lock()

    def on_span_in(self, payload):
        with self._lock:
            self.f += payload

    def on_span_out(self, payload):
        with self._lock:
            self.f -= payload

    def on_alloc(self, addr, size):
        self.live.add(addr)
        with self._lock:
            self.f -= size

    def check_live(self, addr):
        """DoubleFree unless `addr` is a handed-out block."""
        if addr not in self.live:
            raise DoubleFree(f"block {addr:#x} is not handed out")

    def on_free(self, addr, size):
        self.check_live(addr)
        self.live.remove(addr)
        with self._lock:
            self.f += size
