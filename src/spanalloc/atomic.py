"""Single-word atomics.

CPython threads interleave at bytecode granularity, so plain reads of an
attribute are atomic but read-modify-write sequences are not. AtomicWord
wraps one integer with the conditional-replace / exchange / fetch-add
primitives the allocator's lock-free protocols are written against. The
algorithms built on top follow the usual load / compute / conditional
replace discipline and retry on failure, exactly as they would against a
hardware CAS.

The read-modify-write methods take the word's lock with `acquire()` and
release it in `finally`, not with `with`: on CPython 3.11 an empty
`with lock:` block takes about 280 ns against about 100 ns for the
acquire/release pair (timeit, best of 5, 2-vCPU host), and every remote
free makes at least one compare-exchange. The two forms are equivalent:
the lock is released on every path. Each primitive stays a method so
that tracing and interleaving tools can wrap it.

Words may share one lock, passed to the constructor: a span header's
epoch and remote words do, so building a header makes one lock rather
than two (on hardware the two share a cache line anyway). Sharing is
sound because no method calls out or takes another lock while it holds
its own, so a shared lock cannot nest or deadlock, and under the GIL it
changes no interleaving: each primitive is still one critical section
over one word. A word made without `lock` gets its own.
"""

import threading

# The lock type of the latches held across an AtomicWord call: the
# LABs' set latches, the CLAB class latches and the frontend's
# manager lock. A schedule explorer swaps it for a latch whose acquire
# is a yield point; otherwise it is threading.Lock itself.
Latch = threading.Lock


class AtomicWord:
    __slots__ = ("_value", "_lock")

    def __init__(self, value=0, lock=None):
        self._value = value
        self._lock = threading.Lock() if lock is None else lock

    def load(self):
        # Reading one attribute is atomic under the GIL.
        return self._value

    def store(self, value):
        self._lock.acquire()
        try:
            self._value = value
        finally:
            self._lock.release()

    def compare_exchange(self, expected, new):
        """Replace the word with `new` iff it still equals `expected`."""
        self._lock.acquire()
        try:
            if self._value != expected:
                return False
            self._value = new
            return True
        finally:
            self._lock.release()

    def exchange(self, new):
        """Swap in `new` unconditionally, returning the previous word."""
        self._lock.acquire()
        try:
            old = self._value
            self._value = new
            return old
        finally:
            self._lock.release()

    def fetch_add(self, delta=1):
        """Add `delta`, returning the pre-increment value. Wait-free."""
        self._lock.acquire()
        try:
            old = self._value
            self._value = old + delta
            return old
        finally:
            self._lock.release()

    def __repr__(self):
        return f"AtomicWord({self._value:#x})"
