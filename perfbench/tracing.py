"""Per-layer tracing by wrapping each layer's public functions.

The wrappers are installed from here, for a traced run only, and
removed afterwards, so an untraced run measures the unmodified program.
A span is recorded for every call into a wrapped function made while an
`api` call is in progress: name, start, end, parent span and the id of
the `api` call it belongs to. Calls made outside an `api` call (the
harness's own checks) pass straight through. A layer's self time is its
spans' durations minus the time their child spans cover.

Spans are aggregated per name over all calls; the first SAMPLE_LIMIT
spans are also kept and can be written out as JSON lines. AtomicWord
read-modify-write calls are counted, not timed: a span per CAS would
cost more than the CAS itself, so their time stays with the caller.

`Arena.contains`, `slot_of` and `owning_span_base` are one-line
arithmetic and are not wrapped; their time stays with the caller.
"""

import itertools
import json
import threading
import time

from spanalloc import api, arena, atomic, frontend, span, span_pool, vmem
from spanalloc.size_classes import MAX_CLASS_BLOCK

_ns = time.perf_counter_ns
SAMPLE_LIMIT = 20_000

# (owner, attribute, layer). Roots are the api entry points;
# class_for_size is wrapped in the api module, where malloc looks it up.
ROOTS = [(api.Allocator, "malloc"), (api.Allocator, "free")]
TIMED = [
    (api, "class_for_size", "size_classes"),
    (frontend.Frontend, "allocate", "frontend"),
    (frontend.Frontend, "deallocate", "frontend"),
    (span.SpanHeader, "init_for_class", "span"),
    (span.SpanHeader, "alloc_block", "span"),
    (span.SpanHeader, "free_local", "span"),
    (span.SpanHeader, "free_remote", "span"),
    (span.SpanHeader, "drain_remotes", "span"),
    (span.SpanHeader, "free_block_count", "span"),
    (span.SpanHeader, "is_empty", "span"),
    (span.SpanHeader, "try_transition", "span"),
    (span.SpanHeader, "try_adopt", "span"),
    (span.SpanSpace, "span_of", "span"),
    (span.SpanSpace, "header_for_base", "span"),
    (span_pool.SpanPool, "get", "span_pool"),
    (span_pool.SpanPool, "put", "span_pool"),
    (span_pool.TaggedStack, "push", "span_pool"),
    (span_pool.TaggedStack, "pop", "span_pool"),
    (arena.Arena, "acquire_virtual_span", "arena"),
    (vmem.SimProvider, "read_word", "vmem"),
    (vmem.SimProvider, "write_word", "vmem"),
    (vmem.SimProvider, "read", "vmem"),
    (vmem.SimProvider, "write", "vmem"),
    (vmem.SimProvider, "touch", "vmem"),
    (vmem.SimProvider, "decommit", "vmem"),
    (vmem.SimProvider, "map_pages", "vmem"),
    (vmem.SimProvider, "unmap", "vmem"),
    (vmem.SimProvider, "mapping_length", "vmem"),
]
COUNTED = [
    (atomic.AtomicWord, "compare_exchange"),
    (atomic.AtomicWord, "exchange"),
    (atomic.AtomicWord, "fetch_add"),
]


class _Stat:
    __slots__ = ("calls", "busy_ns", "self_ns", "false", "total")

    def __init__(self):
        self.calls = 0
        self.busy_ns = 0
        self.self_ns = 0
        self.false = 0      # calls that returned False
        self.total = 0      # bytes decommitted / blocks drained


class Tracer:
    """Install with `with Tracer() as t:`; spans record while
    `t.recording` is true and an api call is in progress."""

    def __init__(self):
        self.recording = False
        self.samples = []   # (name, start_ns, end_ns, span id, parent id, call id)
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._per_thread = []
        self._saved = []

    # -- installation --------------------------------------------------

    def __enter__(self):
        for owner, attr in ROOTS:
            self._patch(owner, attr, self._root(f"api.{attr}",
                                                getattr(owner, attr)))
        for owner, attr, layer in TIMED:
            self._patch(owner, attr, self._timed(f"{layer}.{attr}",
                                                 getattr(owner, attr)))
        for owner, attr in COUNTED:
            self._patch(owner, attr, self._counted(f"atomic.{attr}",
                                                   getattr(owner, attr)))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- per-thread state ----------------------------------------------

    def _state(self):
        tls = self._tls
        try:
            return tls.stack, tls.stats
        except AttributeError:
            tls.stack = []      # open frames: [child_ns, span id, call id]
            tls.stats = {}
            with self._lock:
                self._per_thread.append(tls.stats)
            return tls.stack, tls.stats

    def _stat(self, stats, name):
        s = stats.get(name)
        if s is None:
            s = stats[name] = _Stat()
        return s

    def _close(self, name, stack, stats, frame, t0, t1, result, amount):
        dur = t1 - t0
        s = self._stat(stats, name)
        s.calls += 1
        s.busy_ns += dur
        s.self_ns += dur - frame[0]
        if result is False:
            s.false += 1
        s.total += amount
        parent = 0
        if stack:
            stack[-1][0] += dur
            parent = stack[-1][1]
        if len(self.samples) < SAMPLE_LIMIT:
            self.samples.append((name, t0, t1, frame[1], parent, frame[2]))

    # -- wrappers --------------------------------------------------------

    def _root(self, name, fn):
        tracer = self
        is_malloc = name == "api.malloc"

        def root(allocator, arg):
            if not tracer.recording:
                return fn(allocator, arg)
            stack, stats = tracer._state()
            if is_malloc:
                huge = arg > MAX_CLASS_BLOCK
            else:
                huge = not allocator.arena.contains(arg)
            span_id = next(tracer._ids)
            frame = [0, span_id, span_id]
            stack.append(frame)
            result = None
            t0 = _ns()
            try:
                result = fn(allocator, arg)
            finally:
                t1 = _ns()
                stack.pop()
                tracer._close(name, stack, stats, frame, t0, t1, result, 0)
                if huge:
                    s = tracer._stat(stats, "api.huge")
                    s.calls += 1
                    s.busy_ns += t1 - t0
            return result

        return root

    def _timed(self, name, fn):
        tracer = self
        # What a span adds to its name's running total: bytes for a
        # decommit, blocks moved for a drain.
        if name == "vmem.decommit":
            def amount(args, result):
                return args[2]
        elif name == "span.drain_remotes":
            def amount(args, result):
                return result or 0
        else:
            def amount(args, result):
                return 0

        def timed(*args, **kwargs):
            stack = getattr(tracer._tls, "stack", None)
            if not stack:
                return fn(*args, **kwargs)
            frame = [0, next(tracer._ids), stack[-1][2]]
            stack.append(frame)
            result = None
            t0 = _ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _ns()
                stack.pop()
                tracer._close(name, stack, tracer._tls.stats, frame, t0, t1,
                              result, amount(args, result))
            return result

        return timed

    def _counted(self, name, fn):
        tracer = self

        def counted(*args):
            result = fn(*args)
            if getattr(tracer._tls, "stack", None):
                s = tracer._stat(tracer._tls.stats, name)
                s.calls += 1
                if result is False:
                    s.false += 1
            return result

        return counted

    # -- results ---------------------------------------------------------

    def totals(self):
        """name -> _Stat summed over every thread that recorded."""
        out = {}
        with self._lock:
            tables = list(self._per_thread)
        for table in tables:
            for name, s in table.items():
                t = self._stat(out, name)
                t.calls += s.calls
                t.busy_ns += s.busy_ns
                t.self_ns += s.self_ns
                t.false += s.false
                t.total += s.total
        return out

    def write_samples(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, sid, parent, call in self.samples:
                fh.write(json.dumps({"name": name, "start_ns": t0,
                                     "end_ns": t1, "id": sid,
                                     "parent": parent, "call": call}) + "\n")
