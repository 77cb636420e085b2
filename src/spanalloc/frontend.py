"""Local allocation buffers: hot spans, reusable sets, termination.

Each attached thread owns a LAB (TLAB mode, the default); in CLAB mode
threads with equal ids modulo the core count share one LAB and the
per-class fast path takes that LAB's class latch. Per class a LAB holds
the unique hot span serving allocations and a latched deque of reusable
spans (spans whose free-block count crossed the reusability threshold).

Allocation serves from the hot span's local list or bump region. When
that runs dry it drains the remote list if enough blocks accumulated,
otherwise the hot span goes floating and a replacement comes from the
reusable set, the span pool, or the arena. Deallocation pushes the
block on the local list (own span, TLAB) or the remote list, adopts
orphaned spans, and drives the floating -> reusable -> free transitions;
a span whose last block is freed goes back to the span pool inside that
same call unless the deferred-reclamation ablation is on.

All cross-thread handoffs ride on the epoch word: a stale snapshot
fails its conditional replace and the loser simply moves on.
"""

import itertools
import os
import threading
import weakref

from .atomic import AtomicWord
from .config import CLAB, TLAB
from .size_classes import NUM_CLASSES
from .span import (
    LINK_NEXT_MASK, LINK_PREV_SHIFT, STATE_FLOATING, STATE_FREE, STATE_HOT,
    STATE_REUSABLE, TERMINATED, epoch_state, next_epoch_word, owner_lab_ref,
    pack_owner,
)


def _link_next(link):
    return link & LINK_NEXT_MASK


def _link_prev(link):
    return (link >> LINK_PREV_SHIFT) & LINK_NEXT_MASK


def _pack_link(prev_ref, next_ref):
    return (prev_ref << LINK_PREV_SHIFT) | next_ref


class ReusableSet:
    """Latched intrusive deque of reusable spans, gated by owner.

    put and remove are refused when the caller's expected owner does
    not match the gate (stale generation or closed set); take pops
    whatever is at the front. Every operation is a constant number of
    steps under the latch.
    """

    __slots__ = ("_latch", "gate", "space", "_head", "_tail", "size")

    def __init__(self, space):
        self._latch = threading.Lock()
        self.gate = TERMINATED
        self.space = space
        self._head = 0          # slot+1 refs through header link words
        self._tail = 0
        self.size = 0

    def open(self, owner_word):
        with self._latch:
            self.gate = owner_word

    def close(self):
        with self._latch:
            self.gate = TERMINATED

    def put(self, expected_owner, span):
        with self._latch:
            if self.gate != expected_owner or expected_owner == TERMINATED:
                return False
            if epoch_state(span.epoch.load()) != STATE_REUSABLE:
                # The span raced away between its reusable-marking and
                # this insert (a last free emptied and pooled it, or it
                # is already hot again). Linking it here would let the
                # set and the pool fight over the link word; membership
                # is only legal while reusable. The remove that fronts
                # every pool insertion serializes with this latch, so
                # the check cannot be stale in the dangerous direction.
                return False
            ref = span.slot + 1
            span.link = _pack_link(self._tail, 0)
            span.set_token = self
            if self._tail:
                tail = self.space.headers[self._tail - 1]
                tail.link = _pack_link(_link_prev(tail.link), ref)
            else:
                self._head = ref
            self._tail = ref
            self.size += 1
            return True

    def take(self):
        with self._latch:
            ref = self._head
            if not ref:
                return None
            span = self.space.headers[ref - 1]
            self._unlink(span)
            return span

    def remove(self, expected_owner, span):
        with self._latch:
            if self.gate != expected_owner or expected_owner == TERMINATED:
                return False
            if span.set_token is not self:
                return False
            self._unlink(span)
            return True

    def _unlink(self, span):
        prev, nxt = _link_prev(span.link), _link_next(span.link)
        headers = self.space.headers
        if prev:
            p = headers[prev - 1]
            p.link = _pack_link(_link_prev(p.link), nxt)
        else:
            self._head = nxt
        if nxt:
            n = headers[nxt - 1]
            n.link = _pack_link(prev, _link_next(n.link))
        else:
            self._tail = prev
        span.set_token = None
        self.size -= 1


class LAB:
    __slots__ = ("index", "generation", "owner_word", "hot_spans",
                 "reusable", "class_latches", "attached")

    def __init__(self, index, space, latched):
        self.index = index
        self.generation = 0
        self.owner_word = AtomicWord(TERMINATED)
        self.hot_spans = [None] * NUM_CLASSES
        self.reusable = [ReusableSet(space) for _ in range(NUM_CLASSES)]
        self.class_latches = \
            [threading.RLock() for _ in range(NUM_CLASSES)] if latched else None
        self.attached = 0

    def activate(self):
        """Install a fresh generation and open all sets."""
        self.generation = (self.generation + 1) & 0xFFFF
        word = pack_owner(self.generation, self.index)
        self.owner_word.store(word)
        for s in self.reusable:
            s.open(word)
        return word


class ThreadStats:
    __slots__ = ("thread_id", "allocs", "frees_local", "frees_remote",
                 "pool_fetches", "set_fetches", "drains", "adopts",
                 "max_fetches_per_alloc")

    def __init__(self, thread_id):
        self.thread_id = thread_id
        self.allocs = 0
        self.frees_local = 0
        self.frees_remote = 0
        self.pool_fetches = 0
        self.set_fetches = 0
        self.drains = 0
        self.adopts = 0
        self.max_fetches_per_alloc = 0

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Frontend:
    def __init__(self, space, pool, config, ledger=None):
        self.space = space
        self.pool = pool
        self.ledger = ledger
        self.tlab = config.lab_mode == TLAB
        self.eager_reclaim = config.eager_reclaim
        self.clab_width = os.cpu_count() or 1
        self.labs = []
        self._free_labs = []
        self._mgr_lock = threading.Lock()
        self._tls = threading.local()
        self._tid_counter = itertools.count()
        self.thread_stats = {}

    # -- thread registration ----------------------------------------------

    def attach(self):
        """Register the calling thread; idempotent."""
        tls = self._tls
        if getattr(tls, "lab", None) is not None:
            return tls.lab
        with self._mgr_lock:
            tid = next(self._tid_counter)
            if self.tlab:
                if self._free_labs:
                    lab = self.labs[self._free_labs.pop()]
                else:
                    lab = self._new_lab()
                lab.activate()
            else:
                idx = tid % self.clab_width
                while len(self.labs) <= idx:
                    self._new_lab()
                lab = self.labs[idx]
                if lab.attached == 0:
                    lab.activate()
            lab.attached += 1
            stats = ThreadStats(tid)
            self.thread_stats[tid] = stats
        tls.lab = lab
        tls.tid = tid
        tls.stats = stats
        tls.generation = lab.generation
        # Safety net for threads that never detach explicitly: terminate
        # the LAB when the Thread object is collected after exit.
        weakref.finalize(threading.current_thread(), self._finalize,
                         lab.index, lab.generation)
        return lab

    def detach(self):
        """Unregister the calling thread, terminating its LAB when it
        was the last user."""
        tls = self._tls
        lab = getattr(tls, "lab", None)
        if lab is None:
            return
        tid, generation = tls.tid, tls.generation
        tls.lab = None
        tls.tid = None
        tls.stats = None
        tls.generation = None
        self._release(lab, generation, tid)

    def _finalize(self, lab_index, generation):
        lab = self.labs[lab_index]
        self._release(lab, generation, None)

    def _release(self, lab, generation, tid):
        with self._mgr_lock:
            if lab.generation != generation or lab.attached == 0:
                return  # already detached and possibly reused
            lab.attached -= 1
            if lab.attached > 0:
                return
            self._terminate_lab(lab, tid)
            if self.tlab:
                self._free_labs.append(lab.index)

    def _new_lab(self):
        lab = LAB(len(self.labs), self.space, latched=not self.tlab)
        self.labs.append(lab)
        return lab

    def _current(self):
        tls = self._tls
        lab = getattr(tls, "lab", None)
        if lab is None:
            lab = self.attach()
        return lab, self._tls.tid, self._tls.stats

    # -- allocation ---------------------------------------------------------

    def allocate(self, class_id):
        lab, tid, stats = self._current()
        if lab.class_latches is None:
            return self._allocate(lab, tid, stats, class_id)
        with lab.class_latches[class_id]:
            return self._allocate(lab, tid, stats, class_id)

    def _allocate(self, lab, tid, stats, sc):
        stats.allocs += 1
        fetches = 0
        fetched_new = False
        hot = lab.hot_spans[sc]
        while True:
            if hot is None:
                hot, from_pool = self._get_span(lab, tid, stats, sc)
                lab.hot_spans[sc] = hot
                fetches += 1
                fetched_new = fetched_new or from_pool
            block = hot.alloc_block()
            if block:
                if fetches > stats.max_fetches_per_alloc:
                    stats.max_fetches_per_alloc = fetches
                if self.ledger is not None:
                    self.ledger.on_alloc(
                        fetched_new, hot.block_size,
                        hot.block_size * hot.blocks_per_span)
                return block
            if hot.drain_remotes() > 0:
                stats.drains += 1
                continue
            # Exhausted and not worth draining: retire it and refetch.
            observed = hot.epoch.load()
            took = hot.try_transition(observed, STATE_FLOATING)
            assert took, "hot spans are only transitioned by their owner"
            lab.hot_spans[sc] = None
            hot = None

    def _get_span(self, lab, tid, stats, sc):
        """Next hot span: the reusable set first, then pool or arena."""
        reusable = lab.reusable[sc]
        while True:
            span = reusable.take()
            if span is None:
                break
            if not self.eager_reclaim and span.is_empty():
                # Deferred-reclamation ablation: empty spans ride back
                # to the backend from this slow path instead of from
                # the free that emptied them.
                self._reclaim(span, tid)
                continue
            while True:
                observed = span.epoch.load()
                if epoch_state(observed) != STATE_REUSABLE:
                    break  # raced to free; it lives in the pool now
                if span.try_transition(observed, STATE_HOT):
                    stats.set_fetches += 1
                    return span, False
        span = self.pool.get(sc, tid)
        span.init_for_class(sc, lab.owner_word.load())
        observed = span.epoch.load()
        took = span.try_transition(observed, STATE_HOT)
        assert took, "free -> hot does not compete with anyone"
        stats.pool_fetches += 1
        return span, True

    def _reclaim(self, span, tid):
        while True:
            observed = span.epoch.load()
            if epoch_state(observed) != STATE_REUSABLE:
                return  # someone else already freed it
            if span.try_transition(observed, STATE_FREE):
                self.pool.put(span, tid)
                if self.ledger is not None:
                    self.ledger.on_lazy_reclaim(
                        span.block_size * span.blocks_per_span)
                return

    # -- deallocation ---------------------------------------------------------

    def deallocate(self, addr):
        span = self.space.span_of(addr)
        sc = span.size_class
        # Snapshot before the free: the state transitions below must
        # fail if anything moved in between.
        old_owner = span.owner.load()
        old_epoch = span.epoch.load()
        lab, tid, stats = self._current()
        mine = lab.owner_word.load()
        if old_owner == mine and self.tlab:
            span.free_local(addr)
            stats.frees_local += 1
        else:
            span.free_remote(addr)
            stats.frees_remote += 1
        if self._is_orphan(old_owner):
            if span.try_adopt(old_owner, mine):
                stats.adopts += 1
        pooled = False
        old_state = epoch_state(old_epoch)
        if span.free_block_count() > span.reuse_threshold_blocks:
            if old_state == STATE_FLOATING:
                if span.try_transition(old_epoch, STATE_REUSABLE):
                    owner_lab = self.labs[owner_lab_ref(old_owner)]
                    owner_lab.reusable[sc].put(old_owner, span)
                    # This call's own marking refreshes the snapshot, so
                    # a free that both crossed the threshold and emptied
                    # the span can still pool it below, on this call.
                    old_epoch = next_epoch_word(old_epoch, STATE_REUSABLE)
                    old_state = STATE_REUSABLE
        if self.eager_reclaim and old_state == STATE_REUSABLE \
                and span.is_empty():
            if span.try_transition(old_epoch, STATE_FREE):
                owner_lab = self.labs[owner_lab_ref(old_owner)]
                owner_lab.reusable[sc].remove(old_owner, span)
                self.pool.put(span, tid)
                pooled = True
        if self.ledger is not None:
            self.ledger.on_free(pooled, span.block_size,
                                span.block_size * span.blocks_per_span)

    def _is_orphan(self, span_owner_word):
        lab = self.labs[owner_lab_ref(span_owner_word)]
        return lab.owner_word.load() != span_owner_word

    # -- termination --------------------------------------------------------

    def _terminate_lab(self, lab, tid):
        """Close the sets, float every hot and reusable span, mark the
        LAB terminated. Spans with live blocks become orphans that
        later frees adopt."""
        for sc in range(NUM_CLASSES):
            lab.reusable[sc].close()
            hot = lab.hot_spans[sc]
            if hot is not None:
                observed = hot.epoch.load()
                took = hot.try_transition(observed, STATE_FLOATING)
                assert took, "no one else transitions a hot span"
                lab.hot_spans[sc] = None
            while True:
                span = lab.reusable[sc].take()
                if span is None:
                    break
                while True:
                    observed = span.epoch.load()
                    if epoch_state(observed) != STATE_REUSABLE:
                        break  # lost to a reusable -> free last free
                    if span.try_transition(observed, STATE_FLOATING):
                        break
        lab.owner_word.store(TERMINATED)

    # -- reporting ----------------------------------------------------------

    def aggregate_stats(self):
        totals = {
            "allocs": 0, "frees_local": 0, "frees_remote": 0,
            "pool_fetches": 0, "set_fetches": 0, "drains": 0, "adopts": 0,
            "max_fetches_per_alloc": 0,
        }
        with self._mgr_lock:
            stats = list(self.thread_stats.values())
        for s in stats:
            for key in totals:
                if key == "max_fetches_per_alloc":
                    totals[key] = max(totals[key], s.max_fetches_per_alloc)
                else:
                    totals[key] += getattr(s, key)
        frees = totals["frees_local"] + totals["frees_remote"]
        totals["frees"] = frees
        totals["remote_free_fraction"] = \
            totals["frees_remote"] / frees if frees else 0.0
        return totals
