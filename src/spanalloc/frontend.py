"""Local allocation buffers: hot spans, reusable sets, termination.

Each attached thread owns a LAB (TLAB mode, the default); in CLAB mode
threads with equal ids modulo the core count share one LAB and the
per-class fast path takes that LAB's class latch. Per class a LAB holds
the unique hot span serving allocations and a latched FIFO set of
reusable spans (spans whose free-block count crossed the reusability
threshold). Each set entry is stamped with the epoch word the span's
reusable-marking installed, and every hand-off out of a set (to hot, to
free under lazy reclamation, to floating at termination) is one
conditional replace from that stamp. A span that moved on since its
marking (emptied and pooled, or reused and marked again elsewhere)
leaves a stale entry behind, which nothing removes: the take that
reaches it fails its replace and skips it.

Allocation serves from the hot span's local list or bump region. When
that runs dry it drains the remote list if enough blocks accumulated,
otherwise the hot span goes floating and a replacement comes from the
reusable set, the span pool, or the arena.

Deallocation first rejects, in O(1) and before any list push, an
address that is not a handed-out block of a live span (WildFree) and,
when instrumented, a block that is not live (DoubleFree). A TLAB free
into a span the caller owns pushes on the local list; every other free
(remote, CLAB, or into an orphan) is a push on the remote list. The
caller's owner word comes from its attachment record, read once at
attach: it cannot change while any thread is attached to the LAB.
After either push one check of the span's snapshotted state decides
whether the free has state work: none when hot or when floating at or
below the reusability threshold, the floating -> reusable marking when
floating above it, the emptiness test when reusable. A span changes
owner in one place only: a marking free whose put the owner's set
refuses, because the owner terminated, adopts the span into the
caller's set. A span whose last block is freed goes back to the span
pool inside that same call unless lazy reclamation is on. When the free
that marks a span reusable also empties it (always so for single-block
spans), that one call retires it to the pool without entering the
owner's reusable set at all.

All cross-thread handoffs ride on the epoch word: a stale snapshot
fails its conditional replace and the loser simply moves on. No
hand-off re-reads the epoch after losing track of the span, since a
span that went round its life cycle in between would read as the same
state again.
"""

import itertools
import os
import threading
import weakref
from collections import OrderedDict

from .atomic import AtomicWord
from .config import CLAB, TLAB
from .size_classes import NUM_CLASSES
from .span import (
    EPOCH_COUNTER_MASK, EPOCH_STATE_SHIFT, STATE_FLOATING, STATE_FREE,
    STATE_HOT, STATE_REUSABLE, TERMINATED, owner_lab_ref, pack_owner,
)


class ReusableSet:
    """Latched FIFO of one LAB's reusable spans, each entry stamped
    with the epoch word of the marking that made it reusable.

    put is refused unless the caller's expected owner equals the LAB's
    owner word, the only record of whether its sets accept puts (a
    stale generation or TERMINATED is refused), or when the span's
    epoch has moved past the stamp. take pops the oldest entry as
    (span, stamp). An entry is live while its stamp equals the span's
    epoch; a span that moves on leaves a stale entry behind, which
    stays until taken and then fails the taker's conditional replace.
    `in` sees live entries only; len() counts stale ones too. The
    entries live in one OrderedDict, span -> stamp (not a plain dict:
    taking its first key over and over walks the deleted slots left at
    its front).
    """

    __slots__ = ("_latch", "owner", "stamps")

    def __init__(self, owner):
        self._latch = threading.Lock()
        self.owner = owner            # the LAB's owner word
        self.stamps = OrderedDict()

    def __len__(self):
        return len(self.stamps)

    def __contains__(self, span):
        return self.stamps.get(span) == span.epoch.load()

    def put(self, expected_owner, span, stamp):
        with self._latch:
            if self.owner.load() != expected_owner \
                    or expected_owner == TERMINATED:
                return False
            if span.epoch.load() != stamp:
                # The span moved on between its marking and this put
                # (emptied and pooled, or reused and marked again). An
                # entry that goes stale after this check is harmless;
                # this one is refused so that it cannot overwrite a
                # live entry of a later marking.
                return False
            # A stale entry of the same span makes way for the new one
            # at the back: take order is marking order.
            self.stamps[span] = stamp
            self.stamps.move_to_end(span)
            return True

    def take(self):
        with self._latch:
            if not self.stamps:
                return None
            return self.stamps.popitem(last=False)


class LAB:
    __slots__ = ("index", "generation", "owner_word", "hot_spans",
                 "reusable", "class_latches", "attached")

    def __init__(self, index, latched):
        self.index = index
        self.generation = 0
        self.owner_word = AtomicWord(TERMINATED)
        self.hot_spans = [None] * NUM_CLASSES
        self.reusable = [ReusableSet(self.owner_word)
                         for _ in range(NUM_CLASSES)]
        self.class_latches = \
            [threading.RLock() for _ in range(NUM_CLASSES)] if latched else None
        self.attached = 0

    def activate(self):
        """Install a fresh generation; the sets accept puts for it."""
        self.generation = (self.generation + 1) & 0xFFFF
        self.owner_word.store(pack_owner(self.generation, self.index))


# ThreadStats counters that add up across threads; the other one,
# max_fetches_per_alloc, takes the maximum.
_SUMMED_STATS = ("allocs", "frees_local", "frees_remote", "pool_fetches",
                 "set_fetches", "drains", "adopts")


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

    def fold_into(self, totals):
        """Add these counters to `totals`, a ThreadStats of sums."""
        for key in _SUMMED_STATS:
            setattr(totals, key, getattr(totals, key) + getattr(self, key))
        if self.max_fetches_per_alloc > totals.max_fetches_per_alloc:
            totals.max_fetches_per_alloc = self.max_fetches_per_alloc


class Frontend:
    def __init__(self, space, pool, config):
        self.space = space
        self.pool = pool
        self.ledger = space.ledger
        self.tlab = config.lab_mode == TLAB
        self.eager_reclaim = config.eager_reclaim
        self.clab_width = os.cpu_count() or 1
        self.labs = []
        self._free_labs = []
        self._mgr_lock = threading.Lock()
        # Per thread, one attribute: the (lab, tid, stats, mine, release)
        # record of its attachment, absent while detached; `mine` is the
        # LAB's owner word (see attach), `release` its finalizer.
        self._tls = threading.local()
        self._tid_counter = itertools.count()
        self.thread_stats = {}              # attached threads only
        self.retired_stats = ThreadStats(None)

    # -- thread registration ----------------------------------------------

    def attach(self):
        """Register the calling thread; idempotent."""
        tls = self._tls
        attached = getattr(tls, "attached", None)
        if attached is not None:
            return attached[0]
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
            # The owner word changes only in activate (no thread
            # attached) and in _terminate_lab (the last one released),
            # both under this lock, so it stays fixed for as long as
            # this attachment lasts, in CLAB mode too: the record keeps
            # it and the free and span-fetch paths never reload it.
            mine = lab.owner_word.load()
        # The release runs once: from detach, or, for a thread that never
        # detaches, when its Thread object is collected after exit. Once
        # run, the finalizer holds nothing, so a detached attachment
        # keeps no reference to this frontend.
        release = weakref.finalize(
            threading.current_thread(), self._release, lab, tid)
        tls.attached = (lab, tid, stats, mine, release)
        return lab

    def detach(self):
        """Unregister the calling thread, terminating its LAB when it
        was the last user."""
        tls = self._tls
        attached = getattr(tls, "attached", None)
        if attached is None:
            return
        del tls.attached
        attached[4]()

    def _release(self, lab, tid):
        """End attachment `tid` of `lab`; called by its finalizer, which
        runs at most once. Its counters fold into the retired total, so
        `thread_stats` lists attached threads only."""
        with self._mgr_lock:
            stats = self.thread_stats.pop(tid)
            stats.fold_into(self.retired_stats)
            lab.attached -= 1
            if lab.attached > 0:
                return
            self._terminate_lab(lab)
            if self.tlab:
                self._free_labs.append(lab.index)

    def _new_lab(self):
        lab = LAB(len(self.labs), latched=not self.tlab)
        self.labs.append(lab)
        return lab

    def _current(self):
        """The caller's attachment record, attaching on first use; one
        thread-local read when attached."""
        try:
            return self._tls.attached
        except AttributeError:
            self.attach()
            return self._tls.attached

    # -- allocation ---------------------------------------------------------

    def allocate(self, class_id):
        lab, tid, stats, mine, _ = self._current()
        if lab.class_latches is None:
            return self._allocate(lab, tid, stats, mine, class_id)
        with lab.class_latches[class_id]:
            return self._allocate(lab, tid, stats, mine, class_id)

    def _allocate(self, lab, tid, stats, mine, sc):
        stats.allocs += 1
        fetches = 0
        hot = lab.hot_spans[sc]
        while True:
            if hot is None:
                hot = self._get_span(lab, tid, stats, mine, sc)
                lab.hot_spans[sc] = hot
                fetches += 1
            block = hot.alloc_block()
            if block:
                if fetches > stats.max_fetches_per_alloc:
                    stats.max_fetches_per_alloc = fetches
                if self.ledger is not None:
                    self.ledger.on_alloc(block, hot.block_size)
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

    def _get_span(self, lab, tid, stats, mine, sc):
        """Next hot span: the reusable set first, then pool or arena."""
        for span, stamp in iter(lab.reusable[sc].take, None):
            if not self.eager_reclaim and span.is_empty():
                # Deferred-reclamation ablation: empty spans ride back
                # to the backend from this slow path instead of from
                # the free that emptied them.
                if span.try_transition(stamp, STATE_FREE):
                    self._pool_put(span, tid)
            elif span.try_transition(stamp, STATE_HOT):
                stats.set_fetches += 1
                return span
        span = self.pool.get(sc, tid)
        span.init_for_class(sc, mine)
        observed = span.epoch.load()
        took = span.try_transition(observed, STATE_HOT)
        assert took, "free -> hot does not compete with anyone"
        stats.pool_fetches += 1
        if self.ledger is not None:
            self.ledger.on_span_in(span.block_size * span.blocks_per_span)
        return span

    def _pool_put(self, span, tid):
        """Hand a span this call moved to free back to the span pool."""
        if self.ledger is not None:
            # Before the put: once pooled, another thread may re-class it.
            self.ledger.on_span_out(span.block_size * span.blocks_per_span)
        self.pool.put(span, tid)

    # -- deallocation ---------------------------------------------------------

    def deallocate(self, addr):
        # The owner and epoch snapshots come from before the free: the
        # state transitions below must fail if anything moved in between.
        span, old_owner, old_epoch = self.space.block_span(addr)
        if self.ledger is not None:
            self.ledger.on_free(addr, span.block_size)
        lab, tid, stats, mine, _ = self._current()
        if old_owner == mine and self.tlab:
            span.free_local(addr)
            stats.frees_local += 1
        else:
            span.free_remote(addr)
            stats.frees_remote += 1
        # One check of the snapshot: a hot span, or a floating one still
        # at or below the threshold, has no state to change.
        old_state = old_epoch >> EPOCH_STATE_SHIFT
        if old_state == STATE_REUSABLE or (
                old_state == STATE_FLOATING
                and span.free_block_count() > span.reuse_threshold_blocks):
            self._settle(span, old_owner, old_epoch, lab, tid, stats, mine)

    def _settle(self, span, old_owner, old_epoch, lab, tid, stats, mine):
        """The state work after a free into a span whose epoch read
        `old_epoch` before it, called only when there is some: a
        floating span (which crossed the threshold) goes reusable, a
        reusable span that emptied goes free and back to the pool.

        The marking's own epoch word stamps the span's entry in its
        owner's set. A free that pools a span leaves any entry of it
        there, stale: the owner's take fails its conditional replace
        from the stamp and skips it. A free that marks the span reusable
        and finds it empty retires it in one call: floating -> reusable
        -> free and a pool put, with no set entry at all. When the
        owner terminated (before the marking or between it and the
        put), its set refuses the entry, and this free adopts the span
        into the caller's set, `lab`, with the same stamp. An adoption
        needs the span's epoch to still equal its stamp (owner words
        recur across a span's lives), so only the free that won this
        marking can adopt from it, and one step is enough: the adoption
        and the caller's put fail only when the span has moved on."""
        if old_epoch >> EPOCH_STATE_SHIFT == STATE_FLOATING:
            if not span.try_transition(old_epoch, STATE_REUSABLE):
                return
            # This call's own marking refreshes the snapshot, so a free
            # that both crossed the threshold and emptied the span can
            # still pool it on this call. The word is the one the
            # marking installed: next_epoch_word(old_epoch, reusable).
            old_epoch = (STATE_REUSABLE << EPOCH_STATE_SHIFT) \
                | ((old_epoch + 1) & EPOCH_COUNTER_MASK)
            if self.eager_reclaim and span.is_empty():
                # No set holds a live entry of it, and no live block is
                # left for another free. Only a concurrent last free
                # that snapshotted this marking can race for reusable
                # -> free; the epoch CAS picks one.
                if span.try_transition(old_epoch, STATE_FREE):
                    self._pool_put(span, tid)
                return
            sc = span.size_class
            if not self.labs[owner_lab_ref(old_owner)].reusable[sc].put(
                    old_owner, span, old_epoch) \
                    and span.try_adopt(old_owner, mine, old_epoch):
                stats.adopts += 1
                lab.reusable[sc].put(mine, span, old_epoch)
        if self.eager_reclaim and span.is_empty():
            if span.try_transition(old_epoch, STATE_FREE):
                self._pool_put(span, tid)

    # -- termination --------------------------------------------------------

    def _terminate_lab(self, lab):
        """Mark the LAB terminated, which closes its sets, then float
        every hot and reusable span; spans with live blocks become
        orphans, adopted by the free that next marks each reusable. A
        put reads the owner word and inserts under the set latch, and
        the drain takes under it after the store, so each put lands
        before the drain or is refused. Adoption follows a marking, so
        no hot span changes owner meanwhile."""
        lab.owner_word.store(TERMINATED)
        for sc in range(NUM_CLASSES):
            hot = lab.hot_spans[sc]
            if hot is not None:
                observed = hot.epoch.load()
                took = hot.try_transition(observed, STATE_FLOATING)
                assert took, "no one else transitions a hot span"
                lab.hot_spans[sc] = None
            for span, stamp in iter(lab.reusable[sc].take, None):
                # Fails only on a stale entry: the span moved on.
                span.try_transition(stamp, STATE_FLOATING)

    # -- reporting ----------------------------------------------------------

    def aggregate_stats(self):
        totals = ThreadStats(None)
        with self._mgr_lock:
            self.retired_stats.fold_into(totals)
            for s in self.thread_stats.values():
                s.fold_into(totals)
        out = totals.as_dict()
        del out["thread_id"]
        frees = totals.frees_local + totals.frees_remote
        out["frees"] = frees
        out["remote_free_fraction"] = \
            totals.frees_remote / frees if frees else 0.0
        return out
