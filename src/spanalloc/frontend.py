"""Local allocation buffers: hot spans, reusable sets, termination.

Each attached thread owns a LAB (TLAB mode, the default); in CLAB mode
threads with equal ids modulo the core count share one LAB and the
per-class fast path takes that LAB's class latch. A LAB lives once: the
attach of its first thread builds it, and the thread's id, which no
other thread ever has, is its owner; it is dropped when it terminates.
Per class a LAB holds the unique hot span serving allocations and a
FIFO set of reusable spans (spans whose free-block count crossed the
reusability threshold); one latch per LAB guards all of its sets. Each
set entry is stamped with the epoch word the span's reusable-marking
installed, and every hand-off out of a set (to hot, to free under lazy
reclamation or at termination, to floating at termination) is one
conditional replace from that stamp. A span that moved on since its
marking (emptied and pooled, or reused and marked again elsewhere)
leaves a stale entry behind, which nothing removes: the take that
reaches it fails its replace and skips it.

The fast paths run in the facade's own frames (`api.py`), and this
module keeps the slow paths. `Allocator.malloc` serves a block from the
hot span's local list or bump region, and calls `Frontend.allocate`
only when the hot span is missing or dry: that drains the remote list
if enough blocks accumulated, and otherwise floats the hot span and
fetches a replacement from the reusable set, the span pool, or the
arena.

`Allocator.free` first rejects, in O(1) and before any list push, an
address that is not a handed-out block of a live span (WildFree) and,
when instrumented, a block that is not live (DoubleFree). A TLAB free
into a span the caller owns pushes on the local list; every other free
(remote, CLAB, or into an orphan) is a push on the remote list. The
caller's owner comes from its attachment record, read once at attach.
The free calls `Frontend.deallocate` only when its one count calls for
a state change: a retirement to the pool, or a marking.

One rule settles a span's state. A remote or CLAB free decides from
the epoch word it reads after its push; an own TLAB free may keep the
word it read before, since only its own thread floats its hot span and
only a remote marking moves its floating word. A hot or free word has
no state work. Otherwise the free counts the span's free blocks once:
under eager reclamation the free that counts the span empty retires it
from its word and pools it in that same call (so a span that crosses
the reuse threshold and empties in one free never enters a set), and a
floating span above the threshold gets the floating -> reusable
marking, which makes its set entry in the same critical section of the
owner LAB's latch. Every thread that moves the word ends with one count
from the word it installed: the malloc that floats an exhausted hot
span settles it as a free would (a push since its drain test read the
hot word and did nothing), and the marking free and termination after
each float test for emptiness, `_retire_empty`. So between a last push
and a move of the word, one of the two threads sees both, and one
conditional replace picks one retirement; a loser never retries, but
for an own free, whose word may predate a remote marking: it loads the
word once more and retires the span from the marking's word. A
span changes owner only when it is taken hot from the pool and when
its owner terminated, so that the owner's LAB is closed and refuses a
marking, or is gone: then the marking itself, one floating -> reusable
replace into the caller's set, adopts the span.
"""

import itertools
import threading
import weakref
from collections import OrderedDict, defaultdict

from . import atomic
from .config import CPU_COUNT, TLAB
from .size_classes import NUM_CLASSES
from .span import (
    EPOCH_OWNER_FIELD, EPOCH_OWNER_SHIFT, EPOCH_STATE_SHIFT,
    REMOTE_COUNT_SHIFT, STATE_FLOATING, STATE_FREE, STATE_HOT,
    STATE_REUSABLE,
)


class LAB:
    """Per size class, the hot span and the reusable set: an OrderedDict
    span -> stamp in FIFO order (a plain dict would walk the deleted
    slots left at its front on every take), built at the class's first
    marking. `latch` guards all of the sets and `closed`, taken with
    `acquire()` and released in `finally` (cheaper than `with`, see
    `atomic.py`). An entry is made only by `mark`, whose floating ->
    reusable replace installs `owner`, the LAB's id, and the entry's
    stamp under the latch, and only while the LAB is open: termination's
    `close` sets `closed`, which refuses every marking from then on. An
    entry is live while its stamp equals its span's epoch; a stale one
    stays until taken and then fails the taker's conditional replace."""

    __slots__ = ("owner", "closed", "hot_spans", "reusable", "latch",
                 "class_latches", "attached")

    def __init__(self, owner, latched):
        self.owner = owner
        self.closed = False
        self.hot_spans = [None] * NUM_CLASSES
        self.reusable = defaultdict(OrderedDict)
        self.latch = atomic.Latch()
        # CLAB only. A plain lock: nothing re-enters malloc while it
        # holds a class latch (under it malloc reaches only the set,
        # the pool, the span and the ledger). The lock order is class
        # latch, then `latch`, never the reverse: termination and the
        # free path take no class latch.
        self.class_latches = \
            [atomic.Latch() for _ in range(NUM_CLASSES)] if latched else None
        self.attached = 0

    def mark(self, sc, span, word):
        """In one critical section: None, with nothing changed, when the
        LAB is closed; else the floating -> reusable replace of `span`
        from `word` that installs `owner`, and, when it wins, an entry
        in set `sc` stamped with the installed word, which is returned
        (False when the replace fails). An entry is made only by the
        replace that made its stamp, so it cannot overwrite a later
        marking's entry."""
        latch = self.latch
        latch.acquire()
        try:
            if self.closed:
                return None
            stamp = span.try_transition(word, STATE_REUSABLE, self.owner)
            if stamp:
                # A stale entry of the same span makes way for the new
                # one at the back: take order is marking order.
                stamps = self.reusable[sc]
                stamps[span] = stamp
                stamps.move_to_end(span)
            return stamp
        finally:
            latch.release()

    def take(self, sc):
        """Set `sc`'s oldest entry as (span, stamp); None when empty."""
        latch = self.latch
        latch.acquire()
        try:
            stamps = self.reusable.get(sc)
            return stamps.popitem(last=False) if stamps else None
        finally:
            latch.release()

    def close(self):
        """In one critical section: set `closed`, which refuses every
        later marking, and take every entry of every set, as (span,
        stamp)."""
        latch = self.latch
        latch.acquire()
        try:
            self.closed = True
            entries = []
            for stamps in self.reusable.values():
                entries += stamps.items()
            self.reusable.clear()
            return entries
        finally:
            latch.release()


# ThreadStats counters that add up across threads; the other one,
# max_fetches_per_alloc, takes the maximum. A span fetch from the pool
# or the arena is counted by the pool, not here.
_SUMMED_STATS = ("allocs", "frees_local", "frees_remote", "set_fetches",
                 "drains", "adopts")


class ThreadStats:
    __slots__ = _SUMMED_STATS + ("max_fetches_per_alloc",)

    def __init__(self):
        for key in self.__slots__:
            setattr(self, key, 0)

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
        self.tlab = config.lab_mode == TLAB
        self.eager_reclaim = config.eager_reclaim
        self.clab_width = CPU_COUNT
        self.labs = {}                      # owner -> LAB, live LABs only
        # CLAB only: per slot, the LAB its threads last shared.
        self._clab_slots = [None] * self.clab_width
        self._mgr_lock = atomic.Latch()
        # Per thread, one attribute: the (lab, tid, stats, mine, release)
        # record of its attachment, absent while detached; `mine` is the
        # LAB's owner (see attach), `release` its finalizer. Its one
        # user outside this module is `traces.replay`, which switches
        # records in and out to run many logical threads on one OS thread.
        self._tls = threading.local()
        self._tid_counter = itertools.count()
        self.thread_stats = {}              # attached threads only
        self.retired_stats = ThreadStats()

    # -- thread registration ----------------------------------------------

    def attach(self):
        """Register the calling thread; idempotent. A TLAB thread gets
        a fresh LAB; a CLAB thread shares its slot's LAB while a thread
        is attached to it, and otherwise gets a fresh one for the slot.
        A LAB's owner is fixed for its one life, which ends when its
        last attachment is released, so the record keeps the owner and
        the free and span-fetch paths never reload it."""
        tls = self._tls
        attached = getattr(tls, "attached", None)
        if attached is not None:
            return attached[0]
        with self._mgr_lock:
            tid = next(self._tid_counter)
            if self.tlab:
                lab = self._new_lab(tid)
            else:
                slot = tid % self.clab_width
                lab = self._clab_slots[slot]
                if lab is None or lab.attached == 0:
                    lab = self._clab_slots[slot] = self._new_lab(tid)
            lab.attached += 1
            stats = ThreadStats()
            self.thread_stats[tid] = stats
        # The release runs once: from detach, or, for a thread that never
        # detaches, when its Thread object is collected after exit. Once
        # run, the finalizer holds nothing, so a detached attachment
        # keeps no reference to this frontend.
        release = weakref.finalize(
            threading.current_thread(), self._release, lab, tid)
        tls.attached = (lab, tid, stats, lab.owner, release)
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
            self._terminate_lab(lab, tid)
            del self.labs[lab.owner]

    def _new_lab(self, tid):
        """A live LAB owned by `tid`, the attaching thread's id, which
        never recurs; under `_mgr_lock`."""
        lab = self.labs[tid] = LAB(tid, latched=not self.tlab)
        return lab

    def _current(self):
        """The caller's attachment record, after attaching the caller:
        the entry points' first-use path, taken when their thread-local
        read finds no record."""
        self.attach()
        return self._tls.attached

    # -- allocation ---------------------------------------------------------

    def allocate(self, lab, tid, stats, mine, sc):
        """The malloc slow path: one block of class `sc` for the caller,
        whose attachment record is (`lab`, `tid`, `stats`, `mine`), when
        `Allocator.malloc` finds `lab`'s hot span of the class missing or
        dry. The caller holds the class latch in CLAB mode. A dry hot
        span drains its remote list if enough blocks accumulated, and
        otherwise goes floating and `_get_span` fetches a replacement;
        `SpanHeader.alloc_block` serves the block.

        A remote push between the drain test and the float reads a hot
        word and leaves the span to its owner, so the float settles it
        as that free would have, from one count after the float: an
        empty span retires (under lazy reclamation too, as no slow path
        would find it), and one over the reuse threshold goes to the
        marking, `_settle`, into this LAB's set.
        """
        fetches = 0
        hot = lab.hot_spans[sc]
        while True:
            if hot is None:
                hot = lab.hot_spans[sc] = \
                    self._get_span(lab, tid, stats, mine, sc)
                fetches += 1
            elif hot.drain_remotes() > 0:
                stats.drains += 1
            else:
                # Exhausted and not worth draining: float it, settle it
                # from one count of its remote blocks (its only free
                # ones), as a free would, and refetch.
                took = hot.try_transition(hot.epoch.load(), STATE_FLOATING)
                assert took, "hot spans are only transitioned by their owner"
                lab.hot_spans[sc] = None
                free = hot.remote.load() >> REMOTE_COUNT_SHIFT
                if free == hot.blocks_per_span:
                    if hot.try_transition(took, STATE_FREE):
                        self.pool.put(hot, tid)
                elif free > hot.reuse_threshold_blocks:
                    self._settle(hot, took, lab, tid, stats)
                hot = None
                continue
            block = hot.alloc_block()
            if block:
                if fetches > stats.max_fetches_per_alloc:
                    stats.max_fetches_per_alloc = fetches
                return block

    def _get_span(self, lab, tid, stats, mine, sc):
        """Next hot span: the reusable set first, then pool or arena."""
        while (entry := lab.take(sc)) is not None:
            span, stamp = entry
            if not self.eager_reclaim and span.is_empty():
                # Deferred-reclamation ablation: empty spans ride back
                # to the backend from this slow path instead of from
                # the free that emptied them.
                if span.try_transition(stamp, STATE_FREE):
                    self.pool.put(span, tid)
            elif span.try_transition(stamp, STATE_HOT):
                stats.set_fetches += 1
                return span
        span = self.pool.get(sc, tid)
        span.init_for_class(sc)
        took = span.try_transition(span.epoch.load(), STATE_HOT, mine)
        assert took, "free -> hot does not compete with anyone"
        return span

    # -- deallocation ---------------------------------------------------------

    def deallocate(self, span, word, retire, own, lab, tid, stats):
        """The free slow path: the state change that `Allocator.free`'s
        one count of `span`'s free blocks called for, from `word`, the
        epoch word the free decided on, floating or reusable. The caller,
        whose attachment record is (`lab`, `tid`, `stats`), pushed on the
        local list when `own`, else on the remote list.

        With `retire` (eager reclamation, and the count found the span
        empty) the span goes from `word` to free and is pooled. A failed
        replace leaves the rest to the thread that moved the word, which
        tests the span for emptiness from the word it installed, but for
        an own free: it read its word before its push, so a remote
        marking may have moved the word and made that test before the
        push. It loads the word once more, and retires the span from a
        reusable one. One load is enough: the owner is this thread, so
        a reusable word next moves only by its own take or termination,
        or by a retirement. Without `retire` the word is floating and
        the count above the reuse threshold: the marking, `_settle`.
        """
        if not retire:
            self._settle(span, word, lab, tid, stats)
        elif span.try_transition(word, STATE_FREE):
            self.pool.put(span, tid)
        elif own:
            word = span.epoch.load()
            if word >> EPOCH_STATE_SHIFT == STATE_REUSABLE:
                self._retire_empty(span, word, tid)

    def _settle(self, span, old_epoch, lab, tid, stats):
        """The marking of a span whose floating epoch word the calling
        free read as `old_epoch` (or the calling float installed), and
        which a push took over the reuse threshold short of empty:
        `LAB.mark` in its owner's LAB, then,
        under eager reclamation, one emptiness test from the word the
        marking installed.

        The marking's word stamps the span's entry in the set that the
        marking's critical section entered it in. A free that pools a
        span leaves any entry of it there, stale: the owner's take fails
        its conditional replace from the stamp and skips it. When the
        owner terminated, its LAB is closed and refuses the marking with
        nothing changed, or is gone from `labs` already, and this free
        marks the span into the caller's set, `lab`, which installs the
        caller's owner: that one replace from the floating word adopts
        the span.

        The marking's replace fails when another free marked or retired
        the span first. A last push before the test is seen by it; a
        remote or CLAB last free after it reads the marking's word and
        retires the span itself, and an owner's own last free, whose
        retire from the floating word it read then fails, loads the
        marking's word and retires the span from it (`deallocate`)."""
        sc = span.size_class
        owner = (old_epoch & EPOCH_OWNER_FIELD) >> EPOCH_OWNER_SHIFT
        owner_lab = self.labs.get(owner)
        word = None if owner_lab is None \
            else owner_lab.mark(sc, span, old_epoch)
        if word is None:
            word = lab.mark(sc, span, old_epoch)
            if word:
                stats.adopts += 1
        if word and self.eager_reclaim:
            self._retire_empty(span, word, tid)

    # -- termination --------------------------------------------------------

    def _terminate_lab(self, lab, tid):
        """Close the LAB, which in one critical section of its latch
        refuses every later marking and takes every set entry; then
        float every hot span, then float each entry's span. Spans with
        live blocks become orphans, adopted by the free that next marks
        each reusable. A marking tests `closed`, replaces the epoch word
        and makes its entry under the same latch, so each marking's
        entry lands before the close takes the entries, or the marking
        is refused with the span left floating. Adoption is a marking,
        so no hot span changes owner meanwhile.

        An empty span goes to the pool instead, under lazy reclamation
        too, since no slow path of this LAB is left to reclaim it: an
        empty entry goes reusable -> free from its stamp, and a floated
        span that is empty goes floating -> free from the word its float
        installed. A last free that pushes after that test reads the new
        word after its push and retires the span itself."""
        entries = lab.close()
        for sc, hot in enumerate(lab.hot_spans):
            if hot is not None:
                floated = hot.try_transition(hot.epoch.load(), STATE_FLOATING)
                assert floated, "no one else transitions a hot span"
                lab.hot_spans[sc] = None
                self._retire_empty(hot, floated, tid)
        for span, word in entries:
            if not span.is_empty():
                # Fails only on a stale entry: the span moved on.
                word = span.try_transition(word, STATE_FLOATING)
            if word:
                self._retire_empty(span, word, tid)

    def _retire_empty(self, span, word, tid):
        """Pool `span` if it is empty and its epoch still reads `word`."""
        if span.is_empty() and span.try_transition(word, STATE_FREE):
            self.pool.put(span, tid)

    # -- reporting ----------------------------------------------------------

    def aggregate_stats(self):
        totals = ThreadStats()
        with self._mgr_lock:
            self.retired_stats.fold_into(totals)
            for s in self.thread_stats.values():
                s.fold_into(totals)
        out = totals.as_dict()
        frees = totals.frees_local + totals.frees_remote
        out["frees"] = frees
        out["remote_free_fraction"] = \
            totals.frees_remote / frees if frees else 0.0
        return out
