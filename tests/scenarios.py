"""Race scenarios for the schedule explorer (`explore.py`), and the end
checks of their replays in test_frontend.py.

Each scenario's oracle is `check_heap` on an instrumented allocator,
but for the two that race a bare span (`push_vs_drain`) or stack
(`aba`). In `floated`'s steps thread i attaches LAB i, whose owner is
i (the id of the thread whose attach built it); LAB `owner` fills a
span and floats it with one more malloc (`blocks`, `extra`), and
thread 0 frees its first blocks down to the reuse threshold (6 of
8 at 128K, 12 of 16 at 32K). A scenario's `bound` is 2 unless it says
why it is 1: a schedule takes 1-3 ms on the 2-vCPU host, and a third
racing thread with tens of yield points makes thousands of schedules
at bound 2.
"""

import random

from explore import Scenario
from helpers import check_heap, floated_span, make_allocator, pooled_slots
from spanalloc.size_classes import class_for_size
from spanalloc.span import (
    STATE_FREE, STATE_REUSABLE, epoch_owner, epoch_state,
)
from spanalloc.span_pool import TaggedStack

K128, K32 = 1 << 17, 1 << 15
# `inbox_churn`'s size mixes: classes of many blocks per span, and
# spans of 1 to 16 blocks, where a marking free and a last free meet.
SMALL_SIZES = (16, 64, 256, 512)
LARGE_SIZES = (1 << 14, K128, 1 << 18, 1 << 19, 1 << 20)


def floated(size=K128, owner=0, labs=2, freed=None, orphan=False,
            **config):
    """The common start, on an allocator with `config`'s fields; with
    `orphan` LAB `owner` terminates before the race. An `after` step
    `malloc_again(n)` keeps the census (`heap`), the span's epoch
    (`epoch`) and emptiness (`empty`), then mallocs n blocks (`again`)
    and counts the arena spans they took (`grew`)."""
    alloc = make_allocator(instrument=True, **config)
    w = Scenario(alloc=alloc, check=lambda w: check_heap(alloc))
    free, malloc = alloc.free, alloc.malloc

    def fill():
        w.span, w.blocks, w.extra = floated_span(alloc, size)

    def free_first():
        for p in w.blocks[:w.span.reuse_threshold_blocks
                          if freed is None else freed]:
            free(p)

    def malloc_again(n=1):
        w.heap, w.epoch = check_heap(alloc), w.span.epoch.load()
        w.empty = w.span.is_empty()
        spans = alloc.stats()["arena_spans"]
        w.again = [malloc(size) for _ in range(n)]
        w.grew = alloc.stats()["arena_spans"] - spans

    w.steps = [(i, alloc.attach_thread) for i in range(labs)] \
        + [(owner, fill), (0, free_first)] \
        + [(owner, alloc.detach_thread)] * orphan
    w.free = lambda i: lambda: free(w.blocks[i])
    w.malloc_again = malloc_again
    return w


def retire_race():
    """LAB 0's free that crosses its own span's threshold, against
    another thread's free of the span's last block."""
    w = floated()
    w.threads = [w.free(6), w.free(7)]
    return w


def terminate_race(**config):
    """LAB 0 terminates holding a reusable span with one live block,
    against another thread's free of that block."""
    w = floated(freed=7, **config)
    w.threads = [w.alloc.detach_thread, w.free(7)]
    return w


def send_round(w):
    """LAB 1's body, 45 yield points (552 to 1,019 schedules at bound 2):
    it frees the span's last block, takes the span back from the pool,
    fills and floats it, and frees it down to reusable in its own set."""
    def body():
        w.alloc.free(w.blocks[7])
        mine = [w.alloc.malloc(K128) for _ in range(9)]
        for p in mine[1:8]:
            w.alloc.free(p)
    return body


def late_put():
    """LAB 0's marking free, between its count and its marking, against
    the span's round through LAB 1."""
    w = floated()
    w.threads = [w.free(6), send_round(w)]
    return w


def late_take():
    """LAB 0's malloc that takes the span from its set, against the
    span's round through LAB 1."""
    w = floated(freed=7)
    w.steps.append((0, lambda: setattr(w, "fills", [
        w.alloc.malloc(K128) for _ in range(7)])))
    w.threads = [lambda: w.fills.append(w.alloc.malloc(K128)),
                 send_round(w)]
    return w


def late_float(**config):
    """LAB 0's termination, which floats the span from its set entry,
    against the span's round through LAB 1."""
    w = floated(freed=7, **config)
    w.threads = [w.alloc.detach_thread, send_round(w)]
    return w


def marking_vs_own_last_free():
    """LAB 0's free that marks LAB 1's span, against LAB 1's own free of
    the span's last block."""
    w = floated(owner=1)
    w.threads = [w.free(6), w.free(7)]
    return w


def marking_vs_termination():
    """LAB 0's free that marks LAB 1's span, against LAB 1's
    termination."""
    w = floated(owner=1)
    w.threads = [w.free(6), w.alloc.detach_thread]
    w.after = [(0, w.malloc_again)]
    return w


def marking_vs_termination_and_push():
    """As `marking_vs_termination`, on a 32K span so that LAB 2's free of
    another block is a plain remote push."""
    w = floated(K32, owner=1, labs=3)
    w.threads = [w.free(12), w.alloc.detach_thread, w.free(13)]
    w.after = [(0, w.malloc_again)]
    w.bound = 1         # three racing threads: 2,126 schedules at 2
    return w


def marking_vs_reuse(**config):
    """LAB 0's free that marks LAB 1's orphaned span, against LAB 2,
    which adopts the span with the free of another block, takes it hot,
    floats it and frees it back to its threshold."""
    w = floated(owner=1, labs=3, orphan=True, **config)

    def adopt_and_reuse():
        w.alloc.free(w.blocks[6])
        got = [w.alloc.malloc(K128) for _ in range(8)]
        for p in got[:6]:
            w.alloc.free(p)

    w.threads = [w.free(7), None, adopt_and_reuse]
    w.after = [(2, lambda: w.malloc_again(8))]
    return w


def adoption_in_the_next_life():
    """LAB 0's free that marks LAB 1's span, against its next life: LAB 1
    frees its last block, takes it back from the pool under the same
    owner and terminates, which closes its LAB; LAB 2 frees it down and
    marks it again."""
    w = floated(owner=1, labs=3)
    w.got = []

    def next_life():
        w.alloc.free(w.blocks[7])
        got = [w.alloc.malloc(K128) for _ in range(15)]
        w.got = [p for p in got if w.alloc.space.span_of(p) is w.span]
        w.alloc.detach_thread()

    def mark_again():
        for p in w.got[:7]:
            w.alloc.free(p)

    w.threads = [w.free(6), next_life, mark_again]
    w.after = [(2, w.malloc_again)]
    # 72 yield points: 4,316 schedules at bound 2, though its recorded
    # schedule preempts twice
    w.bound = 1
    return w


def last_free_vs_adoption():
    """LAB 0's free that marks and adopts LAB 1's orphaned span, against
    LAB 2's free of its last block."""
    w = floated(owner=1, labs=3, orphan=True)
    w.threads = [w.free(6), None, w.free(7)]
    w.after = [(0, w.malloc_again)]
    return w


def hot_snapshot(**config):
    """LAB 0's malloc that exhausts and floats its hot 1M span, against a
    remote free of its one block."""
    alloc = make_allocator(instrument=True, **config)
    w = Scenario(alloc=alloc, check=lambda w: check_heap(alloc))
    w.steps = [(0, lambda: setattr(w, "block", alloc.malloc(1 << 20))),
               (1, alloc.attach_thread)]
    w.threads = [lambda: alloc.malloc(1 << 20), lambda: alloc.free(w.block)]
    return w


def float_vs_crossing_push():
    """LAB 0's malloc that floats its exhausted hot 128K span, against
    LAB 1's free of a seventh block, which takes the span over the reuse
    threshold: a push between the drain test and the float reads a hot
    word, so the float must settle the span."""
    alloc = make_allocator(instrument=True)
    w = Scenario(alloc=alloc, check=lambda w: check_heap(alloc))

    def fill():
        w.blocks = [alloc.malloc(K128) for _ in range(8)]
        w.span = alloc.space.span_of(w.blocks[0])

    def free_six():
        for p in w.blocks[:6]:
            alloc.free(p)

    w.steps = [(0, alloc.attach_thread), (1, alloc.attach_thread),
               (0, fill), (1, free_six)]
    w.threads = [lambda: setattr(w, "got", alloc.malloc(K128)),
                 lambda: alloc.free(w.blocks[6])]
    return w


def inbox_churn(threads, ops, sizes, seed, **config):
    """Each thread, `ops` times: with even odds it mallocs a size from
    `sizes`, asserts the block is not live, writes a tag into it and
    sends it to a random thread's inbox; else it frees its own inbox,
    checking each tag first. Its choices come from `seed` and its id.
    Inboxes need no lock: only the thread holding its baton runs. After
    the race the census runs with every LAB attached; then each thread
    frees its leftovers and detaches, and the oracle sees no live
    block."""
    config.setdefault("arena_bytes", 1 << 31)
    alloc = make_allocator(instrument=True, **config)
    provider = alloc.provider
    inboxes = [[] for _ in range(threads)]
    tags = {}                           # live block -> its tag

    def empty(me):
        box = inboxes[me]
        while box:
            p = box.pop()
            assert provider.read_word(p) == tags.pop(p), f"{p:#x} overwritten"
            alloc.free(p)

    def body(me):
        rng = random.Random(seed * threads + me)

        def churn():
            for n in range(ops):
                if rng.random() < 0.5:
                    p = alloc.malloc(rng.choice(sizes))
                    assert p not in tags, f"{p:#x} handed out twice"
                    tags[p] = (n << 8) | me
                    provider.write_word(p, tags[p])
                    inboxes[rng.randrange(threads)].append(p)
                else:
                    empty(me)
        return churn

    w = Scenario(alloc=alloc,
                 check=lambda w: check_heap(alloc, live=()))
    w.steps = [(i, alloc.attach_thread) for i in range(threads)]
    w.threads = [body(i) for i in range(threads)]
    w.after = [(0, lambda: check_heap(alloc, tags))] \
        + [(i, lambda i=i: empty(i)) for i in range(threads)] \
        + [(i, alloc.detach_thread) for i in range(threads)]
    return w


def aba():
    """A pop against a pop and two pushes on a tagged stack holding span a:
    thread 1 pops a, pushes b and pushes a back. The oracle: each span
    held or stacked once (a bare stack has no state for `check_heap`)."""
    space = make_allocator().space
    a, b = (space.header_for_base(space.arena.acquire_virtual_span())
            for _ in range(2))
    stack = TaggedStack()
    stack.push(a)

    def pop_push_push():
        x = stack.pop(space)
        stack.push(b)
        if x is not None:
            stack.push(x)

    def check(w):
        while (span := stack.pop(space)) is not None:
            w.held.append(span)
        assert sorted(s.slot for s in w.held if s) == [a.slot, b.slot]

    w = Scenario(stack=stack, held=[], a=a, b=b, check=check)
    w.threads = [lambda: w.held.append(stack.pop(space)), pop_push_push]
    return w


def push_vs_drain():
    """The owner's drain of a 64 B span, then its pops of the local list
    down to empty, against two remote frees. The oracle: the popped
    blocks and the remote list are the two freed blocks, each once, and
    the remote count matches the list (a bare span has no LAB for
    `check_heap`)."""
    space = make_allocator(reuse_percent=0).space
    span = space.header_for_base(space.arena.acquire_virtual_span())
    span.init_for_class(class_for_size(64))
    blocks = [span.alloc_block() for _ in range(2)]

    def drain_and_pop():
        span.drain_remotes()
        while span.local_head:
            w.popped.append(span.alloc_block())

    def check(w):
        remote = [space.arena_base + off for off in span.walk_remote()]
        assert sorted(w.popped + remote) == sorted(blocks)
        assert span.remote_count() == len(remote) and span.local_count == 0

    w = Scenario(span=span, popped=[], check=check)
    w.threads = [drain_and_pop] + [
        lambda b=b: span.free_remote(b) for b in blocks]
    return w


# -- end checks of the replays --------------------------------------------

def span_edges(alloc, span):
    """The (old, new) states of `span`'s recorded transitions."""
    return [(epoch_state(old), epoch_state(new))
            for slot, old, new in alloc.ledger.trace if slot == span.slot]


def retired_by(*last_edges):
    """The span was pooled once, after `last_edges`, and is in no set."""
    def check(w):
        assert span_edges(w.alloc, w.span)[-len(last_edges):] \
            == list(last_edges)
        assert pooled_slots(w.alloc.pool) == [w.span.slot]
        assert epoch_state(w.span.epoch.load()) == STATE_FREE
        assert w.span.slot not in check_heap(w.alloc).holders
    return check


def retired_once(counts, marks, *last_edges, stale=0):
    """`retired_by`, with `marks` calls of `LAB.mark`, one remote free
    and one pool put; LAB 0's set keeps `stale` entries of the class."""
    def check(w):
        retired_by(*last_edges)(w)
        assert counts == {"mark": marks} \
            and w.alloc.stats()["frees_remote"] == 1
        assert w.alloc.pool.puts.load() == 1
        assert len(w.alloc.frontend.labs[0].reusable[w.span.size_class]) \
            == stale
    return check


def went_round(w):
    """The span is reusable in LAB 1's set alone, and no fill took it."""
    heap = check_heap(w.alloc)
    assert heap.holders[w.span.slot] == [1] and heap.entries == 1
    assert epoch_state(w.span.epoch.load()) == STATE_REUSABLE
    assert all(w.alloc.space.span_of(p) is not w.span
               for p in getattr(w, "fills", ()))


def adopted_into(owner, terminated=None):
    """At the race's end the span was reusable in the set of the live
    LAB of owner `owner` alone, adopted once; that LAB's next malloc of
    the class reused it. The LAB of owner `terminated` ended, and so is
    gone from `frontend.labs`."""
    def check(w):
        labs = w.alloc.frontend.labs
        assert epoch_state(w.epoch) == STATE_REUSABLE
        assert epoch_owner(w.epoch) == owner and owner in labs
        assert w.heap.holders[w.span.slot] == [owner] \
            and w.heap.entries == 1
        assert w.alloc.stats()["adopts"] == 1
        assert w.alloc.space.span_of(w.again[-1]) is w.span and w.grew == 0
        assert terminated not in labs
    return check
