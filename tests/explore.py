"""A stateless schedule explorer, in the style of CHESS (Musuvathi et al.,
OSDI 2008): a scenario runs from scratch once per schedule, and its
oracle runs after each. Each logical thread is a real thread that runs
only while it holds its baton, a lock used as a binary semaphore. Every
`AtomicWord` method call, every `SimProvider.write_word` and every
acquire of a latch built through `atomic.Latch` is a yield point, where
the next thread to go on is picked; a thread paused at the acquire of a
held latch cannot be. A
schedule is the list of picks; past its end the running thread goes on
while it can, then the lowest id that can.

Two entry points pick the schedules. `explore` runs every one that
preempts a running thread at most `bound` times. `sample` runs one seeded
schedule per seed, for scenarios too long to enumerate: at each yield
point, with probability `SWITCH`, the pick is random among the threads
that can go on, and otherwise it is the default. This is a coin per
yield point, not PCT's few priority-change points (Burckhardt et al.,
ASPLOS 2010): a churn meets each racy window many times over. A failing
run's error spells its schedule as a list expression for `replay`,
and a failing sample names its seed too.

The exploration is sound only for programs that keep one rule: state
shared between threads is an `AtomicWord`, or is read and written only
under a latch, as `LAB.reusable` and `LAB.closed` are. A plain store
made outside every latch is no yield point, so no schedule can place
another thread between it and the code around it: setting `closed`
just after `LAB.close` returns, outside the latch, passes every
exploration in test_races.py, though a marking may then slip in
between the take of the entries and the store. The one exception is a
free-list push: an owner's local push is plain stores that other
threads read through `is_empty`, so its first step, the write of the
block's link word, is a yield point, which places other threads
between the free's epoch load and its push.

`build()` returns a `Scenario`: `threads`, the raced bodies (None for a
thread with steps only); `steps` and `after`, (thread id, callable)
pairs run in order, with no yield point, before and after the race;
`check(scenario)`, the oracle; `bound` (default `BOUND`); and more.
"""

import itertools
import random
import threading
from types import SimpleNamespace as Scenario

from helpers import run_threads
from spanalloc import atomic
from spanalloc.atomic import AtomicWord
from spanalloc.vmem import SimProvider

BOUND = 2
SWITCH = 0.1        # a sampled pick's chance of being random
_OPS = ("load", "store", "compare_exchange", "exchange", "fetch_add")


class Aborted(Exception):
    """Unwinds a paused thread after another one failed."""


class Latch:
    """`atomic.Latch` while exploring: its acquire is a yield point. Only
    one thread runs at a time, so it needs no lock of its own."""

    __slots__ = ("point", "held")

    def __init__(self, point):
        self.point = point
        self.held = False

    def acquire(self):
        self.point(self)
        assert not self.held, "a latch acquired while held"
        self.held = True
        return True

    def release(self, *exc):
        assert self.held, "a latch released while free"
        self.held = False

    __enter__, __exit__ = acquire, release


class Run:
    """One execution of a scenario under a schedule `prefix`, and past
    it the default or, with `rng`, a seeded pick."""

    def __init__(self, prefix, rng=None):
        self.prefix, self.rng = prefix, rng
        self.picks, self.options, self.errors = [], [], []
        self.tids = {}          # thread ident -> logical id, while running
        self.current, self.preemptions = None, 0

    def start(self, scenario):
        """The threads, with the script (`steps`, None, `after`) begun."""
        n = len(scenario.threads)
        self.script = [*getattr(scenario, "steps", ()), None,
                       *getattr(scenario, "after", ())]
        self.cursor, self.serial = 0, self.script[0] is not None
        self.done = [body is None for body in scenario.threads]
        self.pending = [None] * n       # the latch each thread waits for
        self.batons = [threading.Lock() for _ in range(n)]
        for baton in self.batons:
            baton.acquire()
        self.batons[self.script[0][0] if self.serial else self.pick()] \
            .release()
        return [threading.Thread(target=self.thread, args=(i, body),
                                 name=f"explore-{i}")
                for i, body in enumerate(scenario.threads)]

    def pick(self):
        """The next thread to go on, or None; `options` records the
        threads that could, the running one if it could, the preemptions
        so far and the default pick past the schedule's end, which a
        seeded pick leaves as it is, so `schedule` spells what `replay`
        follows."""
        enabled = [t for t, done in enumerate(self.done) if not done
                   and not (self.pending[t] and self.pending[t].held)]
        if not enabled:
            if not all(self.done):
                self.fail(AssertionError("deadlock: all wait for latches"))
            return None
        cur = self.current if self.current in enabled else None
        default = enabled[0] if cur is None else cur
        i = len(self.picks)
        if i < len(self.prefix):
            nxt = self.prefix[i]
        elif self.rng is not None and self.rng.random() < SWITCH:
            nxt = self.rng.choice(enabled)
        else:
            nxt = default
        assert nxt in enabled, f"step {i}: thread {nxt} cannot run"
        self.options.append((enabled, cur, self.preemptions, default))
        self.preemptions += cur is not None and nxt != cur
        self.picks.append(nxt)
        self.current = nxt
        return nxt

    def point(self, latch=None):
        """A yield point of the caller, paused at an acquire of `latch`."""
        me = self.tids.get(threading.get_ident())
        if me is None or self.serial:
            return
        self.pending[me] = latch
        nxt = self.pick()
        if nxt is not None and nxt != me:
            self.batons[nxt].release()
            self.batons[me].acquire()
        if self.errors:
            raise Aborted
        self.pending[me] = None

    def fail(self, exc):
        """Record `exc` and wake every thread to unwind."""
        self.errors.append(exc)
        if len(self.errors) == 1:
            for baton in self.batons:
                if baton.locked():
                    baton.release()

    def waits(self, me):
        """Whether the race or the script has work left for `me`."""
        return not self.done[me] or any(
            entry[0] == me for entry in self.script[self.cursor:] if entry)

    def follow(self, me):
        """Run this thread's script entries, passing the baton on between
        entries, until the race picks it or nothing is left for it."""
        while not self.errors and self.cursor < len(self.script):
            entry = self.script[self.cursor]
            if entry is None:           # the race; its first pick is free
                if not self.serial:
                    return
                self.serial, self.current = False, None
                if not self.done[me]:
                    self.point()
                    return
                self.pass_on(me)
            elif entry[0] == me:
                self.cursor += 1
                entry[1]()
            else:
                self.batons[entry[0]].release()
                if not self.waits(me):
                    return
                self.batons[me].acquire()

    def pass_on(self, me):
        """Hand the race on from `me`, done racing; the last one done
        moves the script past the race."""
        nxt = self.pick()
        if nxt is not None:
            self.batons[nxt].release()
            if self.waits(me):
                self.batons[me].acquire()
        elif not self.errors:
            self.cursor += 1
            self.serial = True

    def thread(self, me, body):
        self.batons[me].acquire()
        try:
            self.tids[threading.get_ident()] = me
            self.follow(me)
            if self.errors or self.done[me]:
                return
            body()
            self.done[me] = True
            self.pass_on(me)
            self.follow(me)
        except Aborted:
            pass
        except BaseException as exc:    # re-raised by `execute`
            self.fail(exc)

    def schedule(self):
        """The picks less the trailing ones the default makes anyway,
        spelled as a list expression."""
        picks = list(self.picks)
        while picks and picks[-1] == self.options[len(picks) - 1][3]:
            picks.pop()
        runs = ((t, len(list(g))) for t, g in itertools.groupby(picks))
        return " + ".join(f"[{t}] * {n}" if n > 1 else f"[{t}]"
                          for t, n in runs) or "[]"


def execute(build, prefix, then=None, rng=None):
    """Build and run a scenario under `prefix`, then picks from `rng`;
    its `check` and `then` see it before the Thread objects (and what
    they left attached) go."""
    run = Run(prefix, rng)
    saved = {name: getattr(AtomicWord, name) for name in _OPS}

    def yielding(real):
        def op(word, *args):
            run.point()
            return real(word, *args)
        return op

    write_word = SimProvider.write_word
    try:
        for name, real in saved.items():
            setattr(AtomicWord, name, yielding(real))
        SimProvider.write_word = yielding(write_word)
        atomic.Latch = lambda: Latch(run.point)
        scenario = build()
        threads = run.start(scenario)
        run_threads(threads)
        run.tids.clear()
        try:
            for check in (getattr(scenario, "check", None), then):
                if check and not run.errors:
                    check(scenario)
        except BaseException as exc:
            run.errors.append(exc)
    finally:
        for name, real in saved.items():
            setattr(AtomicWord, name, real)
        SimProvider.write_word = write_word
        atomic.Latch = threading.Lock
    if run.errors:
        raise AssertionError(
            f"schedule {run.schedule()} fails: {run.errors[0]!r}") \
            from run.errors[0]
    return run, scenario


def replay(build, schedule, then=None):
    """Run one schedule; `then(scenario)` runs after its oracle."""
    execute(build, list(schedule), then)


def sample(build, seeds, then=None):
    """Run `build(seed)`'s scenario once per seed, its picks drawn from
    `random.Random(seed)`; `then(scenario)` runs after each oracle. A
    failure names the seed; `replay(partial(build, seed), schedule)`
    reproduces it. Returns how many runs there were."""
    runs = 0
    for seed in seeds:
        try:
            execute(lambda: build(seed), [], then, random.Random(seed))
        except AssertionError as exc:
            raise AssertionError(f"seed {seed}: {exc}") from exc.__cause__
        runs += 1
    return runs


def explore(build):
    """Run `build`'s scenario under every schedule with at most its
    `bound` preemptions, depth first; returns how many schedules ran."""
    todo, runs = [[]], 0
    while todo:
        prefix = todo.pop()
        run, scenario = execute(build, prefix)
        runs += 1
        bound = getattr(scenario, "bound", BOUND)
        for i in range(len(run.picks) - 1, len(prefix) - 1, -1):
            enabled, cur, used, _ = run.options[i]
            for t in enabled:
                if t != run.picks[i] and \
                        used + (cur is not None and t != cur) <= bound:
                    todo.append(run.picks[:i] + [t])
    return runs
