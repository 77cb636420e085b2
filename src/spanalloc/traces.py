"""Workload traces and their replay.

A trace is a list of `(logical thread, op, handle, size)`, with `op`
one of attach, malloc, free, detach and mark. Handles stand in for
addresses, so one trace runs under any allocator configuration, and
`make_trace` is a pure function of its workload configuration, seed
included (trace-driven evaluation, after Zorn and Grunwald, "Evaluating
models of memory allocation", ACM TOMACS 1994).

`replay` runs a trace in trace order on the calling thread. All of a
thread's frontend state is its attachment record, so a logical thread
is one such record, switched in before each run of its ops: each keeps
its own LAB, and committed bytes and every `Allocator.stats()` counter
are functions of the trace and the allocator's configuration.
`results` reads a family's own results off its replay.
"""

import random
from itertools import count, groupby, islice
from operator import itemgetter
from time import perf_counter

from .api import NULL
from .errors import SpanAllocError

ATTACH, MALLOC, FREE, DETACH, MARK = "attach", "malloc", "free", "detach", "mark"

# Mean ops per run in `interleave`. Every trace, and so every exact
# figure a test pins, rests on it; threads' live sets overlap at every
# scale a family uses.
RUN_MEAN = 64

SIZESWEEP_EXPONENTS = range(4, 21, 2)
LOCALITY_RATIOS = (0, 25, 50, 75, 100)


def interleave(lanes, rng):
    """Merge `lanes`, op lists each kept in its own order, into one trace
    of runs: each run takes 1 .. 2*RUN_MEAN-1 ops from a lane drawn from
    `rng`. A free of a handle that some lane mallocs comes after that
    malloc, so a lane may free what another lane mallocs."""
    lanes = [lane for lane in lanes if lane]
    pos = [0] * len(lanes)
    # The handles one lane mallocs and another frees, until the malloc.
    mallocer = {op[2]: i for i, lane in enumerate(lanes) for op in lane
                if op[1] == MALLOC}
    unborn = {op[2] for i, lane in enumerate(lanes) for op in lane
              if op[1] == FREE and mallocer.get(op[2], i) != i}
    trace = []
    while lanes:
        ready = [i for i, lane in enumerate(lanes)
                 if lane[pos[i]][1] != FREE or lane[pos[i]][2] not in unborn]
        if not ready:
            raise ValueError("every lane waits on a free before its malloc")
        i = rng.choice(ready)
        lane, start = lanes[i], pos[i]
        end = min(len(lane), start + rng.randint(1, 2 * RUN_MEAN - 1))
        if unborn:
            for j, (_, op, h, _) in enumerate(lane[start:end], start):
                if op == FREE and h in unborn:
                    end = j
                    break
                unborn.discard(h)
        trace += lane[start:end]
        pos[i] = end
        if end == len(lane):
            del lanes[i], pos[i]
    return trace


def _phases(threads, phases, rng):
    """Threads attach in order; each phase's per-thread lanes are
    interleaved and a mark follows, so a phase ends as at a barrier;
    after the last phase the threads detach in order."""
    trace = [(t, ATTACH, None, None) for t in range(threads)]
    for lanes in phases:
        trace += interleave(lanes, rng) + [(0, MARK, None, None)]
    return trace + [(t, DETACH, None, None) for t in range(threads)]


def _mallocs(t, handles, sizes):
    return [(t, MALLOC, h, s) for h, s in zip(handles, sizes)]


def _frees(t, handles):
    return [(t, FREE, h, None) for h in handles]


def _threadtest(cfg, rng, new):
    """Rounds of allocate-all / free-all per thread."""
    lanes = [[] for _ in range(cfg.threads)]
    for t, lane in enumerate(lanes):
        for _ in range(cfg.rounds):
            batch = new(cfg.objects())
            lane += _mallocs(t, batch, [cfg.object_size] * len(batch))
            lane += _frees(t, batch)
    return _phases(cfg.threads, [lanes], rng)


def _shbench(cfg, rng, new):
    """Per round, each thread frees what expires and allocates a batch
    of 1-8 byte objects that live 1-4 rounds."""
    lo, hi = cfg.size_range or (1, 8)
    lanes = [[] for _ in range(cfg.threads)]
    for t, lane in enumerate(lanes):
        expiring = [[] for _ in range(cfg.rounds + 4)]  # handles per round
        for r in range(cfg.rounds):
            lane += _frees(t, expiring[r])
            for h in new(cfg.objects()):
                lane.append((t, MALLOC, h, rng.randint(lo, hi)))
                expiring[r + rng.randint(1, 4)].append(h)
        lane += _frees(t, [h for hs in expiring[cfg.rounds:] for h in hs])
    return _phases(cfg.threads, [lanes], rng)


def _larson(cfg, rng, new):
    """Chain c's link k is logical thread c * (handoffs + 1) + k. Each
    link frees a random object of its set and allocates a replacement,
    `rounds` times; the next link attaches, this one detaches, and the
    next carries the set on. The last link frees the set."""
    lo, hi = cfg.size_range or (7, 8)
    links = cfg.handoffs + 1
    chains = []
    for c in range(cfg.threads):
        slots = new(cfg.objects())
        chain = [(c * links, ATTACH, None, None)] + _mallocs(
            c * links, slots, [rng.randint(lo, hi) for _ in slots])
        for t in range(c * links, (c + 1) * links):
            for _ in range(cfg.rounds):
                i = rng.randrange(len(slots))
                chain.append((t, FREE, slots[i], None))
                slots[i] = new(1)[0]
                chain.append((t, MALLOC, slots[i], rng.randint(lo, hi)))
            if t + 1 < (c + 1) * links:
                chain += [(t + 1, ATTACH, None, None), (t, DETACH, None, None)]
        chains.append(chain + _frees(t, slots) + [(t, DETACH, None, None)])
    return interleave(chains, rng)


def _prodcons(cfg, rng, new):
    """Per epoch, one phase: each producer allocates a batch and routes
    every object to a uniformly random consumer, which frees its objects
    in producer order. Symmetric mode (producers=None): every thread
    does both."""
    n, split = cfg.threads, cfg.producers
    consumers = range(n) if split is None else range(split, n)
    phases = []
    for _ in range(cfg.rounds):
        lanes, routed = [[] for _ in range(n)], [[] for _ in range(n)]
        for p in range(n if split is None else split):
            for h in new(cfg.objects()):
                lanes[p].append((p, MALLOC, h, rng.randint(*cfg.size_range)
                                 if cfg.size_range else cfg.object_size))
                routed[rng.choice(consumers)].append(h)
        phases.append([lane + _frees(t, routed[t])
                       for t, lane in enumerate(lanes)])
    return _phases(n, phases, rng)


def _sizesweep(cfg, rng, new):
    """Per interval [2^x, 2^(x+2)), one phase of `rounds` cycles, each
    allocating roughly 2^x KB (scaled down) and freeing the previous
    cycle's objects."""
    phases = []
    for x in SIZESWEEP_EXPONENTS:
        lanes = [[] for _ in range(cfg.threads)]
        for t, lane in enumerate(lanes):
            prev = []
            for _ in range(cfg.rounds):
                sizes = []
                while sum(sizes) < (1 << x) * 1024 // 64:
                    sizes.append(rng.randrange(1 << x, 1 << (x + 2)))
                batch = new(len(sizes))
                lane += _mallocs(t, batch, sizes) + _frees(t, prev)
                prev = batch
            lane += _frees(t, prev)
        phases.append(lanes)
    return _phases(cfg.threads, phases, rng)


def _locality(cfg, rng, new):
    """Phases: fill; per ratio, `rounds` sweeps that free every object,
    the first ratio% in allocation order and the rest shuffled, then
    allocate the set again in allocation order; free all. A free writes
    its block's first word, so a sweep walks the objects in its order."""
    lo, hi = cfg.size_range or (16, 32)
    n, threads = cfg.objects(), range(cfg.threads)
    sizes = [[rng.randint(lo, hi) for _ in range(n)] for _ in threads]
    live = [new(n) for _ in threads]
    phases = [[_mallocs(t, live[t], sizes[t]) for t in threads]]
    for cut in (n * ratio // 100 for ratio in LOCALITY_RATIOS):
        lanes = [[] for _ in threads]
        for t in threads:
            for _ in range(max(1, cfg.rounds)):
                rest = rng.sample(live[t][cut:], n - cut)
                lanes[t] += _frees(t, live[t][:cut] + rest)
                live[t] = new(n)
                lanes[t] += _mallocs(t, live[t], sizes[t])
        phases.append(lanes)
    return _phases(cfg.threads, phases + [
        [_frees(t, live[t]) for t in threads]], rng)


def _falseshare_active(cfg, rng, new):
    """A phase in which threads only allocate, then one that frees."""
    batches = [new(cfg.objects()) for _ in range(cfg.threads)]
    return _phases(cfg.threads, [
        [_mallocs(t, hs, [cfg.object_size] * len(hs))
         for t, hs in enumerate(batches)],
        [_frees(t, hs) for t, hs in enumerate(batches)]], rng)


def _falseshare_passive(cfg, rng, new):
    """Thread 0 allocates; thread 1 frees one of those blocks, the
    victim, then allocates as many blocks and frees them; thread 0
    frees the rest."""
    n = max(2, cfg.objects())
    theirs, mine, sizes = new(n), new(n), [cfg.object_size] * n
    victim = theirs[n // 2]
    return _phases(2, [
        [_mallocs(0, theirs, sizes), []],
        [[], [(1, FREE, victim, None)] + _mallocs(1, mine, sizes)
         + _frees(1, mine)],
        [_frees(0, [h for h in theirs if h != victim]), []]], rng)


_GENERATORS = {
    "threadtest": _threadtest, "shbench_like": _shbench,
    "larson_like": _larson, "prodcons": _prodcons,
    "sizesweep": _sizesweep, "falseshare_active": _falseshare_active,
    "falseshare_passive": _falseshare_passive, "locality": _locality,
}
WORKLOADS = tuple(_GENERATORS)


def make_trace(config):
    """The workload's trace: a pure function of `config`. A generator
    takes fresh handles from `new(n)`, a list of the next n ints."""
    handles = count()
    return _GENERATORS[config.name](config, random.Random(config.seed),
                                    lambda n: list(islice(handles, n)))


def results(config, allocator, trace, addresses, durations, peaks):
    """The family's own results from its replay: `addresses` as `replay`
    returns them, and the wall time and peak committed bytes of each
    phase, in mark order."""
    if config.name == "prodcons":
        return {"epoch_peaks": peaks}
    if config.name == "sizesweep":
        return {"interval_times": dict(zip(SIZESWEEP_EXPONENTS, durations))}
    if config.name == "locality":
        return {"access_times": dict(zip(LOCALITY_RATIOS, durations[1:]))}
    if config.name == "falseshare_active":
        owners = {}           # span base -> threads that malloced in it
        for t, op, h, _ in trace:
            if op == MALLOC:
                base = allocator.arena.owning_span_base(addresses[h])
                owners.setdefault(base, set()).add(t)
        shared = sum(len(ts) > 1 for ts in owners.values())
        return {"spans_shared": shared, "probe_ok": not shared}
    if config.name == "falseshare_passive":
        victim = next(h for t, op, h, _ in trace if t == 1 and op == FREE)
        returned = addresses[victim] in {
            addresses[h] for t, op, h, _ in trace if t == 1 and op == MALLOC}
        return {"probe_ok": not returned, "victim_returned": returned}
    return {}


def replay(trace, allocator, touch=False):
    """Run `trace` on `allocator` in trace order, on the calling thread.
    A logical thread is its attachment record, the one attribute of
    `Frontend._tls`: a run of a thread's ops begins with the thread's
    saved record installed, or with none before its first op, which
    then attaches it afresh as a new OS thread would, and ends by saving
    whatever record is left. With `touch`, a malloc writes a tag word
    into its block. A mark records `(perf_counter, window_peak)` and
    begins a new window. After an error, every logical thread still
    attached detaches and the error propagates; either way the caller's
    own record is restored. Returns each handle's address, the marks,
    and the time each logical thread's runs took."""
    held = [0.0] * (1 + max((op[0] for op in trace), default=-1))
    records = {}            # logical thread -> its saved record
    addresses, marks = {}, []
    provider = allocator.provider
    malloc, free, write_word = allocator.malloc, allocator.free, \
        provider.write_word
    slot = vars(allocator.frontend._tls)    # this OS thread's attributes
    caller = slot.pop("attached", None)
    try:
        for tid, run in groupby(trace, itemgetter(0)):
            if tid in records:
                slot["attached"] = records.pop(tid)
            t0 = perf_counter()
            try:
                for _, op, h, size in run:
                    if op == FREE:
                        free(addresses[h])
                    elif op == MALLOC:
                        addr = addresses[h] = malloc(size)
                        if addr == NULL:
                            raise SpanAllocError(f"malloc({size}) failed")
                        if touch:
                            write_word(addr, addr ^ size)
                    elif op == MARK:
                        marks.append((perf_counter(), provider.window_peak))
                        provider.begin_window()
                    elif op == ATTACH:
                        allocator.attach_thread()
                    else:
                        allocator.detach_thread()
            finally:
                if "attached" in slot:
                    records[tid] = slot.pop("attached")
            held[tid] += perf_counter() - t0
    finally:
        for record in records.values():     # only after an error
            slot["attached"] = record
            allocator.detach_thread()
        if caller is not None:
            slot["attached"] = caller
    return addresses, marks, held
