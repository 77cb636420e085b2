"""Differential fuzz: live blocks must never be touched by the
allocator. Every allocation gets a unique token written into it; the
token must read back intact right before the free, across span reuse,
remote frees, drains, and pool cycling."""

import random
import threading

from helpers import make_allocator


def token_for(addr, nonce):
    return ((addr * 0x9E3779B97F4A7C15) ^ nonce) & ((1 << 64) - 1)


def test_single_thread_no_corruption():
    alloc = make_allocator()
    rng = random.Random(99)
    sizes = [16, 16, 48, 64, 256, 512, 2048, 65536]
    live = {}
    for nonce in range(30_000):
        if live and (rng.random() < 0.5 or len(live) > 1500):
            addr = rng.choice(list(live))
            expected = live.pop(addr)
            got = alloc.provider.read_word(addr)
            assert got == expected, f"block {addr:#x} corrupted"
            alloc.free(addr)
        else:
            addr = alloc.malloc(rng.choice(sizes))
            assert addr not in live
            tok = token_for(addr, nonce)
            alloc.provider.write_word(addr, tok)
            live[addr] = tok
    for addr, expected in live.items():
        assert alloc.provider.read_word(addr) == expected
        alloc.free(addr)


def test_multi_thread_no_corruption():
    alloc = make_allocator(arena_bytes=1 << 31)
    n = 6
    inboxes = [[] for _ in range(n)]
    locks = [threading.Lock() for _ in range(n)]
    failures = []

    def worker(tid):
        rng = random.Random(tid)
        alloc.attach_thread()
        try:
            for nonce in range(8000):
                addr = alloc.malloc(rng.choice([16, 64, 64, 256]))
                tok = token_for(addr, nonce ^ (tid << 32))
                alloc.provider.write_word(addr, tok)
                target = rng.randrange(n)
                with locks[target]:
                    inboxes[target].append((addr, tok))
                if nonce % 4 == 0:
                    with locks[tid]:
                        mine, inboxes[tid][:] = inboxes[tid][:], []
                    for a, t in mine:
                        if alloc.provider.read_word(a) != t:
                            failures.append(a)
                        alloc.free(a)
        finally:
            alloc.detach_thread()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i, box in enumerate(inboxes):
        for a, t in box:
            if alloc.provider.read_word(a) != t:
                failures.append(a)
            alloc.free(a)
    assert not failures, f"{len(failures)} live blocks corrupted"


def test_dense_interleaving_stress():
    # A tiny switch interval forces preemption inside the multi-step
    # lock-free protocols (remote push write/replace, drain splice,
    # snapshot-then-transition), which is where interleaving bugs hide.
    import sys

    from spanalloc.span import STATE_FREE, epoch_state

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        alloc = make_allocator(arena_bytes=1 << 31)
        n = 8
        inboxes = [[] for _ in range(n)]
        locks = [threading.Lock() for _ in range(n)]
        errors = []

        def worker(tid):
            rng = random.Random(7000 + tid)
            alloc.attach_thread()
            try:
                for _ in range(4000):
                    if rng.random() < 0.55:
                        p = alloc.malloc(rng.choice((16, 64, 256, 512)))
                        target = rng.randrange(n)
                        with locks[target]:
                            inboxes[target].append(p)
                    else:
                        with locks[tid]:
                            mine, inboxes[tid][:] = inboxes[tid][:], []
                        for p in mine:
                            alloc.free(p)
            except Exception as exc:        # pragma: no cover
                errors.append(exc)
            finally:
                alloc.detach_thread()

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for box in inboxes:
            for p in box:
                alloc.free(p)
        for h in alloc.space.iter_headers():
            if h.size_class < 0:
                continue
            assert h.live_blocks() == 0
            if epoch_state(h.epoch.load()) == STATE_FREE:
                continue                    # pooled: list words may be gone
            listed = len(h.walk_local()) + len(h.walk_remote())
            assert listed + h.blocks_per_span - h.bump_limit \
                == h.blocks_per_span
    finally:
        sys.setswitchinterval(old)
