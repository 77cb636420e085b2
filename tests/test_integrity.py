"""Differential fuzz: live blocks must never be touched by the
allocator. Every allocation gets a unique token written into it; the
token must read back intact right before the free, across span reuse
and pool cycling. Its threaded form, with remote frees and drains, is
`scenarios.inbox_churn` under seeded schedules (test_races.py)."""

import random

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


