import threading

import pytest

from helpers import run_threads
from spanalloc.arena import Arena
from spanalloc.config import VIRTUAL_SPAN_SIZE
from spanalloc.errors import ArenaExhausted
from spanalloc.vmem import SimProvider

MB2 = VIRTUAL_SPAN_SIZE


def make_arena(spans):
    provider = SimProvider()
    return Arena(provider.reserve(spans * MB2))


def test_sequential_acquisition():
    arena = make_arena(4)
    assert arena.acquire_virtual_span() == arena.base
    assert arena.acquire_virtual_span() == arena.base + MB2


def test_exhaustion():
    arena = make_arena(16)
    for _ in range(16):
        base = arena.acquire_virtual_span()
        assert base % MB2 == 0
        assert base < arena.end
    with pytest.raises(ArenaExhausted):
        arena.acquire_virtual_span()
    with pytest.raises(ArenaExhausted):
        arena.acquire_virtual_span()       # stays exhausted


def test_default_arena_capacity():
    provider = SimProvider()
    arena = Arena(provider.reserve(1 << 35))
    assert arena.capacity == 16384


def test_contains_half_open():
    arena = make_arena(4)
    assert arena.contains(arena.base)
    assert arena.contains(arena.end - 1)
    assert not arena.contains(arena.base - 1)
    assert not arena.contains(arena.end)


def test_owning_span_base():
    arena = make_arena(4)
    addr = arena.base + MB2 + 100
    assert arena.owning_span_base(addr) == arena.base + MB2
    assert arena.owning_span_base(arena.base) == arena.base
    b = arena.base + 3 * MB2 - 1
    sb = arena.owning_span_base(b)
    assert sb <= b < sb + MB2
    with pytest.raises(ValueError):
        arena.owning_span_base(arena.end)


def test_slot_mapping_roundtrip():
    arena = make_arena(8)
    for slot in range(8):
        assert arena.slot_of(arena.base_of_slot(slot)) == slot


def test_concurrent_acquisition_unique():
    arena = make_arena(512)
    per_thread = 512 // 8
    results = [[] for _ in range(8)]

    def grab(out):
        for _ in range(per_thread):
            out.append(arena.acquire_virtual_span())

    threads = [threading.Thread(target=grab, args=(results[i],))
               for i in range(8)]
    run_threads(threads)
    got = [b for chunk in results for b in chunk]
    assert len(got) == 512
    assert len(set(got)) == 512
    assert all(b % MB2 == 0 for b in got)
