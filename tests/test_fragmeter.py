import random

from helpers import frag_oracle, make_allocator, walk_oracle
from spanalloc.size_classes import TABLE, class_for_size

C64 = class_for_size(64)
B64 = TABLE[C64].blocks_per_span
U64 = B64 * 64


def instrumented(**kw):
    kw.setdefault("instrument", True)
    return make_allocator(**kw)


def test_first_alloc_charges_whole_span():
    alloc = instrumented()
    alloc.malloc(64)
    assert alloc.ledger.f == U64 - 64 == 32512 - 64
    assert alloc.ledger.f == frag_oracle(alloc)


def test_alloc_from_hot_span_decreases():
    alloc = instrumented()
    alloc.malloc(64)
    before = alloc.ledger.f
    alloc.malloc(64)
    assert alloc.ledger.f == before - 64
    assert alloc.ledger.events[-1] == ("alloc", 64, "existing_span")


def test_exhausting_span_takes_new_span_branch():
    alloc = instrumented()
    for _ in range(B64):
        alloc.malloc(64)
    assert alloc.ledger.f == U64 - B64 * 64 == 0
    alloc.malloc(64)                       # forces a fresh span
    assert alloc.ledger.events[-1] == ("alloc", 64, "new_span")
    assert alloc.ledger.f == U64 - 64
    assert alloc.ledger.f == frag_oracle(alloc)


def test_ordinary_free_increases_by_class_size():
    alloc = instrumented()
    p = alloc.malloc(64)
    alloc.malloc(64)
    before = alloc.ledger.f
    alloc.free(p)
    assert alloc.ledger.f == before + 64
    assert alloc.ledger.events[-1] == ("free", 64, "ordinary")


def test_last_block_free_releases_whole_payload():
    alloc = instrumented()
    blocks = [alloc.malloc(64) for _ in range(B64)]
    alloc.malloc(64)                       # float the first span
    for b in blocks[:-1]:
        alloc.free(b)
    before = alloc.ledger.f
    alloc.free(blocks[-1])                 # empties + pools the span
    assert alloc.ledger.events[-1] == ("free", 64, "last_block")
    assert alloc.ledger.f == before + 64 - U64
    assert alloc.ledger.f == frag_oracle(alloc)


def test_span_lifecycle_telescopes_to_zero_net():
    alloc = instrumented()
    blocks = [alloc.malloc(64) for _ in range(B64)]
    extra = alloc.malloc(64)               # new span's first block
    f_after_extra = alloc.ledger.f
    for b in blocks:
        alloc.free(b)
    # The first span's whole life nets out once it returns to the pool.
    assert alloc.ledger.f == f_after_extra - U64 + 64 * B64
    assert alloc.ledger.f == frag_oracle(alloc)
    alloc.free(extra)
    assert alloc.ledger.f == frag_oracle(alloc)


def test_ledger_matches_oracle_after_every_op():
    alloc = instrumented()
    rng = random.Random(11)
    sizes = [16, 48, 64, 256, 512, 4096]
    live = []
    for step in range(4000):
        if live and (rng.random() < 0.48 or len(live) > 900):
            alloc.free(live.pop(rng.randrange(len(live))))
        else:
            live.append(alloc.malloc(rng.choice(sizes)))
        assert alloc.ledger.f == frag_oracle(alloc), step
        if step % 500 == 0:
            assert alloc.ledger.f == walk_oracle(alloc), step
    while live:
        alloc.free(live.pop())
        assert alloc.ledger.f == frag_oracle(alloc)
    assert alloc.ledger.f == walk_oracle(alloc)
    assert alloc.ledger.f >= 0


def test_lazy_reclaim_keeps_oracle_equality():
    alloc = instrumented(eager_reclaim=False)
    rng = random.Random(5)
    live = []
    for step in range(3000):
        if live and rng.random() < 0.5:
            alloc.free(live.pop(rng.randrange(len(live))))
        else:
            live.append(alloc.malloc(rng.choice([64, 256])))
        assert alloc.ledger.f == frag_oracle(alloc), step
    while live:
        alloc.free(live.pop())
    assert alloc.ledger.f == frag_oracle(alloc)


def test_multithreaded_checked_at_quiescence():
    import threading

    alloc = instrumented()
    n = 4

    def worker(seed):
        alloc.attach_thread()
        rng = random.Random(seed)
        mine = []
        for _ in range(2000):
            if mine and rng.random() < 0.5:
                alloc.free(mine.pop(rng.randrange(len(mine))))
            else:
                mine.append(alloc.malloc(rng.choice([16, 64, 256])))
        for p in mine:
            alloc.free(p)
        alloc.detach_thread()

    ts = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    # Only meaningful at global quiescence: frees and their follow-up
    # state work are non-atomic while threads run.
    assert alloc.ledger.f == frag_oracle(alloc) == walk_oracle(alloc)


def test_event_log_csv_dump():
    import io

    alloc = instrumented()
    p = alloc.malloc(64)
    alloc.free(p)
    buf = io.StringIO()
    alloc.ledger.dump_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "op,size,case"
    assert len(lines) == 3
