"""A seeded single-thread trace, pinned to its recorded addresses.

The trace mixes small, large and huge requests and frees at random, in
three phases: a fill, a drain that empties spans, and a churn that takes
them back for other classes. Each malloc writes one word into its block,
as a user would. After every step the test compares the step's address
(0 for a free) and the allocator's committed bytes with
`equivalence_trace.json`, which holds both sequences for TLAB and for
CLAB mode. A change to how the allocator finds a block or a span must
hand out the same addresses and commit the same pages, step by step.

In TLAB mode the frees mark spans reusable and retire them, and pooled
spans are re-classed; in CLAB mode every free is a remote push, so the
hot spans also drain. The test asserts that each of these happened.

`PYTHONPATH=src python tests/test_equivalence.py` prints the recording
of the current code, in the file's format.
"""

import json
import pathlib
import random
import sys

import pytest

from helpers import make_allocator
from spanalloc.config import CLAB, TLAB, VIRTUAL_SPAN_SIZE
from spanalloc.size_classes import MAX_CLASS_BLOCK

RECORDING = pathlib.Path(__file__).with_name("equivalence_trace.json")
SEED = 39
STEPS = 3000
# The chance that a step frees, per phase of STEPS // 3 steps.
FREE_CHANCE = (0.25, 0.7, 0.5)


# Eight classes, four small and four large: few enough that each class's
# hot span runs dry often and a marked span is taken back from the set.
SIZES = (24, 64, 200, 1000, 3000, 20000, 100000, 700000)


def request(rng):
    """A size just below one of SIZES, or a huge one."""
    if rng.random() < 0.04:
        return rng.randint(MAX_CLASS_BLOCK + 1, 3 * MAX_CLASS_BLOCK)
    return rng.choice(SIZES) - rng.randrange(16)


def run(lab_mode):
    """The trace's addresses and committed bytes, one of each per step,
    the allocator's final stats, and how many mallocs found their span
    in another class than its previous block had."""
    rng = random.Random(SEED)
    alloc = make_allocator(lab_mode=lab_mode,
                           arena_bytes=256 * VIRTUAL_SPAN_SIZE)
    lo = alloc.arena.base
    live, addresses, committed = [], [], []
    classes, reclassed = {}, 0
    for step in range(STEPS):
        if live and rng.random() < FREE_CHANCE[step * 3 // STEPS]:
            i = rng.randrange(len(live))
            live[i], live[-1] = live[-1], live[i]
            alloc.free(live.pop())
            addr = 0
        else:
            addr = alloc.malloc(request(rng))
            assert addr
            alloc.provider.write_word(addr, step)
            live.append(addr)
            if lo <= addr < alloc.arena.end:
                span = alloc.space.span_of(addr)
                reclassed += classes.setdefault(span.slot, span.size_class) \
                    != span.size_class
                classes[span.slot] = span.size_class
        # Arena offsets; a huge mapping's address as it is.
        addresses.append(addr - lo if lo <= addr < alloc.arena.end else addr)
        committed.append(alloc.committed_bytes)
    return addresses, committed, alloc.stats(), reclassed


def record():
    return {mode: dict(zip(("addresses", "committed"), run(mode)[:2]))
            for mode in (TLAB, CLAB)}


@pytest.mark.parametrize("lab_mode", [TLAB, CLAB])
def test_trace_hands_out_the_recorded_addresses(lab_mode):
    expected = json.loads(RECORDING.read_text())[lab_mode]
    addresses, committed, stats, reclassed = run(lab_mode)
    for step in range(STEPS):
        assert (addresses[step], committed[step]) == \
            (expected["addresses"][step], expected["committed"][step]), \
            f"step {step}"
    assert stats["set_fetches"] and stats["pool_puts"] and reclassed
    assert bool(stats["drains"]) == (lab_mode == CLAB)


if __name__ == "__main__":
    json.dump(record(), sys.stdout, separators=(",", ":"))
