"""Plain test helpers: allocator construction and brute-force oracles.

Kept out of conftest.py so test modules can import them by a name that
no other test directory's conftest shadows.
"""

from spanalloc import Allocator, AllocatorConfig
from spanalloc.span import STATE_FREE, epoch_counter, epoch_state

# Small arena (64 spans) keeps unit tests snappy; tests that need more
# construct their own allocator.
SMALL_ARENA = 64 * (2 << 20)


def make_allocator(**overrides):
    overrides.setdefault("arena_bytes", SMALL_ARENA)
    return Allocator(AllocatorConfig(**overrides))


def frag_oracle(allocator):
    """Brute-force span-internal fragmentation: free payload bytes over
    every span currently in the frontend (any state but free)."""
    total = 0
    for h in allocator.space.iter_headers():
        if h.size_class < 0:
            continue
        if epoch_state(h.epoch.load()) == STATE_FREE:
            continue
        total += h.free_block_count() * h.block_size
    return total


def walk_oracle(allocator):
    """Like frag_oracle but recounts free blocks by walking the actual
    free-list words in span memory instead of trusting counters."""
    total = 0
    for h in allocator.space.iter_headers():
        if h.size_class < 0:
            continue
        if epoch_state(h.epoch.load()) == STATE_FREE:
            continue
        listed = len(h.walk_local()) + len(h.walk_remote())
        never_used = h.blocks_per_span - h.bump_limit
        total += (listed + never_used) * h.block_size
    return total


def validate_transition_trace(allocator):
    """Check a recorded transition trace: legal edges only, strictly
    increasing per-span epoch counters."""
    from spanalloc.span import LEGAL_EDGES

    assert allocator.space.trace is not None, "allocator not traced"
    per_span = {}
    for slot, old, new in allocator.space.trace:
        per_span.setdefault(slot, []).append((old, new))
    for slot, entries in per_span.items():
        entries.sort(key=lambda e: epoch_counter(e[0]))
        prev_new = None
        for old, new in entries:
            edge = (epoch_state(old), epoch_state(new))
            assert edge in LEGAL_EDGES, f"illegal edge {edge} on span {slot}"
            assert epoch_counter(new) == epoch_counter(old) + 1
            if prev_new is not None:
                assert old == prev_new, f"gap in span {slot} transition chain"
            prev_new = new
    return sum(len(v) for v in per_span.values())
