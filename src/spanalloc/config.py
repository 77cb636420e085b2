"""Allocator configuration.

Every tunable is an `AllocatorConfig` field; the library, the tests and
the bench CLI (through one flag per field) all set the same fields.
"""

import os
from dataclasses import dataclass

# Geometry constants. Virtual spans are fixed 2MB-aligned slots; pages
# are the 4KB system granularity everything else is a multiple of.
VIRTUAL_SPAN_SIZE = 2 * 1024 * 1024
SPAN_SHIFT = VIRTUAL_SPAN_SIZE.bit_length() - 1
PAGE_SIZE = 4096

# Real spans strictly larger than this are decommitted (all but their
# first page) when they enter the span pool.
DECOMMIT_THRESHOLD = 32 * 1024

TLAB = "tlab"
CLAB = "clab"

# The detected core count: the default pool width and the CLAB count.
CPU_COUNT = os.cpu_count() or 1


@dataclass
class AllocatorConfig:
    # Size of the single reserved arena. 2^35 keeps CI address-space
    # checks happy; raise it for bigger machines.
    arena_bytes: int = 1 << 35
    # "sim" = byte-array backed provider with exact page accounting,
    # "os" = real anonymous mappings with madvise decommit.
    provider: str = "sim"
    # Width of the span pool's stack arrays.
    pool_width: int = CPU_COUNT
    # A span becomes reusable when strictly more than this percentage of
    # its blocks are free.
    reuse_percent: int = 80
    lab_mode: str = TLAB
    # Ablation toggles (the bench CLI's --no-decommit, --lazy-reclaim).
    decommit_enabled: bool = True
    eager_reclaim: bool = True
    # Test-build instrumentation: one FragLedger (live blocks for
    # DoubleFree, transition trace), and `frag_bytes` in `stats()`, read
    # off the span headers. Off for plain runs.
    instrument: bool = False

    def __post_init__(self):
        if self.arena_bytes <= 0 or self.arena_bytes % VIRTUAL_SPAN_SIZE:
            raise ValueError("arena_bytes must be a positive multiple of 2MB")
        if self.provider not in ("sim", "os"):
            raise ValueError("provider must be 'sim' or 'os'")
        if self.lab_mode not in (TLAB, CLAB):
            raise ValueError("lab_mode must be 'tlab' or 'clab'")
        if not (0 <= self.reuse_percent <= 100):
            raise ValueError("reuse_percent must be in [0, 100]")
        if self.pool_width < 1:
            raise ValueError("pool_width must be >= 1")
