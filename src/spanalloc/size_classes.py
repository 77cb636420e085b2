"""Block size classes and real-span geometry.

Requests up to 1MB are served from fixed-size blocks inside real spans.
The 16 small classes run 16..256 bytes in 16-byte steps and share one
32KB real span with a 256-byte header. Large classes run 512B..1MB in
power-of-two steps; their real spans carry a one-page (4KB) header so
that decommitting everything but a span's first page preserves the
header. Real-span sizes are multiples of 4KB, capped by the 2MB virtual
span, and chosen so every large size stays strictly above the 32KB
decommit threshold:

    512B/1K -> 68KB    2K/4K -> 132KB    8K/16K -> 260KB
    32K/64K -> 516KB   128K..1M -> 1028KB

That yields 28 classes over 6 distinct real-span sizes, with block
internal fragmentation below 50% for every request above 16 bytes.
Anything above 1MB bypasses spans entirely (HUGE).
"""

import io
from typing import NamedTuple

KB = 1024
SMALL_HEADER_SIZE = 256
LARGE_HEADER_SIZE = 4096
SMALL_REAL_SPAN = 32 * KB
MAX_SMALL_BLOCK = 256
MAX_CLASS_BLOCK = 1024 * KB

HUGE = -1


class SizeClass(NamedTuple):
    class_id: int
    block_size: int
    real_span_size: int
    header_size: int
    blocks_per_span: int
    real_span_index: int


_LARGE_REAL_SPANS = {
    512: 68 * KB,
    1 * KB: 68 * KB,
    2 * KB: 132 * KB,
    4 * KB: 132 * KB,
    8 * KB: 260 * KB,
    16 * KB: 260 * KB,
    32 * KB: 516 * KB,
    64 * KB: 516 * KB,
    128 * KB: 1028 * KB,
    256 * KB: 1028 * KB,
    512 * KB: 1028 * KB,
    1024 * KB: 1028 * KB,
}


def _build_table():
    rows = []
    for i in range(16):
        block = 16 * (i + 1)
        rows.append((block, SMALL_REAL_SPAN, SMALL_HEADER_SIZE))
    block = 512
    while block <= MAX_CLASS_BLOCK:
        rows.append((block, _LARGE_REAL_SPANS[block], LARGE_HEADER_SIZE))
        block *= 2

    distinct = sorted({rs for _, rs, _ in rows})
    rs_index = {rs: i for i, rs in enumerate(distinct)}

    table = []
    for cid, (block, rs, header) in enumerate(rows):
        blocks = (rs - header) // block
        assert blocks >= 1
        table.append(SizeClass(cid, block, rs, header, blocks, rs_index[rs]))
    return tuple(table), tuple(distinct)


TABLE, REAL_SPAN_SIZES = _build_table()
NUM_CLASSES = len(TABLE)
NUM_REAL_SPAN_SIZES = len(REAL_SPAN_SIZES)


def class_for_size(request):
    """Smallest class whose block size covers `request`; HUGE above 1MB.

    Zero-size requests map to class 0 so they still get a unique,
    freeable address; a negative one is a ValueError.
    """
    if request <= MAX_SMALL_BLOCK:
        if request <= 16:
            if request < 0:
                raise ValueError(f"negative size {request}")
            return 0
        return (request + 15) // 16 - 1
    if request > MAX_CLASS_BLOCK:
        return HUGE
    # Next power of two, at least 512.
    npow = 1 << (request - 1).bit_length()
    return 16 + npow.bit_length() - 10


def geometry(class_id):
    return TABLE[class_id]


def dump_csv(fileobj=None):
    """Write the table as CSV for audits; returns the text."""
    out = fileobj or io.StringIO()
    out.write("class_id,block_size,real_span_size,header_size,"
              "blocks_per_span,real_span_index\n")
    for row in TABLE:
        out.write(f"{row.class_id},{row.block_size},{row.real_span_size},"
                  f"{row.header_size},{row.blocks_per_span},{row.real_span_index}\n")
    return out.getvalue() if fileobj is None else None
