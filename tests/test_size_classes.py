from hypothesis import given, strategies as st

from spanalloc.size_classes import (
    HUGE, NUM_CLASSES, NUM_REAL_SPAN_SIZES, REAL_SPAN_SIZES, TABLE,
    class_for_size, dump_csv, geometry,
)

MAX_CLASS = 1 << 20


def packed_blocks(block_size, real_span_size, header_size):
    """Brute-force packer: place the header, then count whole blocks."""
    cursor = header_size
    count = 0
    while cursor + block_size <= real_span_size:
        count += 1
        cursor += block_size
    return count


def test_table_shape():
    assert NUM_CLASSES == 28
    assert NUM_REAL_SPAN_SIZES == 6
    assert REAL_SPAN_SIZES == (32768, 69632, 135168, 266240, 528384, 1052672)


def test_small_classes_share_one_real_span():
    for row in TABLE[:16]:
        assert row.block_size == 16 * (row.class_id + 1)
        assert row.real_span_size == 32768
        assert row.real_span_index == 0
        assert row.header_size == 256


def test_large_classes_are_powers_of_two():
    for row in TABLE[16:]:
        assert row.block_size & (row.block_size - 1) == 0
        assert row.header_size == 4096
        # Large spans must survive the decommit threshold strictly.
        assert row.real_span_size > 32768


def test_real_span_sizes_page_multiple_and_capped():
    for row in TABLE:
        assert row.real_span_size % 4096 == 0
        assert row.real_span_size <= 2 * 1024 * 1024


def test_brute_force_packer_audits_whole_table():
    for row in TABLE:
        expected = packed_blocks(row.block_size, row.real_span_size,
                                 row.header_size)
        assert row.blocks_per_span == expected, row
        assert expected >= 1


def test_known_block_counts():
    assert geometry(15).block_size == 256
    assert geometry(15).blocks_per_span == 127
    g64 = geometry(class_for_size(64))
    assert g64.real_span_size == 32768
    assert g64.blocks_per_span == (32768 - 256) // 64 == 508
    assert geometry(27).block_size == 1 << 20
    assert geometry(27).blocks_per_span == 1
    # Largest per-span block count bounds the 16-bit remote counter.
    assert max(r.blocks_per_span for r in TABLE) == 2032 < (1 << 16)


def test_class_for_size_examples():
    assert TABLE[class_for_size(64)].block_size == 64
    assert class_for_size(16) == 0
    assert class_for_size(0) == 0
    assert class_for_size(MAX_CLASS) == 27
    assert class_for_size(MAX_CLASS + 1) == HUGE
    assert TABLE[class_for_size(100)].block_size == 112


def test_round_trip_every_class():
    for row in TABLE:
        assert class_for_size(row.block_size) == row.class_id


@given(st.integers(min_value=0, max_value=MAX_CLASS))
def test_class_covers_request(request):
    sc = class_for_size(request)
    assert sc != HUGE
    assert TABLE[sc].block_size >= request


@given(st.integers(min_value=17, max_value=MAX_CLASS))
def test_waste_bound_under_50_percent(request):
    assert TABLE[class_for_size(request)].block_size < 2 * request


@given(st.integers(min_value=0, max_value=MAX_CLASS - 1))
def test_class_for_size_monotone(request):
    assert class_for_size(request) <= class_for_size(request + 1)


def test_real_span_index():
    for row in TABLE:
        assert row.real_span_index \
            == REAL_SPAN_SIZES.index(row.real_span_size)
    assert TABLE[0].real_span_index == 0
    assert TABLE[class_for_size(512)].real_span_index \
        == TABLE[class_for_size(1024)].real_span_index
    assert len({r.real_span_index for r in TABLE}) == NUM_REAL_SPAN_SIZES


def test_dump_csv():
    text = dump_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("class_id,")
    assert len(lines) == 1 + NUM_CLASSES
    assert lines[16].split(",")[1] == "256"   # class 15 row
