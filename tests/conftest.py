import pytest

from helpers import make_allocator


@pytest.fixture
def alloc():
    return make_allocator()


@pytest.fixture
def traced_alloc():
    return make_allocator(trace_transitions=True, instrument=True)
