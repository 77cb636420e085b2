import pytest
from hypothesis import settings

from helpers import make_allocator

# The property tests draw the same examples on every run: no random
# seed and no example database carried between runs.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def alloc():
    return make_allocator()


@pytest.fixture
def traced_alloc():
    return make_allocator(instrument=True)
