"""Every schedule of each race scenario in scenarios.py, within its
preemption bound, keeps the heap, and so does each seeded schedule of
an inbox churn; test_frontend.py replays the schedules the hand-held
race tests used to force."""

from functools import partial

import pytest

import scenarios
from explore import explore, sample
from scenarios import LARGE_SIZES, SMALL_SIZES
from spanalloc.config import CLAB


@pytest.mark.parametrize("build", [
    scenarios.retire_race, scenarios.terminate_race, scenarios.late_put,
    scenarios.late_take, scenarios.late_float,
    scenarios.marking_vs_own_last_free, scenarios.marking_vs_termination,
    scenarios.marking_vs_termination_and_push, scenarios.marking_vs_reuse,
    scenarios.adoption_in_the_next_life, scenarios.last_free_vs_adoption,
    scenarios.hot_snapshot, scenarios.float_vs_crossing_push,
    scenarios.push_vs_drain,
], ids=lambda build: build.__name__)
def test_every_schedule_keeps_the_heap(build):
    assert explore(build) > 1


@pytest.mark.parametrize("build", [
    scenarios.hot_snapshot, scenarios.terminate_race, scenarios.late_float,
    scenarios.marking_vs_reuse,
], ids=lambda build: build.__name__)
def test_every_schedule_keeps_the_heap_under_lazy_reclamation(build):
    # No free retires a span here: floats, terminations and the
    # allocation slow path do.
    assert explore(partial(build, eager_reclaim=False)) > 1


@pytest.mark.parametrize("threads, ops, sizes, seeds, config", [
    pytest.param(8, 2000, SMALL_SIZES, 10, {}, id="tlab-small"),
    pytest.param(4, 500, LARGE_SIZES, 40, {}, id="tlab-large"),
    pytest.param(4, 500, LARGE_SIZES, 20, {"lab_mode": CLAB},
                 id="clab-large"),
    pytest.param(4, 500, LARGE_SIZES, 20, {"eager_reclaim": False},
                 id="lazy-large"),
])
def test_seeded_inbox_churn_keeps_the_heap(threads, ops, sizes, seeds,
                                           config):
    build = partial(scenarios.inbox_churn, threads, ops, sizes, **config)
    assert sample(build, range(seeds)) == seeds
