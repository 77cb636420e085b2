"""Every schedule of each race scenario in scenarios.py, within its
preemption bound, keeps the heap; test_frontend.py replays the schedules
the hand-held race tests used to force."""

from functools import partial

import pytest

import scenarios
from explore import explore


@pytest.mark.parametrize("build", [
    scenarios.retire_race, scenarios.terminate_race, scenarios.late_put,
    scenarios.late_take, scenarios.late_float,
    scenarios.marking_vs_own_last_free, scenarios.marking_vs_termination,
    scenarios.marking_vs_termination_and_push, scenarios.marking_vs_reuse,
    scenarios.adoption_in_the_next_life, scenarios.last_free_vs_adoption,
    scenarios.hot_snapshot, scenarios.push_vs_drain,
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
