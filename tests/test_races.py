"""Every schedule of each race scenario in scenarios.py, within its
preemption bound, keeps the heap; test_frontend.py replays the schedules
the hand-held race tests used to force."""

import pytest

import scenarios
from explore import explore, replay


@pytest.mark.parametrize("build", [
    scenarios.retire_race, scenarios.terminate_race, scenarios.late_put,
    scenarios.late_take, scenarios.late_float,
    scenarios.marking_vs_termination,
    scenarios.marking_vs_termination_and_push,
    pytest.param(scenarios.marking_vs_reuse, marks=pytest.mark.xfail(
        strict=True, reason="leak 3: [0] * 2 + [2] leaves LAB 0's free "
        "a stale floating snapshot, and its marking CAS fails")),
    scenarios.adoption_in_the_next_life, scenarios.last_free_vs_adoption,
    scenarios.push_vs_drain,
], ids=lambda build: build.__name__)
def test_every_schedule_keeps_the_heap(build):
    assert explore(build) > 1


@pytest.mark.xfail(strict=True, reason="the hot-snapshot leak: a free that "
                   "read a hot epoch does no state work after its push")
def test_remote_free_from_a_hot_snapshot_leaves_no_empty_floating_span():
    # The remote free reads the hot epoch and the remote word; the owner's
    # malloc exhausts the span, skips the drain and floats it; the push
    # lands.
    replay(scenarios.hot_snapshot, [1, 1, 0])
