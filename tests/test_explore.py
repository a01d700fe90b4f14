"""Tests for the schedule-exploring concurrency checker (repro.analysis.explore).

Covers the explorer's core guarantees: seeded schedules are deterministic,
failures replay byte-identically from their recorded choices, the toy
lost-update bug is found within a bounded budget, the serve-layer commit
race is re-discovered when its validation is disabled (and stays hidden
when enabled), true deadlocks are reported as such, and a condition wait
parks its worker until a notify (or, timed, until nothing else can run).
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import explore, sanitizer, scenarios
from repro.analysis.hooks import schedule_point
from repro.analysis.schedules import PCTSchedule, RandomSchedule, ReplaySchedule
from repro.analysis.sanitizer import SanitizedCondition, SanitizedLock
from repro.serve.tenancy import WeightedFairQueue


@pytest.fixture
def clean_sanitizer():
    """A fresh lock-order graph per test, and no violation left in it: the
    explored code's locks and conditions are recorded as they run.  A
    violation an earlier test recorded fails here rather than being reset
    away before the session's report can see it."""
    earlier = sanitizer.format_report() if sanitizer.violations() else ""
    assert not earlier, earlier
    sanitizer.reset()
    yield sanitizer
    found = sanitizer.format_report() if sanitizer.violations() else ""
    sanitizer.reset()
    assert not found, found


# ------------------------------------------------------------ determinism


def test_same_seed_reproduces_trace(clean_sanitizer):
    first = explore.run_schedule(
        scenarios.LostUpdateScenario(guarded=False), RandomSchedule(seed=5)
    )
    second = explore.run_schedule(
        scenarios.LostUpdateScenario(guarded=False), RandomSchedule(seed=5)
    )
    assert first.trace == second.trace
    assert first.choices == second.choices
    assert first.ok == second.ok
    assert first.failure == second.failure


def test_pct_schedule_is_deterministic():
    runnables = [(0, 1), (0, 1), (0, 1), (0, 1), (0, 1)]
    a = PCTSchedule(seed=9)
    b = PCTSchedule(seed=9)
    assert [a.pick(r, i) for i, r in enumerate(runnables)] == [
        b.pick(r, i) for i, r in enumerate(runnables)
    ]


def test_replay_schedule_follows_choices():
    sched = ReplaySchedule([1, 0, 1])
    assert sched.pick((0, 1), 0) == 1
    assert sched.pick((0, 1), 1) == 0
    assert sched.pick((0, 1), 2) == 1
    # past the recorded prefix: lowest runnable wins
    assert sched.pick((0, 1), 3) == 0


# ------------------------------------------------------- toy lost update


def test_toy_lost_update_found_exhaustively(clean_sanitizer):
    result = explore.explore_exhaustive(
        lambda: scenarios.LostUpdateScenario(guarded=False),
        max_decisions=8,
        max_schedules=64,
    )
    assert result.found, "bounded-exhaustive search must find the lost update"
    assert result.schedules_run <= 64
    assert result.failure.failure_kind == "check"
    assert "lost update" in result.failure.failure


def test_failure_replays_byte_identically(clean_sanitizer):
    found = explore.explore_exhaustive(
        lambda: scenarios.LostUpdateScenario(guarded=False),
        max_decisions=8,
        max_schedules=64,
    )
    assert found.found
    replayed = explore.replay(
        scenarios.LostUpdateScenario(guarded=False), found.failure.choices
    )
    assert not replayed.ok
    assert replayed.trace == found.failure.trace
    assert replayed.failure == found.failure.failure
    assert replayed.render_trace().splitlines()[1:] == (
        found.failure.render_trace().splitlines()[1:]
    )


def test_guarded_toy_stays_clean(clean_sanitizer):
    result = explore.explore_exhaustive(
        lambda: scenarios.LostUpdateScenario(guarded=True),
        max_decisions=8,
        max_schedules=64,
    )
    assert not result.found, result.summary()


# ------------------------------------------------- serve commit race


def test_commit_race_found_when_validation_disabled(clean_sanitizer):
    result = explore.explore_random(
        lambda: scenarios.CommitVsCachedSearch(validate=False),
        seeds=range(256),
        make_schedule=PCTSchedule,
    )
    assert result.found, "explorer lost coverage of the commit/watermark race"
    assert result.failure.failure_kind == "check"
    assert "cache poisoned" in result.failure.failure
    # the failing schedule must replay to the same verdict
    replayed = explore.replay(
        scenarios.CommitVsCachedSearch(validate=False), result.failure.choices
    )
    assert not replayed.ok
    assert replayed.failure == result.failure.failure


def test_commit_race_hidden_by_validation(clean_sanitizer):
    result = explore.explore_random(
        lambda: scenarios.CommitVsCachedSearch(validate=True),
        seeds=range(32),
        make_schedule=PCTSchedule,
    )
    assert not result.found, result.summary()


# ------------------------------------------------------------- deadlock


class _ABBADeadlock(explore.Scenario):
    name = "abba-deadlock"
    threads = 2

    def setup(self):
        state = scenarios._Box()
        state.lock_a = SanitizedLock(name="toy.deadlock.a")
        state.lock_b = SanitizedLock(name="toy.deadlock.b")
        return state

    def worker(self, state, index: int) -> None:
        first, second = (
            (state.lock_a, state.lock_b) if index == 0 else (state.lock_b, state.lock_a)
        )
        with first:
            with second:
                pass


def test_abba_deadlock_detected(clean_sanitizer):
    result = explore.explore_exhaustive(
        lambda: _ABBADeadlock(), max_decisions=8, max_schedules=64
    )
    assert result.found
    assert result.failure.failure_kind == "deadlock"
    assert "deadlock" in result.failure.failure
    # The sanitizer records the same inversion: it is this test's subject.
    kinds = [violation.kind for violation in clean_sanitizer.violations()]
    assert kinds == ["lock-order-inversion"]
    clean_sanitizer.reset()


# ------------------------------------------------------------ conditions


class _Handoff(explore.Scenario):
    """Worker 0 sets a flag and notifies; worker 1 waits for it, untimed.

    With ``predicate_loop=False`` the waiter waits once without looking at
    the flag: a notify that lands first is lost and the waiter never wakes.
    """

    def __init__(self, predicate_loop: bool = True):
        self.predicate_loop = predicate_loop
        self.name = "handoff" + ("" if predicate_loop else "-lost-wakeup")

    def setup(self):
        state = scenarios._Box()
        state.cond = SanitizedCondition(SanitizedLock(name="toy.handoff.lock"))
        state.ready = False
        state.seen = None
        return state

    def worker(self, state, index: int) -> None:
        with state.cond:
            if index == 0:
                state.ready = True
                state.cond.notify()
                return
            if self.predicate_loop:
                while not state.ready:
                    state.cond.wait()
            else:
                state.cond.wait()
            state.seen = state.ready

    def check(self, state) -> None:
        assert state.seen, "the waiter returned without seeing the flag"


def test_untimed_handoff_stays_clean_exhaustively(clean_sanitizer):
    result = explore.explore_exhaustive(
        lambda: _Handoff(), max_decisions=12, max_schedules=64
    )
    assert not result.found, result.summary()
    assert result.schedules_run > 1  # notify-first and wait-first both ran


def test_lost_wakeup_is_reported_as_deadlock(clean_sanitizer):
    result = explore.explore_exhaustive(
        lambda: _Handoff(predicate_loop=False), max_decisions=12, max_schedules=64
    )
    assert result.found
    assert result.failure.failure_kind == "deadlock"
    assert "w1 waiting" in result.failure.failure


class _TimedWaitAlone(explore.Scenario):
    name = "timed-wait-alone"
    threads = 1

    def setup(self):
        state = scenarios._Box()
        state.cond = SanitizedCondition(SanitizedLock(name="toy.timed.lock"))
        state.returned = None
        return state

    def worker(self, state, index: int) -> None:
        with state.cond:
            state.returned = state.cond.wait(timeout=30.0)

    def check(self, state) -> None:
        assert state.returned is False, f"wait returned {state.returned!r}"


def test_unnotified_timed_wait_times_out_without_sleeping(clean_sanitizer):
    started = time.monotonic()
    result = explore.run_schedule(_TimedWaitAlone(), ReplaySchedule())
    assert result.ok, result.failure
    assert time.monotonic() - started < 5.0  # the wait's 30 s never passed


def test_condition_wait_and_notify_need_the_lock():
    cond = SanitizedCondition(SanitizedLock(name="toy.unowned.lock"))
    with pytest.raises(RuntimeError):
        cond.wait(timeout=0)
    with pytest.raises(RuntimeError):
        cond.notify()


class _UnownedWait(explore.Scenario):
    """Worker 1 waits on a condition whose lock worker 0 may be holding: the
    wait must refuse, not release the other worker's lock."""

    name = "unowned-wait"

    def setup(self):
        state = scenarios._Box()
        state.cond = SanitizedCondition(SanitizedLock(name="toy.unowned.lock"))
        state.raised = None
        return state

    def worker(self, state, index: int) -> None:
        if index == 0:
            with state.cond:
                schedule_point("toy.held")
            return
        try:
            state.cond.wait(timeout=30.0)
        except RuntimeError as error:
            state.raised = error

    def check(self, state) -> None:
        assert state.raised is not None, "a wait without the lock went ahead"


def test_controlled_wait_without_the_lock_raises(clean_sanitizer):
    result = explore.explore_exhaustive(
        lambda: _UnownedWait(), max_decisions=12, max_schedules=64
    )
    assert not result.found, result.summary()


class _ReentrantHandoff(_Handoff):
    """The waiter holds a reentrant lock twice when it waits: the wait must
    release both levels, or the notifier never gets the lock."""

    def __init__(self):
        super().__init__()
        self.name = "reentrant-handoff"

    def setup(self):
        state = super().setup()
        state.cond = SanitizedCondition(
            SanitizedLock(name="toy.reentrant.lock", reentrant=True)
        )
        return state

    def worker(self, state, index: int) -> None:
        with state.cond:
            super().worker(state, index)


def test_wait_releases_every_level_of_a_reentrant_lock(clean_sanitizer):
    result = explore.explore_exhaustive(
        lambda: _ReentrantHandoff(), max_decisions=12, max_schedules=64
    )
    assert not result.found, result.summary()


def test_batcher_row_waits_for_puts_and_is_woken_by_them(clean_sanitizer, monkeypatch):
    woken = []
    wait_for_put = WeightedFairQueue.wait_for_put

    def recording(queue, since, timeout):
        sequence = wait_for_put(queue, since, timeout)
        woken.append(queue.put_sequence() > since)
        return sequence

    monkeypatch.setattr(WeightedFairQueue, "wait_for_put", recording)
    spec = next(s for s in scenarios.MATRIX if s.name == "batcher-vs-window")
    result = explore.explore_random(
        spec.factory, seeds=range(spec.strategy[1]), make_schedule=RandomSchedule
    )
    assert not result.found, result.summary()
    assert woken, "no schedule reached the collection window's wait"
    assert all(woken), "a window wait ended by its timeout, not by a put"


def test_rebalance_twin_failure_replays_byte_identically(clean_sanitizer):
    found = explore.explore_random(
        lambda: scenarios.RebalanceVsSearch(validate=False),
        seeds=range(256),
        make_schedule=PCTSchedule,
    )
    assert found.found, "explorer lost coverage of the undrained handoff"
    assert "refused mid-flight" in found.failure.failure
    replayed = explore.replay(
        scenarios.RebalanceVsSearch(validate=False), found.failure.choices
    )
    assert not replayed.ok
    assert replayed.trace == found.failure.trace
    assert replayed.failure == found.failure.failure


# ------------------------------------------------------- matrix sanity


def test_matrix_names_unique_and_resolvable():
    names = scenarios.scenario_names()
    assert len(names) == len(set(names))
    for name in names:
        assert scenarios.make_scenario(name).name == name
    with pytest.raises(KeyError):
        scenarios.make_scenario("no-such-scenario")


def test_vacuum_vs_search_stays_clean(clean_sanitizer):
    result = explore.explore_random(
        lambda: scenarios.VacuumVsSearch(),
        seeds=range(12),
        make_schedule=PCTSchedule,
    )
    assert not result.found, result.summary()
