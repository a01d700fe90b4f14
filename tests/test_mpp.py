"""Tests for the segment fan-out rule, :func:`repro.core.action.map`.

MPP is the paper's name for TigerGraph's segment-parallel execution
(Sec. 2.1); here a segment step goes to the one shared pool only when it is
GIL-releasing NumPy work large enough to repay the hand-off (DESIGN §9.6).
"""

import threading

import pytest

from repro.core import action
from repro.core.action import HANDOFF_WORK


@pytest.fixture
def workers(monkeypatch):
    """Size a fresh shared pool; it is shut down after the test."""

    def size(count: int) -> None:
        monkeypatch.setattr(action, "WORKERS", count)
        monkeypatch.setattr(action, "_POOL", None)

    yield size
    if action._POOL is not None:
        action._POOL.shutdown(wait=True)


def where(item):
    return item, threading.current_thread().name


class TestExecutor:
    def test_map_pools_only_work_above_the_handoff_cost(self, workers):
        """The fan-out rule: an item goes to the pool only when its estimated
        GIL-releasing work exceeds HANDOFF_WORK; everything else — steps that
        hold the GIL (work 0) and small scans — runs in the caller's thread."""
        workers(2)
        caller = threading.current_thread().name
        work = [0, HANDOFF_WORK + 1, HANDOFF_WORK, HANDOFF_WORK + 1]
        out = action.map(where, "abcd", work)
        assert [item for item, _ in out] == list("abcd")
        assert [name == caller for _, name in out] == [True, False, True, False]
        assert all(name.startswith("segment") for _, name in out[1::2])

    def test_map_never_pools_a_lone_item_or_on_one_worker(self, workers):
        caller = threading.current_thread().name
        workers(2)
        assert action.map(where, "a", [HANDOFF_WORK + 1]) == [("a", caller)]
        assert action._POOL is None
        workers(1)
        out = action.map(where, "abcd", [HANDOFF_WORK + 1] * 4)
        assert all(name == caller for _, name in out)
        assert action._POOL is None

    def test_map_raises_a_pooled_failure(self, workers):
        workers(2)

        def boom(item):
            raise ValueError(item)

        with pytest.raises(ValueError):
            action.map(boom, "ab", [HANDOFF_WORK + 1, HANDOFF_WORK + 1])
        assert action._POOL is not None
