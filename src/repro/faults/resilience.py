"""Resilience knobs for the distributed query path.

:class:`ResiliencePolicy` bundles the countermeasures the cluster model
(:class:`~repro.cluster.coordinator.ClusterSimulator`) threads through every
simulated request.  The serve tier reads only the retry budget
(``max_attempts``, backoff) and ``deadline``: a ``QueryServer``, and so each
``ElasticTier`` shard, retries an injected fault, and both tiers shed a
request past the deadline (``ServeConfig.deadline``).

- per-segment-job **retry** with exponential backoff, failing over across
  replica holders (paper Sec. 4.2: replicas make high availability
  straightforward — this is the code that cashes that claim);
- **hedged** duplicate dispatch once a machine's projected response exceeds
  ``hedge_after`` seconds, the classic tail-tolerance move for stragglers;
- a per-query **deadline** converting unbounded waits into
  :class:`~repro.errors.QueryTimeoutError`;
- **degraded mode** (``allow_partial``) returning partial top-k with an
  explicit ``coverage`` — the fraction of requested segments that answered —
  instead of failing the whole query.  A simulator option only: the served
  ``ElasticTier`` has no such switch, and answers a lost segment group with
  :class:`~repro.errors.PartialResultError` carrying the partial;
- a per-machine **circuit breaker** quarantining repeat offenders so retry
  traffic stops hammering a dead machine, with half-open probes for
  re-admission after ``breaker_cooldown``.

The default policy is inert on a healthy cluster: no deadline, no hedging,
and retries that never trigger without faults, so the resilient path is
numerically identical to the legacy one when nothing goes wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ClusterError
from ..telemetry import get_telemetry

__all__ = ["CircuitBreaker", "ResiliencePolicy"]


@dataclass
class ResiliencePolicy:
    """Retry/hedging/deadline/partial-result configuration for one query path."""

    #: Attempts per segment job (first try + retries), spread across replicas.
    max_attempts: int = 3
    #: First retry waits this long (seconds); grows by ``backoff_multiplier``.
    backoff_base: float = 0.001
    backoff_multiplier: float = 2.0
    #: Dispatch a duplicate to another replica once a machine's projected
    #: response lags the dispatch by this many seconds (None disables).
    hedge_after: float | None = None
    #: Per-query deadline in seconds (None disables).
    deadline: float | None = None
    #: Degraded mode (simulator only): return partial top-k with
    #: ``coverage < 1`` instead of raising when segments are unrecoverable or
    #: miss the deadline.  ``ElasticTier`` ignores it: a lost group there is
    #: always a PartialResultError carrying the partial.
    allow_partial: bool = False
    #: Even in degraded mode, coverage below this raises PartialResultError
    #: (simulator only, like ``allow_partial``).
    min_coverage: float = 0.0
    #: Consecutive failures that open a machine's circuit.
    breaker_threshold: int = 3
    #: How long an open circuit rejects a machine before a half-open probe,
    #: in the cluster simulator's simulated seconds.
    breaker_cooldown: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ClusterError("max_attempts must be >= 1")
        if not 0.0 <= self.min_coverage <= 1.0:
            raise ClusterError("min_coverage must be in [0, 1]")

    def backoff(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        return self.backoff_base * self.backoff_multiplier**attempt


class CircuitBreaker:
    """Per-machine failure quarantine with half-open re-admission.

    Closed -> (``threshold`` consecutive failures) -> open -> (after
    ``cooldown`` on the caller's clock) -> half-open probe -> closed on
    success, re-open on failure.  Single-threaded by design: it lives inside
    one simulated coordinator, never shared across threads.
    """

    _CLOSED, _OPEN, _HALF_OPEN = "closed", "open", "half-open"

    def __init__(self, threshold: int = 3, cooldown: float = 1.0):
        if threshold < 1:
            raise ClusterError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self._failures: dict[int, int] = {}
        self._state: dict[int, str] = {}
        self._opened_at: dict[int, float] = {}

    def state(self, machine_id: int) -> str:
        return self._state.get(machine_id, self._CLOSED)

    def allow(self, machine_id: int, now: float) -> bool:
        """May this machine receive work at time ``now``?"""
        state = self.state(machine_id)
        if state == self._CLOSED or state == self._HALF_OPEN:
            return True
        if now >= self._opened_at[machine_id] + self.cooldown:
            self._state[machine_id] = self._HALF_OPEN
            get_telemetry().inc("resilience.breaker_half_open")
            return True
        return False

    def record_failure(self, machine_id: int, now: float) -> bool:
        """Count a failure; returns True when this newly opens the circuit."""
        if self.state(machine_id) == self._HALF_OPEN:
            # Failed probe: straight back to open with a fresh cooldown.
            self._state[machine_id] = self._OPEN
            self._opened_at[machine_id] = now
            get_telemetry().inc("resilience.breaker_open")
            return True
        count = self._failures.get(machine_id, 0) + 1
        self._failures[machine_id] = count
        if count >= self.threshold and self.state(machine_id) == self._CLOSED:
            self._state[machine_id] = self._OPEN
            self._opened_at[machine_id] = now
            get_telemetry().inc("resilience.breaker_open")
            return True
        return False

    def record_success(self, machine_id: int) -> None:
        """A completed job closes the circuit and clears the failure streak."""
        self._failures.pop(machine_id, None)
        previous = self._state.pop(machine_id, None)
        self._opened_at.pop(machine_id, None)
        if previous == self._HALF_OPEN:
            get_telemetry().inc("resilience.breaker_close")

    def reset(self, machine_id: int | None = None) -> None:
        """Forget state for one machine (explicit re-admission) or all."""
        if machine_id is None:
            self._failures.clear()
            self._state.clear()
            self._opened_at.clear()
        else:
            self.record_success(machine_id)

    def open_machines(self) -> list[int]:
        return sorted(m for m, s in self._state.items() if s == self._OPEN)
