"""Resilience knobs for the served query path.

A ``QueryServer``, and so each ``ElasticTier`` shard, retries a search that
raised an injected :class:`~repro.errors.FaultInjectionError` up to
``max_attempts`` times with exponential backoff, and bounds how often a
crashed worker's batch is re-queued by the same budget.  Both tiers shed a
request past the ``deadline`` (``ServeConfig.deadline``) with a typed
:class:`~repro.errors.QueryTimeoutError`.  A segment group whose fault
outlives its shard's retries costs an ``ElasticTier`` query only that
group: the query raises :class:`~repro.errors.PartialResultError` carrying
the partial.

The default policy is inert on a healthy server: no deadline, and retries
that never trigger without faults.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ClusterError

__all__ = ["ResiliencePolicy"]


@dataclass
class ResiliencePolicy:
    """Retry and deadline configuration for one query path."""

    #: Attempts per search (first try + retries).
    max_attempts: int = 3
    #: First retry waits this long (seconds); grows by ``backoff_multiplier``.
    backoff_base: float = 0.001
    backoff_multiplier: float = 2.0
    #: Per-query deadline in seconds (None disables).
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ClusterError("max_attempts must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        return self.backoff_base * self.backoff_multiplier**attempt
