"""Dynamic micro-batching: coalesce compatible requests into one scan.

After a worker dequeues a batchable request (the *leader*), it drains the
queue fronts with the same batch key — identical attribute set and k; no
filter; default ``ef``; full-access tenant — and then waits only while
arrivals keep coming.  Batching is work-conserving: under load the backlog
that built up while the workers were busy *is* the batch, and at low load
nobody waits.

- A leader that finds nothing compatible queued executes at once.
- With riders in hand, the wait for the next one is bounded by the cadence
  the batch itself shows: the submit-time span of the requests in hand
  divided by the riders, times :data:`QUIET_GAPS`, past the last arrival.
  A burst still being submitted is collected whole; a burst that has ended
  costs a few of its own inter-arrival gaps, not a fixed window.
- ``window_seconds`` stays the hard cap on the whole collection, a full
  batch closes at once, and a request in hand that is due before the wait
  would end closes the batch *now* — waiting up to a deadline only turns
  the request into a timeout.

Re-scans are driven by the queue's put counter, so fronts are only
re-examined after a *new arrival* — incompatible arrivals cost one blocking
wait each, never a spin.

The fused batch then runs through
:func:`repro.core.search.vector_search_batch`, which visits each segment
once for all queries with the exact batch scan (recall never drops below
the per-query HNSW path); batches below the server's ``MIN_FUSED`` execute
per-query anyway.  An explicit-``ef`` request has no batch key: only a
per-query traversal honours its accuracy contract, so it would wait here
for riders it cannot share work with.
"""

from __future__ import annotations

import time

from ..telemetry import get_telemetry
from .tenancy import WeightedFairQueue

__all__ = ["MicroBatcher"]

#: How many of the batch's own mean inter-arrival gaps may pass after the
#: last arrival before the batch closes as quiet.
QUIET_GAPS = 4.0


class MicroBatcher:
    """Collect same-key requests from the queue while they keep arriving."""

    def __init__(
        self,
        queue: WeightedFairQueue,
        window_seconds: float = 0.002,
        max_batch: int = 32,
    ):
        self.queue = queue
        self.window_seconds = float(window_seconds)
        self.max_batch = int(max_batch)

    def collect(self, leader) -> list:
        """The leader plus the compatible requests queued or still arriving."""
        batch = [leader]
        key = leader.batch_key()
        if key is None or self.max_batch <= 1:
            return batch
        started = time.monotonic()
        cap = started + self.window_seconds
        # Arrival times and the earliest deadline of the requests in hand.
        first = last = leader.submitted_at
        due = leader.deadline
        waited = 0.0
        while True:
            # Read the arrival counter BEFORE draining: a put landing
            # between the drain and the wait then wakes the wait
            # immediately instead of being missed for a whole slice.
            seen = self.queue.put_sequence()
            matched = self.queue.drain_matching(
                lambda request: request.batch_key() == key,
                self.max_batch - len(batch),
            )
            batch.extend(matched)
            now = time.monotonic()
            if len(batch) >= self.max_batch:
                reason = "full"
                break
            if len(batch) == 1:
                reason = "lone"
                break
            for request in matched:
                first = min(first, request.submitted_at)
                last = max(last, request.submitted_at)
                deadline = request.deadline
                if deadline is not None and (due is None or deadline < due):
                    due = deadline
            quiet_at = last + QUIET_GAPS * (last - first) / (len(batch) - 1)
            until = min(quiet_at, cap)
            if due is not None and due <= until:
                reason = "deadline"
                break
            if now >= until:
                reason = "quiet" if quiet_at < cap else "cap"
                break
            self.queue.wait_for_put(seen, until - now)
            waited += time.monotonic() - now
            if self.queue.closed:  # nothing more can arrive; do not spin
                reason = "quiet"
                break
        tel = get_telemetry()
        tel.observe("serve.batch_wait_seconds", waited)
        tel.inc("serve.batch_close_" + reason)
        return batch
