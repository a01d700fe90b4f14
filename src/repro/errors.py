"""Exception hierarchy for the TigerVector reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch a single base class.  The hierarchy mirrors the subsystems: schema
and catalog errors, GSQL compilation errors (lexing, parsing, semantic
analysis), transaction errors, and vector-search errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """Invalid schema definition or catalog operation (e.g. duplicate type)."""


class UnknownTypeError(SchemaError):
    """A vertex/edge/attribute type referenced in a query does not exist."""


class EmbeddingCompatibilityError(SchemaError):
    """Embedding attributes mixed in one search are not compatible.

    Raised by the static analysis described in Sec. 4.1 of the paper: all
    metadata except the index type must match, otherwise the query is
    rejected with a semantic error.
    """


class GSQLError(ReproError):
    """Base class for GSQL compilation errors."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class GSQLLexError(GSQLError):
    """Unrecognized character or malformed token in GSQL source."""


class GSQLParseError(GSQLError):
    """GSQL source does not match the grammar."""


class GSQLSemanticError(GSQLError):
    """GSQL source is grammatical but semantically invalid."""


class TransactionError(ReproError):
    """Transaction lifecycle violation (e.g. write after commit)."""


class VectorSearchError(ReproError):
    """Invalid vector-search request (bad k, dimension mismatch, ...)."""


class DimensionMismatchError(VectorSearchError):
    """Query vector dimensionality does not match the embedding attribute."""


class LoadingError(ReproError):
    """Data loading job failure (bad file, malformed row, ...)."""


class ClusterError(ReproError):
    """Simulated-cluster configuration or routing failure."""


class QueryTimeoutError(ReproError):
    """A served request was dequeued past its deadline.

    Raised by :meth:`QueryServer._shed_expired
    <repro.serve.server.QueryServer._shed_expired>` when a worker takes a
    request whose deadline (the call's ``timeout``, else
    ``ServeConfig.default_timeout``) has passed, so a stalled or
    crash-looping pool fails the request typed instead of answering it
    late.  An elastic shard sheds a routed query's sub-request the same
    way, and :meth:`ElasticTier.search <repro.elastic.ElasticTier.search>`
    raises the shard's error.  ``deadline`` is the request's budget in
    seconds and ``elapsed`` how long it had waited.
    """

    def __init__(self, message: str, deadline: float | None = None, elapsed: float | None = None):
        super().__init__(message)
        self.deadline = deadline
        self.elapsed = elapsed


class PartialResultError(ReproError):
    """A query could only be answered for a strict subset of segments.

    Raised by :meth:`~repro.elastic.ElasticTier.search` when a segment
    group's search failed past its shard's retries (``coverage`` = answered
    / routed groups).  Carries the coverage and, when available, the
    partial result so callers can still use the degraded answer.
    """

    def __init__(self, message: str, coverage: float = 0.0, result=None):
        super().__init__(message)
        self.coverage = coverage
        self.result = result


class FaultInjectionError(ReproError):
    """An error deliberately injected by the fault harness (``repro.faults``).

    Models a transient worker-side failure: a segment search raising.  The
    served query path treats it like any real per-segment failure: the
    serving shard retries with backoff, and the router re-sends a
    multi-group sub-request one group at a time.
    """


class SimulatedCrash(FaultInjectionError):
    """An injected process crash (mid-commit, torn WAL write, ...).

    Unlike :class:`FaultInjectionError` this is *not* retried: it marks the
    point where the simulated process dies.  Tests abandon the in-memory
    instance and exercise WAL recovery into a fresh store.
    """


class ServeError(ReproError):
    """Query-serving layer failure (``repro.serve``)."""


class AdmissionRejectedError(ServeError):
    """A request was shed by admission control before execution.

    Raised at submit time when the server's bounded queue is already at
    ``max_queue_depth`` (``reason='queue_full'``), when the tenant's token
    bucket is empty (:class:`RateLimitedError`), or when the server is
    shutting down (``reason='shutdown'``).  Shedding at the door keeps queue
    wait bounded under overload instead of letting every request time out.
    """

    def __init__(self, message: str, reason: str = "queue_full"):
        super().__init__(message)
        self.reason = reason


class RateLimitedError(AdmissionRejectedError):
    """A tenant exceeded its token-bucket rate limit."""

    def __init__(self, message: str):
        super().__init__(message, reason="rate_limited")


class StalenessBoundError(ServeError):
    """A request's freshness contract could not be met in time.

    Raised by :func:`~repro.serve.server.freshness_gate` when a request
    carries ``max_staleness`` (maximum tolerated watermark-TID lag of the
    pinned snapshot) or a read-your-writes ``session_token`` (a commit TID
    the serving snapshot must cover), and no fresh-enough snapshot became
    available within the wait budget.  The failure is *typed and fast* by
    design: a client that cannot be served fresh data learns so immediately
    instead of silently receiving a stale answer.

    ``lag`` is the observed watermark lag at rejection time, ``session_token``
    / ``snapshot_tid`` describe a token violation, and ``waited`` is how long
    the worker retried before giving up.
    """

    def __init__(
        self,
        message: str,
        max_staleness: int | None = None,
        lag: int | None = None,
        session_token: int | None = None,
        snapshot_tid: int | None = None,
        waited: float = 0.0,
    ):
        super().__init__(message)
        self.max_staleness = max_staleness
        self.lag = lag
        self.session_token = session_token
        self.snapshot_tid = snapshot_tid
        self.waited = waited


class ElasticError(ServeError):
    """Elastic serve-tier failure (``repro.elastic``): ring, routing,
    rebalancing, or membership misconfiguration."""


class SegmentOwnershipError(ElasticError):
    """A shard was asked to serve a segment group it does not own.

    Raised by :class:`~repro.elastic.shard.ShardServer` when a routed
    sub-request reaches execution after the group's ownership moved away —
    the hazard the rebalancer's watermark-drain handoff exists to prevent
    (new requests gate at the router, in-flight requests drain before the
    transfer).  The router treats it as retryable: it re-resolves the
    owner from the ring and re-dispatches, so a losing race costs one
    retry, never a failed query.
    """

    def __init__(self, message: str, tenant: str | None = None, group: int | None = None):
        super().__init__(message)
        self.tenant = tenant
        self.group = group


class WALCorruptionError(ReproError):
    """The write-ahead log contains a corrupt record that is not a torn tail.

    A torn *final* record (crash mid-append) is expected under the fault
    model and is tolerated/truncated by replay; a malformed record in the
    middle of the log means the durable history itself is damaged and replay
    refuses to guess.
    """


class ExplorationError(ReproError):
    """The interleaving explorer could not make scheduling progress.

    Raised for scheduler stalls (a controlled thread blocked on something
    the explorer cannot see) and runaway schedules that exceed the step
    budget — infrastructure failures, as opposed to a scenario invariant
    violation, which surfaces as the scenario's own exception inside a
    :class:`repro.analysis.explore.RunResult`.
    """


class UnownedLockError(ReproError, RuntimeError):
    """A condition wait by a thread not holding the condition's lock: the
    ``RuntimeError`` ``threading.Condition`` raises, as a typed failure."""
