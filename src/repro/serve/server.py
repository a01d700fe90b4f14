"""The concurrent multi-tenant query server.

Request lifecycle::

    submit -> admission (bounded queue, token bucket)      [typed shed]
           -> weighted-fair queue                           [per-tenant]
           -> worker dequeue -> deadline check              [typed timeout]
           -> micro-batch collection (batcher.py)
           -> snapshot pin (freshness_gate: watermarks, pin, validate)
           -> result cache lookup (cache.py, MVCC-watermark keys)
           -> fused batch scan or per-query VectorSearch on that snapshot
           -> future completion + telemetry

Correctness contracts:

- **Byte identity**: with batching and caching disabled, every answer is
  produced by the same ``vector_search_merged`` + ``build_topk_vertex_set``
  pipeline (same snapshot semantics, same tie-breaking, same distance-map
  fills) as a direct :meth:`TigerVectorDB.vector_search` call; GSQL goes
  through the same :meth:`GSQLSession.run`.
- **Never hangs, never drops**: every accepted request's future is
  completed — with a result, or with a typed :class:`ReproError`
  (``QueryTimeoutError`` for deadline misses, ``AdmissionRejectedError``
  with ``reason='shutdown'`` for requests drained at stop).
- **One pin per batch**: every vector batch pins its snapshot through
  :func:`freshness_gate` — the one pin/validate/re-pin loop, shared with
  the elastic router.  Cache keys embed store watermarks read *before*
  that pin, and the cache is probed and filled only when the snapshot's
  TID covers every watermark component (the gate's ``lag == 0``) — a
  commit can publish its watermark bump (embedding hook) before
  ``last_tid``, so a worker may observe a post-commit watermark with a
  pre-commit snapshot; such results are served but never cached (see
  cache.py for the full interleaving analysis).
- **SLA contracts**: a request carrying ``max_staleness`` (maximum
  tolerated watermark-TID lag) or a read-your-writes ``session_token``
  (a commit TID the serving snapshot must cover) is served when the gate's
  contract holds, waits (bounded by ``staleness_wait`` and the request
  deadline) when it does not, and fails with a typed
  :class:`~repro.errors.StalenessBoundError` when the budget runs out.
  An SLA response is therefore never silently stale.
- **Tenant isolation**: the result cache is partitioned per tenant
  (:class:`~repro.serve.cache.ServeResultCache`) and tenants may carry a
  ``max_queue_share`` admission bound, so one tenant's flood can neither
  evict another's hot entries nor fill the shared queue.
- **Chaos hardening**: with a :class:`~repro.faults.FaultInjector`
  attached, injected worker crashes re-queue the in-flight batch (bounded
  by :data:`~repro.faults.RETRY_BUDGET`) and respawn a replacement worker;
  injected stalls delay one batch while other workers drain the queue;
  and a fused batch poisoned by injected segment faults degrades to
  per-query execution instead of failing every rider.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from ..core.auth import AuthorizationError
from ..core.search import (
    SearchSpec,
    build_topk_vertex_set,
    search_merged,
    vector_search_batch,
)
from ..core.service import EmbeddingStore
from ..errors import (
    AdmissionRejectedError,
    FaultInjectionError,
    QueryTimeoutError,
    RateLimitedError,
    ReproError,
    ServeError,
    StalenessBoundError,
)
from ..faults import RETRY_BACKOFF, RETRY_BUDGET, FaultInjector
from ..telemetry import get_telemetry
from .admission import AdmissionController
from .batcher import MicroBatcher
from .cache import ServeResultCache
from .tenancy import Tenant, TenantRegistry, WeightedFairQueue

__all__ = ["MIN_FUSED", "QueryServer", "ServeConfig", "ServeFuture"]

#: A batch fuses into one exact scan from this many same-key requests on;
#: a smaller one runs request by request.
MIN_FUSED = 4


@dataclass
class ServeConfig:
    """Serving knobs; defaults favor correctness-visible small deployments."""

    workers: int = 4
    max_queue_depth: int = 256
    enable_batching: bool = True
    #: Hard cap on one batch collection; within it the wait is set by the
    #: arrivals themselves (see :mod:`repro.serve.batcher`).
    batch_window_seconds: float = 0.002
    max_batch: int = 32
    enable_cache: bool = True
    #: Deadline (seconds from submit) of a request that names no
    #: ``timeout``; None means no deadline.
    default_timeout: float | None = None
    #: Staleness bound applied to requests that don't specify their own
    #: ``max_staleness`` (None = no default bound).
    default_max_staleness: int | None = None
    #: How long an SLA-bound request may wait (re-pinning snapshots) for
    #: its freshness contract before failing typed; the request deadline
    #: caps this further when sooner.
    staleness_wait: float = 0.05

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServeError("workers must be at least 1")
        if self.max_batch < 1:
            raise ServeError("max_batch must be at least 1")
        if self.batch_window_seconds < 0:
            raise ServeError("batch_window_seconds must be non-negative")
        if self.default_timeout is not None and self.default_timeout <= 0:
            raise ServeError("default_timeout must be positive")
        if self.default_max_staleness is not None and self.default_max_staleness < 0:
            raise ServeError("default_max_staleness must be non-negative")
        if self.staleness_wait < 0:
            raise ServeError("staleness_wait must be non-negative")

    def deadline(self, submitted_at: float, timeout: float | None) -> float | None:
        """A request's absolute deadline: its own ``timeout``, else
        ``default_timeout``; both None means no deadline."""
        if timeout is None:
            timeout = self.default_timeout
        return None if timeout is None else submitted_at + timeout


#: ``ServeFuture._value`` until the future completes.
_PENDING = object()


class ServeFuture:
    """Completion handle for one submitted request.

    A latch: the future closes a lock made here when it is built, and the
    one completion — :meth:`_complete` or :meth:`_fail`, by the thread
    that holds the request — opens it.  A waiter in :meth:`result` or
    :meth:`exception` takes the opened lock and hands it straight back, so
    every waiter wakes; a done future is answered without touching the
    lock.  A second completion changes nothing: the first one stands.
    Closing a lock costs about a tenth of building a ``threading.Event``
    and its ``Condition``, once per submitted request.

    Under the runtime sanitizer the latch is an instrumented lock of the
    ``latch`` kind (its site name says so): a thread that closes or waits
    on it does not hold it, and the interleaving explorer still sees a
    controlled thread's wait.
    """

    __slots__ = ("_latch", "_value", "_error")

    def __init__(self):
        self._latch = threading.Lock()
        self._latch.acquire()
        self._value = _PENDING
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._value is not _PENDING

    def result(self, timeout: float | None = None):
        self._wait(timeout)
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self, timeout: float | None = None) -> BaseException | None:
        self._wait(timeout)
        return self._error

    def _wait(self, timeout: float | None) -> None:
        if self._value is not _PENDING:
            return
        latch = self._latch
        if not latch.acquire(True, -1 if timeout is None else max(timeout, 0)):
            raise ServeError("timed out waiting for the serve result")
        latch.release()  # pass the opening on to the next waiter

    def _complete(self, value) -> None:
        self._settle(value, None)

    def _fail(self, error: BaseException) -> None:
        self._settle(None, error)

    def _settle(self, value, error: BaseException | None) -> None:
        if self._value is not _PENDING:
            return
        self._error = error
        self._value = value
        self._latch.release()


@dataclass(eq=False)
class QueryRequest:
    """Internal queue entry; one per submitted request.

    A worker dispatches on the subclass: :class:`VectorRequest`,
    :class:`GSQLRequest`, or an elastic shard's sub-request.
    """

    tenant: Tenant
    future: ServeFuture
    submitted_at: float
    deadline: float | None
    #: Execution attempts so far; bumped when a crashed worker's batch is
    #: re-queued, bounded by :data:`~repro.faults.RETRY_BUDGET`.
    attempts: int = 0

    def batch_key(self) -> tuple | None:
        """Fusion compatibility key; None means unbatchable."""
        return None


@dataclass(eq=False, kw_only=True)
class VectorRequest(QueryRequest):
    """A VectorSearch: its checked spec, and whether it may use the cache."""

    spec: SearchSpec
    no_cache: bool = False

    def batch_key(self) -> tuple | None:
        """The spec's fusion key, for a tenant whose role masks nothing.

        A role-scoped tenant's masks differ per caller, so it runs alone.
        """
        if self.tenant.role != "admin":
            return None
        return self.spec.fusion_key()

    @property
    def cacheable(self) -> bool:
        """Cache eligibility; broader than fusion eligibility.

        ``ef`` is part of the cache key and an explicit ``ef`` never fuses,
        so an ``ef``-keyed entry is always produced at the requested
        accuracy by the per-query kernel.
        """
        return (
            self.spec.filter is None
            and self.tenant.role == "admin"
            and not self.no_cache
        )


@dataclass(eq=False, kw_only=True)
class GSQLRequest(QueryRequest):
    """A GSQL statement and its parameters."""

    text: str
    params: dict


#: Snapshot re-pin cadence while waiting out a freshness violation.
_SLA_RETRY_SLEEP = 0.0005


@contextmanager
def freshness_gate(db, spec: SearchSpec, wait: float, deadline: float | None):
    """Pin a snapshot that honours ``spec``'s freshness contract, or fail typed.

    Yields ``(snapshot, watermarks, lag)``.  The loop: read the stores'
    watermarks *before* the pin (the cache-key order, see cache.py), pin,
    validate — ``lag`` (how far the snapshot trails the freshest watermark
    TID) within ``spec.max_staleness``, snapshot TID covering
    ``spec.session_token`` — and otherwise release and re-pin until ``wait``
    seconds or the absolute ``deadline`` run out, then raise
    :class:`StalenessBoundError`.  The violation window is the
    mid-publication commit interleaving (embedding hooks fired, ``last_tid``
    unpublished), so waits are normally a handful of re-pins.  With neither
    bound set the first pin is yielded, and ``lag == 0`` is exactly "the
    snapshot covers every watermark", i.e. a result computed on it may be
    cached under ``watermarks``.

    This is the one pin behind every served vector batch
    (:meth:`QueryServer._execute_vector`) and every routed query
    (:meth:`ElasticTier.search <repro.elastic.router.ElasticTier.search>`);
    the rejection and wait counters are recorded here for both.
    """
    tel = get_telemetry()
    max_staleness, session_token = spec.max_staleness, spec.session_token
    started = time.monotonic()
    limit = started + wait
    if deadline is not None:
        limit = min(limit, deadline)
    stores = spec.stores(db.service)
    while True:
        marks = tuple(store.watermark() for _, store in stores)
        with db.snapshot() as snapshot:
            # The lag is nonzero exactly inside a commit's publication window:
            # its embedding hooks bump a watermark before last_tid publishes.
            ceiling = max(EmbeddingStore.watermark_tid(mark) for mark in marks)
            lag = max(0, ceiling - snapshot.tid)
            stale = max_staleness is not None and lag > max_staleness
            behind = session_token is not None and snapshot.tid < session_token
            if not stale and not behind:
                yield snapshot, marks, lag
                return
        now = time.monotonic()
        if now >= limit:
            waited = now - started
            if behind:
                tel.inc("serve.session_token_rejections")
                raise StalenessBoundError(
                    f"no snapshot covering session token {session_token} "
                    f"within {waited:.3f}s",
                    session_token=session_token,
                    waited=waited,
                )
            tel.inc("serve.staleness_rejections")
            raise StalenessBoundError(
                f"snapshot lag {lag} exceeds max_staleness {max_staleness} "
                f"after {waited:.3f}s",
                max_staleness=max_staleness,
                lag=lag,
                waited=waited,
            )
        tel.inc("serve.session_token_waits" if behind else "serve.staleness_waits")
        time.sleep(min(_SLA_RETRY_SLEEP, limit - now))


class QueryServer:
    """Worker pool serving vector and GSQL requests from a fair queue."""

    def __init__(
        self,
        db,
        config: ServeConfig | None = None,
        tenants=None,
        injector: FaultInjector | None = None,
    ):
        self.db = db
        self.config = config or ServeConfig()
        self.registry = TenantRegistry(tenants)
        #: Optional chaos harness: when set, workers consult it at every
        #: dequeue for injected crashes/stalls (see ``repro.faults``).
        self.injector = injector
        self.queue = WeightedFairQueue(self.registry)
        self.admission = AdmissionController(self.registry, self.config.max_queue_depth)
        self.batcher = (
            MicroBatcher(
                self.queue, self.config.batch_window_seconds, self.config.max_batch
            )
            if self.config.enable_batching
            else None
        )
        self.cache = ServeResultCache() if self.config.enable_cache else None
        self._lifecycle_lock = threading.Lock()
        self._workers: list[threading.Thread] = []
        self._running = False
        self._stopped = False
        # Monotone dequeue ordinal feeding the fault injector's
        # worker-crash/stall schedule (1-based, like commit ordinals).
        self._dequeue_lock = threading.Lock()
        self._dequeues = 0
        self._worker_seq = 0

    # ------------------------------------------------------------ lifecycle
    def _make_worker(self, seq: int) -> threading.Thread:
        """Build (but do not register or start) one worker thread."""
        return threading.Thread(
            target=self._worker_loop, name=f"serve-worker-{seq}", daemon=True
        )

    def start(self) -> "QueryServer":
        with self._lifecycle_lock:
            if self._running:
                return self
            if self._stopped:
                raise ServeError("QueryServer cannot be restarted after stop()")
            self._running = True
            for _ in range(self.config.workers):
                worker = self._make_worker(self._worker_seq)
                self._worker_seq += 1
                self._workers.append(worker)
                worker.start()
        return self

    def stop(self) -> None:
        with self._lifecycle_lock:
            if self._stopped:
                return
            self._running = False
            self._stopped = True
            workers = list(self._workers)
            self._workers.clear()
        leftovers = self.queue.close()
        for request in leftovers:
            request.future._fail(
                AdmissionRejectedError(
                    "server shut down before the request ran", reason="shutdown"
                )
            )
        for worker in workers:
            worker.join()

    @property
    def running(self) -> bool:
        with self._lifecycle_lock:
            return self._running

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # --------------------------------------------------------------- submit
    def _submit(self, request: QueryRequest) -> ServeFuture:
        tel = get_telemetry()
        tel.inc("serve.requests")
        if not self.running:
            raise ServeError("QueryServer is not running; call start() first")
        depth, tenant_depth = self.queue.depths(request.tenant.name)
        try:
            self.admission.admit(
                request.tenant, depth, request.submitted_at, tenant_depth=tenant_depth
            )
        except RateLimitedError:
            tel.inc("serve.shed")
            tel.inc("serve.shed_rate_limited")
            raise
        except AdmissionRejectedError as exc:
            tel.inc("serve.shed")
            tel.inc(
                "serve.shed_tenant_share"
                if exc.reason == "tenant_share"
                else "serve.shed_queue_full"
            )
            raise
        depth = self.queue.put(request, request.tenant.name)
        tel.set_gauge("serve.queue_depth", depth)
        return request.future

    def submit_search(
        self,
        vector_attributes,
        query_vector,
        k: int,
        *,
        tenant: str = "default",
        ef: int | None = None,
        filter=None,
        distance_map=None,
        timeout: float | None = None,
        no_cache: bool = False,
        max_staleness: int | None = None,
        session_token: int | None = None,
    ) -> ServeFuture:
        """Queue a VectorSearch; returns a future (may raise a shed error).

        ``max_staleness`` bounds the watermark-TID lag of the serving
        snapshot (0 = insist on a snapshot covering every observed
        watermark); ``session_token`` is a commit TID (as returned by
        ``Transaction.commit`` / ``GraphStore.session_token``) the serving
        snapshot must cover — read-your-writes for the session that
        performed the commit.  Either makes the request SLA-bound: served
        fresh, or failed with :class:`~repro.errors.StalenessBoundError`;
        never silently stale.

        The :class:`~repro.core.search.SearchSpec` is built here, so a
        search it refuses never queues: a NaN or wrong-dimension query
        could otherwise ride a fused batch, whose stacked scan would fail
        every rider with it, and a ``k=1.0`` could hit the cache entry of
        ``k=1``.
        """
        if max_staleness is None:
            max_staleness = self.config.default_max_staleness
        spec = SearchSpec(
            self.db.service, vector_attributes, query_vector, k,
            ef=ef, filter=filter, distance_map=distance_map,
            max_staleness=max_staleness, session_token=session_token,
        )
        tenant_obj = self.registry.get(tenant)
        submitted_at = time.monotonic()
        request = VectorRequest(
            tenant=tenant_obj,
            future=ServeFuture(),
            submitted_at=submitted_at,
            deadline=self.config.deadline(submitted_at, timeout),
            spec=spec,
            no_cache=no_cache,
        )
        return self._submit(request)

    def submit_gsql(
        self,
        text: str,
        *,
        tenant: str = "default",
        timeout: float | None = None,
        params: dict | None = None,
    ) -> ServeFuture:
        """Queue a GSQL statement; read-only enforced per tenant.

        A role-scoped tenant is refused: GSQL blocks (pattern positions,
        scans, accumulators) do not enforce row rules, so running one leaks.
        """
        tenant_obj = self.registry.get(tenant)
        if tenant_obj.role != "admin":
            raise AuthorizationError(
                f"tenant '{tenant}' has role '{tenant_obj.role}'; GSQL, which does "
                f"not enforce row rules, is served to role 'admin' only"
            )
        submitted_at = time.monotonic()
        request = GSQLRequest(
            tenant=tenant_obj,
            future=ServeFuture(),
            submitted_at=submitted_at,
            deadline=self.config.deadline(submitted_at, timeout),
            text=text,
            params=dict(params or {}),
        )
        return self._submit(request)

    def search(self, vector_attributes, query_vector, k: int, **kwargs):
        """Synchronous VectorSearch through the full serving pipeline."""
        return self.submit_search(vector_attributes, query_vector, k, **kwargs).result()

    def run_gsql(self, text: str, **kwargs):
        """Synchronous GSQL execution through the serving pipeline."""
        return self.submit_gsql(text, **kwargs).result()

    # -------------------------------------------------------------- workers
    def _worker_loop(self) -> None:
        tel = get_telemetry()
        while True:
            request = self.queue.take(timeout=0.1)
            if request is None:
                if self.queue.closed:
                    return
                continue
            injector = self.injector
            ordinal = 0
            if injector is not None:
                with self._dequeue_lock:
                    self._dequeues += 1
                    ordinal = self._dequeues
                stall = injector.worker_stall_seconds(ordinal)
                if stall > 0:
                    # Straggling worker: hold the dequeued request while the
                    # other workers keep draining the queue.  The stalled
                    # request completes late or fails typed at its deadline
                    # (_shed_expired) — never silently.
                    tel.inc("serve.worker_stalls")
                    time.sleep(stall)
            if self.batcher is not None:
                batch = self.batcher.collect(request)
            else:
                batch = [request]
            if injector is not None and injector.worker_crash_due(ordinal):
                # The worker dies with the batch in hand: re-queue every
                # member (bounded by the retry budget) and respawn a
                # replacement so capacity recovers.  This thread then exits.
                tel.inc("serve.worker_crashes")
                self._requeue_after_crash(batch)
                self._respawn_worker()
                return
            tel.inc("serve.batches")
            tel.observe("serve.batch_size", len(batch))
            self._execute_batch(batch)

    def _requeue_after_crash(self, batch: list) -> None:
        """Put a dead worker's in-flight requests back on the queue.

        Each request carries an attempt count; one that has already been
        through ``RETRY_BUDGET`` workers fails typed instead of cycling
        forever through a crash-looping server.
        """
        tel = get_telemetry()
        for request in batch:
            request.attempts += 1
            if request.attempts >= RETRY_BUDGET:
                self._finish(
                    request,
                    error=FaultInjectionError(
                        f"request lost to {request.attempts} worker crash(es); "
                        f"retry budget exhausted"
                    ),
                )
                continue
            try:
                self.queue.put(request, request.tenant.name)
            except AdmissionRejectedError as exc:
                self._finish(request, error=exc)
                continue
            tel.inc("serve.worker_requeues")

    def _respawn_worker(self) -> None:
        with self._lifecycle_lock:
            if not self._running:
                return
            worker = self._make_worker(self._worker_seq)
            self._worker_seq += 1
            self._workers.append(worker)
            worker.start()
        get_telemetry().inc("serve.worker_respawns")

    def _finish(self, request: QueryRequest, value=None, error=None) -> None:
        if error is not None:
            request.future._fail(error)
        else:
            request.future._complete(value)
        tel = get_telemetry()
        tel.inc("serve.completed")
        tel.observe(
            "serve.latency_seconds", time.monotonic() - request.submitted_at
        )

    def _execute_batch(self, batch: list) -> None:
        try:
            live = self._shed_expired(batch)
            if not live:
                return
            execute = self._executor(live[0])
            if execute is None:
                self._execute_vector(live)
            else:
                for request in live:
                    execute(request)
        except Exception as exc:
            # Defensive: an unexpected error must never strand a future
            # (acceptance: the server never hangs and never drops).
            for request in batch:
                if not request.future.done():
                    self._finish(request, error=exc)

    def _executor(self, leader: QueryRequest):
        """Per-request executor for a batch, chosen by its leader.

        ``None`` selects :meth:`_execute_vector`, which takes the whole
        batch (shared cache probe, fusion); every other request type runs
        request by request — a batch only groups same-key fusable vector
        requests, so these batches are singletons.  Subclasses add request
        types by extending this lookup.
        """
        if isinstance(leader, GSQLRequest):
            return self._execute_gsql
        return None

    def _shed_expired(self, batch: list) -> list:
        """Deadline-aware shedding at dequeue: expired requests fail typed."""
        tel = get_telemetry()
        now = time.monotonic()
        live = []
        for request in batch:
            tel.observe("serve.queue_wait_seconds", now - request.submitted_at)
            if request.deadline is not None and now > request.deadline:
                tel.inc("serve.deadline_timeouts")
                elapsed = now - request.submitted_at
                self._finish(
                    request,
                    error=QueryTimeoutError(
                        f"request waited {elapsed:.3f}s in the serve queue, "
                        f"past its deadline",
                        deadline=request.deadline - request.submitted_at,
                        elapsed=elapsed,
                    ),
                )
            else:
                live.append(request)
        return live

    def _with_retries(self, fn):
        """Retry injected faults: up to ``RETRY_BUDGET`` tries, the backoff
        starting at ``RETRY_BACKOFF`` seconds and doubling."""
        attempt = 0
        while True:
            try:
                return fn()
            except FaultInjectionError:
                attempt += 1
                if attempt >= RETRY_BUDGET:
                    raise
                get_telemetry().inc("resilience.retries")
                time.sleep(RETRY_BACKOFF * 2 ** (attempt - 1))

    # ----------------------------------------------------------------- GSQL
    def _execute_gsql(self, request: GSQLRequest) -> None:
        try:
            result = self._with_retries(
                lambda: self.db.gsql.run(
                    request.text,
                    readonly=not request.tenant.allow_writes,
                    **request.params,
                )
            )
        except ReproError as exc:
            self._finish(request, error=exc)
            return
        self._finish(request, value=result)

    # --------------------------------------------------------------- vector
    def _cache_get(
        self, request: QueryRequest, watermarks: tuple, *suffix
    ) -> tuple[tuple, tuple | None]:
        """Probe the tenant's partition: ``(key, hit or None)``, counted.

        ``suffix`` extends the watermark key (a shard's owned group tuple).
        """
        key = request.spec.cache_key(watermarks, *suffix)
        hit = self.cache.get(request.tenant.name, key)
        get_telemetry().inc(
            "serve.cache_misses" if hit is None else "serve.cache_hits"
        )
        return key, hit

    def _cache_put(self, request: QueryRequest, key, value, kernel: str) -> None:
        """Fill under a :meth:`_cache_get` key; ``None`` means do not cache."""
        if key is None:
            return
        evicted = self.cache.put(request.tenant.name, key, tuple(value), kernel=kernel)
        if evicted:
            get_telemetry().inc("serve.cache_evictions", evicted)

    def _execute_vector(self, batch: list) -> None:
        """Pin one snapshot for the batch, answer hits, search the rest.

        A batch of several requests only forms around a fusion key, which
        SLA-bound requests lack, so the leader's attributes and freshness
        contract are the whole batch's.  :func:`freshness_gate` pins the
        snapshot (or fails typed); its ``lag == 0`` — the snapshot covers
        every watermark read before the pin — is the one cache rule: probe
        and fill then, neither otherwise (see cache.py).
        """
        leader = batch[0]
        try:
            with freshness_gate(
                self.db, leader.spec, self.config.staleness_wait, leader.deadline
            ) as (snapshot, marks, lag):
                cache = self.cache if lag == 0 else None
                if lag and self.cache is not None and any(r.cacheable for r in batch):
                    # Mid-publication commit, or tolerated staleness: the
                    # key would describe state this snapshot cannot see.
                    get_telemetry().inc("serve.cache_bypass_commit_race")
                pending: list[tuple[VectorRequest, tuple | None]] = []
                for request in batch:
                    key = None
                    if cache is not None and request.cacheable:
                        key, hit = self._cache_get(request, marks)
                        if hit is not None:
                            self._finish(
                                request,
                                value=build_topk_vertex_set(
                                    list(hit), request.spec.distance_map
                                ),
                            )
                            continue
                    pending.append((request, key))
                if len(pending) >= MIN_FUSED:  # only a same-key batch is this long
                    self._execute_fused(pending, snapshot)
                    return
                for request, key in pending:
                    self._execute_single(request, key, snapshot)
        except ReproError as exc:
            # Unknown attribute, or the contract outlived its wait budget.
            for request in batch:
                if not request.future.done():
                    self._finish(request, error=exc)

    def _execute_fused(self, fusable: list, snapshot) -> None:
        tel = get_telemetry()
        requests = [request for request, _ in fusable]
        specs = [request.spec for request in requests]
        try:
            tops = self._with_retries(
                lambda: vector_search_batch(self.db.service, snapshot, specs)
            )
        except FaultInjectionError:
            # Poisoned fused batch: one injected segment fault survived the
            # retry budget.  Degrade to per-query execution on the same
            # snapshot so one bad scan cannot fail every rider — each
            # single retries independently and, at worst, fails typed.
            tel.inc("serve.batch_poison_degrades")
            for request, key in fusable:
                self._execute_single(request, key, snapshot)
            return
        except ReproError as exc:
            for request in requests:
                self._finish(request, error=exc)
            return
        tel.inc("serve.fused_queries", len(requests))
        for (request, key), top in zip(fusable, tops):
            self._cache_put(request, key, top, kernel="fused")
            self._finish(
                request, value=build_topk_vertex_set(top, request.spec.distance_map)
            )

    def _execute_single(self, request: VectorRequest, key, snapshot) -> None:
        spec = request.spec
        try:
            # A role-scoped tenant is the same search on the batch's snapshot,
            # the role's masks ANDed into its pre-filter (never cached or fused).
            prefilter = self.db.access.search_filter(
                request.tenant.role, snapshot, spec.attributes, spec.filter
            )
            top = self._with_retries(
                lambda: search_merged(self.db.service, snapshot, spec, prefilter)
            )
        except ReproError as exc:
            self._finish(request, error=exc)
            return
        self._cache_put(request, key, top, kernel="hnsw")
        self._finish(request, value=build_topk_vertex_set(top, spec.distance_map))

    # ---------------------------------------------------------------- stats
    def stats(self) -> dict:
        tier = getattr(self.db, "tier_manager", None)
        with self._lifecycle_lock:
            # Configured size vs what actually survives: crashed workers
            # stay in the registration list as dead threads, so the live
            # count is the real capacity (respawns keep it at target).
            workers_alive = sum(
                1 for worker in self._workers if worker.is_alive()
            )
        return {
            "running": self.running,
            "workers": self.config.workers,
            "workers_alive": workers_alive,
            "queue_depth": self.queue.depth(),
            "tenants": sorted(self.registry.names()),
            "batching": self.batcher is not None,
            "cache": None if self.cache is None else self.cache.stats(),
            "tier": None if tier is None else tier.stats_snapshot(),
        }
