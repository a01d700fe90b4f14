"""Seeded, deterministic interleaving explorer (loom/PCT-style).

The sanitizer already knows where the interesting transitions are — lock
acquire/release — and :mod:`~repro.analysis.hooks` adds the MVCC-specific
ones (commit publication, snapshot pin, watermark read, cache get/put,
HNSW insert/save).  This module turns those instrumentation points into
*cooperative yield points*: a small set of worker threads is serialized
onto one controlled scheduler, exactly one worker runs at a time, and at
every yield the schedule decides who runs next.  Concurrency bugs become
a search problem over decision sequences instead of a dice roll against
the OS scheduler.

Execution model
---------------
- ``run_schedule(scenario, schedule)`` builds the scenario state
  (uncontrolled, with sanitizer lock patching active so scenario locks are
  instrumented), spawns ``scenario.threads`` workers, and parks them all.
- The scheduler thread repeatedly picks one *runnable* worker (parked at a
  yield, not blocked on a lock) and dispatches it; the worker runs to its
  next yield point and parks again.  Decisions are recorded only when more
  than one worker is runnable, so the choice list is exactly the branching
  structure of the run.
- A worker that tries to acquire a held lock is marked *blocked* on that
  lock and stays undispatchable until the holder releases it.
- A worker that waits on a :class:`~.sanitizer.SanitizedCondition` is
  marked *waiting* until a ``notify`` picks it (oldest waiter first) or,
  for a timed wait, until no other worker can run: the timeout fires then,
  ``wait`` returns False, and no time passes.  A notify that lands before
  the wait is lost, as it is in ``threading``.
- All workers blocked or waiting untimed, with none runnable, is reported
  as a deadlock.
- When every worker finished, ``scenario.check(state)`` asserts the
  invariant; its failure (or any worker exception, or a deadlock) makes
  the run a failure carrying the full yield trace and choice list.

Replaying the recorded choices with :class:`~.schedules.ReplaySchedule`
against a fresh scenario instance reproduces the interleaving
byte-identically — scenarios are required to be deterministic modulo
schedule (seeded RNGs, no wall-clock dependence).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..errors import ExplorationError
from . import hooks, sanitizer
from .schedules import RandomSchedule, ReplaySchedule, Schedule

__all__ = [
    "Scenario",
    "Decision",
    "RunResult",
    "ExploreResult",
    "run_schedule",
    "replay",
    "explore_random",
    "explore_exhaustive",
]


class Scenario:
    """One canned concurrent workload for the explorer.

    Subclasses define ``threads`` (worker count), build fresh state in
    ``setup`` (called once per run, uncontrolled), run per-worker logic in
    ``worker(state, index)`` (controlled: every schedule point and lock
    operation yields), and assert the invariant in ``check(state)`` after
    all workers joined.  Scenarios must be deterministic modulo schedule.
    """

    name = "scenario"
    threads = 2

    def setup(self):
        return None

    def worker(self, state, index: int) -> None:
        raise NotImplementedError

    def check(self, state) -> None:
        return None

    def teardown(self, state) -> None:
        return None


class _Abort(BaseException):
    """Unwind a controlled worker when the run is torn down.

    Derives from BaseException so scenario/production ``except Exception``
    handlers cannot swallow it.
    """


_PARKED = ("yielded", "blocked", "waiting")
_FINISHED = ("done", "aborted", "error")


class _Worker:
    __slots__ = ("index", "thread", "go", "state", "point", "blocked_key", "error",
                 "cond", "timed", "notified")

    def __init__(self, index: int):
        self.index = index
        self.thread: threading.Thread | None = None
        self.go = threading.Event()
        self.state = "new"
        self.point = ""
        self.blocked_key: int | None = None
        self.error: BaseException | None = None
        #: The condition waited on (None if none), with the wait's details.
        self.cond = None
        self.timed = False
        self.notified = False

    def end_wait(self, notified: bool) -> None:
        """The wait is over (under the controller's mutex); runnable if parked."""
        self.cond, self.notified = None, notified
        if self.state == "waiting":
            self.state = "yielded"


@dataclass(frozen=True)
class Decision:
    """One scheduling decision: the runnable set and the worker chosen."""

    runnable: tuple[int, ...]
    chosen: int


@dataclass
class RunResult:
    """Outcome of one scheduled run of a scenario."""

    scenario: str
    schedule: str
    ok: bool
    steps: int
    decisions: list[Decision] = field(default_factory=list)
    trace: list[tuple[int, str]] = field(default_factory=list)
    failure_kind: str | None = None  # "exception" | "deadlock" | "check"
    failure: str | None = None
    error: BaseException | None = None

    @property
    def choices(self) -> list[int]:
        """The decision sequence; feed to ReplaySchedule to reproduce."""
        return [d.chosen for d in self.decisions]

    def render_trace(self) -> str:
        lines = [f"schedule {self.schedule} choices={self.choices}"]
        lines += [f"  [w{idx}] {point}" for idx, point in self.trace]
        return "\n".join(lines)


@dataclass
class ExploreResult:
    """Outcome of a multi-schedule exploration."""

    scenario: str
    strategy: str
    schedules_run: int
    failure: RunResult | None = None
    seed: int | None = None

    @property
    def found(self) -> bool:
        return self.failure is not None

    def summary(self) -> str:
        if self.failure is None:
            return (
                f"{self.scenario}: no failure in {self.schedules_run} "
                f"{self.strategy} schedule(s)"
            )
        seed = f" seed={self.seed}" if self.seed is not None else ""
        return (
            f"{self.scenario}: {self.failure.failure_kind} after "
            f"{self.schedules_run} {self.strategy} schedule(s){seed} — "
            f"replay choices={self.failure.choices}\n{self.failure.failure}"
        )


class _Controller:
    """Serializes controlled workers; installed as the hooks sink."""

    def __init__(self, scenario, state, schedule: Schedule, max_steps: int, timeout: float):
        self._scenario = scenario
        self._state = state
        self._schedule = schedule
        self._max_steps = max_steps
        self._timeout = timeout
        self._mutex = threading.Lock()  # real: analysis/ is never patched
        self._wake = threading.Event()
        self._aborting = False
        self._workers = [_Worker(i) for i in range(scenario.threads)]
        self._by_ident: dict[int, _Worker] = {}
        self.decisions: list[Decision] = []
        self.trace: list[tuple[int, str]] = []
        self.steps = 0
        self._waiters: list[_Worker] = []  # oldest wait first

    # ---- worker-side ----------------------------------------------------

    def _current(self) -> _Worker | None:
        return self._by_ident.get(threading.get_ident())

    def _park(self, worker: _Worker, point: str, blocked_key: int | None = None) -> None:
        if self._aborting:
            # Unwinding workers re-enter via lock releases in ``with``
            # __exit__ blocks; don't wait for a dispatch that never comes.
            raise _Abort("run aborted")
        with self._mutex:
            worker.point = point
            worker.blocked_key = blocked_key
            if blocked_key is not None:
                worker.state = "blocked"
            else:
                worker.state = "yielded" if worker.cond is None else "waiting"
            self._wake.set()
        if not worker.go.wait(self._timeout):
            raise _Abort(f"worker {worker.index} handoff timed out at {point}")
        worker.go.clear()
        if self._aborting:
            raise _Abort("run aborted")
        worker.state = "running"

    def schedule_point(self, name: str) -> None:
        """hooks sink: yield here if the calling thread is controlled."""
        worker = self._current()
        if worker is not None:
            self._park(worker, name)

    def try_controlled_acquire(self, inner, name: str, blocking: bool) -> bool | None:
        """Sanitizer hook: acquire ``inner`` under scheduler control.

        Returns None when the calling thread is not a controlled worker
        (caller falls back to a plain acquire).  Controlled acquisition
        yields first (the attempt is a visible event), then spins through
        non-blocking tries, parking as *blocked* between failures so the
        scheduler only redispatches after a release.
        """
        worker = self._current()
        if worker is None:
            return None
        self._park(worker, f"lock.acquire:{name}")
        while True:
            if inner.acquire(False):
                return True
            if not blocking:
                return False
            self._park(worker, f"lock.blocked:{name}", blocked_key=id(inner))

    def notify_release(self, inner, name: str) -> None:
        """Sanitizer hook: ``inner`` was released by the calling thread."""
        worker = self._current()
        if worker is None:
            return
        key = id(inner)
        with self._mutex:
            for other in self._workers:
                if other.blocked_key == key:
                    other.blocked_key = None
                    other.state = "yielded"
        self._park(worker, f"lock.release:{name}")

    def condition_wait(self, cond, timeout: float | None) -> bool | None:
        """Sanitized-condition hook: whether a notify (not the timeout) ended
        the wait, or None for an uncontrolled thread (it waits for real).

        As in ``Condition.wait``, the waiter registers before it releases
        the lock; the release's yield (or an explicit one) parks it.
        """
        worker = self._current()
        if worker is None:
            return None
        with self._mutex:
            worker.cond, worker.timed, worker.notified = cond, timeout is not None, False
            self._waiters.append(worker)
        saved = cond._release_save()
        try:
            if worker.cond is cond:
                self._park(worker, "cond.wait")
        finally:
            cond._acquire_restore(saved)
        return worker.notified

    def condition_notify(self, cond, n: int) -> None:
        """Sanitized-condition hook: wake up to ``n`` waiters, oldest first."""
        with self._mutex:
            for waiter in [w for w in self._waiters if w.cond is cond][:n]:
                self._waiters.remove(waiter)
                waiter.end_wait(notified=True)

    def _fire_timeout(self) -> bool:
        """With nothing runnable, end the oldest timed wait; False if none."""
        with self._mutex:
            timed = [w for w in self._waiters if w.timed and w.state == "waiting"]
            if timed:
                self._waiters.remove(timed[0])
                timed[0].end_wait(notified=False)
            return bool(timed)

    def _worker_main(self, worker: _Worker) -> None:
        self._by_ident[threading.get_ident()] = worker
        outcome, error = "done", None
        try:
            self._park(worker, "start")
            self._scenario.worker(self._state, worker.index)
        except _Abort:
            outcome = "aborted"
        except BaseException as exc:
            outcome, error = "error", exc
        with self._mutex:
            worker.state = outcome
            worker.error = error
            self._wake.set()

    # ---- scheduler side -------------------------------------------------

    def _await_all_parked(self) -> None:
        for _ in range(10_000):
            with self._mutex:
                if all(w.state in _PARKED + _FINISHED for w in self._workers):
                    return
                self._wake.clear()
            if not self._wake.wait(self._timeout):
                raise ExplorationError("workers failed to reach their first yield")
        raise ExplorationError("workers failed to settle")  # pragma: no cover

    def _dispatch(self, worker: _Worker) -> None:
        self._wake.clear()
        worker.go.set()
        if not self._wake.wait(self._timeout):
            raise ExplorationError(
                f"scheduler stalled: worker {worker.index} did not yield "
                f"after {worker.point!r} within {self._timeout}s (controlled "
                "code blocked on an uninstrumented primitive?)"
            )

    def _abort_remaining(self) -> None:
        with self._mutex:
            self._aborting = True
            for worker in self._workers:
                if worker.state not in _FINISHED:
                    worker.go.set()
        for worker in self._workers:
            if worker.thread is not None:
                worker.thread.join(timeout=2.0)

    def run(self) -> RunResult:
        hooks.install(self)
        failure_kind = failure = error = None
        try:
            for worker in self._workers:
                worker.thread = threading.Thread(
                    target=self._worker_main,
                    args=(worker,),
                    name=f"explore-{self._scenario.name}-w{worker.index}",
                    daemon=True,
                )
                worker.thread.start()
            self._await_all_parked()
            while True:
                errored = next(
                    (w for w in self._workers if w.state == "error"), None
                )
                if errored is not None:
                    failure_kind = "exception"
                    error = errored.error
                    failure = (
                        f"worker {errored.index} raised "
                        f"{type(errored.error).__name__}: {errored.error}"
                    )
                    break
                if all(w.state in _FINISHED for w in self._workers):
                    break
                runnable = tuple(
                    w.index for w in self._workers if w.state == "yielded"
                )
                if not runnable:
                    if self._fire_timeout():
                        continue
                    blocked = "; ".join(
                        f"w{w.index} {w.state} at {w.point}"
                        for w in self._workers
                        if w.state in ("blocked", "waiting")
                    )
                    failure_kind = "deadlock"
                    failure = f"all workers blocked: {blocked}"
                    break
                self.steps += 1
                if self.steps > self._max_steps:
                    raise ExplorationError(
                        f"schedule exceeded {self._max_steps} steps without "
                        "terminating (runaway scenario?)"
                    )
                if len(runnable) > 1:
                    chosen = self._schedule.pick(runnable, len(self.decisions))
                    if chosen not in runnable:  # defensive: bad custom schedule
                        chosen = min(runnable)
                    self.decisions.append(  # repro: noqa[R001] -- scheduler-thread-only; workers are parked here
                        Decision(runnable, chosen)
                    )
                else:
                    chosen = runnable[0]
                worker = self._workers[chosen]
                self.trace.append((chosen, worker.point))  # repro: noqa[R001] -- scheduler-thread-only; workers are parked here
                self._dispatch(worker)
        finally:
            self._abort_remaining()
            hooks.uninstall()
        if failure_kind is None:
            try:
                self._scenario.check(self._state)
            except Exception as exc:
                failure_kind = "check"
                error = exc
                failure = f"invariant check failed: {exc}"
        return RunResult(
            scenario=self._scenario.name,
            schedule=self._schedule.describe(),
            ok=failure_kind is None,
            steps=self.steps,
            decisions=self.decisions,
            trace=self.trace,
            failure_kind=failure_kind,
            failure=failure,
            error=error,
        )


def run_schedule(
    scenario: Scenario,
    schedule: Schedule,
    max_steps: int = 600,
    timeout: float = 10.0,
) -> RunResult:
    """Run ``scenario`` once under ``schedule``; locks are instrumented."""
    was_patched = sanitizer.is_patched()
    if not was_patched:
        sanitizer.patch_locks()
    state = None
    try:
        state = scenario.setup()
        controller = _Controller(scenario, state, schedule, max_steps, timeout)
        return controller.run()
    finally:
        try:
            scenario.teardown(state)
        finally:
            if not was_patched:
                sanitizer.unpatch_locks()


def replay(scenario: Scenario, choices, **kwargs) -> RunResult:
    """Re-run ``scenario`` pinned to a recorded choice sequence."""
    return run_schedule(scenario, ReplaySchedule(choices), **kwargs)


def explore_random(
    scenario_factory,
    seeds,
    make_schedule=None,
    **kwargs,
) -> ExploreResult:
    """Run one schedule per seed until a failure is found.

    ``make_schedule(seed)`` defaults to :class:`RandomSchedule`; pass e.g.
    ``lambda s: PCTSchedule(s, workers=2)`` for PCT sampling.
    """
    if make_schedule is None:
        make_schedule = RandomSchedule
    name = strategy = None
    runs = 0
    for seed in seeds:
        schedule = make_schedule(seed)
        result = run_schedule(scenario_factory(), schedule, **kwargs)
        runs += 1
        name, strategy = result.scenario, schedule.label
        if not result.ok:
            return ExploreResult(name, strategy, runs, failure=result, seed=seed)
    return ExploreResult(name or "scenario", strategy or "random", runs)


def explore_exhaustive(
    scenario_factory,
    max_decisions: int = 10,
    max_schedules: int = 256,
    **kwargs,
) -> ExploreResult:
    """Bounded-exhaustive DFS over decision prefixes.

    Runs the canonical schedule (empty prefix: lowest runnable index wins),
    then for every decision within the first ``max_decisions`` pushes each
    untried alternative as a new prefix.  Complete for scenarios whose
    branching fits the bounds; otherwise a best-effort frontier walk capped
    at ``max_schedules`` runs.
    """
    frontier: list[tuple[int, ...]] = [()]
    name = "scenario"
    runs = 0
    while frontier and runs < max_schedules:
        prefix = frontier.pop()
        result = run_schedule(scenario_factory(), ReplaySchedule(prefix), **kwargs)
        runs += 1
        name = result.scenario
        if not result.ok:
            return ExploreResult(name, "exhaustive", runs, failure=result)
        horizon = min(len(result.decisions), max_decisions)
        for depth in range(len(prefix), horizon):
            decision = result.decisions[depth]
            base = [d.chosen for d in result.decisions[:depth]]
            for alt in decision.runnable:
                if alt != decision.chosen:
                    frontier.append(tuple(base + [alt]))
    return ExploreResult(name, "exhaustive", runs)
