"""Runtime lock-order sanitizer for the MVCC/vacuum/HNSW core.

:class:`SanitizedLock` wraps ``threading.Lock``/``RLock`` and records, per
thread, the stack of held locks.  Every acquisition made while another lock
is held adds an edge to a process-global :class:`~.lockgraph.LockOrderGraph`
keyed by the lock's *creation site* (all ``DeltaStore._lock`` instances share
one node, lockdep-style).  Two violation kinds are detected:

- **lock-order-inversion** — acquiring B while holding A when a path
  B -> ... -> A already exists in the order graph (potential deadlock
  between e.g. the commit path and the two-stage vacuum);
- **held-across-commit** — entering the commit critical section
  (a lock whose name contains ``commit``) while already holding any other
  instrumented lock, which would let an arbitrary lock's critical section
  contain the globally-serialized commit.

:func:`patch_locks` monkey-patches ``threading.Lock``/``RLock`` so that locks
*created by repro code* (caller file under ``repro/`` but outside
``repro/analysis/``) come back instrumented; all other callers (stdlib,
pytest, numpy) get real locks; ``threading.Condition`` likewise comes back
as a :class:`SanitizedCondition`.  ``tests/conftest.py`` enables this under
``REPRO_SANITIZE=1`` and fails the session if any violation was recorded; a
process-exit hook additionally prints the report for non-pytest runs.
"""

from __future__ import annotations

import atexit
import linecache
import os
import re
import sys
import threading
import traceback
from dataclasses import dataclass

from ..errors import UnownedLockError
from . import hooks
from .lockgraph import LockOrderGraph

__all__ = [
    "ENV_VAR",
    "SanitizedLock",
    "SanitizedCondition",
    "Violation",
    "enabled",
    "patch_locks",
    "unpatch_locks",
    "is_patched",
    "reset",
    "set_context",
    "violations",
    "counters",
    "format_report",
    "summary_line",
]

ENV_VAR = "REPRO_SANITIZE"

# Real constructors captured at import time, before any patching.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock
_REAL_CONDITION = threading.Condition

_COMMIT_PAT = re.compile(r"commit", re.IGNORECASE)

_SELF_ATTR_ASSIGN_RE = re.compile(r"(self\.\w+)\s*[:=]")


def enabled() -> bool:
    """True when the sanitizer was requested via the environment."""
    return os.environ.get(ENV_VAR) == "1"


@dataclass(frozen=True)
class Violation:
    """One recorded lock-discipline violation."""

    kind: str  # "lock-order-inversion" | "held-across-commit"
    message: str
    stack: str = ""
    #: What was running when the violation fired (the pytest test id when
    #: run under the conftest fixture); "" outside any recorded context.
    context: str = ""

    def render(self) -> str:
        out = f"[{self.kind}] {self.message}"
        if self.context:
            out += f"\n    triggered by: {self.context}"
        if self.stack:
            out += f"\n{self.stack}"
        return out


class _State:
    """Process-global sanitizer state (serialized on a real lock)."""

    def __init__(self):
        self.mutex = _REAL_LOCK()
        self.graph = LockOrderGraph()
        self.violations: list[Violation] = []
        self.reported: set = set()
        self.locks_created = 0
        self.acquisitions = 0
        self.local = threading.local()
        self.context: str | None = None

    def held(self) -> list:
        held = getattr(self.local, "held", None)
        if held is None:
            held = []
            self.local.held = held
        return held


_state = _State()
_patched = False
_atexit_registered = False


def _short_stack(skip: int = 3, limit: int = 14) -> str:
    """A compact acquisition stack, with sanitizer frames dropped."""
    frames = traceback.extract_stack(limit=limit)
    lines = []
    for frame in frames[:-skip]:
        fname = frame.filename.replace(os.sep, "/")
        if fname.endswith("analysis/sanitizer.py"):
            continue
        tail = "/".join(fname.rsplit("/", 2)[-2:])
        lines.append(f"    {tail}:{frame.lineno} in {frame.name}")
    return "\n".join(lines[-6:])


def _site_name(frame) -> str:
    """Derive a stable lock name from its creation site.

    ``core/delta.py:108(self._lock)`` — path tail, line, and (when the
    source is available) the attribute being assigned.
    """
    fname = frame.f_code.co_filename
    tail = "/".join(fname.replace(os.sep, "/").rsplit("/", 2)[-2:])
    name = f"{tail}:{frame.f_lineno}"
    line = linecache.getline(fname, frame.f_lineno)
    match = _SELF_ATTR_ASSIGN_RE.search(line)
    if match:
        name += f"({match.group(1)})"
    return name


def _is_commit_lock(name: str) -> bool:
    return bool(_COMMIT_PAT.search(name))


def set_context(context: str | None) -> None:
    """Attribute subsequent violations to ``context`` (e.g. a pytest id).

    The conftest sets this per test so a session-end report can say which
    test actually produced each violation; ``None`` clears it.
    """
    with _state.mutex:
        _state.context = context


def _record_acquire(lock: "SanitizedLock", held: list) -> None:
    """Record ordering edges and check invariants BEFORE blocking."""
    with _state.mutex:
        _state.acquisitions += 1
        if not held:
            return
        distinct = {h.name: h for h in held}
        for name in distinct:
            # A known edge adds nothing: any cycle through it was reported
            # when the cycle's last edge went in.
            if name == lock.name or _state.graph.has_edge(name, lock.name):
                continue
            inversion = _state.graph.add_edge(name, lock.name, _short_stack())
            if inversion is not None:
                key = ("inv", frozenset((name, lock.name)))
                if key not in _state.reported:
                    _state.reported.add(key)
                    chain = " -> ".join(inversion + [lock.name])
                    _state.violations.append(
                        Violation(
                            kind="lock-order-inversion",
                            message=(
                                f"acquiring {lock.name} while holding {name} "
                                f"inverts the established order ({chain})"
                            ),
                            stack=_short_stack(),
                            context=_state.context or "",
                        )
                    )
        if _is_commit_lock(lock.name) and any(
            not _is_commit_lock(name) for name in distinct
        ):
            others = ", ".join(n for n in distinct if not _is_commit_lock(n))
            key = ("commit", lock.name, tuple(sorted(distinct)))
            if key not in _state.reported:
                _state.reported.add(key)
                _state.violations.append(
                    Violation(
                        kind="held-across-commit",
                        message=(
                            f"entering commit critical section {lock.name} "
                            f"while holding [{others}]; commits must not nest "
                            "inside other critical sections"
                        ),
                        stack=_short_stack(),
                        context=_state.context or "",
                    )
                )


class SanitizedLock:
    """Instrumented drop-in for ``threading.Lock`` / ``threading.RLock``."""

    def __init__(self, name: str | None = None, reentrant: bool = False):
        self._inner = _REAL_RLOCK() if reentrant else _REAL_LOCK()
        self._reentrant = reentrant
        if name is None:
            name = _site_name(sys._getframe(1))
        self.name = name
        with _state.mutex:
            _state.locks_created += 1

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        held = _state.held()
        if not any(h is self for h in held):
            # Reentrant re-acquisition of the same instance adds no ordering.
            _record_acquire(self, held)
        controller = hooks.active()
        acquired = None
        if controller is not None:
            # Under the interleaving explorer a controlled worker's acquire
            # becomes a cooperative yield; uncontrolled threads fall through.
            acquired = controller.try_controlled_acquire(
                self._inner, self.name, blocking
            )
        if acquired is None:
            acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            held.append(self)
        return acquired

    def release(self) -> None:
        self._inner.release()
        held = _state.held()
        for i in range(len(held) - 1, -1, -1):
            if held[i] is self:
                del held[i]
                break
        controller = hooks.active()
        if controller is not None:
            controller.notify_release(self._inner, self.name)

    def __enter__(self) -> "SanitizedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def _is_owned(self) -> bool:
        """Held by the calling thread (what ``Condition`` asks)."""
        return any(h is self for h in _state.held())

    def _release_save(self) -> int:
        """Release every level held, as ``Condition.wait`` does; only the
        last frees the lock, so only its release yields."""
        held = _state.held()
        depth = sum(1 for h in held if h is self)
        for _ in range(depth - 1):
            self._inner.release()
            held.remove(self)
        self.release()
        return depth

    def _acquire_restore(self, depth: int) -> None:
        for _ in range(depth):
            self.acquire()

    def locked(self) -> bool:
        inner_locked = getattr(self._inner, "locked", None)
        if inner_locked is not None:
            return inner_locked()
        return bool(self._inner._is_owned())  # RLock on older Pythons

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SanitizedLock {self.name} reentrant={self._reentrant}>"

    # Pickle support mirrors the core classes: locks drop their runtime
    # state and come back fresh (see DeltaStore.__getstate__ et al.).
    def __getstate__(self) -> dict:
        return {"name": self.name, "_reentrant": self._reentrant}

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self._reentrant = state["_reentrant"]
        self._inner = _REAL_RLOCK() if self._reentrant else _REAL_LOCK()


class SanitizedCondition(_REAL_CONDITION):
    """``threading.Condition`` whose waits the interleaving explorer sees.

    A worker under the explorer's control parks in :meth:`wait` until a
    ``notify`` picks it or, for a timed wait, until no other worker can run
    (see :mod:`~.explore`).  Everywhere else this is a plain ``Condition``.
    """

    def wait(self, timeout: float | None = None) -> bool:
        if not self._is_owned():
            raise UnownedLockError("cannot wait on un-acquired lock")
        controller = hooks.active()
        if controller is not None:
            notified = controller.condition_wait(self, timeout)
            if notified is not None:
                return notified
        return super().wait(timeout)

    def notify(self, n: int = 1) -> None:
        super().notify(n)  # first: it refuses a caller not holding the lock
        controller = hooks.active()
        if controller is not None:
            controller.condition_notify(self, n)

    def notify_all(self) -> None:
        self.notify(sys.maxsize)


def _should_instrument(filename: str) -> bool:
    fname = filename.replace(os.sep, "/")
    return "/repro/" in fname and "/repro/analysis/" not in fname


def _factory(real, instrumented):
    """A constructor: ``instrumented(site_name, *args)`` for a caller in repro
    code, ``real(*args)`` for anyone else."""

    def make(*args, **kwargs):
        frame = sys._getframe(1)
        if _should_instrument(frame.f_code.co_filename):
            return instrumented(_site_name(frame), *args, **kwargs)
        return real(*args, **kwargs)

    return make


def _condition(site: str, lock=None) -> SanitizedCondition:
    return SanitizedCondition(SanitizedLock(site, reentrant=True) if lock is None else lock)


def patch_locks() -> None:
    """Route ``threading.Lock``/``RLock``/``Condition`` creation through the sanitizer.

    Only those created from repro source files (outside this package) are
    instrumented; everything else gets the real class, so stdlib and test
    machinery are unaffected.  Idempotent.
    """
    global _patched, _atexit_registered
    if _patched:
        return
    threading.Lock = _factory(_REAL_LOCK, SanitizedLock)
    threading.RLock = _factory(_REAL_RLOCK, lambda site: SanitizedLock(site, reentrant=True))
    threading.Condition = _factory(_REAL_CONDITION, _condition)
    _patched = True
    if not _atexit_registered:
        atexit.register(_report_at_exit)
        _atexit_registered = True


def unpatch_locks() -> None:
    """Restore the real lock constructors."""
    global _patched
    threading.Lock = _REAL_LOCK
    threading.RLock = _REAL_RLOCK
    threading.Condition = _REAL_CONDITION
    _patched = False


def is_patched() -> bool:
    """True while the lock constructors are routed through the sanitizer."""
    return _patched


def reset() -> None:
    """Clear the order graph, counters, and recorded violations."""
    with _state.mutex:
        _state.graph = LockOrderGraph()
        _state.violations = []
        _state.reported = set()
        _state.locks_created = 0
        _state.acquisitions = 0


def violations() -> list[Violation]:
    with _state.mutex:
        return list(_state.violations)


def counters() -> dict:
    with _state.mutex:
        return {
            "locks_instrumented": _state.locks_created,
            "acquisitions": _state.acquisitions,
            "orderings": len(_state.graph),
        }


def summary_line() -> str:
    stats = counters()
    found = violations()
    inversions = sum(1 for v in found if v.kind == "lock-order-inversion")
    across = sum(1 for v in found if v.kind == "held-across-commit")
    return (
        f"repro-sanitizer: {stats['locks_instrumented']} instrumented lock(s), "
        f"{stats['acquisitions']} acquisition(s), {stats['orderings']} "
        f"ordering(s), {inversions} lock-order inversion(s), "
        f"{across} held-across-commit violation(s)"
    )


def format_report() -> str:
    lines = [summary_line()]
    for violation in violations():
        lines.append(violation.render())
    return "\n".join(lines)


def _report_at_exit() -> None:  # pragma: no cover - exercised in subprocesses
    if enabled() and violations():
        print(format_report(), file=sys.stderr)
