"""Opt-in runtime lock-order tracking (``REPRO_LOCK_TRACK=1``).

The static rules in :mod:`repro.analysis.rules` check the *lexical* shape of
the concurrency contracts; this module checks the *dynamic* half while the
threaded test suites run:

* **acquisition-order cycles** — every time a thread acquires a tracked lock
  while holding another, the ordered pair is recorded in a process-global
  acquisition graph; an edge that closes a cycle (lock A taken under B
  somewhere, B taken under A somewhere else) is a latent deadlock and raises
  :class:`LockOrderViolation` at the acquisition that would create it, with
  both witness stacks in the message;
* **slow work under a no-slow lock** — locks created with
  ``forbid_slow=True`` (the pool lock) must never be held across a slow
  operation (``prepare`` / ``infer`` / ``close`` / eager ``apply_delta``);
  the instrumented operations call :func:`note_slow_call`, which raises if
  the current thread holds such a lock — the runtime twin of the
  ``lock-discipline`` lint rule (incident: fcf99ca, where the pool lock was
  held across ``prepare()`` and ``close()``).

Tracking is **off by default** and free when off: :func:`tracked_rlock`
returns a plain ``threading.RLock`` and :func:`note_slow_call` is a single
boolean test.  The ``static-analysis`` CI job enables it
(``REPRO_LOCK_TRACK=1``) for one run of the threaded pool/gateway suites;
tests may also toggle it programmatically via :func:`enable_tracking`.
"""

from __future__ import annotations

import os
import threading
import traceback
from typing import Dict, List, Optional, Protocol, Set, Tuple

ENV_VAR = "REPRO_LOCK_TRACK"


class RLockLike(Protocol):
    """The re-entrant-lock surface the serving layer relies on.

    Both ``threading.RLock()`` and :class:`TrackedRLock` satisfy it, so
    production code can hold either without caring whether tracking is on.
    """

    def acquire(self, blocking: bool = ..., timeout: float = ...) -> bool: ...

    def release(self) -> None: ...

    def __enter__(self) -> bool: ...

    def __exit__(self, exc_type: object, exc_value: object,
                 tb: object) -> None: ...

_enabled = os.environ.get(ENV_VAR, "") not in ("", "0")
_state_lock = threading.Lock()
#: edge (outer, inner) -> witness stack of the acquisition that created it.
_edges: Dict[Tuple[str, str], str] = {}
#: violations recorded so far (each was also raised at detection time).
_violations: List[str] = []


class LockOrderViolation(RuntimeError):
    """A lock-acquisition-order cycle or a slow call under a no-slow lock."""


class _HeldLocks(threading.local):
    def __init__(self) -> None:
        self.stack: List["TrackedRLock"] = []


_held = _HeldLocks()


def tracking_enabled() -> bool:
    return _enabled


def enable_tracking() -> None:
    """Turn tracking on for locks created *afterwards* (tests use this)."""
    global _enabled
    _enabled = True


def disable_tracking() -> None:
    global _enabled
    _enabled = False


def reset() -> None:
    """Forget every recorded edge and violation (test isolation)."""
    with _state_lock:
        _edges.clear()
        del _violations[:]


def violations() -> List[str]:
    """Violations recorded since the last :func:`reset` (copies)."""
    with _state_lock:
        return list(_violations)


def acquisition_edges() -> Set[Tuple[str, str]]:
    """The (outer, inner) lock-order pairs observed so far."""
    with _state_lock:
        return set(_edges)


def _find_path(start: str, goal: str) -> Optional[List[str]]:
    """A path start -> ... -> goal in the current edge graph (DFS)."""
    stack: List[Tuple[str, List[str]]] = [(start, [start])]
    seen = {start}
    while stack:
        node, path = stack.pop()
        if node == goal:
            return path
        for outer, inner in _edges:
            if outer == node and inner not in seen:
                seen.add(inner)
                stack.append((inner, path + [inner]))
    return None


class TrackedRLock:
    """A named re-entrant lock that records acquisition ordering.

    Drop-in for the ``threading.RLock`` surface the repo uses (``acquire`` /
    ``release`` / context manager).  ``forbid_slow`` marks the lock as
    cheap-bookkeeping-only: holding it across an instrumented slow operation
    is a violation even without any second lock involved.
    """

    def __init__(self, name: str, forbid_slow: bool = False) -> None:
        self.name = name
        self.forbid_slow = forbid_slow
        self._inner = threading.RLock()

    # ------------------------------------------------------------------ #
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._record_acquire()
            _held.stack.append(self)
        return acquired

    def release(self) -> None:
        stack = _held.stack
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is self:
                del stack[index]
                break
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    # ------------------------------------------------------------------ #
    def _record_acquire(self) -> None:
        holder_names = {held.name for held in _held.stack}
        if self.name in holder_names or all((outer, self.name) in _edges
                                            for outer in holder_names):
            return      # re-entrant, or nothing held, or every edge known
        witness = "".join(traceback.format_stack(limit=8))
        with _state_lock:
            for outer in holder_names:
                edge = (outer, self.name)
                if edge in _edges:
                    continue
                # Would outer <- ... <- self already imply the reverse order?
                cycle = _find_path(self.name, outer)
                if cycle is not None:
                    message = (
                        f"lock-order cycle: acquiring {self.name!r} while "
                        f"holding {outer!r}, but the reverse order "
                        f"{' -> '.join(cycle)} -> {self.name} was already "
                        f"observed.  First witness of the reverse edge:\n"
                        f"{_edges.get((cycle[0], cycle[1]), '<unknown>')}\n"
                        f"This acquisition:\n{witness}")
                    _violations.append(message)
                    raise LockOrderViolation(message)
                _edges[edge] = witness


def tracked_rlock(name: str, forbid_slow: bool = False) -> RLockLike:
    """An RLock, instrumented only when ``REPRO_LOCK_TRACK`` is enabled.

    Production code calls this unconditionally; with tracking off (the
    default) it returns a plain ``threading.RLock`` with zero overhead.
    """
    if not _enabled:
        return threading.RLock()
    return TrackedRLock(name, forbid_slow=forbid_slow)


def note_slow_call(operation: str) -> None:
    """Record that a slow operation is starting on the current thread.

    Instrumented call sites (``InferenceSession.prepare`` / ``infer`` /
    ``close`` / eager ``apply_delta``) invoke this before taking their own
    locks; if the thread already holds a ``forbid_slow`` lock (the pool
    lock), the fcf99ca bug class is being reintroduced and the run fails
    immediately.
    """
    if not _enabled:
        return
    for held_lock in _held.stack:
        if isinstance(held_lock, TrackedRLock) and held_lock.forbid_slow:
            witness = "".join(traceback.format_stack(limit=8))
            message = (
                f"slow operation {operation!r} entered while holding "
                f"{held_lock.name!r}, a lock that must only guard cheap "
                f"bookkeeping (one tenant's slow path would stall every "
                f"other tenant's lookup -- the shape fixed in fcf99ca):\n"
                f"{witness}")
            with _state_lock:
                _violations.append(message)
            raise LockOrderViolation(message)
