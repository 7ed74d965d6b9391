"""Pluggable per-partition executors: in-process loop or one OS process each.

Both drivers of the partition engine — the Pregel superstep loop, the
MapReduce round driver — hand their per-slot work to a pluggable worker
substrate:

* :class:`SerialExecutor` — per-slot work runs in the calling process,
  against the engine's live objects: a full wave's slots on the calling
  thread and the process-wide helper threads side by side, any other wave's
  in slot order.  Zero copies, zero pickling.
* :class:`ProcessExecutor` — one **OS process per slot**, started once and
  reused across runs.  Large read-only (or in-place-patched) numpy buffers —
  graph partitions, feature matrices, :class:`~repro.cluster.layout.ClusterLayout`
  tables — are shipped **once** through ``multiprocessing.shared_memory``
  (:class:`SharedArrayPack`); per-step message traffic travels as pickled
  numpy bundles that the parent relays between workers *without unpickling*
  (opaque byte blobs, so the coordinator does memcpy, not serialisation).

Engines talk to executors through one shape of work, a *harness session* —
:meth:`Executor.open` / :meth:`Executor.step` / :meth:`Executor.close`, or
:meth:`Executor.session` for all three plus the failed-run teardown.  A
harness per slot is built worker-side by a picklable factory from the payload
``open`` ships once per run (a partition, its program and the harness
class), receives per-step control plus the messages other slots addressed
to it last step, and returns a control result plus its own outgoing
``(target_slot, messages)`` buckets; ``close`` returns each ``finish()``.
The executor owns the transport; what a slot keeps, between steps and
sessions alike, is the factory's business (the partition engine keeps a
partition's state where it runs, so only results come back).  A step is
one bulk-synchronous wave of exactly ``num_slots`` commands, which keeps the
pipe protocol trivially deadlock-free.

Determinism contract: an engine that routes its per-slot work through the
executor interface produces **the same results under both executors** —
each slot's step reads only its own partition and what was mailed to it, so
where and when it runs does not change its bits (both executors run the same
numpy ops on the same arrays, and BLAS kernels are deterministic for
identical shapes and inputs on one machine).  Results come back, and message
buckets are delivered, in sending-slot order whichever slot finished first,
so order-sensitive reductions see identical operand sequences.  The conformance suite (``tests/test_backend_conformance.py``)
asserts this for every backend.
"""

from __future__ import annotations

import os
import pickle
import threading
import traceback
import weakref
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

import numpy as np

from repro.analysis.lockgraph import tracked_rlock

#: environment variable naming the default executor (``build_executor(None)``).
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"
#: environment variable overriding the multiprocessing start method.
START_METHOD_ENV_VAR = "REPRO_EXECUTOR_START_METHOD"

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
#: Held while a worker is started and its child-side descriptors are open in
#: this process.  A fork copies every open descriptor: a worker forked from
#: one thread while another thread starts its own worker would keep that
#: worker's pipe end and exit sentinel open, and the sibling's shutdown would
#: then wait out its join timeout (gateway threads start tenants' executors
#: concurrently).
_START_LOCK = threading.Lock()


class UnknownExecutorError(ValueError):
    """Raised when an executor name is not in the registry."""


class WorkerHarness:
    """Per-slot stateful worker protocol for :meth:`Executor.open` sessions.

    Instances live where the slot runs (in-process for serial, inside the
    worker process for process execution) and are built by a **picklable**
    factory ``factory(slot_id, payload) -> harness``.
    """

    def step(self, control: Any,
             incoming: List[Any]) -> Tuple[Any, List[Tuple[int, List[Any]]]]:
        """Run one synchronized step.

        ``incoming`` lists the messages other slots addressed to this one last
        step, in sending-slot order.  Returns ``(result, outgoing)`` where
        ``outgoing`` is ``[(target_slot, messages), ...]`` — the executor
        delivers each bucket to ``target_slot``'s next ``step``.
        """
        raise NotImplementedError

    def finish(self) -> Any:
        """Tear down and return the slot's result for this session."""
        return None


# --------------------------------------------------------------------------- #
# shared-memory array shipping
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable descriptor of one shared array (or an inline empty one).

    ``name`` is the ``multiprocessing.shared_memory`` segment name; ``None``
    means the array was empty (zero bytes cannot back a segment) and the
    worker rebuilds it locally from shape/dtype alone.
    """

    name: Optional[str]
    shape: Tuple[int, ...]
    dtype: str


def _attach_segment_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering it with the resource tracker.

    Attaching workers must not *own* the segment: Python < 3.13 registers
    every ``SharedMemory(name=...)`` with the (process-tree-shared) resource
    tracker, which would unlink the parent's live segment when a worker exits
    — and several workers attaching the same segment would unregister it more
    than once, spamming the tracker with KeyErrors.  Registration is
    suppressed for the duration of the attach; the creating parent remains
    the sole registered owner.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register

        def _skip_shared_memory(resource_name: str, rtype: str) -> None:
            if rtype != "shared_memory":
                original_register(resource_name, rtype)

        resource_tracker.register = _skip_shared_memory
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
    except AttributeError:
        return shared_memory.SharedMemory(name=name)


class SharedArrayPack:
    """Parent-side registry of numpy arrays exported to shared memory.

    :meth:`share` copies an array into a fresh segment **once** and returns a
    shm-backed view with identical contents, and its spec; the caller is
    expected to replace its live reference with that view, so later in-place
    writes (e.g. feature rows scattered by a
    :class:`~repro.inference.delta.GraphDelta`) land directly in shared memory
    and are visible to every attached worker without re-shipping.  Re-sharing
    that view under the same key is a no-op returning it and the cached spec;
    sharing a different object (the engine swapped the array wholesale, e.g.
    an edge delta) replaces the segment.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._arrays: Dict[str, np.ndarray] = {}
        self._specs: Dict[str, SharedArraySpec] = {}
        self._finalizer = weakref.finalize(self, _unlink_segments,
                                           self._segments)

    def share(self, key: str, array: np.ndarray) -> Tuple[np.ndarray, SharedArraySpec]:
        array = np.ascontiguousarray(array)
        if self._arrays.get(key) is array:
            return array, self._specs[key]
        old = self._segments.pop(key, None)
        if old is not None:
            _unlink_segments({key: old})
        if array.nbytes == 0:
            spec = SharedArraySpec(name=None, shape=array.shape,
                                   dtype=array.dtype.str)
            self._arrays[key] = array
            self._specs[key] = spec
            return array, spec
        segment = shared_memory.SharedMemory(create=True, size=array.nbytes)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        self._segments[key] = segment
        self._arrays[key] = view
        spec = SharedArraySpec(name=segment.name, shape=array.shape,
                               dtype=array.dtype.str)
        self._specs[key] = spec
        return view, spec

    def __len__(self) -> int:
        """Live segments (empty arrays take none)."""
        return len(self._segments)

    def is_current(self, key: str, array: np.ndarray) -> bool:
        """Whether ``array`` is exactly the view already shared under ``key``."""
        return self._arrays.get(key) is array

    def close(self) -> None:
        """Unlink every segment (views become invalid)."""
        self._finalizer()
        self._segments = {}
        self._arrays = {}
        self._specs = {}
        self._finalizer = weakref.finalize(self, _unlink_segments, self._segments)


def _unlink_segments(segments: Dict[str, shared_memory.SharedMemory]) -> None:
    # Unlink before close: unlinking works regardless of live mappings, while
    # closing raises BufferError while numpy views still reference the buffer
    # (those views keep their mapping alive until they are garbage collected).
    for segment in segments.values():
        try:
            segment.unlink()
        except Exception:  # pragma: no cover - cleanup best effort
            pass
        try:
            segment.close()
        except Exception:  # pragma: no cover - views may still be exported
            pass


#: worker-side segment cache so repeated attaches reuse one mapping and the
#: buffers outlive the numpy views built on them.
_ATTACHED_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}


def attach_shared_array(spec: SharedArraySpec) -> np.ndarray:
    """Worker-side view of a :class:`SharedArraySpec` (read/write, zero copy)."""
    if spec.name is None:
        return np.empty(spec.shape, dtype=np.dtype(spec.dtype))
    segment = _ATTACHED_SEGMENTS.get(spec.name)
    if segment is None:
        segment = _attach_segment_untracked(spec.name)
        _ATTACHED_SEGMENTS[spec.name] = segment
    return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)


def prune_attached_segments(live_names: Iterable[str]) -> None:
    """Worker-side: release cached mappings of superseded segments.

    A wholesale array replacement (an edge delta's ``replace_out_edges``)
    makes the parent allocate a fresh segment and unlink the old one — but
    unlinked shm pages stay allocated until the *last mapping* closes, and a
    long-lived worker would otherwise keep every superseded mapping forever.
    Harness factories call this with the names their open payload references;
    anything else in the cache is stale and gets closed (best effort — a
    mapping still referenced by a live numpy view survives until that view is
    garbage collected).
    """
    keep = {name for name in live_names if name is not None}
    for name in list(_ATTACHED_SEGMENTS):
        if name not in keep:
            segment = _ATTACHED_SEGMENTS.pop(name)
            try:
                segment.close()
            except Exception:  # pragma: no cover - exported views keep it alive
                pass


# --------------------------------------------------------------------------- #
# executors
# --------------------------------------------------------------------------- #
class Executor:
    """Common interface; see the module docstring for the harness session."""

    name: str = "base"

    def __init__(self, num_slots: int) -> None:
        if num_slots <= 0:
            raise ValueError("num_slots must be positive")
        self.num_slots = int(num_slots)

    # -- harness sessions -------------------------------------------------- #
    def open(self, factory: Callable[..., Any], payloads: Sequence[Any]) -> None:
        raise NotImplementedError

    def step(self, controls: Sequence[Any], full: bool = False) -> List[Any]:
        """One wave: a control per slot in, a result per slot out (slot order).

        ``full`` says every slot computes its whole partition this wave, so
        an executor may run the slots side by side; a wave that is not full
        touches a few rows per slot.
        """
        raise NotImplementedError

    def close(self) -> List[Any]:
        raise NotImplementedError

    def _check_per_slot(self, what: str, values: Sequence[Any]) -> None:
        if len(values) != self.num_slots:
            raise ValueError(f"expected {self.num_slots} {what}, got {len(values)}")

    def _close_quietly(self) -> None:
        """Tear down whatever session is left, never masking the first error."""
        try:
            self.close()
        except Exception:
            # Best effort by design: this runs while another exception is
            # propagating, and the close may fail on the same broken worker
            # (or find the session already gone after a crash reset); the
            # original exception is the one that matters.
            pass

    @contextmanager
    def session(self, factory: Callable[..., Any],
                payloads: Sequence[Any]) -> Iterator[List[Any]]:
        """One run as a ``with`` block: ``open``, the body's steps, ``close``.

        Yields the list the harnesses' ``finish()`` values land in at a clean
        exit.  A body that raises leaves no session open — the executor can
        serve the next run — and its exception propagates unchanged.
        """
        self.open(factory, payloads)
        finals: List[Any] = []
        try:
            yield finals
            finals.extend(self.close())
        except BaseException:
            self._close_quietly()
            raise

    # -- lifecycle --------------------------------------------------------- #
    def shutdown(self) -> None:
        """Release every resource (worker processes, transport buffers)."""

    def live_processes(self) -> List[BaseProcess]:
        """The worker processes currently alive (none for in-process slots)."""
        return []

    @property
    def is_in_process(self) -> bool:
        """True when harnesses run inside the calling process on live objects."""
        return False


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS, Windows)
        return os.cpu_count() or 1


#: The process-wide helper threads full waves share: every in-process
#: executor hands its spare slots to the same pool, so a process holds at
#: most ``usable_cpus() - 1`` helpers (and their malloc arenas) however many
#: sessions it serves.  Built on first use, grown only if a wider wave asks.
_HELPERS: Optional[ThreadPoolExecutor] = None
_HELPER_COUNT = 0
_HELPERS_LOCK = tracked_rlock("executor._HELPERS_LOCK")


def _hire_helpers(work: Callable[[], None], count: int) -> List["Future[None]"]:
    """Queue ``count`` calls of ``work`` on the helper pool (grown to ``count``)."""
    global _HELPERS, _HELPER_COUNT
    with _HELPERS_LOCK:
        if _HELPERS is None or _HELPER_COUNT < count:
            retired, _HELPER_COUNT = _HELPERS, count
            _HELPERS = ThreadPoolExecutor(count, thread_name_prefix="repro-slot")
            if retired is not None:
                retired.shutdown(wait=False)   # its queued calls still run
        return [_HELPERS.submit(work) for _ in range(count)]


class _Wave:
    """One wave's slots, each taken once, in slot order, by whoever is free.

    :meth:`run` is the caller's share: it works alongside ``width - 1``
    helpers until no slot is left, cancels the helpers that have not
    started, waits for the rest (each ends once it finds no slot left) and
    returns each slot's ``(result, outgoing)`` in slot order.  After a
    failure no further slot starts and the lowest failing slot's exception
    is raised; slots are taken in order, so every slot below a failing one
    has started.
    """

    def __init__(self, step: Callable[[int], Any], num_slots: int) -> None:
        self._step = step
        self._num_slots = num_slots
        self._outcomes: List[Any] = [None] * num_slots
        self._failures: Dict[int, BaseException] = {}
        self._next = 0
        self._lock = tracked_rlock("executor._Wave._lock")

    def _take(self) -> Optional[int]:
        with self._lock:
            if self._next == self._num_slots or self._failures:
                return None
            self._next += 1
            return self._next - 1

    def _work(self) -> None:
        while (slot := self._take()) is not None:
            try:
                self._outcomes[slot] = self._step(slot)
            except BaseException as exc:  # noqa: BLE001 - re-raised by run()
                with self._lock:
                    self._failures[slot] = exc

    def run(self, width: int) -> List[Any]:
        helpers = _hire_helpers(self._work, width - 1) if width > 1 else []
        self._work()
        for helper in helpers:
            helper.cancel()
        wait(helpers)
        if self._failures:
            raise self._failures[min(self._failures)]
        return self._outcomes


class SerialExecutor(Executor):
    """The in-process executor: slots run in this process, on live objects.

    Harnesses operate on the engine's live objects (payloads are passed by
    reference), so every mutation of partition state happens where the
    engine can see it.  A ``full`` wave — one where every slot computes its
    whole partition — runs its slots concurrently: the calling thread and
    the process-wide helper threads each take the next unstarted slot, up
    to :func:`usable_cpus` at once (no thread at one CPU); its numpy
    kernels release the GIL.  Any other wave runs slot ``i`` ``i``-th on
    the calling thread.  Either way results and mail are merged in slot
    order, so every message order, counter and bit is the same.
    """

    name = "serial"

    def __init__(self, num_slots: int) -> None:
        super().__init__(num_slots)
        self._harnesses: Optional[List[Any]] = None
        self._mailboxes: List[List[Any]] = [[] for _ in range(self.num_slots)]

    def open(self, factory: Callable[..., Any], payloads: Sequence[Any]) -> None:
        if self._harnesses is not None:
            raise RuntimeError("executor already has an open harness session")
        self._check_per_slot("payloads", payloads)
        self._harnesses = [factory(slot, payload)
                           for slot, payload in enumerate(payloads)]
        self._mailboxes = [[] for _ in range(self.num_slots)]

    def step(self, controls: Sequence[Any], full: bool = False) -> List[Any]:
        harnesses = self._harnesses
        if harnesses is None:
            raise RuntimeError("no open harness session")
        self._check_per_slot("controls", controls)
        mailboxes = self._mailboxes
        wave = _Wave(lambda slot: harnesses[slot].step(controls[slot], mailboxes[slot]),
                     self.num_slots)
        stepped = wave.run(min(usable_cpus(), self.num_slots) if full else 1)
        results: List[Any] = []
        next_mailboxes: List[List[Any]] = [[] for _ in range(self.num_slots)]
        for result, outgoing in stepped:
            results.append(result)
            for target, messages in outgoing:
                next_mailboxes[target].extend(messages)
        self._mailboxes = next_mailboxes
        return results

    def close(self) -> List[Any]:
        if self._harnesses is None:
            raise RuntimeError("no open harness session")
        harnesses, self._harnesses = self._harnesses, None
        self._mailboxes = [[] for _ in range(self.num_slots)]
        return [harness.finish() for harness in harnesses]

    @property
    def is_in_process(self) -> bool:
        return True


# --------------------------------------------------------------------------- #
# process executor: worker loop + coordinator
# --------------------------------------------------------------------------- #
class _RemoteWorkerError(RuntimeError):
    """A worker failed and the original exception could not be re-raised."""


class WorkerCrashError(RuntimeError):
    """A worker process died (killed, OOM, segfault) mid-protocol.

    The executor resets itself before raising: the surviving workers are torn
    down and the next use respawns a fresh pool, so a single crash degrades
    one run instead of permanently poisoning the session (or the pool entry)
    that holds the executor.
    """


def _process_worker_main(conn: Connection, slot_id: int) -> None:
    """Command loop of one worker process (module-level: spawn-safe).

    Protocol: strict request/response — the coordinator never has more than
    one outstanding command per worker within a wave, and workers only send
    when replying, so neither side can deadlock on a full pipe.
    """
    harness = None
    while True:
        message = conn.recv()
        command = message[0]
        try:
            if command == "open":
                factory, payload = message[1], message[2]
                harness = factory(slot_id, payload)
                conn.send(("ok", None))
            elif command == "step":
                control, blobs = message[1], message[2]
                incoming: List[Any] = []
                for blob in blobs:
                    incoming.extend(pickle.loads(blob))
                result, outgoing = harness.step(control, incoming)
                packed = [(target, pickle.dumps(messages, protocol=_PICKLE_PROTOCOL))
                          for target, messages in outgoing if messages]
                conn.send(("ok", (result, packed)))
            elif command == "close":
                final = harness.finish() if harness is not None else None
                harness = None
                conn.send(("ok", final))
            elif command == "exit":
                conn.send(("ok", None))
                break
            else:  # pragma: no cover - protocol misuse
                conn.send(("error", None, f"unknown command {command!r}"))
        except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
            try:
                conn.send(("error", exc, traceback.format_exc()))
            except Exception:  # unpicklable exception: ship text only
                conn.send(("error", None, traceback.format_exc()))
    conn.close()


def _shutdown_workers(processes: Sequence[BaseProcess],
                      connections: Sequence[Connection]) -> None:
    # Best-effort teardown throughout: a worker that already died (crash,
    # kill, interpreter exit) leaves a broken pipe behind, and shutdown must
    # keep going so the remaining workers are reaped rather than leaked.
    for conn in connections:
        try:
            conn.send(("exit",))
        except (OSError, EOFError, BrokenPipeError):
            pass
    for conn in connections:
        try:
            conn.recv()
        except (OSError, EOFError, BrokenPipeError):
            pass
        try:
            conn.close()
        except OSError:
            pass
    for process in processes:
        process.join(timeout=5)
        if process.is_alive():  # pragma: no cover - stuck worker
            process.terminate()
            process.join(timeout=5)


def default_start_method() -> str:
    """``fork`` where available (fast, inherits the loaded numpy), else spawn."""
    override = os.environ.get(START_METHOD_ENV_VAR)
    if override:
        return override
    try:
        from multiprocessing import get_all_start_methods

        return "fork" if "fork" in get_all_start_methods() else "spawn"
    except ImportError:  # pragma: no cover - minimal interpreter builds only
        return "spawn"


class ProcessExecutor(Executor):
    """One persistent OS process per slot; the coordinator only relays bytes.

    Workers are started lazily on first use and reused across harness
    sessions, so engines that execute many runs (a serving session's
    ``infer_many``) pay the process start-up cost once.
    Per-step message buckets cross the coordinator as pre-pickled opaque
    blobs — the parent never deserialises another worker's traffic.
    """

    name = "process"

    def __init__(self, num_slots: int) -> None:
        super().__init__(num_slots)
        self._context = get_context(default_start_method())
        self._processes: List[Any] = []
        self._connections: List[Any] = []
        self._session_open = False
        self._mail_blobs: List[List[bytes]] = [[] for _ in range(self.num_slots)]
        self._finalizer: Optional[weakref.finalize] = None

    # ------------------------------------------------------------------ #
    def _ensure_workers(self) -> None:
        if self._processes:
            return
        processes, connections = [], []
        for slot in range(self.num_slots):
            with _START_LOCK:
                parent_conn, child_conn = self._context.Pipe(duplex=True)
                process = self._context.Process(
                    target=_process_worker_main, args=(child_conn, slot),
                    daemon=True, name=f"repro-executor-{slot}")
                process.start()
                child_conn.close()
            processes.append(process)
            connections.append(parent_conn)
        self._processes = processes
        self._connections = connections
        self._finalizer = weakref.finalize(self, _shutdown_workers,
                                           processes, connections)

    def _reset_after_crash(self, dead_slots: Sequence[int]) -> None:
        """Tear the pool down after a worker death; the next use respawns."""
        self.shutdown()
        raise WorkerCrashError(
            f"worker process(es) {sorted(set(dead_slots))} died mid-run "
            "(killed / out of memory?); the executor pool was reset and will "
            "respawn workers on its next use")

    def _exchange(self, messages: Sequence[Any]) -> List[Any]:
        """One wave: a command to every worker, then every worker's response.

        Responses are drained before anything is raised, which keeps the
        request/response protocol in sync when a worker *fails* — the
        session (and the next run) can proceed after the caller handles the
        error.  A worker that *died* (closed pipe, either direction) instead
        resets the whole pool via :class:`WorkerCrashError`.
        """
        dead: List[int] = []
        for slot, message in enumerate(messages):
            try:
                self._connections[slot].send(message)
            except (BrokenPipeError, EOFError, OSError):
                dead.append(slot)
        if dead:
            self._reset_after_crash(dead)
        responses: List[Any] = []
        for slot, connection in enumerate(self._connections):
            try:
                responses.append(connection.recv())
            except (EOFError, BrokenPipeError, OSError):
                dead.append(slot)
        if dead:
            self._reset_after_crash(dead)
        for slot, (status, *rest) in enumerate(responses):
            if status != "ok":
                exc, text = rest
                if isinstance(exc, BaseException):
                    raise exc
                raise _RemoteWorkerError(f"worker {slot} failed:\n{text}")
        return [value for _, value in responses]

    # ------------------------------------------------------------------ #
    def open(self, factory: Callable[..., Any], payloads: Sequence[Any]) -> None:
        if self._session_open:
            raise RuntimeError("executor already has an open harness session")
        self._check_per_slot("payloads", payloads)
        self._ensure_workers()
        self._session_open = True
        self._mail_blobs = [[] for _ in range(self.num_slots)]
        try:
            self._exchange([("open", factory, payload) for payload in payloads])
        except BaseException:
            # Some harnesses may exist worker-side; close them so the session
            # slot is reusable.
            self._close_quietly()
            raise

    def step(self, controls: Sequence[Any], full: bool = False) -> List[Any]:
        if not self._session_open:
            raise RuntimeError("no open harness session")
        self._check_per_slot("controls", controls)
        stepped = self._exchange([("step", control, blobs)
                                  for control, blobs in zip(controls, self._mail_blobs)])
        results: List[Any] = []
        next_blobs: List[List[bytes]] = [[] for _ in range(self.num_slots)]
        for result, packed in stepped:
            results.append(result)
            for target, blob in packed:
                next_blobs[target].append(blob)
        self._mail_blobs = next_blobs
        return results

    def close(self) -> List[Any]:
        if not self._session_open:
            raise RuntimeError("no open harness session")
        try:
            return self._exchange([("close",)] * self.num_slots)
        finally:
            self._session_open = False
            self._mail_blobs = [[] for _ in range(self.num_slots)]

    # ------------------------------------------------------------------ #
    def live_processes(self) -> List[BaseProcess]:
        return [process for process in self._processes if process.is_alive()]

    def shutdown(self) -> None:
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._processes = []
        self._connections = []
        self._session_open = False
        self._mail_blobs = [[] for _ in range(self.num_slots)]


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
_EXECUTORS: Dict[str, Type[Executor]] = {
    SerialExecutor.name: SerialExecutor,
    ProcessExecutor.name: ProcessExecutor,
}


def available_executors() -> Set[str]:
    """The names of all known executor substrates."""
    return set(_EXECUTORS)


def executor_class(name: str, source: str = "executor") -> Type[Executor]:
    """The executor class registered as ``name``; :class:`UnknownExecutorError`
    names ``source`` (where the name came from) and the known names."""
    try:
        return _EXECUTORS[name]
    except KeyError:
        known = ", ".join(repr(n) for n in sorted(_EXECUTORS))
        raise UnknownExecutorError(
            f"unknown {source} {name!r}; known executors: {known}") from None


def default_executor_name() -> str:
    """``$REPRO_EXECUTOR`` when set (validated), else ``"serial"``."""
    name = os.environ.get(EXECUTOR_ENV_VAR, SerialExecutor.name)
    return executor_class(name, EXECUTOR_ENV_VAR).name


def build_executor(name: Optional[str] = None, num_slots: int = 1) -> Executor:
    """Instantiate an executor by registry name (None → the env default)."""
    return executor_class(default_executor_name() if name is None else name)(num_slots)
