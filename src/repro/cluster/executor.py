"""Pluggable per-partition executors: in-process loop or one OS process each.

Both sharded engines — the Pregel superstep loop, the MapReduce round driver
— hand their per-slot work to a pluggable worker substrate:

* :class:`SerialExecutor` — the historical behaviour, bit for bit: per-slot
  work runs in the calling process, in slot order, against the engine's live
  objects.  Zero copies, zero pickling.
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
``open`` ships once per run (a Pregel partition and its program; a chain of
MapReduce jobs and the slot's rows), receives per-step control plus the
messages other slots addressed to it last step, and returns a control result
plus its own outgoing ``(target_slot, messages)`` buckets; the executor owns
the transport between steps, and what a harness keeps between them is its own
business (Pregel: node state; MapReduce: the rows it maps next).  A step is
one bulk-synchronous wave of exactly ``num_slots`` commands, which keeps the
pipe protocol trivially deadlock-free.

Determinism contract: an engine that routes its per-slot work through the
executor interface produces **the same results under both executors** — the
serial executor calls the very same harness code in the same order, and the
process executor runs the same numpy ops on the same arrays (BLAS kernels are
deterministic for identical shapes and inputs on one machine).  Message
buckets are delivered in sending-slot order, matching the serial loop's
mailbox extension order, so order-sensitive reductions see identical operand
sequences.  The conformance suite (``tests/test_backend_conformance.py``)
asserts this for every backend.
"""

from __future__ import annotations

import os
import pickle
import traceback
import weakref
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

import numpy as np

#: environment variable naming the default executor (``build_executor(None)``).
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"
#: environment variable overriding the multiprocessing start method.
START_METHOD_ENV_VAR = "REPRO_EXECUTOR_START_METHOD"

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


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
        """Tear down and return the final state the engine should keep."""
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
    shm-backed view with identical contents; the caller is expected to replace
    its live reference with that view, so later in-place writes (e.g. feature
    rows scattered by a :class:`~repro.inference.delta.GraphDelta`) land
    directly in shared memory and are visible to every attached worker without
    re-shipping.  Re-sharing the *same* array object under the same key is a
    no-op returning the cached spec; sharing a different object (the engine
    swapped the array wholesale, e.g. an edge delta) replaces the segment.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._arrays: Dict[str, np.ndarray] = {}
        self._specs: Dict[str, SharedArraySpec] = {}
        self._finalizer = weakref.finalize(self, _unlink_segments,
                                           self._segments)

    def share(self, key: str, array: np.ndarray) -> SharedArraySpec:
        array = np.ascontiguousarray(array)
        cached = self._arrays.get(key)
        if cached is not None and cached is array:
            return self._specs[key]
        old = self._segments.pop(key, None)
        if old is not None:
            _unlink_segments({key: old})
        if array.nbytes == 0:
            spec = SharedArraySpec(name=None, shape=array.shape,
                                   dtype=array.dtype.str)
            self._arrays[key] = array
            self._specs[key] = spec
            return spec
        segment = shared_memory.SharedMemory(create=True, size=array.nbytes)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        self._segments[key] = segment
        self._arrays[key] = view
        spec = SharedArraySpec(name=segment.name, shape=array.shape,
                               dtype=array.dtype.str)
        self._specs[key] = spec
        return spec

    def __len__(self) -> int:
        """Live segments (empty arrays take none)."""
        return len(self._segments)

    def array_for(self, key: str) -> np.ndarray:
        """The parent-side (shm-backed) view registered under ``key``."""
        return self._arrays[key]

    def spec_for(self, key: str) -> SharedArraySpec:
        """The picklable descriptor of the array registered under ``key``."""
        return self._specs[key]

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

    def step(self, controls: Sequence[Any]) -> List[Any]:
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


class SerialExecutor(Executor):
    """The historical in-process loop: slot ``i`` runs ``i``-th, same process.

    Harnesses operate on the engine's live objects (payloads are passed by
    reference), so behaviour — including every mutation of partition state —
    is bit-identical to the pre-executor code path.
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

    def step(self, controls: Sequence[Any]) -> List[Any]:
        if self._harnesses is None:
            raise RuntimeError("no open harness session")
        self._check_per_slot("controls", controls)
        results: List[Any] = []
        next_mailboxes: List[List[Any]] = [[] for _ in range(self.num_slots)]
        for slot, harness in enumerate(self._harnesses):
            result, outgoing = harness.step(controls[slot], self._mailboxes[slot])
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

    def step(self, controls: Sequence[Any]) -> List[Any]:
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


def default_executor_name() -> str:
    """``$REPRO_EXECUTOR`` when set (validated), else ``"serial"``."""
    name = os.environ.get(EXECUTOR_ENV_VAR, SerialExecutor.name)
    if name not in _EXECUTORS:
        known = ", ".join(repr(n) for n in sorted(_EXECUTORS))
        raise UnknownExecutorError(
            f"{EXECUTOR_ENV_VAR}={name!r} names no executor; known: {known}")
    return name


def build_executor(name: Optional[str] = None, num_slots: int = 1) -> Executor:
    """Instantiate an executor by registry name (None → the env default)."""
    resolved = default_executor_name() if name is None else name
    try:
        cls = _EXECUTORS[resolved]
    except KeyError:
        known = ", ".join(repr(n) for n in sorted(_EXECUTORS))
        raise UnknownExecutorError(
            f"unknown executor {resolved!r}; known executors: {known}") from None
    return cls(num_slots)
