"""Unit tests for the executor layer itself.

The engines' conformance is covered in ``test_backend_conformance.py``; here
the executor contracts are tested in isolation: registry resolution, the
harness session (per-slot results, cross-slot message delivery, worker error
propagation, the failed-run teardown), crash recovery, shared-memory array
shipping (including the in-place-write visibility the delta path relies on),
and the measured wall-clock seconds the harness records beside the
deterministic counters.
"""

from __future__ import annotations

import numpy as np
import pytest

import os
import signal
import threading
import time

from repro.cluster import executor as executor_module
from repro.cluster.cost_model import CostModel
from repro.cluster.executor import (
    ProcessExecutor,
    SerialExecutor,
    SharedArrayPack,
    UnknownExecutorError,
    WorkerCrashError,
    WorkerHarness,
    attach_shared_array,
    available_executors,
    build_executor,
    default_executor_name,
    default_start_method,
)
from repro.cluster.metrics import MetricsCollector
from repro.cluster.resources import ClusterSpec
from repro.inference import InferenceConfig

EXECUTOR_NAMES = sorted(available_executors())


# --------------------------------------------------------------------------- #
# module-level helpers (must be picklable for the process executor)
# --------------------------------------------------------------------------- #
def _square(value):
    return value * value


def _fail(value):
    raise ValueError(f"task exploded on {value}")


def _getpid():
    return os.getpid()


class _CallHarness(WorkerHarness):
    """Runs the ``(fn, *args)`` its step control names: no state, no mail."""

    def __init__(self, slot_id, payload):
        self.slot_id = slot_id

    def step(self, control, incoming):
        fn, *args = control
        return fn(*args), []

    def finish(self):
        return self.slot_id


def _open_fails_on_slot_one(slot_id, payload):
    if slot_id == 1:
        raise ValueError("open exploded")
    return _CallHarness(slot_id, payload)


class _SharedRowReader(WorkerHarness):
    """Attaches the shared array its open payload describes; reads rows."""

    def __init__(self, slot_id, spec):
        self.array = attach_shared_array(spec)

    def step(self, row, incoming):
        return float(self.array[row, 0]), []


class _EchoHarness(WorkerHarness):
    """Forwards each received number to the next slot, +slot_id."""

    def __init__(self, slot_id, payload):
        self.slot_id = slot_id
        self.num_slots = payload["num_slots"]
        self.received = []

    def step(self, control, incoming):
        self.received.append(sorted(incoming))
        target = (self.slot_id + 1) % self.num_slots
        return (self.slot_id, list(incoming)), [(target, [control + self.slot_id])]

    def finish(self):
        return self.received


def _build_echo_harness(slot_id, payload):
    return _EchoHarness(slot_id, payload)


# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_available_contains_both_substrates(self):
        assert {"serial", "process"} <= available_executors()

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownExecutorError, match="unknown executor"):
            build_executor("threads", 2)

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert default_executor_name() == "serial"
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        assert default_executor_name() == "process"
        assert build_executor(None, 2).name == "process"
        monkeypatch.setenv("REPRO_EXECUTOR", "bogus")
        with pytest.raises(UnknownExecutorError, match="REPRO_EXECUTOR 'bogus'"):
            default_executor_name()

    def test_config_checks_the_name_the_same_way(self):
        with pytest.raises(UnknownExecutorError,
                           match="unknown executor 'threads'; known executors: 'process', 'serial'"):
            InferenceConfig(executor="threads")

    def test_invalid_slot_count(self):
        with pytest.raises(ValueError):
            SerialExecutor(0)


@pytest.mark.parametrize("name", EXECUTOR_NAMES)
class TestStepResults:
    def test_results_in_slot_order(self, name):
        executor = build_executor(name, 3)
        try:
            executor.open(_CallHarness, [None] * 3)
            # Several waves in one session: each preserves slot order.
            for wave in (range(0, 3), range(3, 6), range(6, 9)):
                assert executor.step([(_square, i) for i in wave]) == \
                    [i * i for i in wave]
            assert executor.close() == [0, 1, 2]
        finally:
            executor.shutdown()

    def test_step_errors_propagate(self, name):
        executor = build_executor(name, 2)
        try:
            executor.open(_CallHarness, [None] * 2)
            with pytest.raises(ValueError, match="task exploded on 7"):
                executor.step([(_square, 1), (_fail, 7)])
            # The same session stays usable after a failed step.
            assert executor.step([(_square, 3), (_square, 4)]) == [9, 16]
            executor.close()
        finally:
            executor.shutdown()

    def test_a_full_wave_keeps_slot_order(self, name):
        """Results and mail come back in slot order whichever slot finished
        first: the same as a wave stepped one slot at a time."""
        executor = build_executor(name, 4)
        try:
            executor.open(_build_echo_harness, [{"num_slots": 4}] * 4)
            assert executor.step([10] * 4, full=True) == [(slot, []) for slot in range(4)]
            second = executor.step([20] * 4, full=True)
            assert [incoming for _, incoming in second] == [[13], [10], [11], [12]]
            executor.close()
        finally:
            executor.shutdown()

    @pytest.mark.parametrize("count", [1, 3])
    def test_control_count_mismatch(self, name, count):
        executor = build_executor(name, 2)
        try:
            executor.open(_CallHarness, [None] * 2)
            with pytest.raises(ValueError, match="expected 2 controls"):
                executor.step([(_square, 2)] * count)
            # Nothing was sent: the session is still in step.
            assert executor.step([(_square, 2)] * 2) == [4, 4]
            executor.close()
        finally:
            executor.shutdown()


@pytest.mark.parametrize("name", EXECUTOR_NAMES)
class TestSessionContext:
    """``Executor.session``: the one failed-run teardown both engines use."""

    def test_clean_exit_closes_and_delivers_the_finals(self, name):
        executor = build_executor(name, 2)
        try:
            with executor.session(_CallHarness, [None] * 2) as finals:
                assert executor.step([(_square, 2), (_square, 3)]) == [4, 9]
                assert finals == []
            assert finals == [0, 1]
            with pytest.raises(RuntimeError, match="no open harness session"):
                executor.close()
        finally:
            executor.shutdown()

    def test_failed_open_leaves_no_session(self, name):
        executor = build_executor(name, 2)
        try:
            with pytest.raises(ValueError, match="open exploded"):
                executor.open(_open_fails_on_slot_one, [None] * 2)
            # Slot 0's harness was torn down with the failed open.
            executor.open(_CallHarness, [None] * 2)
            assert executor.step([(_square, 2), (_square, 3)]) == [4, 9]
            executor.close()
        finally:
            executor.shutdown()

    def test_failing_body_leaves_no_session_and_its_error_propagates(self, name):
        executor = build_executor(name, 2)
        try:
            with pytest.raises(ValueError, match="task exploded on 5"):
                with executor.session(_CallHarness, [None] * 2):
                    executor.step([(_fail, 5), (_square, 1)])
            with pytest.raises(KeyError, match="coordinator"):
                with executor.session(_CallHarness, [None] * 2):
                    raise KeyError("coordinator")
            # No session was left open: the next run opens without complaint.
            with executor.session(_CallHarness, [None] * 2) as finals:
                assert executor.step([(_square, 5), (_square, 6)]) == [25, 36]
            assert finals == [0, 1]
        finally:
            executor.shutdown()


@pytest.mark.parametrize("name", EXECUTOR_NAMES)
class TestHarnessSession:
    def test_messages_route_between_slots(self, name):
        num_slots = 3
        executor = build_executor(name, num_slots)
        try:
            executor.open(_build_echo_harness,
                          [{"num_slots": num_slots}] * num_slots)
            first = executor.step([100] * num_slots)
            # Step 0: no mail yet.
            assert [incoming for _, incoming in first] == [[], [], []]
            second = executor.step([200] * num_slots)
            # Step 1: slot s received 100 + (s-1) from its left neighbour.
            assert [incoming for _, incoming in second] == [[102], [100], [101]]
            finals = executor.close()
        finally:
            executor.shutdown()
        if name == "serial":
            # Serial harnesses are live objects; their history is observable.
            assert finals == [[[], [102]], [[], [100]], [[], [101]]]

    def test_double_open_rejected(self, name):
        executor = build_executor(name, 1)
        try:
            executor.open(_build_echo_harness, [{"num_slots": 1}])
            with pytest.raises(RuntimeError, match="already has an open"):
                executor.open(_build_echo_harness, [{"num_slots": 1}])
            executor.close()
            # Closed sessions can be reopened.
            executor.open(_build_echo_harness, [{"num_slots": 1}])
            executor.close()
        finally:
            executor.shutdown()

    def test_payload_count_mismatch(self, name):
        executor = build_executor(name, 2)
        try:
            with pytest.raises(ValueError, match="expected 2 payloads"):
                executor.open(_build_echo_harness, [{"num_slots": 2}])
        finally:
            executor.shutdown()


class _ThreadProbe(WorkerHarness):
    """Runs the callable its control names and reports the thread it ran on."""

    def __init__(self, slot_id, payload):
        self.slot_id = slot_id

    def step(self, control, incoming):
        control(self.slot_id)
        return threading.get_ident(), []


class TestConcurrentWaves:
    """The in-process executor's full waves: slots side by side, up to the
    usable CPUs (``usable_cpus``, patched here), on the process-wide helpers."""

    @staticmethod
    def stepped(width, controls, full=True, monkeypatch=None):
        monkeypatch.setattr(executor_module, "usable_cpus", lambda: width)
        executor = SerialExecutor(len(controls))
        executor.open(_ThreadProbe, [None] * len(controls))
        try:
            return executor.step(controls, full=full)
        finally:
            executor.close()

    def test_usable_cpus_reads_the_affinity_mask(self):
        assert executor_module.usable_cpus() == len(os.sched_getaffinity(0))

    def test_slots_of_a_full_wave_run_side_by_side(self, monkeypatch):
        # Slots 0 and 1 each wait for the other: the wave ends only if they
        # overlap (a lone thread would break the barrier at its timeout).
        both = threading.Barrier(2, timeout=10)
        threads = self.stepped(3, [lambda slot: both.wait()] * 2
                               + [lambda slot: None] * 4, monkeypatch=monkeypatch)
        assert len(set(threads[:2])) == 2

    @pytest.mark.parametrize("width,full", [(1, True), (4, False)],
                             ids=["one-cpu", "incremental-wave"])
    def test_other_waves_run_in_slot_order_on_the_caller(self, width, full, monkeypatch):
        order = []
        threads = self.stepped(width, [order.append] * 5, full=full, monkeypatch=monkeypatch)
        assert order == list(range(5))
        assert set(threads) == {threading.get_ident()}

    def test_failing_slots_raise_the_lowest_once_every_started_slot_is_done(self,
                                                                           monkeypatch):
        """Slot 3 fails first, slot 1 after it: slot 1's error surfaces, no
        step is still running when ``step`` returns, nothing starts after a
        failure, and the session steps on."""
        monkeypatch.setattr(executor_module, "usable_cpus", lambda: 4)
        slot_three_failed = threading.Event()
        lock = threading.Lock()
        running, started = [0], []

        def work(slot):
            with lock:
                running[0] += 1
                started.append(slot)
            try:
                if slot == 3:
                    slot_three_failed.set()
                    raise ValueError("slot 3 failed")
                if slot == 1:
                    assert slot_three_failed.wait(10)
                    raise ValueError("slot 1 failed")
            finally:
                with lock:
                    running[0] -= 1

        executor = SerialExecutor(6)
        executor.open(_ThreadProbe, [None] * 6)
        try:
            with pytest.raises(ValueError, match="slot 1 failed"):
                executor.step([work] * 6, full=True)
            assert running[0] == 0
            assert sorted(started) == [0, 1, 2, 3]
            assert len(executor.step([lambda slot: None] * 6, full=True)) == 6
        finally:
            executor.close()


class TestCrashRecovery:
    def test_dead_worker_resets_pool_and_next_use_respawns(self):
        executor = ProcessExecutor(2)
        try:
            executor.open(_CallHarness, [None] * 2)
            pids = executor.step([(_getpid,), (_getpid,)])
            os.kill(pids[0], signal.SIGKILL)
            time.sleep(0.2)     # let the kill land before the next wave
            with pytest.raises(WorkerCrashError, match="respawn"):
                executor.step([(_square, 1), (_square, 2)])
            # The crash must not poison the executor: the session is gone with
            # the pool, and the next open respawns a fresh one transparently
            # (this is what keeps a SessionPool entry serviceable after one
            # OOM-killed worker).
            executor.open(_CallHarness, [None] * 2)
            assert executor.step([(_square, 2), (_square, 3)]) == [4, 9]
            assert set(executor.step([(_getpid,), (_getpid,)])) != set(pids)
            executor.close()
        finally:
            executor.shutdown()


def _sentinel_write_ends(pid: int) -> set:
    """The pipes a process holds open for writing (as ``pipe:[inode]``)."""
    ends = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
            with open(f"/proc/{pid}/fdinfo/{fd}") as info:
                flags = int(info.read().split("flags:")[1].split()[0], 8)
        except OSError:
            continue
        if target.startswith("pipe:") and flags & os.O_ACCMODE == os.O_WRONLY:
            ends.add(target)
    return ends


@pytest.mark.skipif(default_start_method() != "fork" or not os.path.isdir("/proc/self/fdinfo"),
                    reason="descriptors leak across fork only; read through /proc")
def test_workers_started_from_two_threads_keep_no_sibling_sentinel():
    # A fork copies every open descriptor.  A worker forked from one thread
    # while another thread starts its own worker must not keep that worker's
    # exit sentinel open, or the sibling's shutdown waits out its join
    # timeout for an end-of-file that never comes.
    for _ in range(5):
        executors = [ProcessExecutor(2), ProcessExecutor(2)]
        barrier = threading.Barrier(2)

        def start(executor: ProcessExecutor) -> None:
            barrier.wait()
            executor._ensure_workers()

        threads = [threading.Thread(target=start, args=(executor,)) for executor in executors]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for mine, other in ((0, 1), (1, 0)):
                sentinels = {os.readlink(f"/proc/self/fd/{process.sentinel}")
                             for process in executors[mine].live_processes()}
                for process in executors[other].live_processes():
                    assert not sentinels & _sentinel_write_ends(process.pid)
        finally:
            for executor in executors:
                executor.shutdown()


class TestSharedArrays:
    def test_roundtrip_and_in_place_visibility(self):
        pack = SharedArrayPack()
        try:
            source = np.arange(12, dtype=np.float64).reshape(4, 3)
            view, spec = pack.share("x", source)
            np.testing.assert_array_equal(view, source)

            executor = ProcessExecutor(1)
            try:
                executor.open(_SharedRowReader, [spec])
                assert executor.step([1]) == [3.0]
                # Parent-side in-place write is visible to workers without
                # re-sharing — the property feature-delta scatters rely on.
                view[1, 0] = 42.0
                assert executor.step([1]) == [42.0]
                executor.close()
            finally:
                executor.shutdown()

            # Re-sharing the same view is a no-op returning the same segment.
            again, same = pack.share("x", view)
            assert again is view and same.name == spec.name
            assert pack.is_current("x", view)
            # A wholesale-replaced array gets a fresh segment.
            replacement = np.zeros((2, 2))
            assert pack.share("x", replacement)[1].name != spec.name
        finally:
            pack.close()

    def test_empty_arrays_ship_inline(self):
        pack = SharedArrayPack()
        try:
            _, spec = pack.share("empty", np.empty(0, dtype=np.int64))
            assert spec.name is None
            attached = attach_shared_array(spec)
            assert attached.size == 0 and attached.dtype == np.int64
        finally:
            pack.close()


class TestMeasuredSeconds:
    def test_measured_seconds_sum_per_instance_and_phase(self):
        # The per-phase and per-instance views the bench probes read.
        metrics = MetricsCollector()
        metrics.record("phase_0", 0, compute_units=100.0, measured_seconds=0.25)
        metrics.record("phase_0", 1, compute_units=900.0, measured_seconds=0.75)
        metrics.record("phase_1", 0, compute_units=10.0, measured_seconds=0.5)
        metrics.record("phase_1", 0, measured_seconds=0.125)
        assert metrics.per_instance("measured_seconds") == {0: 0.875, 1: 0.75}
        assert [m.measured_seconds for m in metrics.instances("phase_0")] == [0.25, 0.75]
        assert metrics.total("measured_seconds", "phase_1") == 0.625

    def test_measured_seconds_never_reach_the_cost_summary(self):
        # Host timings are not deterministic, so the simulated cost must not
        # move with them — even when they disagree on the straggler.
        def collect(measured):
            metrics = MetricsCollector()
            metrics.record("phase_0", 0, compute_units=100.0,
                           measured_seconds=measured[0])
            metrics.record("phase_0", 1, compute_units=900.0,
                           measured_seconds=measured[1])
            return metrics

        model = CostModel(ClusterSpec.pregel_default(2))
        unmeasured = model.summarize(collect((0.0, 0.0)))
        measured = model.summarize(collect((5.0, 0.1)))
        assert measured.wall_clock_seconds == unmeasured.wall_clock_seconds
        assert measured.cpu_minutes == unmeasured.cpu_minutes
        assert measured.instance_times() == unmeasured.instance_times()
        assert measured.phases[0].straggler_instance == 1
