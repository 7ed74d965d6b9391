"""The soak: the gateway machine's model run long from one seed.

:func:`soak` drives :class:`~tests.test_gateway_state_machine.GatewayModel`
for a number of ticks, every choice drawn from
``np.random.default_rng(seed)``: per tick an optional fault (a worker kill,
an eviction or an infer cancelled while queued), two submissions of one to
three deltas (a burst when more than one) and, every ``infer_every`` ticks,
one infer per tenant.  The model checks every served result against a fresh
``prepare()+infer()`` on its reference, bit for bit, so a finished soak is
oracle-clean.  What the soak adds are the gates of a long run: crash
recovery, delivery accounting, zero re-plans, the shared-memory and worker
census and replayability.  :class:`TestSloGates` runs ``$REPRO_SOAK_SECONDS``
ticks (30 by default, 600 in the nightly job) from ``$REPRO_SOAK_SEED``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import numpy as np
import pytest

from repro.cluster.executor import available_executors, default_executor_name
from tests.test_gateway_state_machine import MAX_ATTEMPTS, MODES, GatewayModel

PROCESS_AVAILABLE = "process" in available_executors()
SOAK_SECONDS_ENV = "REPRO_SOAK_SECONDS"
SOAK_SEED_ENV = "REPRO_SOAK_SEED"
FAULTS = ("kill_worker", "evict_tenant", "cancel_queued_infer")
SUBMISSIONS_PER_TICK = 2
COUNTS = ("deltas_issued", "deltas_delivered", "infers_issued", "infers_served", "crashes",
          "recoveries", "kills", "evictions", "cancelled")


def soak_seconds_from_env(default: int = 30) -> int:
    """``$REPRO_SOAK_SECONDS`` (ticks), or ``default``."""
    raw = os.environ.get(SOAK_SECONDS_ENV)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{SOAK_SECONDS_ENV}={raw!r} is not an integer") from None
    if value <= 0:
        raise ValueError(f"{SOAK_SECONDS_ENV} must be positive, got {value}")
    return value


def soak_seed_from_env(default: int = 0) -> int:
    """``$REPRO_SOAK_SEED``, or ``default`` (any integer is a seed)."""
    raw = os.environ.get(SOAK_SEED_ENV)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SOAK_SEED_ENV}={raw!r} is not an integer") from None


def census(model: GatewayModel) -> Dict[str, int]:
    """Shared-memory segments, live worker processes and delta-forced
    re-plans over the pool's live sessions."""
    segments = processes = replans = 0
    for session in model.pool.sessions():
        engine = session.plan.state["engine"]
        segments += engine.num_shared_segments
        executor = engine.started_executor
        processes += 0 if executor is None else len(executor.live_processes())
        replans += session.num_replans
    return {"shm_segments": segments, "worker_processes": processes, "replans": replans}


def soak(ticks: int, seed: int, backend: str = "pregel", executor: Optional[str] = None,
         use_gateway: bool = True, shadow_nodes: bool = True, fault_rate: float = 0.15,
         edge_share: float = 0.3, infer_every: int = 2) -> Dict[str, object]:
    """Run the model for ``ticks`` ticks drawn from ``seed``; its summary.

    ``executor=None`` follows ``$REPRO_EXECUTOR``, so the CI matrix runs a
    soak on both executors: kills are live on the process executor and
    no-ops on the serial one.
    """
    rng = np.random.default_rng(seed)
    model = GatewayModel(backend, executor or default_executor_name(), shadow_nodes,
                         use_gateway)
    peak = {"shm_segments": 0, "worker_processes": 0, "replans": 0}
    last: Dict[str, int] = {}
    try:
        for tick in range(ticks):
            if rng.random() < fault_rate:
                fault, which = FAULTS[int(rng.integers(len(FAULTS)))], int(rng.integers(2))
                if fault == "kill_worker":
                    model.kill_worker(which, int(rng.integers(64)))
                elif fault == "evict_tenant":
                    model.evict(which)
                else:
                    model.cancel_queued_infer(which, MODES[int(rng.integers(2))])
            for _ in range(SUBMISSIONS_PER_TICK):
                which, size = int(rng.integers(2)), int(rng.integers(1, 4))
                model.submit(which, [model.draw(rng, which, bool(rng.random() < edge_share))
                                     for _ in range(size)])
            if tick % infer_every == infer_every - 1:
                for which in (0, 1):
                    model.infer(which, MODES[int(rng.integers(2))])
            last = census(model)
            peak = {name: max(peak[name], value) for name, value in last.items()}
        model.close()
    finally:
        model.release()
    return {**{name: model.counts[name] for name in COUNTS},
            "attempts": model.attempts, "digest": model.digest,
            "max_shm_segments": peak["shm_segments"],
            "final_shm_segments": last.get("shm_segments", 0),
            "max_worker_processes": peak["worker_processes"],
            "replans": peak["replans"]}


def assert_accountable(summary: Dict[str, object]) -> None:
    """Every delta delivered, every infer served, every crash recovered."""
    assert summary["deltas_delivered"] == summary["deltas_issued"] > 0
    assert summary["infers_served"] == summary["infers_issued"] > 0
    assert summary["recoveries"] == summary["crashes"]
    assert all(attempt <= MAX_ATTEMPTS for attempt in summary["attempts"])


class TestSteadyState:
    def test_gateway_soak_is_clean_and_accountable(self):
        summary = soak(6, seed=5, fault_rate=0.0)
        assert_accountable(summary)
        assert summary["crashes"] == 0 and summary["replans"] == 0

    def test_same_seed_reproduces_the_summary(self):
        first = soak(8, seed=3, executor="serial", fault_rate=0.5)
        assert first == soak(8, seed=3, executor="serial", fault_rate=0.5)
        assert first["evictions"] + first["cancelled"] > 0
        assert first["digest"] != soak(8, seed=4, executor="serial", fault_rate=0.5)["digest"]

    def test_bare_pool_path_matches_the_gateway_path(self):
        # The gateway front-end must not change what is computed: the same
        # draws through the bare pool serve the same scores.
        gateway = soak(8, seed=9, executor="serial", fault_rate=0.5)
        bare = soak(8, seed=9, executor="serial", fault_rate=0.5, use_gateway=False)
        assert_accountable(bare)
        assert bare["digest"] == gateway["digest"]
        assert bare["infers_served"] == gateway["infers_served"]


class TestFaultedSoaks:
    @pytest.mark.skipif(not PROCESS_AVAILABLE, reason="process executor unavailable")
    def test_worker_kills_recover_mid_stream(self):
        summary = soak(10, seed=2, executor="process", fault_rate=0.6)
        assert summary["kills"] >= 1 and summary["crashes"] >= 1
        assert_accountable(summary)

    @pytest.mark.skipif(not PROCESS_AVAILABLE, reason="process executor unavailable")
    def test_the_process_executor_serves_the_serial_scores(self):
        # An executor changes speed, never results: worker kills and
        # respawns included, the bare pool on worker processes serves what
        # the gateway on the serial executor serves.
        process = soak(10, seed=6, executor="process", use_gateway=False, fault_rate=0.6)
        serial = soak(10, seed=6, executor="serial", fault_rate=0.6)
        assert process["kills"] >= 1 and serial["kills"] == 0
        assert process["digest"] == serial["digest"]

    def test_evictions_and_cancellations_leave_the_stream_clean(self):
        summary = soak(10, seed=2, executor="serial", fault_rate=0.6)
        assert summary["evictions"] >= 1 and summary["cancelled"] >= 1
        assert summary["kills"] == 0
        assert_accountable(summary)

    def test_mapreduce_soak_matches_the_oracle_bit_for_bit(self):
        # MapReduce runs every tick in full over an in-place-patched graph,
        # shadow rewrite on.  The kills are live on the process leg.
        summary = soak(10, seed=2, backend="mapreduce", fault_rate=0.6)
        assert_accountable(summary)
        if default_executor_name() == "process":
            assert summary["kills"] >= 1


class TestResourceCeilings:
    @pytest.mark.skipif(not PROCESS_AVAILABLE, reason="process executor unavailable")
    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_shm_segments_plateau_under_edge_churn(self, backend):
        # Edge churn swaps src/dst wholesale every flush; each swap replaces
        # a segment under its key, so the parent's census after 200 ticks
        # equals the census after 20.
        def churn(ticks: int) -> Dict[str, object]:
            return soak(ticks, seed=13, backend=backend, executor="process",
                        use_gateway=False, fault_rate=0.0, edge_share=1.0, infer_every=20)

        short, long = churn(20), churn(200)
        assert short["final_shm_segments"] > 0
        assert long["final_shm_segments"] == short["final_shm_segments"]
        assert long["max_shm_segments"] == short["max_shm_segments"]

    @pytest.mark.skipif(not PROCESS_AVAILABLE, reason="process executor unavailable")
    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_the_census_counts_worker_processes_on_either_backend(self, backend):
        summary = soak(4, seed=1, backend=backend, executor="process", use_gateway=False,
                       fault_rate=0.0)
        assert summary["max_worker_processes"] > 0

    @pytest.mark.parametrize("shadow_nodes", [False, True])
    def test_stable_hub_edge_churn_never_replans(self, shadow_nodes):
        # Churn that keeps the hub set patches every plan in place, shadow
        # rewrite on or off (position-stable mirror assignment).
        summary = soak(12, seed=17, executor="serial", use_gateway=False,
                       shadow_nodes=shadow_nodes, fault_rate=0.0, edge_share=1.0,
                       infer_every=3)
        assert_accountable(summary)
        assert summary["replans"] == 0


class TestSloGates:
    def test_faulted_soak_meets_its_slo_gates(self):
        # $REPRO_SOAK_SECONDS ticks through the gateway with worker kills,
        # evictions, cancelled requests and delta bursts, shadow nodes on.
        ticks, seed = soak_seconds_from_env(30), soak_seed_from_env(0)
        # The shm census of a short un-faulted run of the same stack is the
        # ceiling the faulted run must stay under (the segment-leak gate).
        baseline = soak(4, seed, fault_rate=0.0)
        summary = soak(ticks, seed)
        print(f"\nsoak[{ticks} ticks, seed {seed}, {default_executor_name()}]: {summary}")
        assert_accountable(summary)
        assert summary["replans"] == 0
        assert summary["max_shm_segments"] <= baseline["max_shm_segments"]
        if default_executor_name() == "process":
            assert baseline["max_shm_segments"] > 0


class TestEnvKnobs:
    def test_soak_seconds_default_and_override(self, monkeypatch):
        monkeypatch.delenv(SOAK_SECONDS_ENV, raising=False)
        assert soak_seconds_from_env(30) == 30
        monkeypatch.setenv(SOAK_SECONDS_ENV, "600")
        assert soak_seconds_from_env(30) == 600

    def test_soak_seconds_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(SOAK_SECONDS_ENV, "soon")
        with pytest.raises(ValueError, match="not an integer"):
            soak_seconds_from_env()
        monkeypatch.setenv(SOAK_SECONDS_ENV, "0")
        with pytest.raises(ValueError, match="positive"):
            soak_seconds_from_env()

    def test_soak_seed_default_and_override(self, monkeypatch):
        monkeypatch.delenv(SOAK_SEED_ENV, raising=False)
        assert soak_seed_from_env(7) == 7
        monkeypatch.setenv(SOAK_SEED_ENV, "-3")
        assert soak_seed_from_env(7) == -3
        monkeypatch.setenv(SOAK_SEED_ENV, "nope")
        with pytest.raises(ValueError, match="not an integer"):
            soak_seed_from_env()
