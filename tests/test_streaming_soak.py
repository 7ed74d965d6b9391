"""Soak runs: clean steady state, reproducibility, crash recovery, SLO gates.

Every inference tick is checked against the un-faulted oracle.  Most soaks
here are a few simulated seconds; :class:`TestSloGates` runs
``$REPRO_SOAK_SECONDS`` of them (30 by default, 600 in the nightly job).
"""

from __future__ import annotations

import pytest

from repro.cluster.executor import available_executors
from repro.streaming.faults import FaultEvent, FaultPlan
from repro.streaming.soak import (
    SOAK_SECONDS_ENV,
    SOAK_SEED_ENV,
    SoakConfig,
    run_soak,
    soak_seconds_from_env,
    soak_seed_from_env,
)
from repro.streaming.workload import WorkloadConfig

PROCESS_AVAILABLE = "process" in available_executors()

SHORT = WorkloadConfig(seed=5, ticks=6, tenants=2, deltas_per_tick=2,
                       infer_every=2, snapshot_every=3, sliding_window=2)


def small_soak(**overrides) -> SoakConfig:
    defaults = dict(workload=SHORT, graph_nodes=120, num_workers=2,
                    feature_dim=6, num_classes=3)
    defaults.update(overrides)
    return SoakConfig(**defaults)


class TestSteadyState:
    def test_gateway_soak_is_clean_and_accountable(self):
        # executor=None follows $REPRO_EXECUTOR, so the CI matrix runs this
        # same soak under both substrates.
        report = run_soak(small_soak())
        assert report.clean
        assert report.mismatches == 0 and report.first_mismatch_tick == -1
        assert report.deltas_delivered == report.trace_deltas
        assert report.infers_served == report.trace_infers + report.trace_snapshots
        assert report.oracle_checks == report.infers_served
        assert report.trace_snapshots > 0
        assert set(report.snapshot_digests) == {"0", "1"}
        assert report.crashes == 0 and report.fault_schedule == []

    def test_same_seed_reproduces_the_deterministic_summary(self):
        plan = FaultPlan.generate(seed=3, ticks=SHORT.ticks, tenants=2,
                                  kinds=("evict_tenant", "delay_deltas"),
                                  rate=0.4)
        config = small_soak(faults=plan, executor="serial")
        first = run_soak(config)
        second = run_soak(config)
        assert first.deterministic_summary() == second.deterministic_summary()
        assert first.fault_digest == plan.digest

    def test_deterministic_summary_mirrors_the_report_without_timings(self):
        report = run_soak(small_soak(executor="serial"))
        summary = report.deterministic_summary()
        assert summary["mismatches"] == report.mismatches == 0
        assert summary["trace_digest"] == report.trace_digest
        assert summary["snapshot_digests"] == report.snapshot_digests
        assert summary["replans"] == report.replans
        # The measured fields vary run to run, so they stay out of it.
        measured = {"p50_tick_seconds", "p99_tick_seconds", "mean_tick_seconds",
                    "wall_seconds", "max_rss_bytes", "fault_notes",
                    "max_worker_processes"}
        assert not measured & set(summary)

    def test_bare_pool_path_matches_the_gateway_path(self):
        # Same trace, same seed — the gateway front-end must not change what
        # gets computed, so the temporal snapshot digests agree exactly.
        gateway = run_soak(small_soak(executor="serial"))
        bare = run_soak(small_soak(executor="serial", use_gateway=False))
        assert bare.clean
        assert bare.snapshot_digests == gateway.snapshot_digests
        assert bare.trace_digest == gateway.trace_digest


class TestFaultedSoaks:
    @pytest.mark.skipif(not PROCESS_AVAILABLE,
                        reason="process executor unavailable")
    def test_worker_kills_recover_mid_stream(self):
        plan = FaultPlan(seed=0, ticks=SHORT.ticks, events=(
            FaultEvent(tick=1, kind="kill_worker", tenant=0),
            FaultEvent(tick=3, kind="kill_worker", tenant=1, slot=1)))
        report = run_soak(small_soak(faults=plan, executor="process"))
        assert report.crashes >= 1
        assert report.recoveries == report.crashes
        assert report.unrecovered == 0
        assert report.clean, "post-recovery scores diverged from the oracle"
        assert all(a <= 3 for a in report.recovery_attempts)
        assert any("killed worker pid" in note for note in report.fault_notes)

    def test_evictions_and_delays_leave_the_stream_clean(self):
        plan = FaultPlan(seed=0, ticks=SHORT.ticks, events=(
            FaultEvent(tick=1, kind="evict_tenant", tenant=0),
            FaultEvent(tick=2, kind="delay_deltas", tenant=0),
            FaultEvent(tick=2, kind="delay_deltas", tenant=1),
            FaultEvent(tick=4, kind="evict_tenant", tenant=1)))
        report = run_soak(small_soak(faults=plan, executor="serial"))
        assert report.clean
        # Delayed deltas still arrive (as the next tick's burst) — nothing
        # is dropped from the logical stream.
        assert report.deltas_delivered == report.trace_deltas
        assert len(report.fault_notes) == 4
        assert report.fault_schedule == plan.schedule()

    def test_mapreduce_soak_matches_the_oracle_bit_for_bit(self):
        # MapReduce runs every tick in full over an in-place-patched graph,
        # so a faulted stream equals its oracle exactly, shadow rewrite on.
        # executor=None follows $REPRO_EXECUTOR: the kills are live on the
        # process leg and recorded no-ops on the serial one.
        plan = FaultPlan(seed=0, ticks=SHORT.ticks, events=(
            FaultEvent(tick=1, kind="kill_worker", tenant=0),
            FaultEvent(tick=2, kind="evict_tenant", tenant=1),
            FaultEvent(tick=3, kind="delay_deltas", tenant=0),
            FaultEvent(tick=4, kind="kill_worker", tenant=1, slot=1)))
        report = run_soak(small_soak(backend="mapreduce", shadow_nodes=True,
                                     faults=plan))
        assert report.mismatches == 0 and report.oracle_checks > 0
        assert report.recoveries == report.crashes and report.unrecovered == 0
        assert report.clean


class TestResourceCeilings:
    @pytest.mark.skipif(not PROCESS_AVAILABLE,
                        reason="process executor unavailable")
    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_shm_segments_plateau_under_edge_churn(self, backend):
        # Pure edge-delta churn forces a wholesale src/dst array swap every
        # tick; the PR-5 segment-leak fix means the parent-side shm census
        # must plateau — a 200-tick run ends with exactly as many segments
        # as a 20-tick run of the same stream.  Both backends ship their
        # partitions through the same engine's segments.
        def churn(ticks: int) -> SoakConfig:
            return small_soak(
                backend=backend,
                workload=WorkloadConfig(seed=13, ticks=ticks, tenants=1,
                                        deltas_per_tick=1,
                                        feature_fraction=0.0,
                                        infer_every=20),
                executor="process", use_gateway=False, graph_nodes=80)

        short = run_soak(churn(20))
        long = run_soak(churn(200))
        assert long.clean and short.clean
        assert short.final_shm_segments > 0
        assert long.final_shm_segments == short.final_shm_segments
        assert long.max_shm_segments == short.max_shm_segments

    @pytest.mark.skipif(not PROCESS_AVAILABLE,
                        reason="process executor unavailable")
    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_the_census_counts_worker_processes_on_either_backend(self, backend):
        # Either backend's plan holds an engine that owns its executor: the
        # census finds both.
        report = run_soak(small_soak(backend=backend, executor="process",
                                     use_gateway=False))
        assert report.clean
        assert report.max_worker_processes > 0

    @pytest.mark.parametrize("shadow_nodes", [False, True])
    def test_stable_hub_edge_churn_never_replans(self, shadow_nodes):
        # The stable-hub SLO: with the hub threshold pinned high, pure
        # edge-delta churn must patch every cached plan in place — zero
        # delta-forced re-plans over the whole stream, shadow rewrite on or
        # off (position-stable mirror assignment).
        config = small_soak(
            workload=WorkloadConfig(seed=17, ticks=12, tenants=2,
                                    deltas_per_tick=2, feature_fraction=0.0,
                                    infer_every=3, snapshot_every=4,
                                    sliding_window=2),
            executor="serial", use_gateway=False, graph_nodes=80,
            shadow_nodes=shadow_nodes)
        report = run_soak(config)
        assert report.clean
        assert report.deltas_delivered == report.trace_deltas
        assert report.replans == 0


class TestSloGates:
    def test_faulted_soak_meets_its_slo_gates(self):
        # $REPRO_SOAK_SECONDS ticks through the gateway with a seeded plan of
        # worker kills, forced evictions and delta-arrival bursts, shadow
        # nodes on.  executor=None follows $REPRO_EXECUTOR: the kills are
        # live on the process leg and recorded no-ops on the serial one.
        ticks = soak_seconds_from_env(30)
        seed = soak_seed_from_env(0)

        def config(ticks: int, faults) -> SoakConfig:
            return SoakConfig(
                workload=WorkloadConfig(seed=seed, ticks=ticks, tenants=2,
                                        deltas_per_tick=2, infer_every=2,
                                        snapshot_every=5, sliding_window=3),
                faults=faults, graph_nodes=300, shadow_nodes=True)

        plan = FaultPlan.generate(
            seed=seed, ticks=ticks, tenants=2,
            kinds=("kill_worker", "delay_deltas", "evict_tenant"), rate=0.15)
        # The shm census of a short un-faulted run of the same stack is the
        # ceiling the faulted run must stay under (the segment-leak gate).
        baseline = run_soak(config(4, None))
        report = run_soak(config(ticks, plan))
        print(f"\n{plan.describe()}\n{report.describe()}")

        assert baseline.clean
        assert report.clean, (
            f"{report.mismatches} mismatch(es) (first at tick "
            f"{report.first_mismatch_tick}), {report.unrecovered} unrecovered")
        assert report.recoveries == report.crashes
        assert report.deltas_delivered == report.trace_deltas
        assert report.infers_served == report.oracle_checks
        assert report.replans == 0
        assert report.max_shm_segments <= baseline.max_shm_segments
        if report.executor == "process":
            assert baseline.max_shm_segments > 0


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
