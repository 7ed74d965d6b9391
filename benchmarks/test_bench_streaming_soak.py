"""Benchmark: the streaming soak — steady-state SLO gates under faults.

This is the long-haul companion to ``tests/test_streaming_soak.py``: one
seeded continuous-ingest soak (``$REPRO_SOAK_SECONDS`` simulated seconds,
default 30; ``$REPRO_SOAK_SEED`` reseeds the whole stream) driven through the
async gateway with a generated fault plan mixing worker kills, forced pool
evictions and delta-arrival bursts.  The CI tier-1 matrix runs the default
30-second soak under both executors; the nightly job stretches it to minutes.

Gates — **deterministic SLOs, always asserted**: the soak is ``clean`` (every
tick's scores matched the un-faulted oracle; every injected crash
recovered), nothing in the logical stream was dropped, zero delta-forced
re-plans on the stable-hub stream (shadow nodes on — edge deltas must patch
cached plans in place), and the shm segment census never grew past the steady
state a short un-faulted run of the same stack establishes (the segment-leak
ceiling).  p50/p99 tick latency is reported, not asserted.

The run dumps ``BENCH_streaming_soak.json`` (full :class:`SoakReport`) —
uploaded as a CI artifact so steady-state serving health is trackable across
commits.  ``REPRO_BENCH_ARTIFACT_DIR`` redirects where it lands (default CWD).
"""

import pytest

from repro.streaming import (
    FaultPlan,
    SoakConfig,
    WorkloadConfig,
    dump_report,
    run_soak,
    soak_seconds_from_env,
    soak_seed_from_env,
)

TENANTS = 2
GRAPH_NODES = 300
FAULT_RATE = 0.15         # ~1 fault per 7 simulated seconds
FAULT_KINDS = ("kill_worker", "delay_deltas", "evict_tenant")


def soak_config(ticks: int, seed: int, faults) -> SoakConfig:
    return SoakConfig(
        workload=WorkloadConfig(seed=seed, ticks=ticks, tenants=TENANTS,
                                deltas_per_tick=2, infer_every=2,
                                snapshot_every=5, sliding_window=3),
        faults=faults, graph_nodes=GRAPH_NODES, shadow_nodes=True)


@pytest.mark.paper_artifact("streaming_soak")
def test_bench_streaming_soak(benchmark):
    ticks = soak_seconds_from_env(30)
    seed = soak_seed_from_env(0)
    plan = FaultPlan.generate(seed=seed, ticks=ticks, tenants=TENANTS,
                              kinds=FAULT_KINDS, rate=FAULT_RATE)

    # Steady-state shm census from a short un-faulted run of the same stack:
    # the long faulted soak must never exceed it (segment-leak ceiling).
    baseline = run_soak(soak_config(ticks=4, seed=seed, faults=None))
    assert baseline.clean

    captured = {}

    def timed_soak():
        captured["report"] = run_soak(soak_config(ticks, seed, plan))

    benchmark.pedantic(timed_soak, rounds=1, iterations=1)
    report = captured["report"]

    # --- deterministic SLO gates: always asserted, any machine, any leg.
    assert report.clean, (
        f"soak not clean: {report.mismatches} mismatch(es) "
        f"(first at tick {report.first_mismatch_tick}), "
        f"{report.unrecovered} unrecovered crash(es)")
    assert report.recoveries == report.crashes
    assert report.deltas_delivered == report.trace_deltas, (
        "the logical stream dropped deltas")
    assert report.infers_served == report.oracle_checks
    assert report.replans == 0, (
        f"{report.replans} delta-forced re-plan(s) on the stable-hub stream "
        "— edge deltas must patch cached plans in place")
    if report.executor == "process":
        assert baseline.max_shm_segments > 0
        assert report.max_shm_segments <= baseline.max_shm_segments, (
            f"shm census grew past steady state: {report.max_shm_segments} "
            f"vs baseline {baseline.max_shm_segments} — segment leak")

    path = dump_report(report)

    print()
    print(plan.describe())
    print(report.describe())
    print(f"-> {path}")
