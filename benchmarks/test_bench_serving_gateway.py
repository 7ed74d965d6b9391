"""Benchmark: the async gateway vs a serial request-at-a-time serving loop.

The serving scenario the gateway exists for: N tenants each fire a burst of
concurrent infer requests per tick while their features drift between ticks.
A request-at-a-time loop over a bare :class:`SessionPool` pays one backend
execution *per request*.  The gateway batches each tenant's burst into one
plan-cache-hit execution (every waiter shares the tick's result) and overlaps
different tenants' ticks on its worker threads — so the win here is first
algorithmic (requests / tick, deterministic) and only second parallel.

Both sides serve the identical workload — the same tenants, the same delta
stream, the same request count — and the gateway's answers are checked
bit-identical to the serial loop's before any clock starts.  With at least
``REQUIRED_CORES`` usable cores both sides are timed and the ratio printed
(nothing is asserted on it — ``bench/``'s ``serve_gateway`` workload is where
serving time is judged); on smaller machines the identity checks still run
and the timing is skipped.

The run dumps ``BENCH_serving_gateway.json`` (gateway snapshot + p50/p99 tick
latency + requests/second for both sides) — uploaded as a CI artifact so
serving latency is trackable across commits.  Set
``REPRO_BENCH_ARTIFACT_DIR`` to redirect where it lands (default: CWD).
"""

import asyncio
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.inference import (
    GatewayConfig,
    GraphDelta,
    InferenceConfig,
    SessionPool,
    StrategyConfig,
)
from repro.serving import ServingGateway

NUM_TENANTS = 4
NUM_NODES = 8_000
AVG_DEGREE = 4.0
FEATURE_DIM = 16
DELTA_ROWS = 30           # feature rows refreshed per tenant per tick
BURST = 6                 # concurrent infer requests per tenant per tick
TICKS = 4                 # measured serving rounds
REQUIRED_CORES = 4        # below this, assert identity but skip the timing
ARTIFACT = "BENCH_serving_gateway.json"


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def make_config() -> InferenceConfig:
    return InferenceConfig(backend="pregel", num_workers=4,
                           strategies=StrategyConfig(partial_gather=True,
                                                     broadcast=True,
                                                     shadow_nodes=True))


def make_model():
    return build_model("gcn", FEATURE_DIM, 32, 4, num_layers=2, seed=0)


def make_tenants():
    return {f"tenant-{seed}": powerlaw_graph(
        num_nodes=NUM_NODES, avg_degree=AVG_DEGREE, skew="out",
        feature_dim=FEATURE_DIM, num_classes=4, seed=seed)
        for seed in range(NUM_TENANTS)}


def delta_stream(num_ticks: int):
    """One deterministic delta per tenant per tick, same for both sides."""
    rng = np.random.default_rng(11)
    stream = []
    for _ in range(num_ticks):
        per_tenant = {}
        for tenant in range(NUM_TENANTS):
            ids = rng.choice(NUM_NODES, size=DELTA_ROWS, replace=False)
            per_tenant[f"tenant-{tenant}"] = GraphDelta(
                node_ids=ids,
                node_features=rng.standard_normal((DELTA_ROWS, FEATURE_DIM)))
        stream.append(per_tenant)
    return stream


def serial_serve(pool, tenants, deltas):
    """The baseline: one execution per request, request at a time."""
    results = {tenant_id: [] for tenant_id in tenants}
    for tick_deltas in deltas:
        for tenant_id, graph in tenants.items():
            pool.apply_delta(graph, tick_deltas[tenant_id], defer=True)
            for _ in range(BURST):
                results[tenant_id].append(
                    pool.infer(graph).scores)
    return results


async def gateway_serve(gateway, tenants, deltas):
    """The same workload through the gateway: bursts batch into ticks."""
    results = {tenant_id: [] for tenant_id in tenants}
    for tick_deltas in deltas:
        await asyncio.gather(*(
            gateway.submit_delta(tenant_id, tick_deltas[tenant_id])
            for tenant_id in tenants))
        burst = await asyncio.gather(*(
            gateway.infer(tenant_id)
            for tenant_id in tenants for _ in range(BURST)))
        for index, tenant_id in enumerate(
                tenant for tenant in tenants for _ in range(BURST)):
            results[tenant_id].append(burst[index].scores)
    return results


@pytest.mark.paper_artifact("serving_gateway_microbench")
def test_bench_serving_gateway(benchmark):
    model = make_model()
    total_requests = NUM_TENANTS * BURST * TICKS

    # --- identity pass: same delta stream, both sides, compared result for
    # result (burst requests all see the post-delta content of their tick).
    serial_tenants = make_tenants()
    serial_pool = SessionPool(model, make_config(), capacity=NUM_TENANTS)
    serial_results = serial_serve(serial_pool, serial_tenants,
                                  delta_stream(TICKS))

    gateway_tenants = make_tenants()

    async def run_gateway(tenants, deltas, warm=True):
        pool = SessionPool(model, make_config(), capacity=NUM_TENANTS)
        config = GatewayConfig(max_queue_depth=4 * BURST, max_batch=BURST,
                               max_concurrent_ticks=NUM_TENANTS)
        async with ServingGateway(pool, config) as gateway:
            for tenant_id, graph in tenants.items():
                gateway.register(tenant_id, graph)
            if warm:
                await asyncio.gather(*(gateway.warm(tenant_id)
                                       for tenant_id in tenants))
            started = time.perf_counter()
            results = await gateway_serve(gateway, tenants, deltas)
            elapsed = time.perf_counter() - started
            return results, gateway.snapshot(), elapsed

    gateway_results, snapshot, _ = asyncio.run(
        run_gateway(gateway_tenants, delta_stream(TICKS)))
    for tenant_id, reference in serial_results.items():
        assert len(gateway_results[tenant_id]) == len(reference)
        for serial_scores, gateway_scores in zip(reference,
                                                 gateway_results[tenant_id]):
            np.testing.assert_array_equal(gateway_scores, serial_scores)

    # The algorithmic contract behind the speedup: every tenant's burst of
    # BURST concurrent requests collapsed into far fewer executions.
    assert snapshot.requests == total_requests
    assert snapshot.ticks <= total_requests / 2, (
        f"batching collapsed {snapshot.requests} requests into only "
        f"{snapshot.ticks} ticks — expected at least 2x")

    cores = usable_cores()
    if cores < REQUIRED_CORES:
        pytest.skip(
            f"only {cores} usable core(s); the timing needs "
            f"{REQUIRED_CORES} (identity + batching checks passed)")

    # --- timing pass: fresh pools on both sides, identical workloads.
    timing_serial_tenants = make_tenants()
    timing_pool = SessionPool(model, make_config(), capacity=NUM_TENANTS)
    for graph in timing_serial_tenants.values():       # warm: plan + prime
        timing_pool.infer(graph)
    started = time.perf_counter()
    serial_serve(timing_pool, timing_serial_tenants, delta_stream(TICKS))
    serial_seconds = time.perf_counter() - started

    # One timed run only: tenants are built inside the run (the deltas drift
    # their graphs, so a second pass over the same objects would measure
    # different content) and the snapshot/elapsed are captured by closure
    # instead of calling the workload a second time.
    captured = {}

    def timed_gateway():
        _, snap, elapsed = asyncio.run(
            run_gateway(make_tenants(), delta_stream(TICKS)))
        captured["snapshot"], captured["elapsed"] = snap, elapsed

    benchmark.pedantic(timed_gateway, rounds=1, iterations=1)
    timing_snapshot = captured["snapshot"]
    gateway_seconds = captured["elapsed"]

    speedup = serial_seconds / gateway_seconds
    payload = timing_snapshot.to_dict()
    payload.update({
        "benchmark": "serving_gateway",
        "num_tenants": NUM_TENANTS,
        "num_nodes": NUM_NODES,
        "burst": BURST,
        "measured_ticks": TICKS,
        "usable_cores": cores,
        "serial_seconds": serial_seconds,
        "gateway_seconds": gateway_seconds,
        "serial_requests_per_second": total_requests / serial_seconds,
        "gateway_requests_per_second": total_requests / gateway_seconds,
        "speedup": speedup,
    })
    artifact_dir = Path(os.environ.get("REPRO_BENCH_ARTIFACT_DIR", "."))
    artifact_dir.mkdir(parents=True, exist_ok=True)
    (artifact_dir / ARTIFACT).write_text(json.dumps(payload, indent=2))

    print()
    print(f"{NUM_TENANTS} tenants x {BURST} concurrent req x {TICKS} ticks "
          f"({NUM_NODES} nodes each, {DELTA_ROWS} feature rows/tick)")
    print(f"serial loop (1 execution per request):  {serial_seconds * 1e3:.0f} ms "
          f"({total_requests / serial_seconds:.0f} req/s)")
    print(f"gateway (batched ticks, overlapped):    {gateway_seconds * 1e3:.0f} ms "
          f"({total_requests / gateway_seconds:.0f} req/s)")
    print(f"p50 tick {payload['p50_tick_seconds'] * 1e3:.1f} ms / "
          f"p99 tick {payload['p99_tick_seconds'] * 1e3:.1f} ms; "
          f"{payload['requests']} req in {payload['ticks']} tick(s)")
    print(f"serving speedup: {speedup:.1f}x  -> {artifact_dir / ARTIFACT}")
