"""``serve_gateway``: tenants behind the gateway, updating and then scoring.

One operation is *update-then-score* (``await submit_delta`` then ``await
infer(mode="incremental")``).  Pairing each score with its own update keeps
every serving tick doing real work; with independent delta and infer streams
the tick time is bimodal (no-op tick vs real tick) and the median flips
between the modes from run to run.

The **end-to-end** run is a **closed loop with one client** that cycles over
the tenants: the next operation is sent when the previous one's scores are
back.  It measures what every operation pays on the way through the gateway
(thread hand-off, pool lookup, flush, fingerprint, a small incremental run)
with ~900 samples in a run, and it repeats itself.

The **traced** run is an **open loop**: arrivals are a Poisson schedule
decided from the seed before the run, sent whether or not the system keeps
up, so queues can build, and each operation is timed from the instant it was
**due**, which charges a stall to every operation it delayed.  A reference
rate and a rate ladder give the queueing, batching and admission numbers.
They are per-layer metrics, without a bound, because on a shared two-core box
they cannot carry one: three threads on two cores measure the host's
scheduler as much as the gateway (ten-run spreads of the open-loop p90 were
13-17% on a calm day and 46-85% where the driver ran it).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.cluster.cost_model import CostSummary
from repro.cluster.metrics import MetricsCollector
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.inference import InferenceSession, SessionPool
from repro.serving import Overloaded, ServingGateway

from inferbench import probes, spec
from inferbench.common import (
    Budget,
    RunRequest,
    RunResult,
    latency_values,
    ops_per_second,
    overhead_pct,
    peak_rss_mb,
    setup_repeats,
    sim_values,
)
from inferbench.inputs import (
    Arrival,
    Digest,
    Scale,
    copy_graph,
    feature_update,
    make_config,
    make_gateway_config,
    make_graph,
    make_model,
    poisson_arrivals,
)
from inferbench.spans import Recorder

WORKLOAD = "serve_gateway"
NUM_TENANTS = 3
#: A refused or failed op enters the latency samples at this multiple of the
#: limit: it misses every limit, and shedding load can never improve p90.
PENALTY = 10.0
#: A phase's backlog must be gone this long after its last arrival was due.
DRAIN_LIMIT_S = 1.0
#: The generator must not run later than this, or the phase is unresolved.
LATE_LIMIT_MS = 20.0


@dataclass
class _Served:
    graphs: List[Graph]
    model: GNNModel
    pool: SessionPool
    gateway: ServingGateway
    digest: Digest


@dataclass
class _Op:
    """What the load generator saw of one operation."""

    tenant: int
    due: float                   # perf_counter instant it was due
    sent: float = 0.0
    done: float = 0.0
    submit_s: float = 0.0
    ok: bool = False
    refused: bool = False
    error: str = ""
    tick_s: float = 0.0          # the serving tick's own elapsed_seconds
    cost: Optional[CostSummary] = None
    metrics: Optional[MetricsCollector] = None


@dataclass
class _Phase:
    """One stretch of arrivals at one rate, and what came of it."""

    rate: float
    seconds: float
    ops: List[_Op]
    started: float
    ticks: int                   # serving ticks the gateway ran during it
    limit_ms: float

    def latencies_ms(self) -> List[float]:
        return [(op.done - op.due) * 1e3 if op.ok else self.limit_ms * PENALTY
                for op in self.ops]

    def within_limit(self) -> int:
        """Ops answered within the limit of their due time."""
        return sum(1 for op in self.ops
                   if op.ok and (op.done - op.due) * 1e3 <= self.limit_ms)

    @property
    def wall_s(self) -> float:
        """From the phase's start to its last completion."""
        return max(op.done for op in self.ops) - self.started

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    @property
    def refused_share(self) -> float:
        return sum(op.refused for op in self.ops) / len(self.ops) if self.ops else 0.0

    @property
    def drain_s(self) -> float:
        """How long after the phase's end the last op finished."""
        if not self.ops:
            return 0.0
        return max(op.done for op in self.ops) - (self.started + self.seconds)

    @property
    def late_ms_p99(self) -> float:
        return spec.percentile([(op.sent - op.due) * 1e3 for op in self.ops], 99.0)

    def sustained(self) -> bool:
        """The 250 ms / 95% rule without a growing backlog."""
        return (bool(self.ops) and self.within_limit() >= 0.95 * len(self.ops)
                and self.drain_s <= DRAIN_LIMIT_S)


def _tenant(index: int) -> str:
    return f"tenant-{index}"


async def _one_op(gateway: ServingGateway, arrival: Arrival, op: _Op,
                  recorder: Recorder) -> None:
    op.sent = time.perf_counter()
    with recorder.span("op", op=recorder.new_op(), tenant=arrival.tenant):
        try:
            with recorder.span("gateway.submit_delta"):
                await gateway.submit_delta(_tenant(arrival.tenant), arrival.delta)
            op.submit_s = time.perf_counter() - op.sent
            with recorder.span("gateway.infer"):
                result = await gateway.infer(_tenant(arrival.tenant), mode="incremental")
        except Overloaded:
            op.refused = True
        except Exception as exc:      # the loop must outlive one op's failure
            op.error = repr(exc)
        else:
            op.ok = True
            op.tick_s = result.elapsed_seconds
            op.cost, op.metrics = result.cost, result.metrics
        op.done = time.perf_counter()


async def _drive(served: _Served, arrivals: List[Arrival], rate: float,
                 seconds: float, limit_ms: float, recorder: Recorder) -> _Phase:
    """Send every arrival at its due time, then wait for the backlog."""
    ticks_before = served.gateway.snapshot().ticks
    started = time.perf_counter() + 0.02
    ops: List[_Op] = []
    tasks: List["asyncio.Task[None]"] = []
    for arrival in arrivals:
        op = _Op(tenant=arrival.tenant, due=started + arrival.due)
        delay = op.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        ops.append(op)
        tasks.append(asyncio.create_task(
            _one_op(served.gateway, arrival, op, recorder)))
    await asyncio.gather(*tasks)
    return _Phase(rate, seconds, ops, started,
                  served.gateway.snapshot().ticks - ticks_before, limit_ms)


async def _closed_loop(served: _Served, scale: Scale, rng: np.random.Generator,
                       more: Callable[[int, float], bool]) -> _Phase:
    """One client, cycling over the tenants: each op is sent when the previous
    one's scores are back, and timed from when it was sent.  ``more(done,
    elapsed)`` says whether to send another."""
    spans_off = Recorder(enabled=False)
    ticks_before = served.gateway.snapshot().ticks
    started = time.perf_counter()
    ops: List[_Op] = []
    while more(len(ops), time.perf_counter() - started):
        tenant = len(ops) % NUM_TENANTS
        delta = feature_update(rng, scale.serve, scale.serve_delta_rows, served.digest)
        op = _Op(tenant=tenant, due=0.0)
        await _one_op(served.gateway, Arrival(0.0, tenant, delta), op, spans_off)
        op.due = op.sent
        ops.append(op)
    return _Phase(0.0, time.perf_counter() - started, ops, started,
                  served.gateway.snapshot().ticks - ticks_before,
                  scale.latency_limit_ms)


async def _build(request: RunRequest) -> _Served:
    scale, shape = request.scale, request.scale.serve
    digest = Digest()
    graphs = [make_graph(shape, request.seed, stream=index + 1)
              for index in range(NUM_TENANTS)]
    model = make_model(shape)
    pool = SessionPool(model, make_config(shape, "pregel"), capacity=NUM_TENANTS)
    gateway = ServingGateway(pool, make_gateway_config())
    served = _Served(graphs, model, pool, gateway, digest)
    prime = np.random.default_rng([request.seed, 4])
    for index, graph in enumerate(graphs):
        digest.update_graph(graph)
        gateway.register(_tenant(index), graph)
        await gateway.warm(_tenant(index))
        await gateway.infer(_tenant(index))
        # First update-then-score per tenant: the full run that primes the
        # incremental state cache.
        await gateway.submit_delta(
            _tenant(index), feature_update(prime, shape, scale.serve_delta_rows, digest))
        await gateway.infer(_tenant(index), mode="incremental")
    # A count of warm-up ops, not a stretch of time: ``setup_s`` then moves
    # with the work a set-up does and with nothing else.
    await _closed_loop(served, scale, np.random.default_rng([request.seed, 3, 0]),
                       lambda done, _elapsed: done < scale.serve_warmup_ops)
    return served


async def _discard(served: _Served) -> None:
    await served.gateway.aclose()
    served.pool.clear()


async def _oracle(served: _Served, request: RunRequest) -> List[int]:
    """After the drain, every tenant's scores must equal a fresh session's on
    its handle.  Returns the tenants that failed."""
    wrong: List[int] = []
    for index, graph in enumerate(served.graphs):
        final = await served.gateway.infer(_tenant(index), mode="incremental")
        fresh = InferenceSession(served.model, served.pool.config)
        fresh.prepare(copy_graph(graph))
        if not np.array_equal(request.scores_for_oracle(final.scores),
                              fresh.infer().scores):
            wrong.append(index)
    return wrong


async def _main(request: RunRequest) -> RunResult:
    scale, shape = request.scale, request.scale.serve
    started = time.perf_counter()
    served = await _build(request)
    setups = [time.perf_counter() - started]
    for _ in range(setup_repeats(request) - 1):
        await _discard(served)
        started = time.perf_counter()
        served = await _build(request)
        setups.append(time.perf_counter() - started)

    async def phase(number: int, rate: float, seconds: float, rec: Recorder) -> _Phase:
        arrivals = poisson_arrivals(request.seed, number, rate, seconds, NUM_TENANTS,
                                    shape, scale.serve_delta_rows, served.digest)
        return await _drive(served, arrivals, rate, seconds, scale.latency_limit_ms, rec)

    oracle = ("after the drain, each tenant bit-identical to a fresh session "
              "on its handle")
    if not request.traced:
        closed = await _closed_loop(
            served, scale, np.random.default_rng([request.seed, 3, 1]),
            Budget(scale, seconds=request.seconds).more)
        wrong = await _oracle(served, request)
        attempted = len(closed.ops)
        failed = sum(1 for op in closed.ops if not op.ok or op.tenant in wrong)
        latencies_s = [ms / 1e3 for ms in closed.latencies_ms()]
        values = {
            "setup_s": spec.median(setups),
            **latency_values(latencies_s),
            # ops per second of op time; a failed op scored nothing
            "throughput_per_s": (ops_per_second(latencies_s)
                                 * (attempted - failed) / attempted),
            "peak_rss_mb": peak_rss_mb(),
            **sim_values([op.cost for op in closed.ops if op.cost is not None]),
        }
        await _discard(served)
        return RunResult(WORKLOAD, attempted, failed, values,
                         {"n": attempted, "clients": 1, "oracle": oracle})

    recorder = Recorder(enabled=True)
    reference = await phase(1, scale.reference_rate, request.seconds * 0.25,
                            Recorder(enabled=False))
    detail: Dict[str, Any] = {
        "n": len(reference.ops), "rate_per_s": scale.reference_rate,
        "late_ms_p99": reference.late_ms_p99,
        "resolved": reference.late_ms_p99 <= LATE_LIMIT_MS, "oracle": oracle}
    traced = await phase(2, scale.reference_rate, request.seconds * 0.25, recorder)
    ramps = [await phase(3 + index, float(rate), request.seconds * 0.2, recorder)
             for index, rate in enumerate(scale.ramp_rates)]
    values = _gateway_values(reference, traced, ramps)
    values.update(_staged_ticks(recorder, served, request))
    wrong = await _oracle(served, request)
    values.update(await _layer_probes(recorder, served, request, traced))
    values["loadgen.input_digest"] = float(served.digest.value)
    counted = reference.ops + traced.ops
    failed = sum(1 for op in counted if not op.ok or op.tenant in wrong)
    detail["n_traced"] = len(traced.ops)
    detail["ramp"] = [{"rate_per_s": p.rate, "n": len(p.ops), "failed": p.failed,
                       "latency_ms_p50": spec.percentile(p.latencies_ms(), 50.0),
                       "latency_ms_p90": spec.percentile(p.latencies_ms(), 90.0),
                       "within_limit_share": p.within_limit() / max(1, len(p.ops)),
                       "drain_s": p.drain_s, "late_ms_p99": p.late_ms_p99,
                       "sustained": p.sustained()} for p in [traced, *ramps]]
    await _discard(served)
    return RunResult(WORKLOAD, len(counted), failed, values, detail, recorder)


def run(request: RunRequest) -> RunResult:
    return asyncio.run(_main(request))


# --------------------------------------------------------------------------- #
# per-layer values
# --------------------------------------------------------------------------- #
def _gateway_values(reference: _Phase, traced: _Phase,
                    ramps: List[_Phase]) -> Dict[str, float]:
    """Queueing, batching and admission, from what the load generator saw
    and what ``gateway.snapshot()`` counted."""
    ok = [op for op in traced.ops if op.ok]
    waits = [(op.done - op.due - op.tick_s) * 1e3 for op in ok]
    # Ops batched into one tick share one result: one sample per tick.
    ticks_ms = list({id(op.metrics): op.tick_s * 1e3 for op in ok}.values())
    wall = traced.wall_s
    workers = make_gateway_config().max_concurrent_ticks
    values = {
        "gateway.queue_wait_ms_p50": spec.percentile(waits, 50.0),
        "gateway.queue_wait_ms_p90": spec.percentile(waits, 90.0),
        "gateway.tick_ms_p50": spec.percentile(ticks_ms, 50.0),
        "gateway.tick_ms_p90": spec.percentile(ticks_ms, 90.0),
        "gateway.batch_size_mean": len(ok) / traced.ticks if traced.ticks else 0.0,
        "gateway.submit_delta_ms_p50": spec.median([op.submit_s * 1e3 for op in ok]),
        "gateway.utilisation": sum(ticks_ms) / 1e3 / (wall * workers) if wall else 0.0,
        "gateway.refused_share": traced.refused_share,
        "loadgen.late_ms_p99": traced.late_ms_p99,
        "trace.overhead_pct": overhead_pct(
            [ms for ms, op in zip(traced.latencies_ms(), traced.ops) if op.ok],
            [ms for ms, op in zip(reference.latencies_ms(), reference.ops) if op.ok]),
    }
    best = traced.rate if traced.sustained() else 0.0
    for ramp in ramps:
        tag = f"r{int(ramp.rate)}"
        values[f"gateway.ramp.latency_ms_p90.{tag}"] = spec.percentile(
            ramp.latencies_ms(), 90.0)
        values[f"gateway.ramp.refused_share.{tag}"] = ramp.refused_share
        if ramp.sustained():
            best = max(best, ramp.rate)
    values["gateway.max_rate_ok_ops"] = best
    return values


def _staged_ticks(recorder: Recorder, served: _Served,
                  request: RunRequest) -> Dict[str, float]:
    """With the gateway drained, drive tenant 0's tick through the pool's
    public seams the way a gateway tick does: deferred delta, lookup, flush,
    incremental run.  The pool is the caller's to use beside the gateway."""
    scale, shape = request.scale, request.scale.serve
    rng = np.random.default_rng([request.seed, 5])
    outcomes: List[bool] = []
    for _ in range(min(probes.PROBE_REPEATS, scale.max_ops)):
        delta = feature_update(rng, shape, scale.serve_delta_rows, served.digest)
        probes.staged_tick(recorder, served.pool, served.graphs[0], [delta],
                           "feature", outcomes)
    return probes.pool_values(recorder, served.pool, outcomes)


async def _layer_probes(recorder: Recorder, served: _Served, request: RunRequest,
                        traced: _Phase) -> Dict[str, float]:
    scale, shape = request.scale, request.scale.serve
    repeats = min(probes.PROBE_REPEATS, scale.max_ops)
    graph = served.graphs[0]
    session = served.pool.session_for(graph)
    values = probes.static_layers(recorder, shape, request.seed, session, graph,
                                  repeats, stream=1)
    rng = np.random.default_rng([request.seed, 6])
    updates = [feature_update(rng, shape, scale.serve_delta_rows, served.digest)
               for _ in range(4)]
    values.update(probes.serving_layers(recorder, session, graph, updates, repeats,
                                        values["gnn.reference_forward_ms.gcn"]))

    # Superstep timings of the incremental ticks the gateway really ran.
    values.update(probes.measured_phases(
        list({id(op.metrics): op.metrics for op in traced.ops if op.ok}.values())))
    # Exact counters: one full pass over tenant 0's final graph, which the
    # seed alone determines (every submitted update lands, in order).
    final = await served.gateway.infer(_tenant(0), mode="full")
    values.update(probes.simulated(final.metrics, final.cost))
    return values
