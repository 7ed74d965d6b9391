"""Seeded inputs: graphs, models, configs, deltas and arrival schedules.

Everything the program receives is generated here from ``--seed``; the
program never sees the seed itself.

**What the seed drives, and what it does not.**  The per-op cost of this
system swings with the hub structure of the graph far more than with
anything a code change is likely to do: ten ``powerlaw_graph(..., seed=S)``
draws gave full-``infer()`` medians from 0.245 s to 0.450 s on the same code.
A benchmark judged by its spread across seeds cannot carry that, so the
*degree structure* is drawn once (``SHAPE_SEED``) and the seed drives
everything else: a random relabelling of the node ids (hence which partition
owns which hub, and every routing table), the feature values, every delta
and every arrival time.  Two seeds give different inputs with the same
shape; sim costs differ in the third digit, wall-clock cost does not.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from repro.gnn.model import GNNModel, build_model
from repro.graph.generators import powerlaw_graph
from repro.graph.graph import Graph
from repro.inference import GraphDelta, InferenceConfig, StrategyConfig
from repro.inference.config import GatewayConfig

#: Seed of the one degree structure every run shares (see module docstring).
#: Seed 3 gives ~98.7k edges, max out-degree 2753, max in-degree 3090.
SHAPE_SEED = 3
AVG_DEGREE = 4.0
NUM_LAYERS = 2


@dataclass(frozen=True)
class Shape:
    """One graph/model size: ``G100k`` or ``G8k`` in the issue's terms."""

    nodes: int
    feature_dim: int
    hidden_dim: int
    num_classes: int
    num_workers: int


@dataclass(frozen=True)
class Scale:
    """Input sizes and op counts; ``smoke`` exists only for the smoke test."""

    name: str
    batch: Shape
    serve: Shape
    #: delta_ticks: pinned hub threshold (~180 hubs at full scale), the hot
    #: zone the edge churn stays inside, and how far a zone source may grow.
    hub_threshold: int
    zone_size: int
    zone_seed_edges: int
    zone_source_degree_cap: int
    oracle_every: int
    #: serve_gateway: rows per update, reference and ramp rates (ops/s).
    serve_delta_rows: int
    reference_rate: float
    ramp_rates: Sequence[int]
    #: update-then-score ops each set-up sends before the first timed op.
    serve_warmup_ops: int
    latency_limit_ms: float
    #: warm-up ops before the timed window, per workload.
    warmups: int
    #: op-count clamp on every timed loop (the smoke scale pins it).
    min_ops: int
    max_ops: int
    setup_repeats: int


FULL = Scale(
    name="full",
    batch=Shape(25_000, 32, 64, 8, 8),
    serve=Shape(8_000, 16, 32, 4, 4),
    hub_threshold=60, zone_size=400, zone_seed_edges=1_200,
    zone_source_degree_cap=44, oracle_every=50,
    serve_delta_rows=30, reference_rate=6.0, ramp_rates=(12, 24, 96),
    serve_warmup_ops=30, latency_limit_ms=250.0,
    warmups=2, min_ops=3, max_ops=100_000, setup_repeats=3,
)

SMOKE = Scale(
    name="smoke",
    batch=Shape(400, 8, 16, 4, 4),
    serve=Shape(200, 8, 16, 4, 2),
    hub_threshold=12, zone_size=60, zone_seed_edges=120,
    zone_source_degree_cap=8, oracle_every=2,
    serve_delta_rows=5, reference_rate=6.0, ramp_rates=(12, 24, 96),
    serve_warmup_ops=3, latency_limit_ms=250.0,
    warmups=1, min_ops=3, max_ops=3, setup_repeats=1,
)

SCALES = {"full": FULL, "smoke": SMOKE}

TICK_DELTAS = 4              # deltas buffered before each incremental infer
TICK_FRACTION = 0.01         # share of rows / edges a tick touches


class Digest:
    """Chained CRC32 over every generated input array (``loadgen.input_digest``)."""

    def __init__(self) -> None:
        self.value = 0

    def update(self, *arrays: object) -> None:
        for array in arrays:
            if array is not None:
                self.value = zlib.crc32(np.ascontiguousarray(array), self.value)

    def update_graph(self, graph: Graph) -> None:
        self.update(graph.src, graph.dst, graph.node_features)

    def update_delta(self, delta: GraphDelta) -> None:
        self.update(delta.node_ids, delta.node_features, delta.added_src,
                    delta.added_dst, delta.removed_edge_ids)


def make_graph(shape: Shape, seed: int, stream: int = 0) -> Graph:
    """The fixed degree structure under a seed-drawn relabelling.

    Edges stay grouped by source (as the generator emits them) so the edge
    order a kernel sees has the generator's locality, not a shuffled one.
    ``stream`` separates the tenants of one seed.
    """
    base = powerlaw_graph(shape.nodes, avg_degree=AVG_DEGREE, skew="both",
                          feature_dim=shape.feature_dim,
                          num_classes=shape.num_classes, seed=SHAPE_SEED)
    rng = np.random.default_rng([seed, stream, 1])
    new_id = rng.permutation(base.num_nodes)
    src, dst = new_id[base.src], new_id[base.dst]
    order = np.argsort(src, kind="stable")
    features = np.empty_like(base.node_features)
    features[new_id] = base.node_features
    features += rng.normal(0.0, 0.1, size=features.shape)
    labels = np.empty_like(base.labels)
    labels[new_id] = base.labels
    return Graph(src[order], dst[order], node_features=features, labels=labels,
                 num_nodes=base.num_nodes)


def make_model(shape: Shape, arch: str = "gcn") -> GNNModel:
    return build_model(arch, shape.feature_dim, shape.hidden_dim,
                       shape.num_classes, num_layers=NUM_LAYERS, seed=0)


def make_config(shape: Shape, backend: str,
                hub_threshold: int | None = None) -> InferenceConfig:
    """All three hub strategies on, serial executor stated (never inherited
    from ``$REPRO_EXECUTOR``)."""
    return InferenceConfig(
        backend=backend, num_workers=shape.num_workers, executor="serial",
        strategies=StrategyConfig(partial_gather=True, broadcast=True,
                                  shadow_nodes=True,
                                  hub_threshold_override=hub_threshold))


def make_gateway_config() -> GatewayConfig:
    return GatewayConfig(max_queue_depth=16, max_batch=8, max_concurrent_ticks=2)


def copy_graph(graph: Graph) -> Graph:
    """An independent copy of the arrays inference reads."""
    return Graph(graph.src.copy(), graph.dst.copy(),
                 node_features=graph.node_features.copy(),
                 labels=None if graph.labels is None else graph.labels.copy(),
                 num_nodes=graph.num_nodes)


# --------------------------------------------------------------------------- #
# delta_ticks: feature refreshes and hub-preserving edge churn
# --------------------------------------------------------------------------- #
class TickDeltas:
    """Generates the deltas of ``delta_ticks`` against the tenant's live handle.

    Feature deltas refresh random feature rows; edge deltas swap edges inside
    a hot zone of low-degree nodes.  Edge deltas read the handle's *current* edge
    list (the pool mirrors every delta onto it, deferred ones included), so
    ``removed_edge_ids`` are valid at the moment each delta is applied.
    Sources stay far below the hub threshold and hub edges are never touched,
    so the hub set and every mirror-group count survive: every delta must
    land in place.
    """

    def __init__(self, graph: Graph, scale: Scale, seed: int, digest: Digest) -> None:
        self._rng = np.random.default_rng([seed, 2])
        self._scale = scale
        self._digest = digest
        degrees = np.bincount(graph.src, minlength=graph.num_nodes)
        self.zone = np.nonzero(degrees <= 3)[0][:scale.zone_size]
        if self.zone.size < scale.zone_size:
            raise ValueError("graph has too few low-degree nodes for the hot zone")
        self._zone_mask = np.zeros(graph.num_nodes, dtype=bool)
        self._zone_mask[self.zone] = True

    def _emit(self, delta: GraphDelta) -> GraphDelta:
        self._digest.update_delta(delta)
        return delta

    def seed_delta(self) -> GraphDelta:
        """Zone-internal edges added once, untimed, so removals have targets."""
        count = self._scale.zone_seed_edges
        return self._emit(GraphDelta(added_src=self._rng.choice(self.zone, size=count),
                                     added_dst=self._rng.choice(self.zone, size=count)))

    def feature_delta(self, graph: Graph, share: float) -> GraphDelta:
        rows = max(1, int(graph.num_nodes * share))
        ids = self._rng.choice(graph.num_nodes, size=rows, replace=False)
        values = self._rng.normal(0.0, 1.0, size=(rows, graph.feature_dim))
        return self._emit(GraphDelta(node_ids=ids, node_features=values))

    def edge_delta(self, graph: Graph, share: float) -> GraphDelta:
        """Swap ``share`` of the edges: half removed, as many added."""
        half = max(1, int(graph.num_edges * share) // 2)
        degrees = np.bincount(graph.src, minlength=graph.num_nodes)
        sources = self.zone[degrees[self.zone] < self._scale.zone_source_degree_cap]
        internal = np.nonzero(self._zone_mask[graph.src] & self._zone_mask[graph.dst])[0]
        half = min(half, internal.size)
        return self._emit(GraphDelta(
            added_src=self._rng.choice(sources, size=half),
            added_dst=self._rng.choice(self.zone, size=half),
            removed_edge_ids=self._rng.choice(internal, size=half, replace=False)))

    def tick(self, graph: Graph, kind: str = "mixed") -> Iterator[GraphDelta]:
        """Yield one tick's ``TICK_DELTAS`` deltas, each reading the live handle.

        A ``mixed`` tick (the workload's op) alternates feature and edge
        deltas, so every tick does the same kind of work and the latency
        samples have one mode; ``feature`` and ``edge`` ticks exist for the
        traced run's per-kind probes.  Either way a tick touches
        ``TICK_FRACTION`` of the graph in total.
        """
        share = TICK_FRACTION / TICK_DELTAS
        for index in range(TICK_DELTAS):
            each = kind if kind != "mixed" else ("feature", "edge")[index % 2]
            make = self.feature_delta if each == "feature" else self.edge_delta
            yield make(graph, share)


# --------------------------------------------------------------------------- #
# serve_gateway (traced run): Poisson arrivals of update-then-score operations
# --------------------------------------------------------------------------- #
@dataclass
class Arrival:
    """One open-loop operation: due ``due`` seconds after its phase starts."""

    due: float
    tenant: int
    delta: GraphDelta


def feature_update(rng: np.random.Generator, shape: Shape, rows: int,
                   digest: Digest) -> GraphDelta:
    """One tenant update: ``rows`` distinct feature rows replaced."""
    ids = rng.choice(shape.nodes, size=rows, replace=False)
    values = rng.normal(0.0, 1.0, size=(rows, shape.feature_dim))
    delta = GraphDelta(node_ids=ids, node_features=values)
    digest.update_delta(delta)
    return delta


def poisson_arrivals(seed: int, phase: int, rate: float, seconds: float,
                     num_tenants: int, shape: Shape, rows: int,
                     digest: Digest) -> List[Arrival]:
    """A Poisson schedule decided up front from the seed, never from how
    fast the system answers.

    The count is pinned to ``rate * seconds``: a Poisson process conditioned
    on its count is that many independent uniform arrival times, so the gaps
    stay exponential-like and bursty while every seed offers the same load
    (unpinned, the count alone moved goodput by 8% between seeds).
    """
    rng = np.random.default_rng([seed, 3, phase])
    dues = np.sort(rng.uniform(0.0, seconds, size=max(1, round(rate * seconds))))
    tenants = rng.integers(0, num_tenants, size=dues.size)
    digest.update(dues, tenants)
    return [Arrival(due=float(due), tenant=int(tenant),
                    delta=feature_update(rng, shape, rows, digest))
            for due, tenant in zip(dues, tenants)]
