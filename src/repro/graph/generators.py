"""Synthetic graph generators.

The experiments need graphs whose *shape* matches the paper's datasets:

* labelled attributed graphs with community structure (stand-ins for PPI,
  OGB-Products and MAG240M, where what matters is that a trained GNN reaches a
  stable accuracy and that both inference pipelines agree);
* power-law graphs with controllable skew on **in**-degree or **out**-degree
  (the Power-Law dataset used for scalability and the hub-node strategy
  analysis, Figs. 8–13).

All generators are seeded and deterministic.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.graph import Graph


def _community_features(labels: np.ndarray, feature_dim: int, num_classes: int,
                        noise: float, rng: np.random.Generator) -> np.ndarray:
    """Features = class centroid + Gaussian noise (learnable but not trivial)."""
    centroids = rng.normal(0.0, 1.0, size=(num_classes, feature_dim))
    features = centroids[labels] + rng.normal(0.0, noise, size=(labels.size, feature_dim))
    return features


def labeled_community_graph(
    num_nodes: int,
    num_classes: int,
    feature_dim: int,
    avg_degree: float = 10.0,
    homophily: float = 0.8,
    noise: float = 1.0,
    edge_feature_dim: int = 0,
    multilabel: bool = False,
    seed: int = 0,
) -> Graph:
    """Directed stochastic-block-style graph with class-correlated features.

    Nodes are assigned to ``num_classes`` communities; each node draws
    ``Poisson(avg_degree)`` out-edges, each of which lands inside the node's own
    community with probability ``homophily`` and in a random other community
    otherwise.  Features are noisy class centroids, so a 2-layer GNN can reach
    non-trivial accuracy, which is all Table II needs.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, size=num_nodes)

    degrees = rng.poisson(avg_degree, size=num_nodes)
    degrees = np.maximum(degrees, 1)
    src_list = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)

    # Destination selection: same community w.p. homophily, else random.
    nodes_by_class = [np.nonzero(labels == c)[0] for c in range(num_classes)]
    same_mask = rng.random(src_list.size) < homophily
    dst_list = np.empty(src_list.size, dtype=np.int64)
    random_targets = rng.integers(0, num_nodes, size=src_list.size)
    dst_list[~same_mask] = random_targets[~same_mask]
    same_positions = np.nonzero(same_mask)[0]
    for position in same_positions:
        community = nodes_by_class[labels[src_list[position]]]
        dst_list[position] = community[rng.integers(0, community.size)]

    # Drop self loops produced by chance.
    keep = src_list != dst_list
    src_list, dst_list = src_list[keep], dst_list[keep]

    features = _community_features(labels, feature_dim, num_classes, noise, rng)
    edge_features = None
    if edge_feature_dim > 0:
        edge_features = rng.normal(0.0, 1.0, size=(src_list.size, edge_feature_dim))

    final_labels: np.ndarray
    if multilabel:
        onehot = np.zeros((num_nodes, num_classes), dtype=np.float64)
        onehot[np.arange(num_nodes), labels] = 1.0
        # Secondary labels: each node also gets ~2 extra correlated labels.
        extra = rng.random((num_nodes, num_classes)) < (2.0 / num_classes)
        final_labels = np.clip(onehot + extra, 0.0, 1.0)
    else:
        final_labels = labels

    return Graph(src_list, dst_list, node_features=features,
                 edge_features=edge_features, labels=final_labels,
                 num_nodes=num_nodes)


def _powerlaw_degrees(num_nodes: int, exponent: float, min_degree: int,
                      max_degree: int, rng: np.random.Generator) -> np.ndarray:
    """Sample integer degrees from a bounded discrete power law."""
    uniform = rng.random(num_nodes)
    # Inverse-CDF sampling of p(d) ∝ d^-exponent on [min_degree, max_degree].
    low = float(min_degree) ** (1.0 - exponent)
    high = float(max_degree) ** (1.0 - exponent)
    degrees = (low + uniform * (high - low)) ** (1.0 / (1.0 - exponent))
    return np.clip(degrees.astype(np.int64), min_degree, max_degree)


def powerlaw_graph(
    num_nodes: int,
    avg_degree: float = 10.0,
    exponent: float = 2.1,
    skew: str = "out",
    max_degree: Optional[int] = None,
    feature_dim: int = 8,
    num_classes: int = 2,
    seed: int = 0,
) -> Graph:
    """Directed graph with power-law skew on in- or out-degree.

    Parameters
    ----------
    skew:
        ``"out"`` makes out-degree power-law distributed (large out-degree hubs,
        the broadcast / shadow-nodes regime); ``"in"`` makes in-degree
        power-law distributed (large in-degree hubs, the partial-gather
        regime); ``"both"`` applies the power law to both endpoints by
        preferential attachment on each side.
    """
    if skew not in {"in", "out", "both"}:
        raise ValueError("skew must be one of 'in', 'out', 'both'")
    rng = np.random.default_rng(seed)
    max_degree = max_degree or max(int(num_nodes * 0.2), 16)

    degrees = _powerlaw_degrees(num_nodes, exponent, 1, max_degree, rng)
    # Rescale to the requested average degree while preserving the shape.
    scale = (avg_degree * num_nodes) / max(degrees.sum(), 1)
    degrees = np.maximum((degrees * scale).astype(np.int64), 1)

    if skew == "out":
        src = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
        dst = rng.integers(0, num_nodes, size=src.size)
    elif skew == "in":
        dst = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
        src = rng.integers(0, num_nodes, size=dst.size)
    else:
        out_deg = degrees
        in_weights = _powerlaw_degrees(num_nodes, exponent, 1, max_degree, rng).astype(np.float64)
        in_weights /= in_weights.sum()
        src = np.repeat(np.arange(num_nodes, dtype=np.int64), out_deg)
        dst = rng.choice(num_nodes, size=src.size, p=in_weights)

    keep = src != dst
    src, dst = src[keep], dst[keep]

    labels = rng.integers(0, num_classes, size=num_nodes)
    features = _community_features(labels, feature_dim, num_classes, 1.5, rng)
    return Graph(src, dst, node_features=features, labels=labels, num_nodes=num_nodes)


def star_graph(num_leaves: int, direction: str = "in", feature_dim: int = 4,
               seed: int = 0) -> Graph:
    """A hub node connected to ``num_leaves`` leaves — the extreme skew case.

    ``direction="in"`` points every edge leaf → hub (hub has huge in-degree);
    ``direction="out"`` points hub → leaf (hub has huge out-degree).  Used by
    the strategy unit tests as the worst-case input.
    """
    rng = np.random.default_rng(seed)
    num_nodes = num_leaves + 1
    leaves = np.arange(1, num_nodes, dtype=np.int64)
    hub = np.zeros(num_leaves, dtype=np.int64)
    if direction == "in":
        src, dst = leaves, hub
    elif direction == "out":
        src, dst = hub, leaves
    else:
        raise ValueError("direction must be 'in' or 'out'")
    features = rng.normal(0.0, 1.0, size=(num_nodes, feature_dim))
    labels = np.zeros(num_nodes, dtype=np.int64)
    return Graph(src, dst, node_features=features, labels=labels, num_nodes=num_nodes)
