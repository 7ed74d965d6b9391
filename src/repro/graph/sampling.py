"""Neighbour sampling strategies.

K-hop sampling selects, per expanded node and per hop, a subset of in-edges.
The traditional pipeline uses :class:`UniformNeighborSampler` (the "randomly
choose a fixed number of neighbours" strategy the paper describes); InferTurbo
never samples — its full-graph path corresponds to :class:`FullNeighborSampler`
— which is what guarantees prediction consistency across runs (Fig. 7).
"""

from __future__ import annotations

import numpy as np


class NeighborSampler:
    """Strategy interface: choose which in-edge ids to keep for one node."""

    def sample(self, edge_ids: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


class FullNeighborSampler(NeighborSampler):
    """Keep every in-edge (no sampling) — deterministic."""

    def sample(self, edge_ids: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return edge_ids


class UniformNeighborSampler(NeighborSampler):
    """Uniformly sample at most ``fanout`` in-edges without replacement.

    This is the stochastic acceleration strategy whose inference-time
    inconsistency the paper measures in Fig. 7 (fanout 10/50/100/1000).
    """

    def __init__(self, fanout: int) -> None:
        if fanout <= 0:
            raise ValueError("fanout must be positive")
        self.fanout = int(fanout)

    def sample(self, edge_ids: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if edge_ids.size <= self.fanout:
            return edge_ids
        return rng.choice(edge_ids, size=self.fanout, replace=False)
