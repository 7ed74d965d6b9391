"""Sender-side message combiners.

A combiner folds the messages a worker is about to send to the *same
destination vertex* into fewer messages before they hit the network — Pregel's
classic bandwidth optimisation, and the mechanism the paper reuses to
implement the partial-gather strategy (the GNN's aggregate stage runs inside
the combiner, which is legal exactly when that stage is commutative and
associative).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.pregel.vertex import MessageBlock


class MessageCombiner:
    """Interface for combining per-destination messages on the sender side."""

    def combine_block(self, block: MessageBlock) -> MessageBlock:
        """Fold a packed block so each destination id appears at most once."""
        dst_ids = block.dst_ids
        if dst_ids.size == 0:
            return block
        unique, inverse = np.unique(dst_ids, return_inverse=True)
        payload = self._reduce_payload(block.payload, inverse, unique.size)
        counts = np.zeros(unique.size, dtype=np.int64)
        np.add.at(counts, inverse, block.counts)
        return MessageBlock(dst_ids=unique, payload=payload, counts=counts)

    def _reduce_payload(self, payload: np.ndarray, inverse: np.ndarray,
                        num_groups: int) -> np.ndarray:
        raise NotImplementedError


class SumCombiner(MessageCombiner):
    """Sum messages per destination (also carries partial sums for mean)."""

    def _reduce_payload(self, payload: np.ndarray, inverse: np.ndarray,
                        num_groups: int) -> np.ndarray:
        out = np.zeros((num_groups,) + payload.shape[1:], dtype=np.float64)
        np.add.at(out, inverse, payload)
        return out


class MeanCombiner(SumCombiner):
    """Identical wire format to :class:`SumCombiner`.

    Mean aggregation is carried as (partial sum, count): the payload holds the
    partial sum and ``MessageBlock.counts`` holds how many raw messages it
    stands for, so the receiver can finish the division exactly.
    """


class MaxCombiner(MessageCombiner):
    """Element-wise maximum per destination."""

    def _reduce_payload(self, payload: np.ndarray, inverse: np.ndarray,
                        num_groups: int) -> np.ndarray:
        out = np.full((num_groups,) + payload.shape[1:], -np.inf, dtype=np.float64)
        np.maximum.at(out, inverse, payload)
        return out


def combiner_for_aggregate_kind(kind: str) -> Optional[MessageCombiner]:
    """Map a GAS layer's ``aggregate_kind`` to the matching combiner.

    ``union`` (GAT) returns ``None`` — its reduction is order-dependent through
    the softmax normaliser, so sender-side combining would change results and
    partial-gather must stay disabled.
    """
    if kind in ("sum",):
        return SumCombiner()
    if kind in ("mean",):
        return MeanCombiner()
    if kind == "max":
        return MaxCombiner()
    if kind == "union":
        return None
    raise ValueError(f"unknown aggregate kind {kind!r}")
