"""Minimal numpy-backed tensor and neural-network substrate.

The paper's GNN models are written against TensorFlow; this package provides
the small slice of a deep-learning framework that GNN training and inference
actually need:

* :class:`~repro.tensor.tensor.Tensor` — a dense array with reverse-mode
  automatic differentiation.
* :mod:`~repro.tensor.ops` — matmul, ``log_softmax``, ``gather_rows`` and the
  *segment* operations (``segment_sum`` / ``segment_mean`` / ``segment_max``
  and ``segment_softmax``) that message-passing GNNs are built from.
* :mod:`~repro.tensor.nn` — ``Parameter`` / ``Module`` / ``Linear``.
* :mod:`~repro.tensor.optim` — Adam.
* :mod:`~repro.tensor.losses` — cross-entropy and binary cross-entropy.
"""

from repro.tensor.tensor import Tensor, no_grad
from repro.tensor import ops
from repro.tensor import nn
from repro.tensor import optim
from repro.tensor import losses

__all__ = ["Tensor", "no_grad", "ops", "nn", "optim", "losses"]
