"""Mini-batch training of GAS GNN models over k-hop neighbourhoods.

The training phase follows the traditional pipeline the paper keeps: labelled
seed nodes are batched, their (sampled) k-hop neighbourhoods are extracted,
and the model's local :meth:`~repro.gnn.model.GNNModel.forward` runs over each
subgraph.  The resulting well-trained model is exported through
:mod:`repro.gnn.signature` and handed to the InferTurbo inference engine.
"""

from repro.training.trainer import Trainer, TrainConfig

__all__ = ["Trainer", "TrainConfig"]
