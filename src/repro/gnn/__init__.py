"""GNN layers expressed in the InferTurbo GAS-like abstraction.

The abstraction (paper Section IV-B) splits a GNN layer into five stages:

=============  ===========  =====================================================
stage          kind         meaning
=============  ===========  =====================================================
gather_nbrs    data flow    receive in-edge messages and vectorise them
aggregate      computation  commutative/associative pre-reduction of messages
apply_node     computation  update node state from (old state, aggregated msg)
apply_edge     computation  produce per-out-edge messages from the new state
scatter_nbrs   data flow    send messages along out-edges
=============  ===========  =====================================================

The data-flow stages are built-in (tensors during training, backend messaging
during inference); model authors override the three computation stages on
:class:`~repro.gnn.gasconv.GASConv` and mark them with the annotation
decorators so the inference adaptors know where each piece may be re-deployed
(the *partial-gather* optimisation is only legal when the aggregate stage is
commutative and associative — declared via ``@gather_stage(partial=True)``).
"""

from repro.gnn.annotations import (
    gather_stage,
    apply_node_stage,
    apply_edge_stage,
    stage_annotation,
    StageAnnotation,
)
from repro.gnn.gasconv import GASConv
from repro.gnn.sage import SAGEConv
from repro.gnn.gat import GATConv
from repro.gnn.gcn import GCNConv
from repro.gnn.model import GNNModel, build_model
from repro.gnn.signature import ModelSignature, export_signature, load_signature

__all__ = [
    "gather_stage",
    "apply_node_stage",
    "apply_edge_stage",
    "stage_annotation",
    "StageAnnotation",
    "GASConv",
    "SAGEConv",
    "GATConv",
    "GCNConv",
    "GNNModel",
    "build_model",
    "ModelSignature",
    "export_signature",
    "load_signature",
]
