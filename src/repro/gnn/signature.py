"""Layer-wise model signature files.

When a well-trained model is saved, the system writes a *signature* per layer
recording (a) which class implements it and with which configuration, (b) the
stage annotations (including the ``partial`` flag that authorises
partial-gather), and (c) the trained parameters.  The inference adaptors load
the signature to rebuild the exact computation flow and to decide which
optimisation strategies may be enabled — no manual configuration, as the paper
emphasises in Section IV-B1.

On disk a signature is a directory with ``signature.json`` (structure and
annotations) and ``parameters.npz`` (flat name → array parameter map).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from repro.gnn.gasconv import GASConv
from repro.gnn.model import GNNModel, layer_class
from repro.tensor.nn import Linear


@dataclass
class LayerSignature:
    """Signature of one GAS layer."""

    class_name: str
    config: Dict[str, Any]
    annotations: Dict[str, Dict[str, Any]]
    aggregate_kind: str
    supports_partial_gather: bool
    message_dim: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "class_name": self.class_name,
            "config": self.config,
            "annotations": self.annotations,
            "aggregate_kind": self.aggregate_kind,
            "supports_partial_gather": self.supports_partial_gather,
            "message_dim": self.message_dim,
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "LayerSignature":
        return LayerSignature(
            class_name=payload["class_name"],
            config=dict(payload["config"]),
            annotations=dict(payload["annotations"]),
            aggregate_kind=payload["aggregate_kind"],
            supports_partial_gather=bool(payload["supports_partial_gather"]),
            message_dim=int(payload["message_dim"]),
        )


@dataclass
class ModelSignature:
    """Signature of a whole model: encoder, layers, head, trained parameters."""

    feature_dim: int
    hidden_dim: int
    output_dim: int
    has_head: bool
    layers: List[LayerSignature]
    parameters: Dict[str, np.ndarray] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "feature_dim": self.feature_dim,
            "hidden_dim": self.hidden_dim,
            "output_dim": self.output_dim,
            "has_head": self.has_head,
            "layers": [layer.to_dict() for layer in self.layers],
        }

    def save(self, directory: str) -> None:
        """Write ``signature.json`` and ``parameters.npz`` under ``directory``."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "signature.json"), "w", encoding="utf-8") as handle:
            json.dump(self.to_json_dict(), handle, indent=2)
        np.savez(os.path.join(directory, "parameters.npz"), **self.parameters)

    @staticmethod
    def load(directory: str) -> "ModelSignature":
        with open(os.path.join(directory, "signature.json"), encoding="utf-8") as handle:
            payload = json.load(handle)
        archive = np.load(os.path.join(directory, "parameters.npz"))
        parameters = {name: archive[name] for name in archive.files}
        return ModelSignature(
            feature_dim=int(payload["feature_dim"]),
            hidden_dim=int(payload["hidden_dim"]),
            output_dim=int(payload["output_dim"]),
            has_head=bool(payload["has_head"]),
            layers=[LayerSignature.from_dict(item) for item in payload["layers"]],
            parameters=parameters,
        )

    # ------------------------------------------------------------------ #
    def build_model(self) -> GNNModel:
        """Reconstruct the model object and load its trained parameters."""
        rng = np.random.default_rng(0)
        encoder = Linear(self.feature_dim, self.hidden_dim, rng=rng)
        layers: List[GASConv] = []
        for layer_sig in self.layers:
            cls = layer_class(layer_sig.class_name)
            layers.append(cls(**layer_sig.config))
        head = None
        if self.has_head:
            last_width = layers[-1].output_dim
            head = Linear(last_width, self.output_dim, rng=rng)
        model = GNNModel(encoder, layers, head)
        if self.parameters:
            model.load_state_dict(self.parameters)
        return model


def export_signature(model: GNNModel) -> ModelSignature:
    """Create a :class:`ModelSignature` from a (trained) model."""
    layer_signatures = [
        LayerSignature(
            class_name=type(layer).__name__,
            config=layer.config(),
            annotations=layer.annotations(),
            aggregate_kind=layer.aggregate_kind,
            supports_partial_gather=layer.supports_partial_gather,
            message_dim=layer.message_dim,
        )
        for layer in model.layers
    ]
    return ModelSignature(
        feature_dim=model.encoder.in_features,
        hidden_dim=model.encoder.out_features,
        output_dim=model.output_dim,
        has_head=model.head is not None,
        layers=layer_signatures,
        parameters=model.state_dict(),
    )


def load_signature(directory: str) -> ModelSignature:
    """Load a signature previously written by :meth:`ModelSignature.save`."""
    return ModelSignature.load(directory)
