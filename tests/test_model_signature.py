"""Tests for model signature export / save / load and the training loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn.model import build_model
from repro.gnn.signature import ModelSignature, export_signature, load_signature
from repro.graph.generators import labeled_community_graph
from repro.tensor.losses import accuracy, micro_f1
from repro.tensor.tensor import Tensor, no_grad
from repro.training.trainer import TrainConfig, Trainer


class TestSignature:
    @pytest.mark.parametrize("arch", ["sage", "gat", "gcn"])
    def test_export_records_layers(self, arch):
        model = build_model(arch, 8, 16, 3, num_layers=2)
        signature = export_signature(model)
        assert len(signature.layers) == 2
        assert signature.feature_dim == 8
        assert signature.has_head

    def test_partial_flag_recorded(self):
        sage_sig = export_signature(build_model("sage", 8, 16, 3))
        gat_sig = export_signature(build_model("gat", 8, 16, 3))
        assert all(layer.supports_partial_gather for layer in sage_sig.layers)
        assert not any(layer.supports_partial_gather for layer in gat_sig.layers)

    def test_annotations_in_signature(self):
        signature = export_signature(build_model("sage", 8, 16, 3))
        annotations = signature.layers[0].annotations
        assert annotations["gather"]["partial"] is True
        assert annotations["apply_node"]["stage"] == "apply_node"

    @pytest.mark.parametrize("arch", ["sage", "gat", "gcn"])
    def test_rebuilt_model_reproduces_outputs(self, arch):
        rng = np.random.default_rng(0)
        model = build_model(arch, 8, 16, 3, num_layers=2, seed=4)
        signature = export_signature(model)
        rebuilt = signature.build_model()
        state = rng.normal(size=(15, 8))
        src = rng.integers(0, 15, size=40)
        dst = rng.integers(0, 15, size=40)
        with no_grad():
            original = model.forward(Tensor(state), src, dst, num_nodes=15).data
            recovered = rebuilt.forward(Tensor(state), src, dst, num_nodes=15).data
        np.testing.assert_allclose(recovered, original, atol=1e-12)

    def test_save_and_load_roundtrip(self, tmp_path):
        model = build_model("sage", 6, 12, 4, num_layers=2, seed=1)
        signature = export_signature(model)
        directory = str(tmp_path / "model")
        signature.save(directory)
        loaded = load_signature(directory)
        assert loaded.feature_dim == 6
        assert len(loaded.layers) == 2
        for name, values in signature.parameters.items():
            np.testing.assert_allclose(loaded.parameters[name], values)

    def test_loaded_signature_builds_equivalent_model(self, tmp_path):
        model = build_model("gat", 5, 8, 2, num_layers=2, seed=2)
        directory = str(tmp_path / "gat_model")
        export_signature(model).save(directory)
        rebuilt = load_signature(directory).build_model()
        rng = np.random.default_rng(3)
        state = rng.normal(size=(10, 5))
        src = rng.integers(0, 10, size=20)
        dst = rng.integers(0, 10, size=20)
        with no_grad():
            np.testing.assert_allclose(
                rebuilt.forward(Tensor(state), src, dst, num_nodes=10).data,
                model.forward(Tensor(state), src, dst, num_nodes=10).data, atol=1e-12)

    def test_signature_message_dims(self):
        signature = export_signature(build_model("gat", 8, 16, 3, heads=4))
        layer = signature.layers[0]
        assert layer.message_dim == layer.config["heads"] * layer.config["out_dim"] + layer.config["heads"]


class TestTrainer:
    @pytest.fixture(scope="class")
    def train_graph(self):
        return labeled_community_graph(num_nodes=250, num_classes=3, feature_dim=10,
                                       avg_degree=6.0, seed=21)

    def test_training_reduces_loss(self, train_graph):
        model = build_model("sage", 10, 16, 3, seed=0)
        trainer = Trainer(model, train_graph, TrainConfig(num_epochs=4, batch_size=32, fanout=5))
        result = trainer.fit(np.arange(100))
        assert result.losses[-1] < result.losses[0]

    def test_training_improves_over_random_accuracy(self, train_graph):
        model = build_model("sage", 10, 16, 3, seed=0)
        trainer = Trainer(model, train_graph, TrainConfig(num_epochs=5, batch_size=32, fanout=5))
        trainer.fit(np.arange(120))
        metrics = trainer.evaluate(np.arange(120, 200))
        assert metrics["accuracy"] > 0.5

    def test_evaluate_is_deterministic(self, train_graph):
        model = build_model("sage", 10, 16, 3, seed=0)
        trainer = Trainer(model, train_graph, TrainConfig(num_epochs=1, batch_size=32, fanout=5))
        trainer.fit(np.arange(60))
        first = trainer.evaluate(np.arange(100, 150))
        second = trainer.evaluate(np.arange(100, 150))
        assert first == second

    def test_multilabel_training(self):
        graph = labeled_community_graph(num_nodes=150, num_classes=8, feature_dim=6,
                                        multilabel=True, seed=2)
        model = build_model("sage", 6, 12, 8, seed=0)
        trainer = Trainer(model, graph, TrainConfig(num_epochs=2, batch_size=32, fanout=5,
                                                    multilabel=True))
        result = trainer.fit(np.arange(80))
        metrics = trainer.evaluate(np.arange(80, 120))
        assert "micro_f1" in metrics
        assert result.losses

    def test_unlabeled_graph_rejected(self):
        from repro.graph.graph import Graph

        graph = Graph(np.array([0]), np.array([1]), node_features=np.zeros((2, 4)), num_nodes=2)
        model = build_model("sage", 4, 8, 2)
        with pytest.raises(ValueError):
            Trainer(model, graph)

    def test_full_neighbor_training_config(self, train_graph):
        model = build_model("gcn", 10, 12, 3, seed=0)
        trainer = Trainer(model, train_graph, TrainConfig(num_epochs=1, batch_size=64, fanout=None))
        result = trainer.fit(np.arange(64))
        assert len(result.losses) == 1

    def test_history_records_epochs(self, train_graph):
        model = build_model("sage", 10, 8, 3, seed=0)
        trainer = Trainer(model, train_graph, TrainConfig(num_epochs=3, batch_size=32, fanout=5))
        result = trainer.fit(np.arange(50))
        assert [entry["epoch"] for entry in result.history] == [0, 1, 2]


def full_graph_logits(model, graph) -> np.ndarray:
    """Logits of every node, one forward over the whole graph."""
    with no_grad():
        return model.forward(Tensor(graph.node_features), graph.src, graph.dst,
                             num_nodes=graph.num_nodes).data


class TestMetrics:
    """``Trainer.evaluate`` reports its task's metric over every eval node."""

    def test_single_label_metrics(self):
        graph = labeled_community_graph(num_nodes=120, num_classes=3, feature_dim=5, seed=4)
        model = build_model("sage", 5, 8, 3, seed=1)
        nodes = np.arange(30, 90)
        expected = accuracy(full_graph_logits(model, graph)[nodes], graph.labels[nodes])
        metrics = Trainer(model, graph, TrainConfig(batch_size=16)).evaluate(nodes)
        assert metrics == {"accuracy": expected}

    def test_multi_label_metrics(self):
        graph = labeled_community_graph(num_nodes=120, num_classes=6, feature_dim=5,
                                        multilabel=True, seed=4)
        model = build_model("sage", 5, 8, 6, seed=1)
        nodes = np.arange(30, 90)
        expected = micro_f1(full_graph_logits(model, graph)[nodes], graph.labels[nodes])
        metrics = Trainer(model, graph, TrainConfig(batch_size=16, multilabel=True)).evaluate(nodes)
        assert metrics == {"micro_f1": expected}

    def test_prediction_labels(self):
        """Hard predictions: argmax for one label, a threshold at 0 for many."""
        logits = np.array([[0.2, 0.7], [-0.5, -0.1]])
        assert accuracy(logits, [1, 1]) == 1.0
        assert micro_f1(logits, [[1, 1], [0, 0]]) == 1.0
        assert micro_f1(logits, [[1, 0], [0, 0]]) == pytest.approx(2 / 3)
