"""Tests for the nn module system, optimisers and loss functions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn.model import build_model
from repro.tensor import losses, nn, optim
from repro.tensor.tensor import Tensor


class TestModuleSystem:
    def test_linear_shapes(self):
        layer = nn.Linear(4, 3)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_linear_no_bias(self):
        layer = nn.Linear(4, 3, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1
        x = np.arange(8.0).reshape(2, 4)
        np.testing.assert_array_equal(layer(Tensor(x)).data, (Tensor(x) @ layer.weight).data)

    def test_named_parameters_nested(self):
        model = build_model("sage", 2, 3, 1)
        names = dict(model.named_parameters())
        assert "encoder.weight" in names
        assert "layers.0.self_linear.weight" in names
        assert "layers.1.neighbor_linear.bias" in names
        assert "head.bias" in names
        assert len(names) == 4 + 4 * 2

    def test_children_walk_modules_held_in_lists(self):
        model = build_model("sage", 2, 3, 1, num_layers=3)
        children = list(model.children())
        assert children[0] is model.encoder and children[-1] is model.head
        assert children[1:-1] == model.layers
        assert len(list(model.modules())) == len(set(map(id, model.modules())))

    def test_state_dict_roundtrip(self):
        layer = nn.Linear(3, 2)
        state = layer.state_dict()
        other = nn.Linear(3, 2, rng=np.random.default_rng(99))
        assert not np.allclose(other.weight.data, layer.weight.data)
        other.load_state_dict(state)
        np.testing.assert_allclose(other.weight.data, layer.weight.data)

    def test_load_state_dict_rejects_unknown_keys(self):
        layer = nn.Linear(3, 2)
        state = layer.state_dict()
        state["bogus"] = np.zeros(3)
        with pytest.raises(KeyError):
            layer.load_state_dict(state)

    def test_load_state_dict_rejects_missing_keys(self):
        layer = nn.Linear(3, 2)
        state = layer.state_dict()
        del state["bias"]
        with pytest.raises(KeyError, match="missing=\\['bias'\\]"):
            layer.load_state_dict(state)

    def test_state_dict_copies_in_both_directions(self):
        layer = nn.Linear(3, 2)
        state = layer.state_dict()
        state["weight"][:] = 7.0
        assert not np.any(layer.weight.data == 7.0)
        layer.load_state_dict(state)
        state["weight"][:] = 0.0
        np.testing.assert_array_equal(layer.weight.data, np.full((3, 2), 7.0))

    def test_load_state_dict_rejects_shape_mismatch(self):
        layer = nn.Linear(3, 2)
        state = layer.state_dict()
        state["weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)

    def test_train_eval_propagates(self):
        model = build_model("sage", 2, 2, 2)
        assert len(list(model.modules())) > len(model.layers) + 2
        model.eval()
        assert all(not module.training for module in model.modules())
        model.train()
        assert all(module.training for module in model.modules())

    def test_zero_grad_clears(self):
        layer = nn.Linear(2, 2)
        out = layer(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert layer.weight.grad is not None
        optim.Adam(layer.parameters()).zero_grad()
        assert layer.weight.grad is None and layer.bias.grad is None

    def test_xavier_uniform_bounds(self):
        values = nn.xavier_uniform((100, 50), np.random.default_rng(0))
        limit = np.sqrt(6.0 / 150)
        assert np.all(np.abs(values) <= limit + 1e-12)


def _fit_regression(optimizer_cls, **kwargs) -> float:
    """Fit y = x @ w_true with the given optimiser; return final MSE."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 3))
    w_true = np.array([[1.0], [-2.0], [0.5]])
    y = x @ w_true
    layer = nn.Linear(3, 1, rng=np.random.default_rng(5))
    optimizer = optimizer_cls(layer.parameters(), **kwargs)
    loss_value = np.inf
    for _ in range(200):
        optimizer.zero_grad()
        pred = layer(Tensor(x))
        diff = pred - Tensor(y)
        loss = (diff * diff).mean()
        loss.backward()
        optimizer.step()
        loss_value = float(loss.data)
    return loss_value


class TestOptimizers:
    def test_adam_converges(self):
        assert _fit_regression(optim.Adam, lr=0.05) < 1e-3

    def test_weight_decay_shrinks_weights(self):
        layer = nn.Linear(2, 2)
        layer.weight.data = np.ones((2, 2)) * 10.0
        optimizer = optim.Adam(layer.parameters(), lr=0.1, weight_decay=1.0)
        # No data gradient: only the decay term acts.
        for param in layer.parameters():
            param.grad = np.zeros_like(param.data)
        optimizer.step()
        assert np.all(layer.weight.data < 10.0)

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            optim.Adam([])

    def test_adam_first_step_moves_each_weight_by_lr(self):
        """Bias correction makes step one ``lr * g / (|g| + eps)``: ``lr`` per weight."""
        layer = nn.Linear(2, 2)
        before = layer.weight.data.copy()
        grad = np.array([[3.0, -0.5], [1e-3, -40.0]])
        layer.weight.grad = grad
        optim.Adam([layer.weight], lr=0.01).step()
        np.testing.assert_allclose(before - layer.weight.data, 0.01 * np.sign(grad), rtol=1e-4)

    def test_step_skips_params_without_grad(self):
        layer = nn.Linear(2, 2)
        before = layer.weight.data.copy()
        optim.Adam(layer.parameters()).step()
        np.testing.assert_allclose(layer.weight.data, before)


class TestLosses:
    def test_softmax_cross_entropy_matches_reference(self):
        logits = np.array([[2.0, 1.0, 0.1], [0.5, 2.5, 0.3]])
        labels = np.array([0, 1])
        loss = losses.softmax_cross_entropy(Tensor(logits), labels)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected = -np.mean(np.log(probs[np.arange(2), labels]))
        assert float(loss.data) == pytest.approx(expected, rel=1e-9)

    def test_cross_entropy_gradient_direction(self):
        logits = Tensor(np.zeros((1, 3)), requires_grad=True)
        losses.softmax_cross_entropy(logits, np.array([2])).backward()
        # Gradient should push up the true class (negative grad) and down others.
        assert logits.grad[0, 2] < 0
        assert logits.grad[0, 0] > 0

    def test_bce_matches_reference(self):
        logits = np.array([[0.3, -1.2], [2.0, 0.0]])
        targets = np.array([[1.0, 0.0], [1.0, 1.0]])
        loss = losses.binary_cross_entropy_with_logits(Tensor(logits), targets)
        probs = 1.0 / (1.0 + np.exp(-logits))
        eps = 1e-7
        probs = probs * (1 - 2 * eps) + eps
        expected = -(targets * np.log(probs) + (1 - targets) * np.log(1 - probs)).mean()
        assert float(loss.data) == pytest.approx(expected, rel=1e-6)

    def test_accuracy(self):
        logits = np.array([[1.0, 2.0], [3.0, 0.0], [0.0, 1.0]])
        labels = np.array([1, 0, 0])
        assert losses.accuracy(logits, labels) == pytest.approx(2.0 / 3.0)

    def test_micro_f1_perfect(self):
        logits = np.array([[1.0, -1.0], [-1.0, 1.0]])
        targets = np.array([[1, 0], [0, 1]])
        assert losses.micro_f1(logits, targets) == pytest.approx(1.0)

    def test_micro_f1_no_positives(self):
        logits = np.full((2, 3), -1.0)
        targets = np.ones((2, 3))
        assert losses.micro_f1(logits, targets) == 0.0
