"""Tests for the autodiff tensor: ops, gradients, segment reductions."""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import ops
from repro.tensor.tensor import ROW_BLOCK, Tensor, concatenate, no_grad


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn at x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        upper = fn(x)
        flat[index] = original - eps
        lower = fn(x)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * eps)
    return grad


class TestTensorBasics:
    def test_construction_and_shape(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.ndim == 2
        assert not t.requires_grad

    def test_payload_is_float64_and_a_tensor_is_not_copied(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64
        assert Tensor(t).data is t.data

    def test_zero_grad_clears_the_gradient(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * 2.0).sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 2.0])
        t.zero_grad()
        assert t.grad is None

    def test_pickle_ships_a_leaf(self):
        """Data, grad and flags travel; the graph behind a node does not."""
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = a * 3.0
        out.backward(np.array([1.0, 1.0]))
        clone = pickle.loads(pickle.dumps(out))
        np.testing.assert_array_equal(clone.data, out.data)
        np.testing.assert_array_equal(clone.grad, out.grad)
        assert clone.requires_grad
        assert clone._parents == () and clone._backward_fn is None
        clone.backward()
        np.testing.assert_allclose(a.grad, [3.0, 3.0])


class TestArithmeticGradients:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_add_broadcast_backward(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, [3.0, 3.0])

    def test_mul_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 7.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_mul_broadcast_backward_keeps_size_one_axes(self):
        a = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        b = Tensor(np.array([[2.0, 5.0]]), requires_grad=True)
        (a * b).sum().backward()
        assert b.grad.shape == (1, 2)
        np.testing.assert_allclose(b.grad, [[6.0, 9.0]])
        np.testing.assert_allclose(a.grad, np.tile([2.0, 5.0], (3, 1)))

    def test_scalar_operands_are_constants(self):
        a = Tensor([2.0, 4.0], requires_grad=True)
        ((a + 1.0) * 3.0 - 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0, 3.0])
        b = Tensor([2.0, 4.0], requires_grad=True)
        (b / 4.0).sum().backward()
        np.testing.assert_allclose(b.grad, [0.25, 0.25])

    def test_shared_node_accumulates_every_path(self):
        a = Tensor([3.0, -1.0], requires_grad=True)
        (a * a + a).sum().backward()
        np.testing.assert_allclose(a.grad, [7.0, -1.0])

    def test_backward_takes_an_explicit_seed(self):
        a = Tensor([1.0, 1.0], requires_grad=True)
        (a * 3.0).backward([1.0, 2.0])
        np.testing.assert_allclose(a.grad, [3.0, 6.0])

    def test_separate_backward_passes_accumulate(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).backward()
        (a * 3.0).backward()
        np.testing.assert_allclose(a.grad, [5.0])

    def test_constant_operand_gets_no_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0])
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        assert b.grad is None

    def test_sub_and_neg(self):
        a = Tensor([4.0], requires_grad=True)
        b = Tensor([1.0], requires_grad=True)
        (a - b).backward()
        np.testing.assert_allclose(a.grad, [1.0])
        np.testing.assert_allclose(b.grad, [-1.0])
        c = Tensor([2.0], requires_grad=True)
        (-c).backward()
        np.testing.assert_allclose(c.grad, [-1.0])

    def test_div_backward(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.5])

    def test_matmul_backward_matches_numerical(self):
        rng = np.random.default_rng(0)
        a_val = rng.normal(size=(3, 4))
        b_val = rng.normal(size=(4, 2))
        a = Tensor(a_val.copy(), requires_grad=True)
        b = Tensor(b_val.copy(), requires_grad=True)
        (a @ b).sum().backward()
        num_a = numerical_grad(lambda x: (x @ b_val).sum(), a_val.copy())
        num_b = numerical_grad(lambda x: (a_val @ x).sum(), b_val.copy())
        np.testing.assert_allclose(a.grad, num_a, atol=1e-5)
        np.testing.assert_allclose(b.grad, num_b, atol=1e-5)

    def test_matmul_over_several_row_blocks(self):
        """A product spanning whole blocks plus a padded tail matches numpy,
        forward and backward."""
        rng = np.random.default_rng(7)
        a_val = rng.normal(size=(2 * ROW_BLOCK + 5, 3))
        w_val = rng.normal(size=(3, 4))
        seed = rng.normal(size=(2 * ROW_BLOCK + 5, 4))
        a = Tensor(a_val, requires_grad=True)
        w = Tensor(w_val, requires_grad=True)
        out = a @ w
        np.testing.assert_allclose(out.data, a_val @ w_val, rtol=1e-12, atol=1e-12)
        out.backward(seed)
        np.testing.assert_allclose(a.grad, seed @ w_val.T, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w.grad, a_val.T @ seed, rtol=1e-12, atol=1e-12)


class TestShapingIndexing:
    def test_reshape_backward(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(6))

    def test_reshape_accepts_a_tuple(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        out = a.reshape((3, 2))
        np.testing.assert_array_equal(out.data, a.reshape(3, 2).data)
        out.backward(np.arange(6.0).reshape(3, 2))
        np.testing.assert_allclose(a.grad, np.arange(6.0))

    def test_getitem_gather_backward_accumulates_duplicates(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        index = np.array([0, 0, 2])
        a[index].sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 0.0, 1.0, 0.0])

    def test_getitem_boolean_mask_backward(self):
        a = Tensor([1.0, -2.0, 3.0, -4.0], requires_grad=True)
        mask = a.data > 0
        out = a[mask]
        np.testing.assert_allclose(out.data, [1.0, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0, 0.0])

    def test_getitem_takes_a_tensor_index(self):
        a = Tensor(np.arange(5.0) * 10.0)
        out = a[Tensor([4.0, 1.0])]
        np.testing.assert_allclose(out.data, [40.0, 10.0])

    def test_concatenate_backward(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        concatenate([a, b], axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, np.ones((2, 3)))

    def test_concatenate_rows_with_a_constant_array(self):
        a = Tensor(np.ones((1, 2)), requires_grad=True)
        out = concatenate([a, np.zeros((2, 2))], axis=0)
        assert out.shape == (3, 2)
        out.backward(np.arange(6.0).reshape(3, 2))
        np.testing.assert_allclose(a.grad, [[0.0, 1.0]])


class TestReductionsActivations:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.sum(axis=0, keepdims=True)
        assert out.shape == (1, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_mean_gradient(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full(4, 0.25))

    def test_mean_over_an_axis_tuple(self):
        a = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        out = a.mean(axis=(0, 1))
        np.testing.assert_allclose(out.data, np.arange(24.0).reshape(2, 3, 4).mean(axis=(0, 1)))
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3, 4), 1.0 / 6.0))

    def test_sum_axis_backward_broadcasts_the_seed(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.sum(axis=1).backward([1.0, 2.0])
        np.testing.assert_allclose(a.grad, [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])

    def test_max_gradient_flows_to_argmax(self):
        a = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        ops.segment_max(a, np.zeros(3, dtype=np.int64), 1).backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("name", ["exp", "log", "relu", "sigmoid"])
    def test_unary_gradients_match_numerical(self, name):
        rng = np.random.default_rng(1)
        x_val = rng.uniform(0.2, 2.0, size=(3, 3))
        x = Tensor(x_val.copy(), requires_grad=True)
        getattr(x, name)().sum().backward()

        def scalar_fn(arr):
            t = Tensor(arr)
            return float(getattr(t, name)().sum().data)

        numeric = numerical_grad(scalar_fn, x_val.copy())
        np.testing.assert_allclose(x.grad, numeric, atol=1e-4)

    def test_leaky_relu_negative_slope(self):
        x = Tensor([-2.0, 3.0], requires_grad=True)
        out = x.leaky_relu(0.1)
        np.testing.assert_allclose(out.data, [-0.2, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [0.1, 1.0])

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(2).normal(size=(5, 7)))
        probs = np.exp(ops.log_softmax(x, axis=-1).data)
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_log_softmax_gradient_matches_numerical(self):
        rng = np.random.default_rng(4)
        x_val = rng.normal(size=(3, 4))
        weights = rng.normal(size=(3, 4))
        x = Tensor(x_val.copy(), requires_grad=True)
        (ops.log_softmax(x) * Tensor(weights)).sum().backward()
        numeric = numerical_grad(
            lambda arr: float((ops.log_softmax(Tensor(arr)).data * weights).sum()), x_val.copy())
        np.testing.assert_allclose(x.grad, numeric, atol=1e-5)

    def test_log_softmax_consistency(self):
        values = np.random.default_rng(3).normal(size=(4, 6))
        reference = np.log(np.exp(values) / np.exp(values).sum(axis=-1, keepdims=True))
        np.testing.assert_allclose(ops.log_softmax(Tensor(values)).data, reference, atol=1e-10)


class TestNoGrad:
    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        assert Tensor([1.0], requires_grad=True).requires_grad
        with no_grad():
            assert not Tensor([1.0], requires_grad=True).requires_grad
        assert Tensor([1.0], requires_grad=True).requires_grad

    def test_no_grad_restores_state_after_an_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside")
        assert Tensor([1.0], requires_grad=True).requires_grad

    def test_no_grad_is_thread_local(self):
        entered, checked = threading.Event(), threading.Event()
        seen = []

        def other_thread():
            assert entered.wait(timeout=10)
            seen.append(Tensor([1.0], requires_grad=True).requires_grad)
            checked.set()

        thread = threading.Thread(target=other_thread)
        thread.start()
        with no_grad():
            entered.set()
            assert checked.wait(timeout=10)
            assert not Tensor([1.0], requires_grad=True).requires_grad
        thread.join(timeout=10)
        assert seen == [True]


def add_at_reference(values: np.ndarray, ids: np.ndarray, num_segments: int) -> np.ndarray:
    """``np.add.at``: the kernel ``segment_reduce`` replaced, kept as its oracle."""
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, ids, values)
    return out


class TestSegmentOps:
    def test_segment_sum_basic(self):
        values = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = ops.segment_sum(values, np.array([0, 0, 1]), 3)
        np.testing.assert_allclose(out.data, [[3.0], [3.0], [0.0]])

    def test_segment_sum_backward(self):
        values = Tensor(np.ones((4, 2)), requires_grad=True)
        ops.segment_sum(values, np.array([0, 1, 1, 0]), 2).sum().backward()
        np.testing.assert_allclose(values.grad, np.ones((4, 2)))

    def test_segment_mean_empty_segments_are_zero(self):
        values = Tensor(np.array([[4.0], [6.0]]))
        out = ops.segment_mean(values, np.array([1, 1]), 3)
        np.testing.assert_allclose(out.data, [[0.0], [5.0], [0.0]])

    def test_segment_mean_weights_rows_by_counts(self):
        """A pre-folded row of 3 messages counts 3 times in the divisor."""
        values = Tensor(np.array([[6.0], [2.0]]))
        out = ops.segment_mean(values, np.array([0, 0]), 1, counts=np.array([3.0, 1.0]))
        np.testing.assert_allclose(out.data, [[2.0]])

    def test_segment_max(self):
        values = Tensor(np.array([[1.0], [9.0], [5.0]]))
        out = ops.segment_max(values, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[9.0], [5.0]])

    def test_segment_max_empty_segment_is_zero(self):
        values = Tensor(np.array([[1.0]]))
        out = ops.segment_max(values, np.array([1]), 2)
        np.testing.assert_allclose(out.data, [[0.0], [1.0]])

    def test_segment_max_ties_share_the_gradient(self):
        values = Tensor(np.array([[2.0], [2.0], [1.0]]), requires_grad=True)
        ops.segment_max(values, np.array([0, 0, 0]), 1).backward()
        np.testing.assert_allclose(values.grad, [[1.0], [1.0], [0.0]])

    def test_segment_softmax_sums_to_one_per_segment(self):
        rng = np.random.default_rng(5)
        values = Tensor(rng.normal(size=(10, 3)))
        ids = rng.integers(0, 4, size=10)
        probs = ops.segment_softmax(values, ids, 4)
        sums = np.zeros((4, 3))
        np.add.at(sums, ids, probs.data)
        for segment in np.unique(ids):
            np.testing.assert_allclose(sums[segment], np.ones(3), atol=1e-10)

    def test_segment_max_keeps_a_legitimate_minus_inf(self):
        """Empty means "received no row": a segment whose only message is
        -inf keeps it (and its gradient), an empty one reads 0."""
        values = Tensor(np.array([[-np.inf, 2.0], [-np.inf, -np.inf]]), requires_grad=True)
        out = ops.segment_max(values, np.array([2, 0]), 4)
        np.testing.assert_array_equal(
            out.data, [[-np.inf, -np.inf], [0.0, 0.0], [-np.inf, 2.0], [0.0, 0.0]])
        out.backward(np.ones((4, 2)))
        np.testing.assert_array_equal(values.grad, np.ones((2, 2)))

    def test_segment_softmax_ignores_empty_and_all_masked_segments(self):
        values = Tensor(np.array([[0.0], [-np.inf], [np.log(3.0)], [-np.inf]]))
        probs = ops.segment_softmax(values, np.array([0, 0, 0, 2]), 4)
        np.testing.assert_allclose(probs.data, [[0.25], [0.0], [0.75], [0.0]])

    def test_segment_softmax_gradient_matches_numerical(self):
        rng = np.random.default_rng(8)
        x_val = rng.normal(size=(6, 2))
        weights = rng.normal(size=(6, 2))
        ids = np.array([0, 2, 0, 2, 2, 0])
        x = Tensor(x_val.copy(), requires_grad=True)
        (ops.segment_softmax(x, ids, 3) * Tensor(weights)).sum().backward()
        numeric = numerical_grad(
            lambda arr: float((ops.segment_softmax(Tensor(arr), ids, 3).data * weights).sum()),
            x_val.copy())
        np.testing.assert_allclose(x.grad, numeric, atol=1e-5)

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)],
                             ids=["1d-ints", "2d", "3d-gat-heads"])
    @pytest.mark.parametrize("op", ["sum", "max"])
    def test_segment_reduce_matches_a_per_row_loop(self, op, shape):
        """The one kernel against the definition: rows fold into their
        segment one at a time, in row order, from the op's identity."""
        rng = np.random.default_rng(11)
        num_rows, num_segments = 40, 9
        ids = rng.integers(0, num_segments - 2, size=num_rows)     # 7 and 8 stay empty
        ids[ids == 3] = 4                                          # so does 3
        if shape == ():
            values = rng.integers(-5, 6, size=num_rows)
        else:
            values = rng.normal(size=(num_rows,) + shape)
        if op == "sum":
            expected = np.zeros((num_segments,) + shape, dtype=values.dtype)
        else:
            expected = np.full((num_segments,) + shape, -np.inf)
        for row, segment in enumerate(ids):
            expected[segment] = (expected[segment] + values[row] if op == "sum"
                                 else np.maximum(expected[segment], values[row]))
        out = ops.segment_reduce(values, ids, num_segments, op)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        np.testing.assert_array_equal(out, expected)
        for empty in (3, 7, 8):
            assert (out[empty] == (0 if op == "sum" else -np.inf)).all()

    def test_segment_reduce_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="unknown segment reduction"):
            ops.segment_reduce(np.ones((2, 2)), np.array([0, 1]), 2, "mean")

    @pytest.mark.parametrize("op", ["sum", "max"])
    @pytest.mark.parametrize("ids", [[0, -1, 1], [0, 3, 1], [-4, 7]],
                             ids=["negative", "too-large", "both"])
    def test_segment_reduce_rejects_ids_outside_the_segments(self, op, ids):
        """``np.add.at`` would wrap -1 into the last segment and ``np.bincount``
        would grow its output for a 3: both are errors here, for both ops."""
        values = np.ones((len(ids), 2))
        with pytest.raises(IndexError, match=r"outside \[0, 3\)"):
            ops.segment_reduce(values, np.array(ids), 3, op)
        with pytest.raises(IndexError):
            ops.segment_reduce(values[:, 0], np.array(ids), 3, op)

    @pytest.mark.parametrize("num_segments", [0, 3])
    @pytest.mark.parametrize("shape", [(0,), (0, 4), (0, 2, 3), (0, 0)])
    def test_segment_reduce_takes_zero_rows(self, shape, num_segments):
        """A partition that receives nothing: the width comes from the shape,
        not from ``reshape(0, -1)``."""
        ids = np.empty(0, dtype=np.int64)
        for op, fill in (("sum", 0.0), ("max", -np.inf)):
            out = ops.segment_reduce(np.zeros(shape), ids, num_segments, op)
            assert out.shape == (num_segments,) + shape[1:] and out.dtype == np.float64
            assert (out == fill).all()
        with pytest.raises(IndexError):
            ops.segment_reduce(np.zeros((1,) + shape[1:]), np.array([0]), 0, "sum")

    def test_segment_reduce_sums_integer_counts_exactly(self):
        counts = np.array([2 ** 40 + 1, 3, 2 ** 40 + 5, 7], dtype=np.int64)
        out = ops.segment_reduce(counts, np.array([2, 0, 2, 0]), 4, "sum")
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [10, 0, 2 ** 41 + 6, 0])

    def test_segment_reduce_takes_non_contiguous_values(self):
        rng = np.random.default_rng(2)
        table = rng.normal(size=(30, 12))
        ids = rng.integers(0, 5, size=30)
        for view in (table[:, 3:8], table[::2], table[::-1], np.asfortranarray(table)):
            assert not view.flags.c_contiguous
            rows = ids[:view.shape[0]]
            np.testing.assert_array_equal(
                ops.segment_reduce(view, rows, 5, "sum"),
                add_at_reference(np.ascontiguousarray(view), rows, 5))

    def test_gather_rows(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        out = ops.gather_rows(x, np.array([2, 0]))
        np.testing.assert_allclose(out.data, [[4.0, 5.0], [0.0, 1.0]])

    def test_spmm_equals_dense(self):
        """The neighbour sum every layer's gather computes — gather_rows by
        source, segment_sum by destination — is the adjacency matmul."""
        rng = np.random.default_rng(6)
        num_nodes = 6
        src = rng.integers(0, num_nodes, size=12)
        dst = rng.integers(0, num_nodes, size=12)
        state = rng.normal(size=(num_nodes, 3))
        dense = np.zeros((num_nodes, num_nodes))
        for s, d in zip(src, dst):
            dense[d, s] += 1.0
        expected = dense @ state
        out = ops.segment_sum(ops.gather_rows(Tensor(state), src), dst, num_nodes)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    num_rows=st.integers(min_value=0, max_value=60),
    num_segments=st.integers(min_value=1, max_value=12),
    trailing=st.sampled_from([(), (1,), (5,), (16,), (2, 3)]),
    integers=st.booleans(),
    hub=st.booleans(),
    piece=st.sampled_from([1, 7, 64, 1 << 20]),
)
def test_segment_sum_is_np_add_at_bit_for_bit(seed, num_rows, num_segments, trailing,
                                              integers, hub, piece):
    """Property: the flat-bincount sum kernel returns the bytes ``np.add.at``
    returned — any trailing shape, empty segments, a hub segment owning most
    rows — and the column-piece size never changes one of them."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, num_segments, size=num_rows)
    if hub:
        ids[rng.random(num_rows) < 0.7] = num_segments // 2
    if integers:
        values = rng.integers(-10 ** 6, 10 ** 6, size=(num_rows,) + trailing)
    else:       # magnitudes 1e-8 .. 1e8: any other operand order shows in the last bits
        values = (rng.normal(size=(num_rows,) + trailing)
                  * 10.0 ** rng.integers(-8, 9, size=(num_rows,) + trailing))
    expected = add_at_reference(values, ids, num_segments)
    one_piece = ops.segment_reduce(values, ids, num_segments, "sum")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ops, "_SUM_PIECE_ELEMENTS", piece)
        pieces = ops.segment_reduce(values, ids, num_segments, "sum")
    for out in (one_piece, pieces):
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()


class NoGather(np.ndarray):
    """A table whose rows may be read by slices only: an index array would
    build the ``(rows × width)`` operand that ``rows=`` exists to avoid."""

    def __getitem__(self, index):
        if isinstance(index, np.ndarray) or (
                isinstance(index, tuple) and any(isinstance(i, np.ndarray) for i in index)):
            raise AssertionError("segment_reduce gathered values[rows]")
        return super().__getitem__(index)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    table_rows=st.integers(min_value=0, max_value=40),
    read=st.sampled_from([0.0, 0.3, 1.0, 2.0, 3.5]),
    num_segments=st.integers(min_value=1, max_value=12),
    trailing=st.sampled_from([(), (1,), (5,), (16,), (2, 3)]),
    integers=st.booleans(),
    hub=st.booleans(),
)
def test_segment_sum_of_rows_is_the_sum_of_the_gathered_rows(
        seed, table_rows, read, num_segments, trailing, integers, hub):
    """Property: ``rows=`` reduces ``values[rows]`` — the same bytes as
    gathering first and as ``np.add.at`` — whether it reads fewer than twice
    the rows ``values`` holds (the gather path) or more (column by column,
    no operand built); rows repeat and come in any order."""
    rng = np.random.default_rng(seed)
    if integers:
        values = rng.integers(-10 ** 6, 10 ** 6, size=(table_rows,) + trailing)
    else:       # magnitudes 1e-8 .. 1e8: any other operand order shows in the last bits
        values = (rng.normal(size=(table_rows,) + trailing)
                  * 10.0 ** rng.integers(-8, 9, size=(table_rows,) + trailing))
    num_rows = int(read * table_rows)
    rows = rng.integers(0, max(table_rows, 1), size=num_rows)
    ids = rng.integers(0, num_segments, size=num_rows)
    if hub:
        ids[rng.random(num_rows) < 0.7] = num_segments // 2
    gathered = values[rows]
    by_rows = ops.segment_reduce(values, ids, num_segments, "sum", rows=rows)
    expected = add_at_reference(gathered, ids, num_segments)
    for out in (by_rows, ops.segment_reduce(gathered, ids, num_segments, "sum")):
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.flags.c_contiguous
        assert out.tobytes() == expected.tobytes()
    if num_rows >= 2 * table_rows:
        ops.segment_reduce(values.view(NoGather), ids, num_segments, "sum", rows=rows)


class TestSegmentReduceRows:
    def test_only_a_fold_reading_twice_the_rows_goes_column_by_column(self, monkeypatch):
        """Small folds (most of an incremental tick's) keep the gather path:
        the transpose costs a pass over every row of ``values``."""
        calls = []
        by_column = ops._sum_by_column
        monkeypatch.setattr(ops, "_sum_by_column",
                            lambda *args: calls.append(args[3].size) or by_column(*args))
        values = np.arange(40.0).reshape(10, 4)
        for size in (3, 10, 19, 20, 25):
            rows = np.arange(size) % 10
            out = ops.segment_reduce(values, rows % 4, 4, "sum", rows=rows)
            assert out.tobytes() == add_at_reference(values[rows], rows % 4, 4).tobytes()
        assert calls == [20, 25]

    def test_max_reads_the_same_rows(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(6, 2, 3))
        for rows in (np.array([5, 0, 5, 2]), np.array([3, 3, 1, 0, 4, 5, 2, 2, 1])):
            ids = rng.integers(0, 3, size=rows.size)
            np.testing.assert_array_equal(
                ops.segment_reduce(values, ids, 4, "max", rows=rows),
                ops.segment_reduce(values[rows], ids, 4, "max"))

    @pytest.mark.parametrize("op", ["sum", "max"])
    @pytest.mark.parametrize("rows, ids", [([0, -1, 2], [0, 1, 1]), ([0, 4, 2], [0, 1, 1]),
                                           ([0, 1, 2], [0, 3, 1])],
                             ids=["negative-row", "row-too-large", "id-too-large"])
    def test_a_row_or_id_out_of_range_raises_before_writing(self, op, rows, ids):
        """A negative row would wrap (``take``, fancy indexing) and a row past
        the table would read past it: both are errors, as a bad id is."""
        values = np.ones((4, 2))
        before = values.copy()
        with pytest.raises(IndexError, match=r"outside"):
            ops.segment_reduce(values, np.array(ids), 3, op, rows=np.array(rows))
        np.testing.assert_array_equal(values, before)

    def test_zero_rows_and_width_one(self):
        empty = np.empty(0, dtype=np.int64)
        for table in (np.zeros((0, 3)), np.ones((4, 3))):
            out = ops.segment_reduce(table, empty, 5, "sum", rows=empty)
            assert out.shape == (5, 3) and not out.any()
        column = np.arange(5.0)
        rows = np.array([4, 4, 0, 1, 2, 3, 1])
        np.testing.assert_array_equal(
            ops.segment_reduce(column, rows % 2, 2, "sum", rows=rows),
            [4.0 + 4.0 + 0.0 + 2.0, 1.0 + 3.0 + 1.0])

    def test_concurrent_reductions_keep_no_shared_state(self):
        """The kernel keeps nothing between calls — no module or thread
        workspace — so threads reducing different shapes at once each get the
        bytes of their serial call."""
        rng = np.random.default_rng(9)
        jobs = []
        for table_rows, width, num_rows, num_segments in (
                (300, 64, 900, 200), (50, 3, 40, 7), (120, 17, 600, 500), (7, 1, 70, 2)):
            values = rng.normal(size=(table_rows, width))
            rows = rng.integers(0, table_rows, size=num_rows)
            ids = rng.integers(0, num_segments, size=num_rows)
            jobs.append((values, ids, num_segments, rows))
        serial = [ops.segment_reduce(v, i, n, "sum", rows=r).tobytes() for v, i, n, r in jobs]
        results = [[] for _ in jobs]
        start = threading.Barrier(len(jobs))

        def work(index):
            values, ids, num_segments, rows = jobs[index]
            start.wait(timeout=10)
            for _ in range(30):
                results[index].append(
                    ops.segment_reduce(values, ids, num_segments, "sum", rows=rows).tobytes())

        threads = [threading.Thread(target=work, args=(index,)) for index in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert all(each == [expected] * 30 for each, expected in zip(results, serial))


@pytest.mark.parametrize("num_rows", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3174])
def test_matmul_rows_are_bit_stable_under_subsets(num_rows):
    """Property: ``(a @ w)[rows]`` is bit-equal to ``a[rows] @ w`` — any inner
    and output width (odd ones are where an unblocked BLAS call differs), any
    unsorted subset, a single row included.  Every incremental stage rests on
    it; a BLAS that breaks it fails here."""
    rng = np.random.default_rng(num_rows)
    widths = (1, 3, 17, 33, 64, 65)
    for inner in widths:
        a = Tensor(rng.normal(size=(num_rows, inner)))
        for out in widths:
            w = Tensor(rng.normal(size=(inner, out)))
            full = (a @ w).data
            np.testing.assert_allclose(full, a.data @ w.data, rtol=1e-12, atol=1e-12)
            for size in (1, 2, ROW_BLOCK + 3):
                if size > num_rows:
                    continue
                rows = rng.permutation(num_rows)[:size]
                part = (Tensor(a.data[rows]) @ w).data
                assert part.tobytes() == full[rows].tobytes(), (num_rows, inner, out, size)


@settings(max_examples=40, deadline=None)
@given(
    num_rows=st.integers(min_value=1, max_value=30),
    num_segments=st.integers(min_value=1, max_value=8),
    width=st.integers(min_value=1, max_value=4),
)
def test_segment_sum_matches_bincount(num_rows, num_segments, width):
    """Property: segment_sum agrees with a per-column bincount reference."""
    rng = np.random.default_rng(num_rows * 31 + num_segments)
    values = rng.normal(size=(num_rows, width))
    ids = rng.integers(0, num_segments, size=num_rows)
    out = ops.segment_sum(Tensor(values), ids, num_segments).data
    expected = np.zeros((num_segments, width))
    for column in range(width):
        expected[:, column] = np.bincount(ids, weights=values[:, column], minlength=num_segments)
    np.testing.assert_allclose(out, expected, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    num_rows=st.integers(min_value=1, max_value=25),
    num_segments=st.integers(min_value=1, max_value=6),
)
def test_segment_mean_between_min_and_max(num_rows, num_segments):
    """Property: per-segment mean lies between the segment's min and max."""
    rng = np.random.default_rng(num_rows * 17 + num_segments)
    values = rng.normal(size=(num_rows, 2))
    ids = rng.integers(0, num_segments, size=num_rows)
    means = ops.segment_mean(Tensor(values), ids, num_segments).data
    for segment in np.unique(ids):
        rows = values[ids == segment]
        assert np.all(means[segment] >= rows.min(axis=0) - 1e-9)
        assert np.all(means[segment] <= rows.max(axis=0) + 1e-9)
