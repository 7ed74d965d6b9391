"""Tests for the autodiff tensor: ops, gradients, segment reductions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import ops
from repro.tensor.tensor import ROW_BLOCK, Tensor, concatenate, no_grad, stack, zeros, ones


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
        assert t.size == 4
        assert not t.requires_grad

    def test_detach_breaks_graph(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert np.shares_memory(d.data, t.data)

    def test_len_and_numpy(self):
        t = Tensor(np.arange(5.0))
        assert len(t) == 5
        assert t.numpy() is t.data

    def test_item_scalar(self):
        assert Tensor(np.array([3.5])).item() == pytest.approx(3.5)

    def test_copy_is_independent(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        c = t.copy()
        c.data[0] = 99.0
        assert t.data[0] == 1.0


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

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).backward()
        np.testing.assert_allclose(a.grad, [6.0])

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

    def test_rsub_rtruediv(self):
        a = Tensor([2.0], requires_grad=True)
        out = 1.0 - a
        np.testing.assert_allclose(out.data, [-1.0])
        out2 = 1.0 / a
        np.testing.assert_allclose(out2.data, [0.5])

    def test_scalar_right_ops(self):
        a = Tensor([2.0])
        np.testing.assert_allclose((3.0 * a).data, [6.0])
        np.testing.assert_allclose((3.0 + a).data, [5.0])


class TestShapingIndexing:
    def test_reshape_backward(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(6))

    def test_transpose(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        assert a.T.shape == (3, 2)
        a.T.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_getitem_gather_backward_accumulates_duplicates(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        index = np.array([0, 0, 2])
        a[index].sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 0.0, 1.0, 0.0])

    def test_concatenate_backward(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        concatenate([a, b], axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, np.ones((2, 3)))

    def test_stack(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])

    def test_zeros_ones_helpers(self):
        assert zeros((2, 3)).shape == (2, 3)
        assert ones((4,)).data.sum() == 4.0


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

    def test_max_gradient_flows_to_argmax(self):
        a = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_max_axis(self):
        a = Tensor(np.array([[1.0, 4.0], [3.0, 2.0]]), requires_grad=True)
        out = a.max(axis=1)
        np.testing.assert_allclose(out.data, [4.0, 3.0])

    @pytest.mark.parametrize("name", ["exp", "log", "relu", "sigmoid", "tanh"])
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
        probs = ops.softmax(x, axis=-1)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_log_softmax_consistency(self):
        x = Tensor(np.random.default_rng(3).normal(size=(4, 6)))
        np.testing.assert_allclose(ops.log_softmax(x).data,
                                   np.log(ops.softmax(x).data), atol=1e-10)


class TestNoGrad:
    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        from repro.tensor.tensor import is_grad_enabled
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()


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

    def test_segment_max(self):
        values = Tensor(np.array([[1.0], [9.0], [5.0]]))
        out = ops.segment_max(values, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[9.0], [5.0]])

    def test_segment_max_empty_segment_is_zero(self):
        values = Tensor(np.array([[1.0]]))
        out = ops.segment_max(values, np.array([1]), 2)
        np.testing.assert_allclose(out.data, [[0.0], [1.0]])

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

    def test_spmm_equals_dense(self):
        rng = np.random.default_rng(6)
        num_nodes = 6
        src = rng.integers(0, num_nodes, size=12)
        dst = rng.integers(0, num_nodes, size=12)
        state = rng.normal(size=(num_nodes, 3))
        dense = np.zeros((num_nodes, num_nodes))
        for s, d in zip(src, dst):
            dense[d, s] += 1.0
        expected = dense @ state
        out = ops.spmm(dst, src, None, Tensor(state), num_nodes)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_gather_rows(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        out = ops.gather_rows(x, np.array([2, 0]))
        np.testing.assert_allclose(out.data, [[4.0, 5.0], [0.0, 1.0]])

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.ones((4, 4)))
        out = ops.dropout(x, 0.5, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_training_scales(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((2000,)))
        out = ops.dropout(x, 0.5, training=True, rng=rng)
        # Inverted dropout keeps the expectation, so the mean stays near 1.
        assert abs(out.data.mean() - 1.0) < 0.1


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
