"""A small reverse-mode autodiff tensor on top of numpy.

The design mirrors the familiar PyTorch surface (``Tensor``, ``.backward()``,
``requires_grad``) but keeps the implementation compact: every differentiable
operation records a closure that propagates the incoming gradient to its
parents.  The graph is topologically sorted at ``backward()`` time.

Only the features needed by the GNN layers in :mod:`repro.gnn` are provided;
that keeps the substrate auditable while still being a real training engine
(Table II models are trained with it).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]

# Per-thread, like torch: the serving tier runs inference (always wrapped in
# no_grad by the backend adaptors) on worker threads concurrently with other
# threads; a process-wide flag would let interleaved save/restore pairs leave
# gradient tracking disabled for everyone.
_grad_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_grad_state, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tracking (inference mode).

    The flag is thread-local: disabling gradients on one thread never
    affects tensors built concurrently on another.
    """
    previous = _grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = previous


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


#: Rows per BLAS call of a 2-D float64 matmul.  BLAS picks its kernel and
#: blocking by matrix shape, so ``(a @ w)[rows]`` and ``a[rows] @ w`` can differ
#: in the last ulp; computing every row inside a fixed-shape block (the tail
#: zero-padded) makes a row's bits a function of that row and ``w`` alone.
ROW_BLOCK = 128


def _row_stable_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w``, with each output row independent of the other rows of ``a``."""
    if not (a.ndim == w.ndim == 2 and a.dtype == w.dtype == np.float64):
        return a @ w
    n, k = a.shape
    whole = n - n % ROW_BLOCK                  # rows that fill whole blocks
    out = np.empty((-(-n // ROW_BLOCK), ROW_BLOCK, w.shape[1]))
    if whole:
        np.matmul(a[:whole].reshape(-1, ROW_BLOCK, k), w, out=out[:whole // ROW_BLOCK])
    if whole < n:
        tail = np.zeros((1, ROW_BLOCK, k))
        tail[0, :n - whole] = a[whole:]
        np.matmul(tail, w, out=out[-1:])
    return out.reshape(-1, w.shape[1])[:n]


class Tensor:
    """A dense ndarray with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64``.
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        self.data: np.ndarray = _as_array(data)
        self.requires_grad: bool = bool(requires_grad) and _grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple[Tensor, ...] = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None

    # ------------------------------------------------------------------ #
    # basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # ------------------------------------------------------------------ #
    # pickling (process-executor shipping)
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        """Pickle as a leaf: data, grad and flags travel, the graph does not.

        Backward closures capture process-local state and cannot cross a
        process boundary; shipping a model to an executor worker only needs
        the weights, and inference never builds a graph anyway (``no_grad``).
        """
        return {"data": self.data, "grad": self.grad,
                "requires_grad": self.requires_grad}

    def __setstate__(self, state) -> None:
        self.data = state["data"]
        self.grad = state.get("grad")
        self.requires_grad = bool(state.get("requires_grad", False))
        self._parents = ()
        self._backward_fn = None

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward_fn: Optional[Callable[[np.ndarray], None]],
    ) -> "Tensor":
        parents = tuple(parents)
        requires = _grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward_fn = backward_fn
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = np.asarray(grad, dtype=self.data.dtype if np.issubdtype(self.data.dtype, np.floating) else np.float64)
        if self.grad is None:
            self.grad = np.zeros_like(self.data, dtype=np.float64)
        self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient; defaults to ones (and must be provided for
            non-scalar outputs only if a non-default seed is wanted).
        """
        if grad is None:
            grad = np.ones_like(self.data, dtype=np.float64)
        else:
            grad = _as_array(grad)

        # Topological order over the subgraph reachable from self.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward_fn is None or node.grad is None:
                continue
            node._backward_fn(node.grad)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data + other_t.data

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other_t._accumulate(_unbroadcast(grad, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward_fn)

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(out_data, (self,), backward_fn)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data - other_t.data

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other_t._accumulate(_unbroadcast(-grad, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward_fn)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data * other_t.data

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other_t.data, self.shape))
            other_t._accumulate(_unbroadcast(grad * self.data, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward_fn)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data / other_t.data

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other_t.data, self.shape))
            other_t._accumulate(
                _unbroadcast(-grad * self.data / (other_t.data ** 2), other_t.shape)
            )

        return Tensor._make(out_data, (self, other_t), backward_fn)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = _row_stable_matmul(self.data, other_t.data)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad @ other_t.data.T, self.shape))
            other_t._accumulate(_unbroadcast(self.data.T @ grad, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward_fn)

    # ------------------------------------------------------------------ #
    # shaping / indexing
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward_fn)

    def __getitem__(self, index) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data
        if isinstance(index, np.ndarray) and index.dtype != bool:
            index = index.astype(np.int64)
        out_data = self.data[index]
        shape = self.shape

        def backward_fn(grad: np.ndarray) -> None:
            full = np.zeros(shape, dtype=np.float64)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward_fn)

    # ------------------------------------------------------------------ #
    # reductions & elementwise functions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def backward_fn(grad: np.ndarray) -> None:
            grad_arr = np.asarray(grad)
            if axis is None:
                expanded = np.broadcast_to(grad_arr, shape)
            else:
                if not keepdims:
                    grad_arr = np.expand_dims(grad_arr, axis=axis)
                expanded = np.broadcast_to(grad_arr, shape)
            self._accumulate(expanded.astype(np.float64))

        return Tensor._make(out_data, (self,), backward_fn)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward_fn)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward_fn)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > 0.0))

        return Tensor._make(out_data, (self,), backward_fn)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        out_data = np.where(self.data > 0.0, self.data, negative_slope * self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * np.where(self.data > 0.0, 1.0, negative_slope))

        return Tensor._make(out_data, (self,), backward_fn)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward_fn)


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(grad: np.ndarray) -> None:
        for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, end)
            tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tensors, backward_fn)
