"""Dense and segment operations used by message-passing GNNs.

The segment operations (`segment_sum`, `segment_mean`, `segment_max`,
`segment_softmax`) are the numerical core of the GAS abstraction: gathering a
node's in-edge messages is a *segment reduction* keyed by the destination node
index, and GAT's attention normalisation is a *segment softmax*.

The ``segment_*`` functions and the dense ops accept and return
:class:`~repro.tensor.tensor.Tensor` objects and are differentiable, so the
same code path is used during mini-batch training and full-graph inference.
Under them sits :func:`segment_reduce`, raw ndarrays in and out: the one
scatter-reduce kernel, which the sender-side combiners call directly.  Its
``rows`` operand lets a combiner fold messages that are rows of a table (a
sender's state) without gathering them: a sum reading at least twice as many
rows as the table holds runs one ``np.bincount`` per column of the table,
with the bits of the gathered reduction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tensor.tensor import ROW_BLOCK, Tensor


def _as_index(index) -> np.ndarray:
    if isinstance(index, Tensor):
        index = index.data
    return np.asarray(index, dtype=np.int64)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix multiply two tensors."""
    return a @ b


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def gather_rows(x: Tensor, index) -> Tensor:
    """Select rows of ``x`` by integer index (differentiable)."""
    return x[_as_index(index)]


# --------------------------------------------------------------------------- #
# segment reductions
# --------------------------------------------------------------------------- #
#: Most elements one ``np.bincount`` pass of the sum kernel indexes.  A piece
#: is a run of whole columns and columns never mix, so the value moves speed
#: and peak memory, never a bit (measured on the bench graph: 2^18 is slower,
#: no cap is no faster and adds ~35 MB to the process peak).
_SUM_PIECE_ELEMENTS = 1 << 20


def segment_reduce(values: np.ndarray, ids: np.ndarray, num_segments: int,
                   op: str, rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Reduce ``values`` rows that share a segment id — the one scatter-reduce kernel.

    Raw arrays in and out; ``values`` is ``(rows, ...)`` of any trailing
    shape, contiguous or not, with no rows or many.  ``op`` is ``"sum"`` (empty
    segments are 0; the result has ``values``' dtype, exact for ``float64``
    and for integers whose sums stay below 2^53) or ``"max"`` (``float64``,
    empty segments are ``-inf``).  With ``rows``, the operand is
    ``values[rows]`` — row ``i`` goes to segment ``ids[i]`` — and is never
    built when a ``"sum"`` reads at least twice as many rows as ``values``
    holds.  An id outside ``[0, num_segments)`` or a row outside ``values``
    raises ``IndexError`` before anything is written.

    Rows accumulate into their segment in row order, from the op's identity:
    every bit-identity contract downstream — gathers, sender-side combiners,
    both transports — rests on that operand order.  ``"sum"`` is a flat
    ``np.bincount`` over ``(segment, column)`` cells, or, given enough
    ``rows``, one ``np.bincount`` per column (:func:`_sum_by_column`); each
    adds a cell's rows in exactly that order.  ``"max"`` is ``np.maximum.at``.
    """
    if op not in ("sum", "max"):
        raise ValueError(f"unknown segment reduction {op!r}")
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise IndexError(f"segment ids span [{ids.min()}, {ids.max()}], "
                         f"outside [0, {num_segments})")
    if rows is not None:
        if rows.size and (rows.min() < 0 or rows.max() >= values.shape[0]):
            raise IndexError(f"rows span [{rows.min()}, {rows.max()}], "
                             f"outside the {values.shape[0]} rows of values")
        if op == "sum" and rows.size >= 2 * values.shape[0]:
            return _sum_by_column(values, ids, num_segments, rows)
        values = values[rows]
    shape = (num_segments,) + values.shape[1:]
    if op == "max":
        out = np.full(shape, -np.inf)
        np.maximum.at(out, ids, values)
        return out
    width = int(np.prod(values.shape[1:]))
    columns = values.reshape(values.shape[0], width)
    out = np.empty((num_segments, width), dtype=values.dtype)
    step = max(_SUM_PIECE_ELEMENTS // max(ids.size, 1), 1)
    cells = np.empty(0, dtype=np.int64)
    for start in range(0, width, step):
        piece = columns[:, start:start + step]
        if cells.size != piece.size:        # every piece but the last is as wide
            cells = (ids[:, None] * piece.shape[1] + np.arange(piece.shape[1])).ravel()
        out[:, start:start + step] = np.bincount(
            cells, weights=piece.ravel(), minlength=num_segments * piece.shape[1]
        ).reshape(num_segments, piece.shape[1])
    return out.reshape(shape)


def _sum_by_column(values: np.ndarray, ids: np.ndarray, num_segments: int,
                   rows: np.ndarray) -> np.ndarray:
    """``segment_reduce(values[rows], ids, num_segments, "sum")``, a column at a time.

    ``values`` is transposed once, :data:`~repro.tensor.tensor.ROW_BLOCK`
    rows at a time, so each column is one contiguous run that
    ``take(rows)`` reads; ``np.bincount`` sums it into the segments and the
    ``(width, segments)`` result is transposed back.  Per cell that is the
    flat kernel's sum — its rows in row order, from 0 — so the bits are the
    same, without the ``(rows × width)`` operand or its cell index.  Only
    worth it when ``rows`` is at least twice as long as ``values``: the
    transpose costs a pass over every row of it and each column two calls
    (measured on incremental-tick folds, 1–1.5 reads per row ran 1.6x slower
    than gathering, 2–2.5 reads 1.3x faster; a full run's folds read 3–5).
    """
    width = int(np.prod(values.shape[1:]))
    columns = values.reshape(values.shape[0], width)
    by_column = np.empty((width, values.shape[0]), dtype=values.dtype)
    for start in range(0, values.shape[0], ROW_BLOCK):
        by_column[:, start:start + ROW_BLOCK] = columns[start:start + ROW_BLOCK].T
    out = np.empty((width, num_segments))
    for column, out_column in zip(by_column, out):
        out_column[:] = np.bincount(ids, weights=column.take(rows), minlength=num_segments)
    return np.ascontiguousarray(out.T, dtype=values.dtype).reshape(
        (num_segments,) + values.shape[1:])


def segment_sum(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum ``values`` rows into ``num_segments`` buckets keyed by ``segment_ids``.

    This is the commutative/associative reduction the paper's *aggregate* stage
    and *partial-gather* strategy rely on.
    """
    values = values if isinstance(values, Tensor) else Tensor(values)
    ids = _as_index(segment_ids)
    out_data = segment_reduce(values.data, ids, num_segments, "sum")

    def backward_fn(grad: np.ndarray) -> None:
        values._accumulate(grad[ids])

    return Tensor._make(out_data, (values,), backward_fn)


def segment_mean(values: Tensor, segment_ids, num_segments: int,
                 counts: Optional[np.ndarray] = None) -> Tensor:
    """Mean-reduce ``values`` rows per segment (empty segments yield zeros).

    ``counts[i]`` is the number of raw rows ``values[i]`` stands for — a
    partial sum folded by a sender-side combiner — so the mean divides the
    summed rows by the summed counts; ``None`` means one each.
    """
    ids = _as_index(segment_ids)
    summed = segment_sum(values, ids, num_segments)
    denom = np.maximum(np.bincount(ids, weights=counts, minlength=num_segments), 1.0)
    scale = Tensor(1.0 / denom.reshape((num_segments,) + (1,) * (summed.ndim - 1)))
    return summed * scale


def segment_max(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Max-reduce ``values`` rows per segment (empty segments yield zeros)."""
    values = values if isinstance(values, Tensor) else Tensor(values)
    ids = _as_index(segment_ids)
    out_data = segment_reduce(values.data, ids, num_segments, "max")
    # Empty means "received no row", not "is -inf": a -inf message survives.
    out_data[np.bincount(ids, minlength=num_segments) == 0] = 0.0

    def backward_fn(grad: np.ndarray) -> None:
        mask = (values.data == out_data[ids]).astype(np.float64)
        values._accumulate(grad[ids] * mask)

    return Tensor._make(out_data, (values,), backward_fn)


def segment_softmax(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Softmax over rows that share a segment id (GAT attention normaliser)."""
    values = values if isinstance(values, Tensor) else Tensor(values)
    ids = _as_index(segment_ids)
    # Stable: subtract per-segment max (constant w.r.t. gradient shape).  Only
    # non-empty segments are read back; a non-finite max shifts by nothing.
    seg_max = segment_reduce(values.data, ids, num_segments, "max")
    seg_max[~np.isfinite(seg_max)] = 0.0
    shifted = values - Tensor(seg_max[ids])
    exped = shifted.exp()
    denom = segment_sum(exped, ids, num_segments)
    denom_safe = denom + Tensor(np.where(denom.data == 0.0, 1.0, 0.0))
    return exped / denom_safe[ids]
