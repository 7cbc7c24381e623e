"""Reverse-mode automatic differentiation over 2-D float64 numpy arrays.

A Tensor wraps one matrix. Scalars are stored as (1, 1), vectors as (1, n)
rows. Every operation creates a fresh node holding references to its parents
and a closure that maps the node's cotangent to per-parent cotangents.
backward() walks the graph once in reverse topological order, so shared
subexpressions contribute exactly once.

A batch of B sequences of T steps is row-stacked into one (B*T, d) matrix,
sequence-major: rows b*T .. b*T + T - 1 hold sequence b, and each such
block of T rows is a segment. Row-wise ops act on a stacked batch
unchanged. The ops that mix rows take the segment length T: attention_block
attends only within each segment, mean_rows pools each segment to one row,
and strided_rows / interleave_rows take out and put back step t of every
segment for a recurrent unroll. A minibatch is thus one graph, not one
graph per sequence.

Inside `with no_grad():` ops compute their values but record no parents and
no backward closures, so inference builds no graph.

There is no silent broadcasting. The single allowed broadcast is adding a
(1, n) bias row to an (m, n) matrix. Everything else must match shapes
exactly or raises ShapeMismatch.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import NotScalar, ShapeMismatch

__all__ = [
    "Tensor",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "transpose",
    "reshape",
    "slice_rows",
    "slice_cols",
    "concat_rows",
    "concat_cols",
    "sum_all",
    "mean_all",
    "row_sum",
    "mean_rows",
    "tile_rows",
    "strided_rows",
    "interleave_rows",
    "square",
    "exp",
    "tanh",
    "sigmoid",
    "relu",
    "softmax_rows",
    "layer_norm",
    "scale",
    "col_scale",
    "clamp_away_from_zero",
    "mse_loss",
    "attention_block",
    "no_grad",
]

_recording = True  # False inside no_grad(): ops build no graph


@contextmanager
def no_grad():
    """Compute without recording the graph: every node made inside has no
    parents, no backward closure and requires_grad False."""
    global _recording
    before = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = before


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeMismatch(f"tensors are 2-D; got array of ndim {arr.ndim}")
    return np.ascontiguousarray(arr)


class Tensor:
    """One node of the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_matrix(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise NotScalar(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Accumulate d(self)/d(node) into .grad over the whole graph.

        Repeated calls without clearing grads accumulate. Uses an explicit
        stack; recursion would overflow on long recurrent chains.
        """
        if self.data.size != 1:
            raise NotScalar(f"backward() needs a scalar loss, got shape {self.data.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        cotangent: dict[int, np.ndarray] = {id(self): np.ones((1, 1))}
        for node in reversed(order):
            g = cotangent.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                held = cotangent.get(id(parent))
                cotangent[id(parent)] = pg if held is None else held + pg

    # Operator sugar. Scalars are accepted for + - * and lifted to constants.
    def __add__(self, other):
        return add(self, _lift(other, self.shape))

    def __radd__(self, other):
        return add(_lift(other, self.shape), self)

    def __sub__(self, other):
        return sub(self, _lift(other, self.shape))

    def __rsub__(self, other):
        return sub(_lift(other, self.shape), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _lift(value, shape) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.full(shape, float(value)))


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = _recording and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape == b.data.shape:
        return _node(a.data + b.data, (a, b), lambda g: (g, g))
    # bias-row broadcast, the only shape relaxation
    if b.data.shape == (1, a.data.shape[1]):
        return _node(a.data + b.data, (a, b), lambda g: (g, g.sum(axis=0, keepdims=True)))
    if a.data.shape == (1, b.data.shape[1]):
        return _node(a.data + b.data, (a, b), lambda g: (g.sum(axis=0, keepdims=True), g))
    raise ShapeMismatch(f"add: {a.data.shape} vs {b.data.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape == b.data.shape:
        return _node(a.data - b.data, (a, b), lambda g: (g, -g))
    if b.data.shape == (1, a.data.shape[1]):
        return _node(a.data - b.data, (a, b), lambda g: (g, -g.sum(axis=0, keepdims=True)))
    raise ShapeMismatch(f"sub: {a.data.shape} vs {b.data.shape}")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"mul: {a.data.shape} vs {b.data.shape}")
    return _node(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"div: {a.data.shape} vs {b.data.shape}")
    inv = 1.0 / b.data
    out = a.data * inv
    return _node(out, (a, b), lambda g: (g * inv, -g * out * inv))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _node(a.data * c, (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul: {a.data.shape} @ {b.data.shape}")
    return _node(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def transpose(a: Tensor) -> Tensor:
    return _node(np.ascontiguousarray(a.data.T), (a,), lambda g: (g.T,))


def reshape(a: Tensor, rows: int, cols: int) -> Tensor:
    if rows * cols != a.data.size:
        raise ShapeMismatch(f"reshape: {a.data.shape} has {a.data.size} entries, not {rows}x{cols}")
    shape = a.data.shape
    return _node(a.data.reshape(rows, cols).copy(), (a,), lambda g: (g.reshape(shape),))


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    m, _ = a.data.shape
    if not (0 <= start < stop <= m):
        raise ShapeMismatch(f"slice_rows: [{start}:{stop}] out of range for {a.data.shape}")

    def back(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return (full,)

    return _node(a.data[start:stop].copy(), (a,), back)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    _, n = a.data.shape
    if not (0 <= start < stop <= n):
        raise ShapeMismatch(f"slice_cols: [{start}:{stop}] out of range for {a.data.shape}")

    def back(g):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        return (full,)

    return _node(np.ascontiguousarray(a.data[:, start:stop]), (a,), back)


def concat_rows(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ShapeMismatch("concat_rows: empty list")
    width = parts[0].data.shape[1]
    for p in parts:
        if p.data.shape[1] != width:
            raise ShapeMismatch(f"concat_rows: widths differ ({p.data.shape[1]} vs {width})")
    sizes = [p.data.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _node(np.concatenate([p.data for p in parts], axis=0), tuple(parts), back)


def concat_cols(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ShapeMismatch("concat_cols: empty list")
    height = parts[0].data.shape[0]
    for p in parts:
        if p.data.shape[0] != height:
            raise ShapeMismatch(f"concat_cols: heights differ ({p.data.shape[0]} vs {height})")
    sizes = [p.data.shape[1] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        return tuple(np.ascontiguousarray(g[:, offsets[i]:offsets[i + 1]]) for i in range(len(parts)))

    return _node(np.concatenate([p.data for p in parts], axis=1), tuple(parts), back)


def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape
    return _node(np.array([[a.data.sum()]]), (a,), lambda g: (np.full(shape, g[0, 0]),))


def mean_all(a: Tensor) -> Tensor:
    shape = a.data.shape
    inv = 1.0 / a.data.size
    return _node(np.array([[a.data.mean()]]), (a,), lambda g: (np.full(shape, g[0, 0] * inv),))


def row_sum(a: Tensor) -> Tensor:
    """(m, n) -> (m, 1), summing each row."""
    n = a.data.shape[1]
    return _node(a.data.sum(axis=1, keepdims=True), (a,), lambda g: (np.repeat(g, n, axis=1),))


def _segment_rows(a: Tensor, segment: int | None, op: str) -> int:
    """Rows per segment of a row-stacked batch; None means one segment."""
    m = a.data.shape[0]
    if segment is None:
        return m
    if segment < 1 or m % segment:
        raise ShapeMismatch(f"{op}: {m} rows do not split into segments of {segment}")
    return segment


def mean_rows(a: Tensor, segment: int | None = None) -> Tensor:
    """(B*T, n) -> (B, n), averaging each segment of T = segment rows (one
    segment of all rows by default). Used for sequence pooling."""
    m, n = a.data.shape
    steps = _segment_rows(a, segment, "mean_rows")
    out = a.data.reshape(m // steps, steps, n).mean(axis=1)
    inv = 1.0 / steps
    return _node(out, (a,), lambda g: (np.repeat(g * inv, steps, axis=0),))


def tile_rows(a: Tensor, count: int) -> Tensor:
    """(B, n) -> (B*count, n): each row repeated count times in place, so
    one row per sequence becomes a segment of count rows."""
    rows, n = a.data.shape
    return _node(np.repeat(a.data, count, axis=0), (a,), lambda g: (g.reshape(rows, count, n).sum(axis=1),))


def strided_rows(a: Tensor, start: int, stride: int) -> Tensor:
    """Rows start, start + stride, ...: step `start` of every segment of
    `stride` rows, (B*T, n) -> (B, n)."""
    m, _ = a.data.shape
    if not 0 <= start < stride or m % stride:
        raise ShapeMismatch(f"strided_rows: row {start} of segments of {stride} in {a.data.shape}")

    def back(g):
        full = np.zeros_like(a.data)
        full[start::stride] = g
        return (full,)

    return _node(a.data[start::stride].copy(), (a,), back)


def interleave_rows(parts: list[Tensor]) -> Tensor:
    """Inverse of strided_rows over every step: T tensors of (B, n), part
    t holding step t of each sequence, -> (B*T, n), sequence-major."""
    if not parts:
        raise ShapeMismatch("interleave_rows: empty list")
    shape = parts[0].data.shape
    for p in parts:
        if p.data.shape != shape:
            raise ShapeMismatch(f"interleave_rows: shapes differ ({p.data.shape} vs {shape})")
    rows, n = shape
    steps = len(parts)

    def back(g):
        blocks = g.reshape(rows, steps, n)
        return tuple(blocks[:, t] for t in range(steps))

    return _node(np.stack([p.data for p in parts], axis=1).reshape(rows * steps, n), tuple(parts), back)


def square(a: Tensor) -> Tensor:
    return _node(a.data * a.data, (a,), lambda g: (2.0 * a.data * g,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _node(out, (a,), lambda g: (g * out,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _node(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _node(out, (a,), lambda g: (g * out * (1.0 - out),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    return _node(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax, shift-stabilized. Fused forward and backward."""
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def back(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return _node(out, (a,), back)


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean, unit variance, then affine."""
    n = x.data.shape[1]
    if gain.data.shape != (1, n) or shift.data.shape != (1, n):
        raise ShapeMismatch(
            f"layer_norm: affine rows must be (1, {n}), got {gain.data.shape} and {shift.data.shape}"
        )
    mu = x.data.mean(axis=1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = xhat * gain.data + shift.data

    def back(g):
        dxhat = g * gain.data
        # standard layer-norm backward: remove the mean and the xhat-aligned
        # component before rescaling
        dx = inv_std * (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        )
        dgain = (g * xhat).sum(axis=0, keepdims=True)
        dshift = g.sum(axis=0, keepdims=True)
        return (dx, dgain, dshift)

    return _node(out, (x, gain, shift), back)


def col_scale(a: Tensor, factors) -> Tensor:
    """Multiply each column by a fixed constant. Not differentiable in factors."""
    f = np.asarray(factors, dtype=np.float64).reshape(1, -1)
    if f.shape[1] != a.data.shape[1]:
        raise ShapeMismatch(f"col_scale: {f.shape[1]} factors for {a.data.shape[1]} columns")
    return _node(a.data * f, (a,), lambda g: (g * f,))


def clamp_away_from_zero(a: Tensor, eps: float) -> Tensor:
    """Sign-preserving clamp: |out| >= eps everywhere. Zeros clamp to +eps.

    The backward pass masks clamped entries, so gradients never blow up
    through near-zero denominators.
    """
    sign = np.where(a.data < 0.0, -1.0, 1.0)
    mask = np.abs(a.data) >= eps
    out = np.where(mask, a.data, sign * eps)
    return _node(out, (a,), lambda g: (g * mask,))


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over all entries of the squared difference. Returns a scalar."""
    if not isinstance(target, Tensor):
        target = Tensor(target)
    if pred.data.shape != target.data.shape:
        raise ShapeMismatch(f"mse_loss: {pred.data.shape} vs {target.data.shape}")
    diff = pred.data - target.data
    inv = 2.0 / diff.size
    out = np.array([[(diff * diff).mean()]])

    def back(g):
        d = g[0, 0] * inv * diff
        return (d, -d)

    return _node(out, (pred, target), back)


def attention_block(q: Tensor, k: Tensor, v: Tensor, heads: int = 1, segment: int | None = None) -> Tensor:
    """Scaled dot-product attention, fused over heads and segments.

    q and k are (m, d), v is (m_k, e). Their columns split into `heads`
    equal groups, one per head. With `segment` = T the rows split into
    segments of T rows and each row attends only within its own segment,
    the sequences of a row-stacked batch. By default there is one head and
    one segment, and q may then have a different number of rows than k.
    Scores are scaled by 1/sqrt(d / heads) before the row-wise softmax, so
    each head's output rows are convex combinations of its v rows. Forward
    and backward are batched (B, heads, T, T) numpy products.
    """
    (mq, d), (mk, dk), (mv, e) = q.data.shape, k.data.shape, v.data.shape
    if d != dk:
        raise ShapeMismatch(f"attention: query dim {q.data.shape} vs key dim {k.data.shape}")
    if mk != mv:
        raise ShapeMismatch(f"attention: {mk} keys vs {mv} values")
    if heads < 1 or d % heads or e % heads:
        raise ShapeMismatch(f"attention: widths {d} and {e} do not split into {heads} heads")
    if segment is None:
        batch, tq, tk = 1, mq, mk
    elif mq != mk:
        raise ShapeMismatch(f"attention: segments need as many queries as keys, got {mq} and {mk}")
    else:
        tq = tk = _segment_rows(q, segment, "attention")
        batch = mq // tq
    dh, eh = d // heads, e // heads
    factor = 1.0 / np.sqrt(dh)

    def split(x, steps, width):  # (batch*steps, heads*width) -> (batch, heads, steps, width)
        return x.reshape(batch, steps, heads, width).transpose(0, 2, 1, 3)

    def merge(x, rows):  # inverse of split
        return x.transpose(0, 2, 1, 3).reshape(rows, -1)

    qh, kh, vh = split(q.data, tq, dh), split(k.data, tk, dh), split(v.data, tk, eh)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * factor
    e_scores = np.exp(scores - scores.max(axis=3, keepdims=True))
    weights = e_scores / e_scores.sum(axis=3, keepdims=True)

    def back(g):
        gh = split(g, tq, eh)
        d_weights = gh @ vh.transpose(0, 1, 3, 2)
        d_scores = weights * (d_weights - (d_weights * weights).sum(axis=3, keepdims=True)) * factor
        return (
            merge(d_scores @ kh, mq),
            merge(d_scores.transpose(0, 1, 3, 2) @ qh, mk),
            merge(weights.transpose(0, 1, 3, 2) @ gh, mk),
        )

    return _node(merge(weights @ vh, mq), (q, k, v), back)
