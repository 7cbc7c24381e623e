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
strided_rows takes out step t of every segment, and recurrent_scan runs a
recurrent cell over every segment at once as one node with its own
backpropagation through time. A minibatch is thus one graph, not one
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

from .errors import NotScalar, ShapeMismatch, UnknownCellKind

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
    "recurrent_scan",
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


def _segment_rows(a: Tensor, segment: int, op: str) -> int:
    """Rows per segment of a row-stacked batch, checked to split its rows."""
    m = a.data.shape[0]
    if segment < 1 or m % segment:
        raise ShapeMismatch(f"{op}: {m} rows do not split into segments of {segment}")
    return segment


def mean_rows(a: Tensor, segment: int) -> Tensor:
    """(B*T, n) -> (B, n), averaging each segment of T = segment rows.
    Used for sequence pooling."""
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


def square(a: Tensor) -> Tensor:
    return _node(a.data * a.data, (a,), lambda g: (2.0 * a.data * g,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _node(out, (a,), lambda g: (g * out,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _node(out, (a,), lambda g: (g * (1.0 - out * out),))


def _logistic(a: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-a))


def sigmoid(a: Tensor) -> Tensor:
    out = _logistic(a.data)
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


def attention_block(q: Tensor, k: Tensor, v: Tensor, segment: int, heads: int = 1) -> Tensor:
    """Scaled dot-product attention, fused over heads and segments.

    q, k and v are (m, d), (m, d) and (m, e). Their columns split into
    `heads` equal groups, one per head, and their rows into segments of
    T = segment rows: each row attends only within its own segment, the
    sequences of a row-stacked batch. Scores are scaled by
    1/sqrt(d / heads) before the row-wise softmax, so each head's output
    rows are convex combinations of its v rows. Forward and backward are
    batched (B, heads, T, T) numpy products.
    """
    (m, d), (mk, dk), (mv, e) = q.data.shape, k.data.shape, v.data.shape
    if d != dk:
        raise ShapeMismatch(f"attention: query dim {q.data.shape} vs key dim {k.data.shape}")
    if not m == mk == mv:
        raise ShapeMismatch(f"attention: {m} queries, {mk} keys and {mv} values")
    if heads < 1 or d % heads or e % heads:
        raise ShapeMismatch(f"attention: widths {d} and {e} do not split into {heads} heads")
    steps = _segment_rows(q, segment, "attention")
    batch = m // steps
    dh, eh = d // heads, e // heads
    factor = 1.0 / np.sqrt(dh)

    def split(x, width):  # (batch*steps, heads*width) -> (batch, heads, steps, width)
        return x.reshape(batch, steps, heads, width).transpose(0, 2, 1, 3)

    def merge(x):  # inverse of split
        return x.transpose(0, 2, 1, 3).reshape(m, -1)

    qh, kh, vh = split(q.data, dh), split(k.data, dh), split(v.data, eh)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * factor
    e_scores = np.exp(scores - scores.max(axis=3, keepdims=True))
    weights = e_scores / e_scores.sum(axis=3, keepdims=True)

    def back(g):
        gh = split(g, eh)
        d_weights = gh @ vh.transpose(0, 1, 3, 2)
        d_scores = weights * (d_weights - (d_weights * weights).sum(axis=3, keepdims=True)) * factor
        return (
            merge(d_scores @ kh),
            merge(d_scores.transpose(0, 1, 3, 2) @ qh),
            merge(weights.transpose(0, 1, 3, 2) @ gh),
        )

    return _node(merge(weights @ vh), (q, k, v), back)


def _previous(hidden: list[np.ndarray]) -> np.ndarray:
    """(T, B, d) states each step started from: zero, then h_0 .. h_{T-2}."""
    return np.stack([np.zeros_like(hidden[0])] + hidden[:-1])


# Each unroll below steps one cell over the step blocks xs from state h and
# returns its hidden states and a bptt closure. It keeps what bptt needs
# only when `keep` (a graph is being recorded), so inference holds no more
# than the hidden states. bptt maps the (T, B, d) cotangent of the hidden
# states to the (T, B, groups * w) cotangent of every step's
# pre-activations and, per (wx, wh, b) group, the (T, B, d) rows that
# multiplied wh. The factors from a state's cotangent to its
# pre-activations' are formed for all steps at once before the reverse
# loop, which is left with the products that carry the cotangent back.


def _rnn_scan(xs, weights, h, keep):
    wx, wh, b = weights
    hidden = []
    for xt in xs:
        h = np.tanh((xt @ wx + h @ wh) + b)
        hidden.append(h)

    def bptt(gs):
        slope = np.stack(hidden)
        slope = 1.0 - slope * slope
        d_pre = np.empty_like(slope)
        dh = np.zeros_like(h)
        for t in reversed(range(len(xs))):
            dh = np.multiply(dh + gs[t], slope[t], out=d_pre[t]) @ wh.T
        return d_pre, [_previous(hidden)]

    return hidden, bptt


def _gru_scan(xs, weights, h, keep):
    wx_u, wh_u, b_u, wx_r, wh_r, b_r, wx_c, wh_c, b_c = weights
    hidden, gates = [], []
    for xt in xs:
        update = _logistic((xt @ wx_u + h @ wh_u) + b_u)
        reset = _logistic((xt @ wx_r + h @ wh_r) + b_r)
        cand = np.tanh((xt @ wx_c + (reset * h) @ wh_c) + b_c)
        h = update * h + (1.0 - update) * cand
        hidden.append(h)
        if keep:
            gates.append((update, reset, cand))

    def bptt(gs):
        update, reset, cand = (np.stack(a) for a in zip(*gates))
        prev = _previous(hidden)
        d = prev.shape[2]
        via_update = (prev - cand) * update * (1.0 - update)
        via_reset = prev * reset * (1.0 - reset)  # from the candidate's reset * h_prev
        via_cand = (1.0 - update) * (1.0 - cand * cand)
        wh_ur = np.concatenate([wh_u, wh_r], axis=1).T
        d_pre = np.empty(prev.shape[:2] + (3 * d,))  # update | reset | candidate
        dh = np.zeros_like(h)
        for t in reversed(range(len(xs))):
            dh = dh + gs[t]
            d_gated = np.multiply(dh, via_cand[t], out=d_pre[t, :, 2 * d:]) @ wh_c.T
            np.multiply(dh, via_update[t], out=d_pre[t, :, :d])
            np.multiply(d_gated, via_reset[t], out=d_pre[t, :, d:2 * d])
            dh = dh * update[t] + d_gated * reset[t] + d_pre[t, :, :2 * d] @ wh_ur
        return d_pre, [prev, prev, reset * prev]

    return hidden, bptt


def _lstm_scan(xs, weights, h, keep):
    wx, wh, b = weights
    d = h.shape[1]
    c = np.zeros_like(h)
    hidden, saved = [], []
    for xt in xs:
        pre = (xt @ wx + h @ wh) + b
        gate_in = _logistic(np.ascontiguousarray(pre[:, :d]))
        gate_forget = _logistic(np.ascontiguousarray(pre[:, d:2 * d]))
        cand = np.tanh(np.ascontiguousarray(pre[:, 2 * d:3 * d]))
        gate_out = _logistic(np.ascontiguousarray(pre[:, 3 * d:]))
        c_prev = c
        c = gate_forget * c + gate_in * cand
        squashed = np.tanh(c)
        h = gate_out * squashed
        hidden.append(h)
        if keep:
            saved.append((gate_in, gate_forget, cand, gate_out, c_prev, squashed))

    def bptt(gs):
        gate_in, gate_forget, cand, gate_out, c_prev, squashed = (np.stack(a) for a in zip(*saved))
        via_cell = gate_out * (1.0 - squashed * squashed)
        # from the cell state's cotangent to the input, forget and candidate rows
        via_gates = np.stack(
            [
                cand * gate_in * (1.0 - gate_in),
                c_prev * gate_forget * (1.0 - gate_forget),
                gate_in * (1.0 - cand * cand),
            ],
            axis=2,
        )
        via_out = squashed * gate_out * (1.0 - gate_out)
        steps, batch = via_cell.shape[:2]
        d_pre = np.empty((steps, batch, 4, d))
        dh, dc = np.zeros_like(h), np.zeros_like(h)
        for t in reversed(range(steps)):
            dh = dh + gs[t]
            dc = dc + dh * via_cell[t]
            np.multiply(dc[:, None], via_gates[t], out=d_pre[t, :, :3])
            np.multiply(dh, via_out[t], out=d_pre[t, :, 3])
            dc = dc * gate_forget[t]
            dh = d_pre[t].reshape(batch, 4 * d) @ wh.T
        return d_pre.reshape(steps, batch, 4 * d), [_previous(hidden)]

    return hidden, bptt


# kind -> (unroll, number of (wx, wh, b) groups, pre-activation width per
# group in state widths)
_SCANS = {"rnn": (_rnn_scan, 1, 1), "gru": (_gru_scan, 3, 1), "lstm": (_lstm_scan, 1, 4)}


def recurrent_scan(kind: str, x: Tensor, params, segment: int) -> Tensor:
    """A recurrent cell unrolled over a row-stacked batch, as one node.

    x is (B*T, n): B sequences of T = segment rows. From a zero state
    the cell steps over t = 0 .. T-1 with one (B, d) state for all B
    sequences, and the hidden rows come back stacked sequence-major,
    (B*T, d). params are the cell's weights as (wx, wh, b) groups, in
    nn's order: rnn one group; gru the update, reset and candidate groups;
    lstm one group of 4*d columns holding the input, forget, candidate
    and output gates.

    Each step forms (x_t @ wx + h @ wh) + b from a contiguous (B, n) block
    x_t, the same products in the same order as the cells' single step, so
    the forward is bit for bit that of the per-step composite. The
    backward is backpropagation through time in numpy; the weight
    gradients and the input gradient are single products over all steps.
    """
    if kind not in _SCANS:
        raise UnknownCellKind(f"recurrent_scan: unknown cell kind {kind!r}; expected one of {tuple(_SCANS)}")
    unroll, groups, widen = _SCANS[kind]
    rows, n = x.data.shape
    steps = _segment_rows(x, segment, "recurrent_scan")
    weights = [p.data for p in params]
    if len(weights) != 3 * groups:
        raise ShapeMismatch(f"recurrent_scan: {kind} takes {3 * groups} parameters, got {len(weights)}")
    dim = weights[1].shape[0]
    width = widen * dim
    for wx, wh, b in zip(weights[0::3], weights[1::3], weights[2::3]):
        if wx.shape != (n, width) or wh.shape != (dim, width) or b.shape != (1, width):
            raise ShapeMismatch(
                f"recurrent_scan: {kind} weights {wx.shape}, {wh.shape}, {b.shape} "
                f"for rows of width {n} and a state of width {dim}"
            )
    batch = rows // steps
    xs = [x.data[t::steps].copy() for t in range(steps)]
    parents = (x, *params)
    keep = _recording and any(p.requires_grad for p in parents)
    hidden, bptt = unroll(xs, weights, np.zeros((batch, dim)), keep)

    def back(g):
        # everything here is step-major, (T*B, .); dx goes back sequence-major
        d_pre, h_ins = bptt(g.reshape(batch, steps, dim).transpose(1, 0, 2))
        d_pre = d_pre.reshape(rows, groups * width)
        dx = d_pre @ np.concatenate(weights[0::3], axis=1).T
        dwx = np.concatenate(xs).T @ d_pre
        grads = []
        for k, h_in in enumerate(h_ins):
            cols = slice(k * width, (k + 1) * width)
            d_group = d_pre[:, cols]
            grads += [dwx[:, cols], h_in.reshape(rows, dim).T @ d_group, d_group.sum(axis=0, keepdims=True)]
        return (dx.reshape(steps, batch, n).transpose(1, 0, 2).reshape(rows, n), *grads)

    return _node(np.stack(hidden, axis=1).reshape(rows, dim), parents, back)
