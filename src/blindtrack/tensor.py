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

A transformer sublayer is one node too. linear is x @ w + b;
attention_layer is self-attention with its q, k, v and output
projections around attention_block's kernel; feed_forward is linear, relu,
linear. Each forms the products and sums of the composite of primitives
it replaces, in the same order, so its values and every cotangent are
that composite's bit for bit, with one node in place of up to nine.

Inside `with no_grad():` ops compute their values but record no parents and
no backward closures, so inference builds no graph.

Arrays are shared, not copied: a backward may hand its cotangent (or a view
of it) on to a parent, and an intermediate node's .grad is its cotangent
array itself; only a leaf's .grad is a copy of its own. This is safe
because an op overwrites only arrays it allocated itself, and only before
it hands them out: it never writes into an input's data, a cotangent it
received, or an array it saved for its backward.

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
    "linear",
    "attention_block",
    "attention_layer",
    "feed_forward",
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
                if node.grad is not None:
                    node.grad = node.grad + g
                else:  # a leaf's gradient is its own array; the others share g
                    node.grad = g.copy() if node._backward is None else g
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


def _segment_rows(m: int, segment: int, op: str) -> int:
    """Rows per segment of a row-stacked batch of m rows, checked to split them."""
    if segment < 1 or m % segment:
        raise ShapeMismatch(f"{op}: {m} rows do not split into segments of {segment}")
    return segment


def mean_rows(a: Tensor, segment: int) -> Tensor:
    """(B*T, n) -> (B, n), averaging each segment of T = segment rows.
    Used for sequence pooling."""
    m, n = a.data.shape
    steps = _segment_rows(m, segment, "mean_rows")
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


def _rectify(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # fmax maps NaN and -inf to 0.0 as `x > 0 ? x : 0.0` does; += 0.0 turns
    # the -0.0 it may keep into +0.0. So out > 0.0 exactly where a > 0.0.
    out = np.fmax(a, 0.0, out=out)
    out += 0.0
    return out


def relu(a: Tensor) -> Tensor:
    return _node(_rectify(a.data), (a,), lambda g: (g * (a.data > 0.0),))


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
    xhat = x.data - x.data.mean(axis=1, keepdims=True)
    out = np.multiply(xhat, xhat)
    inv_std = 1.0 / np.sqrt(out.mean(axis=1, keepdims=True) + eps)
    xhat *= inv_std
    np.multiply(xhat, gain.data, out=out)
    out += shift.data

    def back(g):
        # standard layer-norm backward: remove the mean and the xhat-aligned
        # component of dxhat = g * gain before rescaling
        dx = g * gain.data
        part = dx * xhat
        aligned = part.mean(axis=1, keepdims=True)
        dx -= dx.mean(axis=1, keepdims=True)
        dx -= np.multiply(xhat, aligned, out=part)
        dx *= inv_std
        dgain = np.multiply(g, xhat, out=part).sum(axis=0, keepdims=True)
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


def _affine(op: str, x: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    """x @ w + b: the product, then the bias row added in place, the same
    bits as add(matmul(x, w), b). w needs as many rows as x has columns,
    and b must be one row as wide as w."""
    if x.shape[1] != w.data.shape[0] or b.data.shape != (1, w.data.shape[1]):
        raise ShapeMismatch(f"{op}: {x.shape} @ {w.data.shape} + {b.data.shape}")
    out = x @ w.data
    out += b.data
    return out


def _affine_grads(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cotangents of w and b in x @ w + b, given the output's g: the ones
    matmul and add form. add hands a one-row g on as it is, since a sum
    over one row would turn its -0.0 entries into +0.0."""
    return x.T @ g, g.sum(axis=0, keepdims=True) if g.shape[0] > 1 else g


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node, bit for bit add(matmul(x, w), b). Input rows
    that are data, not a graph node, get no cotangent."""
    out = _affine("linear", x.data, w, b)

    def back(g):
        return (g @ w.data.T if x.requires_grad else None, *_affine_grads(x.data, g))

    return _node(out, (x, w, b), back)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, segment: int, heads: int):
    """The attention kernel: (out, back), where back maps out's cotangent to
    those of q, k and v. See attention_block."""
    (m, d), (mk, dk), (mv, e) = q.shape, k.shape, v.shape
    if d != dk:
        raise ShapeMismatch(f"attention: query dim {q.shape} vs key dim {k.shape}")
    if not m == mk == mv:
        raise ShapeMismatch(f"attention: {m} queries, {mk} keys and {mv} values")
    if heads < 1 or d % heads or e % heads:
        raise ShapeMismatch(f"attention: widths {d} and {e} do not split into {heads} heads")
    steps = _segment_rows(m, segment, "attention")
    batch = m // steps
    dh, eh = d // heads, e // heads
    factor = 1.0 / np.sqrt(dh)

    def split(x, width):  # (batch*steps, heads*width) -> (batch, heads, steps, width)
        return x.reshape(batch, steps, heads, width).transpose(0, 2, 1, 3)

    def merge(x):  # inverse of split
        return x.transpose(0, 2, 1, 3).reshape(m, -1)

    qh, kh, vh = split(q, dh), split(k, dh), split(v, eh)
    # the softmax runs in place on the one (batch, heads, steps, steps) array
    weights = qh @ kh.transpose(0, 1, 3, 2)
    weights *= factor
    weights -= weights.max(axis=3, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=3, keepdims=True)

    def back(g):
        gh = split(g, eh)
        d_scores = gh @ vh.transpose(0, 1, 3, 2)  # d_weights, turned into d_scores in place
        d_scores -= (d_scores * weights).sum(axis=3, keepdims=True)
        d_scores *= weights
        d_scores *= factor
        return (
            merge(d_scores @ kh),
            merge(d_scores.transpose(0, 1, 3, 2) @ qh),
            merge(weights.transpose(0, 1, 3, 2) @ gh),
        )

    return merge(weights @ vh), back


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
    out, back = _attend(q.data, k.data, v.data, segment, heads)
    return _node(out, (q, k, v), back)


def attention_layer(
    x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor, wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor,
    segment: int, heads: int,
) -> Tensor:
    """Self-attention with its projections as one node: q, k and v are
    x @ w + b for their (w, b), attention_block mixes them, and
    (mixed @ wo) + bo is the output.

    Bit for bit the composite of linear and attention_block nodes, the
    backward included: x's cotangent sums the three projections' parts as
    (from q + from k) + from v, the order the composite's graph walk adds
    them in.
    """
    q, k, v = (_affine("attention_layer", x.data, w, b) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    mixed, attend_back = _attend(q, k, v, segment, heads)

    def back(g):
        dq, dk, dv = attend_back(g @ wo.data.T)
        return (
            (dq @ wq.data.T + dk @ wk.data.T) + dv @ wv.data.T,
            *_affine_grads(x.data, dq),
            *_affine_grads(x.data, dk),
            *_affine_grads(x.data, dv),
            *_affine_grads(mixed, g),
        )

    return _node(_affine("attention_layer", mixed, wo, bo), (x, wq, bq, wk, bk, wv, bv, wo, bo), back)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 as one node, bit for bit the composite
    of linear, relu and linear nodes. The relu runs in place on the hidden
    rows, and its backward masks where they are positive."""
    hidden = _affine("feed_forward", x.data, w1, b1)
    _rectify(hidden, out=hidden)
    out = _affine("feed_forward", hidden, w2, b2)

    def back(g):
        d_hidden = g @ w2.data.T
        d_hidden *= hidden > 0.0
        return (d_hidden @ w1.data.T, *_affine_grads(x.data, d_hidden), *_affine_grads(hidden, g))

    return _node(out, (x, w1, b1, w2, b2), back)


def _previous(hidden: list[np.ndarray]) -> np.ndarray:
    """(T, B, d) states each step started from: zero, then h_0 .. h_{T-2}."""
    return np.stack([np.zeros_like(hidden[0])] + hidden[:-1])


def _products(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """a.T @ g over the rows of every step: (T, B, m) and (T, B, p) -> (m, p)."""
    return a.reshape(-1, a.shape[2]).T @ g.reshape(-1, g.shape[2])


# Each unroll below steps one cell from state h over xw, every step's
# (B, k*d) input products x_t @ wx, adding h @ wh and b in the single step's
# order, and returns its hidden states and a bptt closure. It keeps what
# bptt needs only when `keep` (a graph is being recorded). bptt maps the
# (T, B, d) cotangent of the hidden states to the (T, B, k*d) cotangent of
# every step's pre-activations and the gradient of wh. The factors from a
# state's cotangent to its pre-activations' are formed for all steps at
# once, so the reverse loop holds only the products that carry it back.


def _rnn_scan(xw, wh, b, h, keep):
    hidden = []
    for xt in xw:
        h = np.tanh((xt + h @ wh) + b)
        hidden.append(h)

    def bptt(gs):
        slope = np.stack(hidden)
        slope = 1.0 - slope * slope
        d_pre = np.empty_like(slope)
        dh = np.zeros_like(h)
        for t in reversed(range(len(xw))):
            dh = np.multiply(dh + gs[t], slope[t], out=d_pre[t]) @ wh.T
        return d_pre, _products(_previous(hidden), d_pre)

    return hidden, bptt


def _gru_scan(xw, wh, b, h, keep):
    d = h.shape[1]
    wh_ur, wh_c, b_ur, b_c = wh[:, :2 * d], wh[:, 2 * d:], b[:, :2 * d], b[:, 2 * d:]
    hidden, gates = [], []
    for xt in xw:
        update_reset = _logistic((xt[:, :2 * d] + h @ wh_ur) + b_ur)
        update, reset = update_reset[:, :d], update_reset[:, d:]
        cand = np.tanh((xt[:, 2 * d:] + (reset * h) @ wh_c) + b_c)
        h = update * h + (1.0 - update) * cand
        hidden.append(h)
        if keep:
            gates.append((update, reset, cand))

    def bptt(gs):
        update, reset, cand = (np.stack(a) for a in zip(*gates))
        prev = _previous(hidden)
        via_update = (prev - cand) * update * (1.0 - update)
        via_reset = prev * reset * (1.0 - reset)  # from the candidate's reset * h_prev
        via_cand = (1.0 - update) * (1.0 - cand * cand)
        d_pre = np.empty(prev.shape[:2] + (3 * d,))  # update | reset | candidate
        dh = np.zeros_like(h)
        for t in reversed(range(len(xw))):
            dh = dh + gs[t]
            d_gated = np.multiply(dh, via_cand[t], out=d_pre[t, :, 2 * d:]) @ wh_c.T
            np.multiply(dh, via_update[t], out=d_pre[t, :, :d])
            np.multiply(d_gated, via_reset[t], out=d_pre[t, :, d:2 * d])
            dh = dh * update[t] + d_gated * reset[t] + d_pre[t, :, :2 * d] @ wh_ur.T
        d_wh = np.empty_like(wh)
        d_wh[:, :2 * d] = _products(prev, d_pre[:, :, :2 * d])
        d_wh[:, 2 * d:] = _products(reset * prev, d_pre[:, :, 2 * d:])
        return d_pre, d_wh

    return hidden, bptt


def _lstm_scan(xw, wh, b, h, keep):
    d = h.shape[1]
    c = np.zeros_like(h)
    hidden, saved = [], []
    for xt in xw:
        pre = (xt + h @ wh) + b
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
        d_pre = d_pre.reshape(steps, batch, 4 * d)
        return d_pre, _products(_previous(hidden), d_pre)

    return hidden, bptt


# kind -> (unroll, pre-activation width in state widths)
_SCANS = {"rnn": (_rnn_scan, 1), "gru": (_gru_scan, 3), "lstm": (_lstm_scan, 4)}


def recurrent_scan(kind: str, x: Tensor, params, segment: int) -> Tensor:
    """A recurrent cell unrolled over a row-stacked batch, as one node.

    x is (B*T, n): B sequences of T = segment rows. From a zero state
    the cell steps over t = 0 .. T-1 with one (B, d) state for all B
    sequences, and the hidden rows come back stacked sequence-major,
    (B*T, d). params are the cell's (wx, wh, b), in nn's layout of k*d
    columns: rnn k = 1; gru k = 3, the update, reset and candidate gates;
    lstm k = 4, the input, forget, candidate and output gates.

    One stacked product of x's step-major (T, B, n) copy forms every
    x_t @ wx, the (B, n) products of the cells' single step, so the forward
    is bit for bit the per-step composite. The backward is backpropagation
    through time in numpy; the weight and input gradients are single
    products over all steps.
    """
    if kind not in _SCANS:
        raise UnknownCellKind(f"recurrent_scan: unknown cell kind {kind!r}; expected one of {tuple(_SCANS)}")
    unroll, widen = _SCANS[kind]
    rows, n = x.data.shape
    steps = _segment_rows(rows, segment, "recurrent_scan")
    if len(params) != 3:
        raise ShapeMismatch(f"recurrent_scan: {kind} takes 3 parameters (wx, wh, b), got {len(params)}")
    wx, wh, b = (p.data for p in params)
    dim = wh.shape[0]
    width = widen * dim
    if wx.shape != (n, width) or wh.shape != (dim, width) or b.shape != (1, width):
        raise ShapeMismatch(f"recurrent_scan: {kind} weights {wx.shape}, {wh.shape}, {b.shape} "
                            f"for rows of width {n} and a state of width {dim}")
    batch = rows // steps
    xs = np.ascontiguousarray(x.data.reshape(batch, steps, n).transpose(1, 0, 2))
    parents = (x, *params)
    keep = _recording and any(p.requires_grad for p in parents)
    hidden, bptt = unroll(np.matmul(xs, wx), wh, b, np.zeros((batch, dim)), keep)

    def back(g):
        # everything here is step-major, (T, B, .); dx goes back sequence-major
        d_pre, d_wh = bptt(g.reshape(batch, steps, dim).transpose(1, 0, 2))
        d_flat = d_pre.reshape(rows, width)
        dx = (d_flat @ wx.T).reshape(steps, batch, n).transpose(1, 0, 2).reshape(rows, n)
        return dx, _products(xs, d_pre), d_wh, d_flat.sum(axis=0, keepdims=True)

    return _node(np.stack(hidden, axis=1).reshape(rows, dim), parents, back)
