"""Neural building blocks on top of the autodiff engine.

Everything takes an explicit numpy Generator for initialization, draws from
it in a fixed order, and never touches global random state. Weights start
uniform in +-1/sqrt(fan_in); biases and affine shifts start at zero.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import MissingGradient, ShapeMismatch, UnknownCellKind
from .tensor import (
    Tensor,
    add,
    attention_layer,
    feed_forward,
    layer_norm,
    linear,
    matmul,
    mul,
    recurrent_scan,
    sigmoid,
    slice_cols,
    tanh,
)


class Module:
    """Base with parameter discovery over attribute insertion order."""

    def named_parameters(self, prefix: str = ""):
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                if value.requires_grad:
                    yield prefix + name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{prefix}{name}.{i}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.parameters())


def uniform_init(rng: np.random.Generator, fan_in: int, shape: tuple[int, int]) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.weight = Tensor(uniform_init(rng, in_dim, (in_dim, out_dim)), requires_grad=True)
        self.bias = Tensor(np.zeros((1, out_dim)), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones((1, dim)), requires_grad=True)
        self.shift = Tensor(np.zeros((1, dim)), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.shift)


@functools.lru_cache(maxsize=16)
def sinusoidal_encoding(length: int, dim: int) -> np.ndarray:
    """Fixed sin/cos position table, (length, dim). Not learned. Built once
    per (length, dim) and returned read-only."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / dim)
    table = np.empty((length, dim))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    table.setflags(write=False)
    return table


class MultiHeadSelfAttention(Module):
    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ShapeMismatch(f"width {dim} not divisible by {heads} heads")
        self.heads = heads
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def __call__(self, x: Tensor, steps: int) -> Tensor:
        """x is a row-stacked batch of sequences of `steps` rows each;
        attention stays within each. One attention_layer node."""
        q, k, v, o = self.wq, self.wk, self.wv, self.wo
        return attention_layer(
            x, q.weight, q.bias, k.weight, k.bias, v.weight, v.bias, o.weight, o.bias, steps, self.heads
        )


class TransformerBlock(Module):
    """Pre-norm residual block: attention, then a 4x feed-forward. Six
    graph nodes: norm, attention, add, norm, feed-forward, add."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        self.norm_attn = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, heads, rng)
        self.norm_ff = LayerNorm(dim)
        self.ff_in = Linear(dim, 4 * dim, rng)
        self.ff_out = Linear(4 * dim, dim, rng)

    def __call__(self, x: Tensor, steps: int) -> Tensor:
        x = add(x, self.attn(self.norm_attn(x), steps))
        ff_in, ff_out = self.ff_in, self.ff_out
        return add(x, feed_forward(self.norm_ff(x), ff_in.weight, ff_in.bias, ff_out.weight, ff_out.bias))


class TransformerEncoder(Module):
    def __init__(self, dim: int, layers: int, heads: int, rng: np.random.Generator):
        self.blocks = [TransformerBlock(dim, heads, rng) for _ in range(layers)]

    def __call__(self, x: Tensor, steps: int) -> Tensor:
        for block in self.blocks:
            x = block(x, steps)
        return x


class RNNCell(Module):
    def __init__(self, in_dim: int, dim: int, rng: np.random.Generator):
        self.wx = Tensor(uniform_init(rng, in_dim, (in_dim, dim)), requires_grad=True)
        self.wh = Tensor(uniform_init(rng, dim, (dim, dim)), requires_grad=True)
        self.bias = Tensor(np.zeros((1, dim)), requires_grad=True)

    def step(self, x: Tensor, state: tuple[Tensor, ...]) -> tuple[Tensor, ...]:
        (h,) = state
        return (tanh(add(add(matmul(x, self.wx), matmul(h, self.wh)), self.bias)),)


class GRUCell(Module):
    """Gated recurrent unit; the update gate at 1 keeps the previous state."""

    def __init__(self, in_dim: int, dim: int, rng: np.random.Generator):
        # gate order: update, reset, candidate; each gate's (wx, wh) drawn in turn
        draws = [(uniform_init(rng, in_dim, (in_dim, dim)), uniform_init(rng, dim, (dim, dim))) for _ in range(3)]
        self.wx = Tensor(np.concatenate([wx for wx, _ in draws], axis=1), requires_grad=True)
        self.wh = Tensor(np.concatenate([wh for _, wh in draws], axis=1), requires_grad=True)
        self.bias = Tensor(np.zeros((1, 3 * dim)), requires_grad=True)
        self.dim = dim

    def step(self, x: Tensor, state: tuple[Tensor, ...]) -> tuple[Tensor, ...]:
        (h,) = state
        d = self.dim
        xw = matmul(x, self.wx)
        gates = sigmoid(add(add(slice_cols(xw, 0, 2 * d), matmul(h, slice_cols(self.wh, 0, 2 * d))),
                            slice_cols(self.bias, 0, 2 * d)))
        update, reset = slice_cols(gates, 0, d), slice_cols(gates, d, 2 * d)
        cand = tanh(add(add(slice_cols(xw, 2 * d, 3 * d), matmul(mul(reset, h), slice_cols(self.wh, 2 * d, 3 * d))),
                        slice_cols(self.bias, 2 * d, 3 * d)))
        return (add(mul(update, h), mul(1.0 - update, cand)),)


class LSTMCell(Module):
    def __init__(self, in_dim: int, dim: int, rng: np.random.Generator):
        # one fused input->4*dim map, gate order: input, forget, candidate, output
        self.wx = Tensor(uniform_init(rng, in_dim, (in_dim, 4 * dim)), requires_grad=True)
        self.wh = Tensor(uniform_init(rng, dim, (dim, 4 * dim)), requires_grad=True)
        self.bias = Tensor(np.zeros((1, 4 * dim)), requires_grad=True)
        self.dim = dim

    def step(self, x: Tensor, state: tuple[Tensor, ...]) -> tuple[Tensor, ...]:
        h, c = state
        d = self.dim
        pre = add(add(matmul(x, self.wx), matmul(h, self.wh)), self.bias)
        gate_in = sigmoid(slice_cols(pre, 0, d))
        gate_forget = sigmoid(slice_cols(pre, d, 2 * d))
        cand = tanh(slice_cols(pre, 2 * d, 3 * d))
        gate_out = sigmoid(slice_cols(pre, 3 * d, 4 * d))
        c_new = add(mul(gate_forget, c), mul(gate_in, cand))
        return (mul(gate_out, tanh(c_new)), c_new)


CELLS = {"rnn": RNNCell, "gru": GRUCell, "lstm": LSTMCell}
CELL_KINDS = tuple(CELLS)
SEQUENCE_KINDS = ("transformer",) + CELL_KINDS


def make_cell(kind: str, in_dim: int, dim: int, rng: np.random.Generator) -> Module:
    if kind not in CELLS:
        raise UnknownCellKind(f"unknown cell kind {kind!r}; expected one of {CELL_KINDS}")
    return CELLS[kind](in_dim, dim, rng)


class SequenceTrunk(Module):
    """Map sequences of in_dim rows to dim-wide feature rows with a chosen
    backbone: (B*T, in_dim) -> (B*T, dim) for a row-stacked batch of B
    sequences of T = steps rows.

    kind "transformer" embeds, adds the fixed position table to every
    sequence, and runs the encoder; recurrent kinds embed and run one
    fused recurrent_scan of one cell layer (layers and heads shape only
    the transformer) from a zero state over the B sequences at once, one
    (B, dim) state per step, which returns the hidden rows sequence-major
    as one graph node. The cell's own step is the single-step definition
    the scan reproduces bit for bit.
    """

    def __init__(self, kind: str, in_dim: int, dim: int, layers: int, heads: int, rng: np.random.Generator):
        if kind not in SEQUENCE_KINDS:
            raise UnknownCellKind(f"unknown sequence kind {kind!r}; expected one of {SEQUENCE_KINDS}")
        self.kind = kind
        self.dim = dim
        self.embed = Linear(in_dim, dim, rng)
        if kind == "transformer":
            self.encoder = TransformerEncoder(dim, layers, heads, rng)
        else:
            self.cell = make_cell(kind, dim, dim, rng)

    def __call__(self, x: Tensor, steps: int) -> Tensor:
        rows = x.data.shape[0]
        h = self.embed(x)
        if self.kind == "transformer":
            positions = np.tile(sinusoidal_encoding(steps, self.dim), (rows // steps, 1))
            return self.encoder(add(h, Tensor(positions)), steps)
        return recurrent_scan(self.kind, h, self.cell.parameters(), steps)


class Adam:
    """Adam with bias correction over one flat float64 store of the
    parameters, in list order. Packing rebinds each parameter's data to a
    view of its slot (m and v are views of two more flat arrays), so an
    in-place write such as restore_model's lands in the store. Nothing may
    rebind a packed parameter's data; a second Adam over the same
    parameters re-packs them, and the first stops backing them. step()
    consumes and clears the gradients: it gathers them and applies the
    operations of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
    p -= lr*(m/c1) / (sqrt(v/c2) + eps) in place, in their order, once
    over the store, so the bits are that formula's.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        ends = np.cumsum([p.data.size for p in self.params])
        slots = [(slice(end - p.data.size, end), p.data.shape) for p, end in zip(self.params, ends)]
        self.store = np.concatenate([p.data for p in self.params], axis=None)
        self._m, self._v, self._grad, self._step = np.zeros((4, self.store.size))
        self.m, self.v = ([flat[slot].reshape(shape) for slot, shape in slots] for flat in (self._m, self._v))
        for p, (slot, shape) in zip(self.params, slots):
            p.data = self.store[slot].reshape(shape)

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise MissingGradient(f"parameter {i} (shape {p.data.shape}) has no gradient")
        self.t += 1
        correct1 = 1.0 - self.BETA1 ** self.t
        correct2 = 1.0 - self.BETA2 ** self.t
        m, v, g, step = self._m, self._v, self._grad, self._step
        np.concatenate([p.grad for p in self.params], axis=None, out=g)
        m *= self.BETA1
        m += np.multiply(1.0 - self.BETA1, g, out=step)
        v *= self.BETA2
        root = np.multiply(g, g, out=g)  # the gradient is not read again
        v += np.multiply(root, 1.0 - self.BETA2, out=root)
        np.divide(m, correct1, out=step)
        step *= self.lr
        np.divide(v, correct2, out=root)
        np.sqrt(root, out=root)
        root += self.EPS
        step /= root
        self.store -= step
        for p in self.params:
            p.grad = None
