"""Neural building blocks on top of the autodiff engine.

Everything takes an explicit numpy Generator for initialization, draws from
it in a fixed order, and never touches global random state. Weights start
uniform in +-1/sqrt(fan_in); biases and affine shifts start at zero.
"""

from __future__ import annotations

import numpy as np

from .errors import MissingGradient, ShapeMismatch, UnknownCellKind
from .tensor import (
    Tensor,
    add,
    attention_block,
    layer_norm,
    matmul,
    mul,
    recurrent_scan,
    relu,
    sigmoid,
    slice_cols,
    tanh,
)

CELL_KINDS = ("rnn", "gru", "lstm")
SEQUENCE_KINDS = ("transformer",) + CELL_KINDS


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
        return add(matmul(x, self.weight), self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones((1, dim)), requires_grad=True)
        self.shift = Tensor(np.zeros((1, dim)), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.shift)


def sinusoidal_encoding(length: int, dim: int) -> np.ndarray:
    """Fixed sin/cos position table, (length, dim). Not learned."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / dim)
    table = np.empty((length, dim))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
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
        attention stays within each."""
        mixed = attention_block(self.wq(x), self.wk(x), self.wv(x), steps, heads=self.heads)
        return self.wo(mixed)


class TransformerBlock(Module):
    """Pre-norm residual block: attention, then a 4x feed-forward."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, ff_mult: int = 4):
        self.norm_attn = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, heads, rng)
        self.norm_ff = LayerNorm(dim)
        self.ff_in = Linear(dim, ff_mult * dim, rng)
        self.ff_out = Linear(ff_mult * dim, dim, rng)

    def __call__(self, x: Tensor, steps: int) -> Tensor:
        x = add(x, self.attn(self.norm_attn(x), steps))
        return add(x, self.ff_out(relu(self.ff_in(self.norm_ff(x)))))


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
        self.dim = dim

    def initial_state(self, batch: int = 1) -> tuple[Tensor, ...]:
        return (Tensor(np.zeros((batch, self.dim))),)

    def step(self, x: Tensor, state: tuple[Tensor, ...]) -> tuple[Tensor, ...]:
        (h,) = state
        return (tanh(add(add(matmul(x, self.wx), matmul(h, self.wh)), self.bias)),)


class GRUCell(Module):
    """Gated recurrent unit; the update gate at 1 keeps the previous state."""

    def __init__(self, in_dim: int, dim: int, rng: np.random.Generator):
        self.wx_update = Tensor(uniform_init(rng, in_dim, (in_dim, dim)), requires_grad=True)
        self.wh_update = Tensor(uniform_init(rng, dim, (dim, dim)), requires_grad=True)
        self.b_update = Tensor(np.zeros((1, dim)), requires_grad=True)
        self.wx_reset = Tensor(uniform_init(rng, in_dim, (in_dim, dim)), requires_grad=True)
        self.wh_reset = Tensor(uniform_init(rng, dim, (dim, dim)), requires_grad=True)
        self.b_reset = Tensor(np.zeros((1, dim)), requires_grad=True)
        self.wx_cand = Tensor(uniform_init(rng, in_dim, (in_dim, dim)), requires_grad=True)
        self.wh_cand = Tensor(uniform_init(rng, dim, (dim, dim)), requires_grad=True)
        self.b_cand = Tensor(np.zeros((1, dim)), requires_grad=True)
        self.dim = dim

    def initial_state(self, batch: int = 1) -> tuple[Tensor, ...]:
        return (Tensor(np.zeros((batch, self.dim))),)

    def step(self, x: Tensor, state: tuple[Tensor, ...]) -> tuple[Tensor, ...]:
        (h,) = state
        update = sigmoid(add(add(matmul(x, self.wx_update), matmul(h, self.wh_update)), self.b_update))
        reset = sigmoid(add(add(matmul(x, self.wx_reset), matmul(h, self.wh_reset)), self.b_reset))
        cand = tanh(add(add(matmul(x, self.wx_cand), matmul(mul(reset, h), self.wh_cand)), self.b_cand))
        keep = mul(update, h)
        take = mul(1.0 - update, cand)
        return (add(keep, take),)


class LSTMCell(Module):
    def __init__(self, in_dim: int, dim: int, rng: np.random.Generator):
        # one fused input->4*dim map, gate order: input, forget, candidate, output
        self.wx = Tensor(uniform_init(rng, in_dim, (in_dim, 4 * dim)), requires_grad=True)
        self.wh = Tensor(uniform_init(rng, dim, (dim, 4 * dim)), requires_grad=True)
        self.bias = Tensor(np.zeros((1, 4 * dim)), requires_grad=True)
        self.dim = dim

    def initial_state(self, batch: int = 1) -> tuple[Tensor, ...]:
        return (Tensor(np.zeros((batch, self.dim))), Tensor(np.zeros((batch, self.dim))))

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


def make_cell(kind: str, in_dim: int, dim: int, rng: np.random.Generator) -> Module:
    if kind == "rnn":
        return RNNCell(in_dim, dim, rng)
    if kind == "gru":
        return GRUCell(in_dim, dim, rng)
    if kind == "lstm":
        return LSTMCell(in_dim, dim, rng)
    raise UnknownCellKind(f"unknown cell kind {kind!r}; expected one of {CELL_KINDS}")


class SequenceTrunk(Module):
    """Map sequences of in_dim rows to dim-wide feature rows with a chosen
    backbone: (B*T, in_dim) -> (B*T, dim) for a row-stacked batch of B
    sequences of T = steps rows.

    kind "transformer" embeds, adds the fixed position table to every
    sequence, and runs the encoder; recurrent kinds embed and run one
    fused recurrent_scan of the cell from a zero state over the B
    sequences at once, one (B, dim) state per step, which returns the
    hidden rows sequence-major as one graph node. The cell's own step is
    the single-step definition the scan reproduces bit for bit.
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
    """Adam with bias correction. step() consumes and clears gradients."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise MissingGradient(f"parameter {i} (shape {p.data.shape}) has no gradient")
        self.t += 1
        correct1 = 1.0 - self.beta1 ** self.t
        correct2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / correct1
            v_hat = self.v[i] / correct2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.grad = None
