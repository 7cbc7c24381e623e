"""Neural blocks: initialization bounds, gradient flow through every
backbone kind, cell semantics, and the Adam update against hand formulas."""

import ast
from pathlib import Path

import numpy as np
import pytest

from blindtrack import nn, pipeline as pl, tensor as tz
from blindtrack.config import TrainConfig
from blindtrack.errors import MissingGradient, ShapeMismatch, UnknownCellKind
from blindtrack.tensor import Tensor

from test_pipeline import TINY, tiny_scenes
from test_tensor import composite_attention_layer, composite_feed_forward, composite_linear, same_bits
from util_grad import check_gradients


class TestInit:
    def test_linear_init_bounds_and_zero_bias(self):
        rng = np.random.default_rng(0)
        lin = nn.Linear(16, 8, rng)
        bound = 1.0 / np.sqrt(16)
        assert np.all(np.abs(lin.weight.data) <= bound)
        assert np.array_equal(lin.bias.data, np.zeros((1, 8)))

    def test_init_is_seed_deterministic(self):
        a = nn.Linear(4, 4, np.random.default_rng(7)).weight.data
        b = nn.Linear(4, 4, np.random.default_rng(7)).weight.data
        assert np.array_equal(a, b)

    def test_named_parameters_order_and_uniqueness(self):
        rng = np.random.default_rng(1)
        enc = nn.TransformerEncoder(8, 2, 2, rng)
        names = [n for n, _ in enc.named_parameters()]
        assert len(names) == len(set(names))
        assert names[0].startswith("blocks.0.")
        # insertion-ordered walk is stable across identical constructions
        enc2 = nn.TransformerEncoder(8, 2, 2, np.random.default_rng(1))
        assert names == [n for n, _ in enc2.named_parameters()]

    def test_parameter_count(self):
        rng = np.random.default_rng(2)
        lin = nn.Linear(3, 5, rng)
        assert lin.parameter_count() == 3 * 5 + 5


class TestPositionalEncoding:
    def test_first_row_alternates_zero_one(self):
        table = nn.sinusoidal_encoding(4, 6)
        assert np.allclose(table[0, 0::2], 0.0)
        assert np.allclose(table[0, 1::2], 1.0)

    def test_known_entries(self):
        table = nn.sinusoidal_encoding(3, 4)
        assert table[1, 0] == pytest.approx(np.sin(1.0), abs=1e-12)
        assert table[1, 1] == pytest.approx(np.cos(1.0), abs=1e-12)
        assert table[2, 2] == pytest.approx(np.sin(2.0 / 100.0), abs=1e-12)
        assert np.all(np.abs(table) <= 1.0)

    def test_cached_table_is_read_only_and_keeps_its_bits(self):
        length, dim = 100, 64
        pos = np.arange(length, dtype=np.float64)[:, None]
        idx = np.arange(dim, dtype=np.float64)[None, :]
        angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / dim)
        want = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
        table = nn.sinusoidal_encoding(length, dim)
        assert np.array_equal(table, want)
        assert nn.sinusoidal_encoding(length, dim) is table
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


class TestBlocks:
    def test_attention_heads_must_divide_width(self):
        with pytest.raises(ShapeMismatch):
            nn.MultiHeadSelfAttention(6, 4, np.random.default_rng(0))

    def test_transformer_block_gradients(self):
        rng = np.random.default_rng(3)
        block = nn.TransformerBlock(4, 2, rng)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        params = [x] + block.parameters()
        check_gradients(lambda: tz.mean_all(tz.square(block(x, 3))), params, tol=1e-4)

    def test_encoder_shape_preserved(self):
        rng = np.random.default_rng(4)
        enc = nn.TransformerEncoder(8, 2, 2, rng)
        out = enc(Tensor(rng.normal(size=(5, 8))), 5)
        assert out.data.shape == (5, 8)


def composite_attention_call(self, x, steps):
    q, k, v, o = self.wq, self.wk, self.wv, self.wo
    params = (q.weight, q.bias, k.weight, k.bias, v.weight, v.bias, o.weight, o.bias)
    return composite_attention_layer(x, *params, steps, self.heads)


def composite_block_call(self, x, steps):
    x = tz.add(x, self.attn(self.norm_attn(x), steps))
    ff = (self.ff_in.weight, self.ff_in.bias, self.ff_out.weight, self.ff_out.bias)
    return tz.add(x, composite_feed_forward(self.norm_ff(x), *ff))


def train_three_steps() -> tuple[list[np.ndarray], nn.Adam]:
    model = pl.VisionPipeline(TINY, np.random.default_rng(8))
    optimizer = nn.Adam(model.parameters(), lr=1e-2)
    pl.train_model(model, tiny_scenes(6, noise="default"), [], TrainConfig(epochs=1, batch_size=2, seed=3), optimizer)
    return [p.data for p in model.parameters()], optimizer


class TestFusedBlocks:
    def test_training_equals_the_composite_blocks_bit_for_bit(self, monkeypatch):
        """Three Adam steps of a tiny `full` model with fused sublayers and
        with the composites they replace, in one process so both use one
        BLAS: parameters and moments keep every bit."""
        fused_params, fused_opt = train_three_steps()
        assert fused_opt.t == 3
        monkeypatch.setattr(nn.Linear, "__call__", lambda self, x: composite_linear(x, self.weight, self.bias))
        monkeypatch.setattr(nn.MultiHeadSelfAttention, "__call__", composite_attention_call)
        monkeypatch.setattr(nn.TransformerBlock, "__call__", composite_block_call)
        composite_params, composite_opt = train_three_steps()
        fused = fused_params + fused_opt.m + fused_opt.v
        composite = composite_params + composite_opt.m + composite_opt.v
        for got, want in zip(fused, composite, strict=True):
            assert same_bits(got, want)


class TestCells:
    @pytest.mark.parametrize("kind", ["rnn", "gru", "lstm"])
    def test_cell_unroll_gradients(self, kind):
        rng = np.random.default_rng(5)
        cell = nn.make_cell(kind, 3, 4, rng)
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)

        def build():
            state = zero_state(cell)
            outs = []
            for t in range(3):
                state = cell.step(tz.slice_rows(x, t, t + 1), state)
                outs.append(state[0])
            return tz.mean_all(tz.square(tz.concat_rows(outs)))

        check_gradients(build, [x] + cell.parameters(), tol=1e-4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnknownCellKind):
            nn.make_cell("conv", 3, 4, np.random.default_rng(0))
        with pytest.raises(UnknownCellKind):
            nn.SequenceTrunk("mamba", 3, 4, 1, 1, np.random.default_rng(0))

    def test_one_list_of_cell_kinds(self):
        # make_cell's table names the kinds; the fused scan must take exactly those
        assert tuple(tz._SCANS) == nn.CELL_KINDS == ("rnn", "gru", "lstm")
        with pytest.raises(UnknownCellKind) as err:
            nn.make_cell("conv", 3, 4, np.random.default_rng(0))
        assert str(err.value) == "unknown cell kind 'conv'; expected one of ('rnn', 'gru', 'lstm')"

    def test_gru_saturated_update_gate_keeps_state(self):
        rng = np.random.default_rng(6)
        cell = nn.make_cell("gru", 3, 4, rng)
        cell.bias.data[:, :4] = 50.0  # the update gate's columns
        h = Tensor(rng.normal(size=(1, 4)))
        (h_new,) = cell.step(Tensor(rng.normal(size=(1, 3))), (h,))
        assert np.allclose(h_new.data, h.data, atol=1e-9)

    def test_every_cell_holds_one_weight_triple(self):
        # one (wx, wh, bias) layout for every kind: k gate blocks of the state width
        gates = {"rnn": 1, "gru": 3, "lstm": 4}
        assert tuple(gates) == tuple(nn.CELLS)
        for kind, cls in nn.CELLS.items():
            width = gates[kind] * 5
            cell = cls(3, 5, np.random.default_rng(0))
            shapes = [(name, p.data.shape) for name, p in cell.named_parameters()]
            assert shapes == [("wx", (3, width)), ("wh", (5, width)), ("bias", (1, width))]
            assert tz._SCANS[kind][1] == gates[kind]

    def test_gru_blocks_are_the_per_gate_draws(self):
        # the update, reset and candidate pairs come from the generator in
        # turn, the numbers each gate drew when it held its own arrays
        cell = nn.GRUCell(3, 4, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        for gate in range(3):
            cols = slice(4 * gate, 4 * (gate + 1))
            assert same_bits(cell.wx.data[:, cols], nn.uniform_init(rng, 3, (3, 4)))
            assert same_bits(cell.wh.data[:, cols], nn.uniform_init(rng, 4, (4, 4)))
        assert np.array_equal(cell.bias.data, np.zeros((1, 12)))

    def test_lstm_state_is_pair(self):
        cell = nn.make_cell("lstm", 2, 3, np.random.default_rng(7))
        state = zero_state(cell)
        assert len(state) == 2
        state = cell.step(Tensor(np.ones((1, 2))), state)
        assert state[0].data.shape == (1, 3)
        assert state[1].data.shape == (1, 3)


class TestSequenceTrunk:
    @pytest.mark.parametrize("kind", ["transformer", "rnn", "gru", "lstm"])
    def test_trunk_maps_sequence_and_backprops(self, kind):
        rng = np.random.default_rng(8)
        trunk = nn.SequenceTrunk(kind, 3, 4, 1, 2, rng)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        out = trunk(x, 5)
        assert out.data.shape == (5, 4)
        check_gradients(lambda: tz.mean_all(tz.square(trunk(x, 5))), [x] + trunk.parameters(), tol=1e-4)


def zero_state(cell, batch: int = 1) -> tuple[Tensor, ...]:
    """The zero state a trunk's scan starts from: (batch, dim) hidden rows,
    and an LSTM's cell rows beside them. Every cell's second parameter is
    its recurrent weight, whose rows are the state width."""
    dim = cell.parameters()[1].data.shape[0]
    return tuple(Tensor(np.zeros((batch, dim))) for _ in range(2 if isinstance(cell, nn.LSTMCell) else 1))


def composite_unroll(cell, x: Tensor, steps: int) -> Tensor:
    """The per-step reference the scan must reproduce: strided_rows of step
    t into cell.step, hidden rows returned step-major, (T*B, d)."""
    state = zero_state(cell, x.data.shape[0] // steps)
    hidden = []
    for t in range(steps):
        state = cell.step(tz.strided_rows(x, t, steps), state)
        hidden.append(state[0])
    return tz.concat_rows(hidden)


def step_major(a: np.ndarray, steps: int) -> np.ndarray:
    """Sequence-major (B*T, d) rows reordered step-major, (T*B, d)."""
    rows, width = a.shape
    return a.reshape(rows // steps, steps, width).transpose(1, 0, 2).reshape(rows, width)


class TestRecurrentScan:
    IN, DIM = 6, 8

    def cell_and_input(self, kind, batch, steps, seed):
        rng = np.random.default_rng(seed)
        cell = nn.make_cell(kind, self.IN, self.DIM, rng)
        for p in cell.parameters():  # move the zero biases off their init too
            p.data += rng.normal(scale=0.3, size=p.data.shape)
        x = Tensor(rng.normal(size=(batch * steps, self.IN)), requires_grad=True)
        return rng, cell, x

    @pytest.mark.parametrize("steps", [1, 5, 20])
    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("kind", nn.CELL_KINDS)
    def test_forward_is_the_per_step_composite_bit_for_bit(self, kind, batch, steps):
        _, cell, x = self.cell_and_input(kind, batch, steps, seed=batch * 100 + steps)
        scanned = tz.recurrent_scan(kind, x, cell.parameters(), steps).data
        assert np.array_equal(step_major(scanned, steps), composite_unroll(cell, x, steps).data)

    @pytest.mark.parametrize("steps", [1, 5, 20])
    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("kind", nn.CELL_KINDS)
    def test_gradients_match_the_per_step_composite(self, kind, batch, steps):
        rng, cell, x = self.cell_and_input(kind, batch, steps, seed=batch * 100 + steps + 1)
        weight = rng.normal(size=(batch * steps, self.DIM))
        params = [x] + cell.parameters()

        def grads(out, w):
            for p in params:
                p.grad = None
            tz.sum_all(tz.mul(tz.square(out), Tensor(w))).backward()
            return [p.grad for p in params]

        fused = grads(tz.recurrent_scan(kind, x, cell.parameters(), steps), weight)
        composite = grads(composite_unroll(cell, x, steps), step_major(weight, steps))
        for got, want in zip(fused, composite):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", nn.CELL_KINDS)
    def test_trunk_is_one_scan_node_equal_to_the_composite(self, kind):
        rng = np.random.default_rng(10)
        trunk = nn.SequenceTrunk(kind, 5, 64, 1, 1, rng)
        x = Tensor(rng.normal(size=(16 * 20, 5)))
        out = trunk(x, 20)
        assert len(out._parents) == 1 + len(trunk.cell.parameters())
        assert np.array_equal(step_major(out.data, 20), composite_unroll(trunk.cell, trunk.embed(x), 20).data)


def data_rebinders():
    """module:qualified.function of every statement in the package that
    binds an attribute named data (x.data = ..., x.data += ...)."""
    found = set()

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, f"{where}.{child.name}" if where else child.name)
            else:
                if isinstance(child, ast.Attribute) and child.attr == "data" and isinstance(child.ctx, ast.Store):
                    found.add(f"{module}:{where}")
                visit(child, module, where)

    for path in Path(nn.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


class TestOneParameterStore:
    def test_packing_keeps_values_and_backs_every_parameter(self):
        model = pl.VisionPipeline(TINY, np.random.default_rng(0))
        before = [p.data.copy() for p in model.parameters()]
        opt = nn.Adam(model.parameters())
        assert opt.store.size == model.parameter_count()
        for p, want in zip(model.parameters(), before, strict=True):
            assert same_bits(p.data, want) and np.shares_memory(p.data, opt.store)
        assert same_bits(opt.store, np.concatenate(before, axis=None))

    def test_a_second_adam_repacks_and_the_first_stops_backing(self):
        model = pl.VisionPipeline(TINY, np.random.default_rng(0))
        first = nn.Adam(model.parameters())
        second = nn.Adam(model.parameters())
        assert all(np.shares_memory(p.data, second.store) for p in model.parameters())
        assert not any(np.shares_memory(p.data, first.store) for p in model.parameters())

    def test_only_the_constructors_and_the_optimizer_rebind_data(self):
        # every other writer copies into the array it finds (p.data[...] =),
        # so a packed parameter stays a view of its optimizer's store
        assert data_rebinders() == {"tensor:Tensor.__init__", "tensor:_node", "nn:Adam.__init__"}


class TestAdam:
    def test_first_step_is_minus_lr(self):
        # bias correction makes the first step exactly lr * g/(|g| + eps)
        p = Tensor(np.array([[1.0]]), requires_grad=True)
        opt = nn.Adam([p], lr=0.1)
        p.grad = np.array([[1.0]])
        opt.step()
        assert abs((p.data[0, 0] - 1.0) + 0.1) < 1e-9
        assert p.grad is None

    def test_two_steps_match_hand_formula(self):
        p = Tensor(np.array([[0.5, -0.25]]), requires_grad=True)
        opt = nn.Adam([p], lr=0.01)
        grads = [np.array([[1.0, -2.0]]), np.array([[0.5, 0.5]])]
        expect = p.data.copy()
        m = np.zeros((1, 2))
        v = np.zeros((1, 2))
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            expect = expect - 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        for g in grads:
            p.grad = g.copy()
            opt.step()
        assert np.allclose(p.data, expect, atol=1e-15)

    def test_in_place_step_is_the_formula_bit_for_bit(self):
        """Ten steps on random gradients against the update written as
        fresh arrays."""
        rng = np.random.default_rng(13)
        model = pl.VisionPipeline(TINY, np.random.default_rng(0))
        opt = nn.Adam(model.parameters(), lr=1e-2)
        want = [p.data.copy() for p in model.parameters()]
        m = [np.zeros_like(p) for p in want]
        v = [np.zeros_like(p) for p in want]
        b1, b2, eps, lr = nn.Adam.BETA1, nn.Adam.BETA2, nn.Adam.EPS, 1e-2
        for t in range(1, 11):
            for i, p in enumerate(model.parameters()):
                g = rng.normal(size=p.data.shape)
                g[rng.random(g.shape) < 0.2] = 0.0
                p.grad = g
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
                want[i] = want[i] - lr * (m[i] / (1.0 - b1**t)) / (np.sqrt(v[i] / (1.0 - b2**t)) + eps)
            opt.step()
            for p, w, got_m, got_v, want_m, want_v in zip(model.parameters(), want, opt.m, opt.v, m, v, strict=True):
                assert same_bits(p.data, w) and same_bits(got_m, want_m) and same_bits(got_v, want_v)

    def test_zero_gradient_is_fixed_point(self):
        p = Tensor(np.array([[2.0, 3.0]]), requires_grad=True)
        opt = nn.Adam([p], lr=0.5)
        p.grad = np.zeros((1, 2))
        opt.step()
        assert np.array_equal(p.data, np.array([[2.0, 3.0]]))

    def test_missing_gradient_rejected(self):
        p = Tensor(np.array([[1.0]]), requires_grad=True)
        opt = nn.Adam([p])
        with pytest.raises(MissingGradient):
            opt.step()

    def test_step_descends_quadratic(self):
        rng = np.random.default_rng(9)
        p = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        target = rng.normal(size=(1, 4))
        opt = nn.Adam([p], lr=0.05)
        losses = []
        for _ in range(200):
            loss = tz.mse_loss(p, Tensor(target))
            losses.append(loss.item())
            loss.backward()
            opt.step()
        assert losses[-1] < 1e-3
        assert losses[-1] < losses[0]
