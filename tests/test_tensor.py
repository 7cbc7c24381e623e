"""Autodiff engine: forward values against brute-force oracles, gradients
against central finite differences, and the graph/shape contracts."""

import inspect

import numpy as np
import pytest

from blindtrack import tensor as tz
from blindtrack.errors import NotScalar, ShapeMismatch, UnknownCellKind
from blindtrack.tensor import Tensor

from util_grad import check_gradients


def loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


def direct_softmax(a: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    for i in range(a.shape[0]):
        e = np.exp(a[i] - a[i].max())
        out[i] = e / e.sum()
    return out


class TestForward:
    def test_matmul_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(4, 2))
            got = tz.matmul(Tensor(a), Tensor(b)).data
            assert np.allclose(got, loop_matmul(a, b), atol=1e-12)

    def test_softmax_matches_direct_oracle_and_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        a = rng.normal(scale=5.0, size=(6, 7))
        got = tz.softmax_rows(Tensor(a)).data
        assert np.allclose(got, direct_softmax(a), atol=1e-12)
        assert np.allclose(got.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(got >= 0.0)

    def test_softmax_stable_for_large_inputs(self):
        a = np.array([[1000.0, 1000.0, 999.0]])
        got = tz.softmax_rows(Tensor(a)).data
        assert np.all(np.isfinite(got))
        assert abs(got.sum() - 1.0) < 1e-12

    def test_layer_norm_rows_standardized(self):
        rng = np.random.default_rng(2)
        x = rng.normal(loc=3.0, scale=2.0, size=(5, 8))
        gain = Tensor(np.ones((1, 8)))
        shift = Tensor(np.zeros((1, 8)))
        out = tz.layer_norm(Tensor(x), gain, shift).data
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-10)
        assert np.allclose(out.var(axis=1), 1.0, atol=1e-3)

    def test_scalar_and_vector_promotion(self):
        assert Tensor(2.5).data.shape == (1, 1)
        assert Tensor([1.0, 2.0, 3.0]).data.shape == (1, 3)
        with pytest.raises(ShapeMismatch):
            Tensor(np.zeros((2, 2, 2)))

    def test_slice_concat_round_trip(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        t = Tensor(x)
        rows = tz.concat_rows([tz.slice_rows(t, 0, 2), tz.slice_rows(t, 2, 4)])
        cols = tz.concat_cols([tz.slice_cols(t, 0, 3), tz.slice_cols(t, 3, 6)])
        assert np.array_equal(rows.data, x)
        assert np.array_equal(cols.data, x)

    def test_reshape_is_row_major(self):
        x = np.arange(6.0).reshape(2, 3)
        out = tz.reshape(Tensor(x), 3, 2).data
        assert np.array_equal(out, np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]))

    def test_clamp_away_from_zero(self):
        x = Tensor(np.array([[0.5, -0.5, 1e-9, -1e-9, 0.0]]))
        out = tz.clamp_away_from_zero(x, 1e-6).data
        assert np.array_equal(out, np.array([[0.5, -0.5, 1e-6, -1e-6, 1e-6]]))

    def test_mse_loss_value(self):
        pred = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        target = Tensor(np.array([[0.0, 0.0], [0.0, 0.0]]))
        # (1 + 4 + 9 + 16) / 4
        assert tz.mse_loss(pred, target).item() == pytest.approx(7.5, abs=1e-12)

    def test_deterministic_reruns_bitwise(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        one = tz.softmax_rows(tz.matmul(Tensor(a), Tensor(b))).data
        two = tz.softmax_rows(tz.matmul(Tensor(a), Tensor(b))).data
        assert np.array_equal(one, two)


class TestShapeContracts:
    def test_add_rejects_general_broadcast(self):
        with pytest.raises(ShapeMismatch):
            tz.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 1))))
        with pytest.raises(ShapeMismatch):
            tz.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))))

    def test_add_allows_bias_row(self):
        out = tz.add(Tensor(np.zeros((4, 3))), Tensor(np.array([[1.0, 2.0, 3.0]])))
        assert np.array_equal(out.data, np.tile([1.0, 2.0, 3.0], (4, 1)))

    def test_matmul_inner_dim_checked(self):
        with pytest.raises(ShapeMismatch):
            tz.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_mul_requires_exact_shapes(self):
        with pytest.raises(ShapeMismatch):
            tz.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3))))

    def test_backward_requires_scalar(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(NotScalar):
            (t + t).backward()

    def test_constant_graph_is_pruned(self):
        out = tz.matmul(Tensor(np.eye(2)), Tensor(np.eye(2)))
        assert out._parents == ()
        assert not out.requires_grad


class TestBackward:
    def test_every_primitive_gradient(self):
        # one loss per primitive, checked on several random instances
        rng = np.random.default_rng(5)
        for trial in range(3):
            a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
            d = Tensor(rng.normal(size=(3, 4)) + 3.0, requires_grad=True)
            cases = [
                (lambda: tz.sum_all(tz.add(a, b)), [a, b]),
                (lambda: tz.sum_all(tz.sub(a, b)), [a, b]),
                (lambda: tz.mean_all(tz.mul(a, b)), [a, b]),
                (lambda: tz.mean_all(tz.div(a, d)), [a, d]),
                (lambda: tz.sum_all(tz.square(tz.matmul(a, w))), [a, w]),
                (lambda: tz.sum_all(tz.square(tz.transpose(a))), [a]),
                (lambda: tz.sum_all(tz.exp(tz.scale(a, 0.3))), [a]),
                (lambda: tz.sum_all(tz.tanh(a)), [a]),
                (lambda: tz.sum_all(tz.sigmoid(a)), [a]),
                (lambda: tz.sum_all(tz.square(tz.relu(a))), [a]),
                (lambda: tz.sum_all(tz.square(tz.softmax_rows(a))), [a]),
                (lambda: tz.mean_all(tz.square(tz.reshape(a, 4, 3))), [a]),
                (lambda: tz.sum_all(tz.square(tz.slice_rows(a, 1, 3))), [a]),
                (lambda: tz.sum_all(tz.square(tz.slice_cols(a, 0, 2))), [a]),
                (lambda: tz.sum_all(tz.square(tz.concat_rows([a, b]))), [a, b]),
                (lambda: tz.sum_all(tz.square(tz.concat_cols([a, b]))), [a, b]),
                (lambda: tz.sum_all(tz.square(tz.row_sum(a))), [a]),
                (lambda: tz.sum_all(tz.square(tz.mean_rows(a, 3))), [a]),
                (lambda: tz.mean_all(tz.square(tz.tile_rows(tz.mean_rows(a, 3), 5))), [a]),
                (lambda: tz.mse_loss(a, b), [a, b]),
                (lambda: tz.sum_all(tz.col_scale(a, [1.0, -2.0, 0.5, 3.0])), [a]),
            ]
            for build, params in cases:
                check_gradients(build, params, tol=1e-4)

    def test_relu_gradient_away_from_kink(self):
        x = Tensor(np.array([[1.0, -1.0, 2.0]]), requires_grad=True)
        check_gradients(lambda: tz.sum_all(tz.relu(x)), [x], tol=1e-6)

    def test_clamp_masks_gradient(self):
        x = Tensor(np.array([[0.5, 1e-9, -0.25]]), requires_grad=True)
        out = tz.sum_all(tz.clamp_away_from_zero(x, 1e-6))
        out.backward()
        assert np.array_equal(x.grad, np.array([[1.0, 0.0, 1.0]]))

    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        gain = Tensor(rng.normal(size=(1, 5)), requires_grad=True)
        shift = Tensor(rng.normal(size=(1, 5)), requires_grad=True)
        check_gradients(
            lambda: tz.sum_all(tz.square(tz.layer_norm(x, gain, shift))),
            [x, gain, shift],
            tol=1e-4,
        )

    def test_attention_gradient(self):
        rng = np.random.default_rng(7)
        q = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        v = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        check_gradients(
            lambda: tz.sum_all(tz.square(tz.attention_block(q, k, v, 4))),
            [q, k, v],
            tol=1e-4,
        )

    def test_shared_node_counted_once(self):
        # diamond: s feeds the loss twice; double-visiting would double part
        # of the gradient
        x = Tensor(np.array([[2.0, -1.0]]), requires_grad=True)
        w = Tensor(np.array([[1.0, 0.5], [-0.5, 2.0]]), requires_grad=True)

        def build():
            s = tz.matmul(x, w)
            return tz.add(tz.sum_all(tz.mul(s, s)), tz.sum_all(s))

        check_gradients(build, [x, w], tol=1e-6)

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.array([[3.0]]), requires_grad=True)
        loss = tz.sum_all(tz.square(x))
        loss.backward()
        first = x.grad.copy()
        loss.backward()
        assert np.array_equal(x.grad, 2.0 * first)
        assert first[0, 0] == pytest.approx(6.0, abs=1e-12)

    def test_long_chain_does_not_recurse(self):
        # deeper than the default Python recursion limit
        x = Tensor(np.array([[1.0]]), requires_grad=True)
        y = x
        for _ in range(3000):
            y = tz.scale(y, 1.0)
        tz.sum_all(y).backward()
        assert x.grad[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_grad_populated_on_intermediates(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        mid = tz.square(x)
        tz.sum_all(mid).backward()
        assert mid.grad is not None
        assert np.array_equal(mid.grad, np.ones((1, 2)))

    def test_each_leaf_grad_is_its_own_array(self):
        # add hands the same cotangent to both parents; each leaf must
        # still own its gradient
        a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        b = Tensor(np.array([[3.0, 4.0]]), requires_grad=True)
        tz.sum_all(tz.add(a, b)).backward()
        a.grad[0, 0] = 7.0
        assert np.array_equal(b.grad, np.ones((1, 2)))


def composite_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One head of attention from the unfused primitives."""
    scores = tz.scale(tz.matmul(Tensor(q), tz.transpose(Tensor(k))), 1.0 / np.sqrt(q.shape[1]))
    return tz.matmul(tz.softmax_rows(scores), Tensor(v)).data


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal bit patterns: unlike np.array_equal, -0.0 and
    +0.0 differ, and NaN equals a NaN of the same payload."""
    a, b = np.ascontiguousarray(a, dtype=np.float64), np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# The kernels below as first written, one fresh array per step. The
# in-place kernels in tensor must give their bits exactly.


def reference_attention(q, k, v, segment, heads):
    """attention_block's forward value and backward, (out, back)."""
    m, d = q.shape
    e = v.shape[1]
    batch, dh, eh = m // segment, d // heads, e // heads
    factor = 1.0 / np.sqrt(dh)

    def split(x, width):
        return x.reshape(batch, segment, heads, width).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(m, -1)

    qh, kh, vh = split(q, dh), split(k, dh), split(v, eh)
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

    return merge(weights @ vh), back


def reference_layer_norm(x, gain, shift, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = xhat * gain + shift

    def back(g):
        dxhat = g * gain
        dx = inv_std * (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        )
        return (dx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True))

    return out, back


def reference_relu(x):
    mask = x > 0.0
    return np.where(mask, x, 0.0), lambda g: (g * mask,)


class TestKernelBits:
    """attention_block, layer_norm and relu against their reference
    formulas: forward values and every backward cotangent bit for bit; a
    second backward call gives the same arrays; inputs and the cotangent
    are left as they were."""

    @staticmethod
    def check(node, inputs, want, want_back, g):
        before = [x.data.copy() for x in inputs]
        g_before = g.copy()
        assert same_bits(node.data, want)
        first = node._backward(g)
        second = node._backward(g)
        for got, again, expected in zip(first, second, want_back(g), strict=True):
            assert same_bits(got, expected)
            assert same_bits(again, expected)
        assert same_bits(g, g_before)
        for x, b in zip(inputs, before):
            assert same_bits(x.data, b)

    @pytest.mark.parametrize("batch, heads, steps", [(1, 1, 4), (3, 2, 5), (2, 4, 20), (2, 2, 100)])
    def test_attention(self, batch, heads, steps):
        rng = np.random.default_rng(steps * 10 + heads)
        width = 3 * heads  # 1/sqrt(3) is inexact, so the order of the scalings shows
        q, k, v = (Tensor(rng.normal(scale=3.0, size=(batch * steps, width)), requires_grad=True) for _ in range(3))
        out = tz.attention_block(q, k, v, steps, heads=heads)
        want, back = reference_attention(q.data, k.data, v.data, steps, heads)
        self.check(out, (q, k, v), want, back, rng.normal(size=out.shape))

    @pytest.mark.parametrize("rows, width", [(1, 2), (5, 8), (320, 64)])
    def test_layer_norm(self, rows, width):
        rng = np.random.default_rng(rows + width)
        x = Tensor(rng.normal(loc=2.0, scale=3.0, size=(rows, width)), requires_grad=True)
        gain = Tensor(rng.normal(size=(1, width)), requires_grad=True)
        shift = Tensor(rng.normal(size=(1, width)), requires_grad=True)
        out = tz.layer_norm(x, gain, shift)
        want, back = reference_layer_norm(x.data, gain.data, shift.data)
        self.check(out, (x, gain, shift), want, back, rng.normal(size=out.shape))

    def test_relu_on_special_values(self):
        specials = [np.nan, -0.0, 0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0, 2.5e-308, -1e300]
        rng = np.random.default_rng(30)
        x = Tensor(np.concatenate([np.array([specials]), rng.normal(size=(4, len(specials)))]), requires_grad=True)
        out = tz.relu(x)
        want, back = reference_relu(x.data)
        # a negative cotangent makes masked entries -0.0
        self.check(out, (x,), want, back, rng.normal(size=out.shape))
        assert np.signbit(out.data).sum() == 0


# The transformer sublayers as the composites of primitive nodes they
# replace: the fused ops must give their values and cotangents exactly.


def composite_linear(x, w, b):
    return tz.add(tz.matmul(x, w), b)


def composite_attention_layer(x, wq, bq, wk, bk, wv, bv, wo, bo, segment, heads):
    q, k, v = composite_linear(x, wq, bq), composite_linear(x, wk, bk), composite_linear(x, wv, bv)
    return composite_linear(tz.attention_block(q, k, v, segment, heads=heads), wo, bo)


def composite_feed_forward(x, w1, b1, w2, b2):
    return composite_linear(tz.relu(composite_linear(x, w1, b1)), w2, b2)


def affine_params(rng, widths) -> list[Tensor]:
    """(w, b) per consecutive pair of widths, biases off zero."""
    return [
        Tensor(rng.normal(scale=scale, size=(rows, cols)), requires_grad=True)
        for n, p in zip(widths[:-1], widths[1:])
        for rows, cols, scale in ((n, p, 1.0 / np.sqrt(n)), (1, p, 0.3))
    ]


class TestFusedSublayers:
    """linear, attention_layer and feed_forward against the composites
    above: forward values, the input's and every parameter's gradient,
    bit for bit."""

    @staticmethod
    def run(build, leaves, weight, calls=1):
        for leaf in leaves:
            leaf.grad = None
        out = build()
        loss = tz.sum_all(tz.mul(out, Tensor(weight)))
        for _ in range(calls):
            loss.backward()
        return out, [leaf.grad for leaf in leaves]

    def check(self, fused, composite, leaves, rng, calls=1):
        weight = rng.normal(size=composite().shape)
        weight[0, 0] = -0.0  # a -0.0 cotangent keeps its sign through add
        got, got_grads = self.run(fused, leaves, weight, calls)
        want, want_grads = self.run(composite, leaves, weight, calls)
        assert same_bits(got.data, want.data)
        for leaf, a, b in zip(leaves, got_grads, want_grads, strict=True):
            assert (a is None) == (b is None) == (not leaf.requires_grad)
            assert a is None or same_bits(a, b)
        return got

    @pytest.mark.parametrize("x_grad", [True, False])
    @pytest.mark.parametrize("rows", [1, 5, 60])
    def test_linear(self, rows, x_grad):
        rng = np.random.default_rng(40 + rows)
        x = Tensor(rng.normal(size=(rows, 7)), requires_grad=x_grad)
        params = affine_params(rng, (7, 5))
        fused = self.check(lambda: tz.linear(x, *params), lambda: composite_linear(x, *params), [x] + params, rng)
        assert fused._parents == (x, *params)

    @pytest.mark.parametrize("steps", [20, 100])
    @pytest.mark.parametrize("segments", [1, 2, 3])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention_layer(self, heads, segments, steps):
        rng = np.random.default_rng(heads * 1000 + segments * 100 + steps)
        width = 12  # 1/sqrt(12 / heads) is inexact for every head count
        x = Tensor(rng.normal(size=(segments * steps, width)), requires_grad=True)
        params = affine_params(rng, (width,) * 5)  # q, k, v and output projections
        self.check(
            lambda: tz.attention_layer(x, *params, steps, heads),
            lambda: composite_attention_layer(x, *params, steps, heads),
            [x] + params,
            rng,
        )

    @pytest.mark.parametrize("rows", [1, 20, 300])
    def test_feed_forward(self, rows):
        rng = np.random.default_rng(50 + rows)
        x = Tensor(rng.normal(size=(rows, 8)), requires_grad=True)
        params = affine_params(rng, (8, 32, 8))
        x.data[0] = 0.0
        params[1].data[0, :16] = 0.0  # hidden entries exactly 0.0 sit on relu's kink
        self.check(
            lambda: tz.feed_forward(x, *params), lambda: composite_feed_forward(x, *params), [x] + params, rng
        )

    def test_repeated_backward_accumulates(self):
        rng = np.random.default_rng(60)
        x = Tensor(rng.normal(size=(40, 8)), requires_grad=True)
        embed, attn, ff = affine_params(rng, (8, 8)), affine_params(rng, (8,) * 5), affine_params(rng, (8, 32, 8))

        def fused():
            return tz.feed_forward(tz.attention_layer(tz.linear(x, *embed), *attn, 20, 2), *ff)

        def composite():
            mixed = composite_attention_layer(composite_linear(x, *embed), *attn, 20, 2)
            return composite_feed_forward(mixed, *ff)

        leaves = [x] + embed + attn + ff
        _, once = self.run(fused, leaves, np.ones((40, 8)))
        self.check(fused, composite, leaves, rng, calls=2)
        _, twice = self.run(fused, leaves, np.ones((40, 8)), calls=2)
        for a, b in zip(once, twice):
            assert same_bits(b, a + a)

    def test_no_grad_keeps_the_bits_and_records_nothing(self):
        rng = np.random.default_rng(61)
        x = Tensor(rng.normal(size=(40, 8)), requires_grad=True)
        attn, ff = affine_params(rng, (8,) * 5), affine_params(rng, (8, 32, 8))
        builds = [
            lambda: tz.linear(x, *ff[:2]),
            lambda: tz.attention_layer(x, *attn, 20, 4),
            lambda: tz.feed_forward(x, *ff),
        ]
        for build in builds:
            with tz.no_grad():
                quiet = build()
            assert quiet._parents == () and quiet._backward is None and not quiet.requires_grad
            assert same_bits(quiet.data, build().data)

    def test_shapes_checked(self):
        rng = np.random.default_rng(62)
        x = Tensor(np.zeros((6, 4)))
        w, b = affine_params(rng, (4, 4))
        wide, wide_b = affine_params(rng, (4, 6))
        narrow, narrow_b = affine_params(rng, (6, 4))
        with pytest.raises(ShapeMismatch):
            tz.linear(x, wide, b)
        with pytest.raises(ShapeMismatch):
            tz.linear(Tensor(np.zeros((6, 3))), w, b)
        with pytest.raises(ShapeMismatch):
            tz.attention_layer(x, w, b, w, b, w, b, narrow, narrow_b, 3, 2)  # wo takes 6-wide rows, the mix is 4-wide
        with pytest.raises(ShapeMismatch):
            tz.attention_layer(x, w, b, wide, wide_b, w, b, w, b, 3, 2)  # keys wider than queries
        with pytest.raises(ShapeMismatch):
            tz.attention_layer(x, w, b, w, b, w, b, w, b, 4, 2)  # 6 rows are no segments of 4
        with pytest.raises(ShapeMismatch):
            tz.feed_forward(x, w, b, narrow, narrow_b)  # w2 takes 6-wide rows, the hidden rows are 4-wide


def scan_params(rng, kind: str, n: int, d: int) -> list[Tensor]:
    """A random (wx, wh, b) for recurrent_scan: n-wide rows, d-wide state."""
    width = {"rnn": d, "gru": 3 * d, "lstm": 4 * d}[kind]
    shapes = ((n, width), (d, width), (1, width))
    return [Tensor(rng.normal(scale=0.5, size=shape), requires_grad=True) for shape in shapes]


class TestRowStackedOps:
    SEGMENTS, STEPS = 3, 4

    def stacked(self, rng, width):
        return Tensor(rng.normal(size=(self.SEGMENTS * self.STEPS, width)), requires_grad=True)

    def test_fused_attention_matches_per_segment_per_head_loop(self):
        rng = np.random.default_rng(20)
        q, k, v = (self.stacked(rng, 6) for _ in range(3))
        for heads in (1, 2, 3):
            got = tz.attention_block(q, k, v, heads=heads, segment=self.STEPS).data
            want = np.zeros_like(got)
            width = 6 // heads
            for b in range(self.SEGMENTS):
                rows = slice(b * self.STEPS, (b + 1) * self.STEPS)
                for h in range(heads):
                    cols = slice(h * width, (h + 1) * width)
                    want[rows, cols] = composite_attention(q.data[rows, cols], k.data[rows, cols], v.data[rows, cols])
            assert np.allclose(got, want, rtol=0.0, atol=1e-14)

    def test_one_head_one_segment_is_the_composite_exactly(self):
        rng = np.random.default_rng(21)
        q, k, v = rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
        got = tz.attention_block(Tensor(q), Tensor(k), Tensor(v), 4).data
        assert np.array_equal(got, composite_attention(q, k, v))

    @pytest.mark.parametrize("heads", [1, 2])
    def test_fused_attention_gradient(self, heads):
        rng = np.random.default_rng(22)
        q, k, v = (self.stacked(rng, 4) for _ in range(3))
        check_gradients(
            lambda: tz.sum_all(tz.square(tz.attention_block(q, k, v, heads=heads, segment=self.STEPS))),
            [q, k, v],
            tol=1e-4,
        )

    def test_segment_pooling(self):
        rng = np.random.default_rng(23)
        x = self.stacked(rng, 3)
        pooled = tz.mean_rows(x, self.STEPS).data
        assert np.allclose(pooled, x.data.reshape(self.SEGMENTS, self.STEPS, 3).mean(axis=1), atol=1e-15)
        check_gradients(lambda: tz.sum_all(tz.square(tz.mean_rows(x, self.STEPS))), [x], tol=1e-4)

    def test_strided_gather(self):
        rng = np.random.default_rng(24)
        x = self.stacked(rng, 3)
        steps = [tz.strided_rows(x, t, self.STEPS) for t in range(self.STEPS)]
        assert np.array_equal(steps[1].data, x.data[[1, 5, 9]])
        weights = [Tensor(rng.normal(size=(self.SEGMENTS, 3))) for _ in range(self.STEPS)]

        def build():
            parts = [tz.mul(tz.strided_rows(x, t, self.STEPS), w) for t, w in enumerate(weights)]
            return tz.sum_all(tz.square(tz.concat_rows(parts)))

        check_gradients(build, [x], tol=1e-4)

    @pytest.mark.parametrize("kind", ["rnn", "gru", "lstm"])
    def test_recurrent_scan_gradient(self, kind):
        rng = np.random.default_rng(27)
        x = self.stacked(rng, 3)
        params = scan_params(rng, kind, 3, 4)
        weight = Tensor(rng.normal(size=(self.SEGMENTS * self.STEPS, 4)))
        check_gradients(
            lambda: tz.sum_all(tz.mul(tz.square(tz.recurrent_scan(kind, x, params, self.STEPS)), weight)),
            [x] + params,
            tol=1e-4,
        )

    def test_tile_rows_repeats_each_row_in_place(self):
        rng = np.random.default_rng(25)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        assert np.array_equal(tz.tile_rows(x, 3).data, x.data[[0, 0, 0, 1, 1, 1]])
        check_gradients(lambda: tz.sum_all(tz.square(tz.tile_rows(x, 3))), [x], tol=1e-4)

    def test_segment_lengths_checked(self):
        x = Tensor(np.zeros((6, 2)))
        with pytest.raises(ShapeMismatch):
            tz.mean_rows(x, 4)
        with pytest.raises(ShapeMismatch):
            tz.strided_rows(x, 4, 4)
        with pytest.raises(ShapeMismatch):
            tz.attention_block(x, x, x, segment=4)
        with pytest.raises(ShapeMismatch):
            tz.attention_block(x, x, x, segment=6, heads=3)
        with pytest.raises(ShapeMismatch):
            tz.attention_block(Tensor(np.zeros((4, 2))), x, x, segment=2)
        with pytest.raises(ShapeMismatch):
            tz.recurrent_scan("rnn", x, scan_params(np.random.default_rng(0), "rnn", 2, 3), 4)

    def test_recurrent_scan_checks_kind_and_weights(self):
        rng = np.random.default_rng(28)
        x = Tensor(np.zeros((6, 2)))
        with pytest.raises(UnknownCellKind):
            tz.recurrent_scan("conv", x, scan_params(rng, "rnn", 2, 3), 3)
        with pytest.raises(ShapeMismatch):
            tz.recurrent_scan("gru", x, scan_params(rng, "rnn", 2, 3), 3)
        with pytest.raises(ShapeMismatch):
            tz.recurrent_scan("lstm", x, scan_params(rng, "rnn", 2, 3), 3)
        with pytest.raises(ShapeMismatch):
            tz.recurrent_scan("rnn", x, scan_params(rng, "rnn", 3, 3), 3)
        with pytest.raises(ShapeMismatch, match="takes 3 parameters"):  # per-gate triples
            tz.recurrent_scan("gru", x, scan_params(rng, "rnn", 2, 3) * 3, 3)

    def test_recurrent_scan_forms_the_input_products_once(self):
        # the unrolls get every step's x_t @ wx already formed, and nothing
        # in the scan concatenates weights or inputs
        unrolls = [unroll for unroll, _ in tz._SCANS.values()]
        for unroll in unrolls:
            assert list(inspect.signature(unroll).parameters) == ["xw", "wh", "b", "h", "keep"]
        source = "".join(inspect.getsource(f) for f in [tz.recurrent_scan, *unrolls])
        assert "concatenate" not in source


class TestNoGrad:
    def test_records_no_graph_and_restores_recording(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        with tz.no_grad():
            y = tz.sum_all(tz.square(x))
        assert y._parents == () and y._backward is None and not y.requires_grad
        assert y.item() == pytest.approx(5.0, abs=1e-12)
        z = tz.sum_all(tz.square(x))
        assert z.requires_grad and z._parents

    def test_values_are_bit_identical(self):
        rng = np.random.default_rng(26)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)

        def build():
            return tz.attention_block(x, x, tz.tanh(x), heads=2, segment=2)

        with tz.no_grad():
            quiet = build().data
        assert np.array_equal(quiet, build().data)

    @pytest.mark.parametrize("kind", ["rnn", "gru", "lstm"])
    def test_recurrent_scan_records_nothing_and_keeps_the_bits(self, kind):
        rng = np.random.default_rng(29)
        x = Tensor(rng.normal(size=(12, 3)), requires_grad=True)
        params = scan_params(rng, kind, 3, 4)
        with tz.no_grad():
            quiet = tz.recurrent_scan(kind, x, params, 4)
        assert quiet._parents == () and quiet._backward is None and not quiet.requires_grad
        assert np.array_equal(quiet.data, tz.recurrent_scan(kind, x, params, 4).data)
