"""Baselines: the method factory, gradient flow in each family, classical
filter correctness against closed-form behavior, and oracle projections."""

import numpy as np
import pytest

from blindtrack import baselines as bl
from blindtrack import geometry as geo
from blindtrack import pipeline as pl
from blindtrack import simulator as sim
from blindtrack.config import ModelConfig, TrainConfig
from blindtrack.errors import ConfigError, TooShort

from test_pipeline import TINY, assert_batch_matches_scene_mean, tiny_scenes
from util_grad import check_gradients


class TestFactory:
    def test_all_method_names_construct(self):
        for name in bl.method_names():
            if name in bl.REFERENCE_METHODS:
                model = bl.make_reference(name)
            else:
                model = bl.make_model(name, TINY, np.random.default_rng(0))
            assert model.name == name

    def test_full_is_plus_vpd_transformer(self):
        a = bl.make_model("full", TINY, np.random.default_rng(1))
        b = bl.make_model("plus_vpd:transformer", TINY, np.random.default_rng(1))
        named_a = dict(a.named_parameters())
        named_b = dict(b.named_parameters())
        assert named_a.keys() == named_b.keys()
        for name in named_a:
            assert np.array_equal(named_a[name].data, named_b[name].data)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            bl.make_model("triple_stage:gru", TINY, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            bl.make_model("direct:cnn", TINY, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            bl.make_reference("oracle")


class TestLearnedBaselines:
    @pytest.mark.parametrize("family", ["direct", "two_stage", "plus_vpd"])
    @pytest.mark.parametrize("kind", ["transformer", "gru"])
    def test_forward_shapes_and_losses(self, family, kind):
        model = bl.make_model(f"{family}:{kind}", TINY, np.random.default_rng(2))
        scene = tiny_scenes(1)[0]
        visual, future = model.forward(scene)
        assert visual.data.shape == (scene.t_obs, 2)
        assert future.data.shape == (scene.t_pred, 2)
        loss_d, loss_p = model.loss_terms(scene)
        assert np.isfinite(loss_d.item()) and np.isfinite(loss_p.item())

    @pytest.mark.parametrize(
        "name",
        ["direct:transformer"] + [f"{family}:{kind}" for family in ("two_stage", "plus_vpd") for kind in ("rnn", "gru", "lstm")],
    )
    def test_batch_loss_and_gradients_equal_the_scene_mean(self, name):
        model = bl.make_model(name, TINY, np.random.default_rng(6))
        assert_batch_matches_scene_mean(model, tiny_scenes(4, noise="default"))

    @pytest.mark.parametrize("name", ["direct:gru", "two_stage:lstm"])
    def test_predict_equals_the_scenes_rows_of_a_batched_forward(self, name):
        scenes = tiny_scenes(3, noise="default")
        model = bl.make_model(name, TINY, np.random.default_rng(7))
        visual, future = model.forward(scenes)
        t_obs, t_pred = scenes[0].t_obs, TINY.t_pred
        batch_v, batch_f = model.predict(scenes)
        assert batch_v.shape == (3, t_obs, 2) and batch_f.shape == (3, t_pred, 2)
        assert np.array_equal(batch_v.reshape(-1, 2), visual.data)
        assert np.array_equal(batch_f.reshape(-1, 2), future.data)
        for i, scene in enumerate(scenes):
            got_v, got_f = model.predict(scene)
            assert np.allclose(got_v, batch_v[i], rtol=1e-12, atol=1e-9)
            assert np.allclose(got_f, batch_f[i], rtol=1e-12, atol=1e-9)

    def test_direct_baseline_gradients(self):
        cfg = ModelConfig(t_pred=2, width=6, layers=1, heads=1)
        model = bl.make_model("direct:rnn", cfg, np.random.default_rng(3))
        scene = tiny_scenes(1, t_obs=4, t_pred=2)[0]

        def build():
            from blindtrack.tensor import add

            loss_d, loss_p = model.loss_terms(scene)
            return add(loss_d, loss_p)

        check_gradients(build, model.parameters(), tol=1e-3)

    def test_baselines_ignore_visible_agents(self):
        # direct and two_stage read only the hidden sensor track
        import copy

        scene = tiny_scenes(1, noise="hard")[0]
        for name in ("direct:gru", "two_stage:lstm"):
            model = bl.make_model(name, TINY, np.random.default_rng(4))
            base = model.predict(scene)
            tampered = copy.deepcopy(scene)
            in_sight = np.arange(len(tampered.agent_ids)) != tampered.hidden
            tampered.pixel[in_sight] = 0.0
            tampered.sensor[in_sight] = 0.0
            got = model.predict(tampered)
            assert np.array_equal(base[0], got[0]) and np.array_equal(base[1], got[1])

    def test_trainable_with_shared_trainer(self):
        scenes = tiny_scenes(4, noise="default")
        model = bl.make_model("two_stage:gru", TINY, np.random.default_rng(5))
        tcfg = TrainConfig(epochs=4, batch_size=2, lr=1e-3, seed=0)
        result = pl.train_model(model, scenes, [], tcfg)
        assert len(result.history) == 4


class TestConstVelocity:
    def test_hand_worked_extrapolation(self):
        track = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        out = bl.const_velocity_extrapolate(track, 2, dt=0.1)
        assert np.allclose(out, [[2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])

    def test_tail_averages_recent_motion(self):
        # velocity estimated from displacement over the last `tail` steps
        steps = np.vstack([np.zeros((1, 3)), np.cumsum(np.tile([0.2, 0.0, 0.0], (10, 1)), axis=0)])
        out = bl.const_velocity_extrapolate(steps, 1, dt=0.1, tail=5)
        assert np.allclose(out[0], steps[-1] + [0.2, 0.0, 0.0])

    def test_single_point_rejected(self):
        with pytest.raises(TooShort):
            bl.const_velocity_extrapolate(np.zeros((1, 3)), 3)


class TestSmoother:
    def test_clean_input_with_zero_noise_config_is_identity(self):
        t = np.arange(30)[:, None] * 0.1
        track = np.hstack([1.0 + 0.7 * t, 2.0 - 0.3 * t, np.ones_like(t)])
        smoothed, velocity = bl.rts_smooth(track, meas_var=0.0, process_var=0.5)
        assert np.max(np.abs(smoothed - track)) < 1e-6

    def test_velocity_recovered_on_straight_line(self):
        t = np.arange(50)[:, None] * 0.1
        track = np.hstack([0.5 * t, -0.2 * t, np.zeros_like(t)])
        _, velocity = bl.rts_smooth(track, meas_var=1e-4, process_var=0.1)
        assert np.allclose(velocity[25], [0.5, -0.2, 0.0], atol=1e-2)

    def test_smoothing_reduces_white_noise(self):
        rng = np.random.default_rng(0)
        t = np.arange(40)[:, None] * 0.1
        clean = np.hstack([1.0 * t, 16.0 + 0.5 * t, np.ones_like(t)])
        gains = []
        for _ in range(10):
            noisy = clean + rng.normal(0.0, 2.0, clean.shape)
            smoothed, _ = bl.rts_smooth(noisy, meas_var=4.0, process_var=0.5)
            raw_err = np.linalg.norm(noisy - clean, axis=1).mean()
            smooth_err = np.linalg.norm(smoothed - clean, axis=1).mean()
            gains.append(raw_err / smooth_err)
        assert np.mean(gains) > 1.5

    def test_too_short_rejected(self):
        with pytest.raises(TooShort):
            bl.rts_smooth(np.zeros((1, 3)))

    @pytest.mark.parametrize("meas_var", [0.0, 4.0])
    @pytest.mark.parametrize("steps", [2, 20, 100])
    def test_cached_gains_give_the_per_call_recursion_bit_for_bit(self, steps, meas_var):
        rng = np.random.default_rng(steps)
        t = np.arange(steps)[:, None] * sim.DT
        for columns in range(1, 49):
            z = 3.0 * t * rng.normal(size=columns) + rng.normal(scale=2.0, size=(steps, columns))
            got = bl.rts_smooth(z, meas_var=meas_var)
            want = reference_rts_smooth(z, meas_var=meas_var)
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b), columns

    def test_cached_gains_are_read_only(self):
        bl.rts_smooth(np.zeros((5, 2)))
        for arr in bl._smoother_gains(5, sim.DT, 0.5, 4.0):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


def reference_rts_smooth(z, dt=sim.DT, process_var=0.5, meas_var=4.0):
    """rts_smooth with the covariance recursion run on every call, as first
    written."""
    steps, dims = z.shape
    f = np.array([[1.0, dt], [0.0, 1.0]])
    q = process_var * np.array([[dt**4 / 4.0, dt**3 / 2.0], [dt**3 / 2.0, dt**2]])
    x = np.zeros((2, dims))
    x[0] = z[0]
    p = np.diag([max(meas_var, 1e-9), 25.0])
    filtered_x = np.zeros((steps, 2, dims))
    filtered_p = np.zeros((steps, 2, 2))
    predicted_x = np.zeros((steps, 2, dims))
    predicted_p = np.zeros((steps, 2, 2))
    predicted_x[0] = x
    predicted_p[0] = p
    for t in range(steps):
        if t > 0:
            x = f @ x
            p = f @ p @ f.T + q
            predicted_x[t] = x
            predicted_p[t] = p
        innovation = z[t] - x[0]
        s = p[0, 0] + meas_var
        gain = p[:, 0] / max(s, 1e-12)
        x = x + gain[:, None] * innovation[None, :]
        p = p - np.outer(gain, p[0, :])
        filtered_x[t] = x
        filtered_p[t] = p
    smooth_x = filtered_x.copy()
    for t in range(steps - 2, -1, -1):
        c = filtered_p[t] @ f.T @ np.linalg.inv(predicted_p[t + 1])
        smooth_x[t] = filtered_x[t] + c @ (smooth_x[t + 1] - predicted_x[t + 1])
    return smooth_x[:, 0, :], smooth_x[:, 1, :]


class TestOracles:
    def test_clamped_project_matches_reference_when_safe(self):
        scene = tiny_scenes(1)[0]
        sensor = scene.sensor[scene.hidden]
        got = geo.clamped_project(scene.camera[: scene.t_obs], sensor)
        want = geo.project_trajectory(scene.camera[: scene.t_obs], sensor)
        assert np.allclose(got, want, atol=1e-12)
        behind = geo.clamped_project(scene.camera[:1], np.array([[0.0, -50.0, 1.0]]))
        assert np.all(np.isfinite(behind))

    def test_const_velocity_oracle_near_truth_on_clean_scene(self):
        scene = tiny_scenes(1, noise="clean", t_obs=10, t_pred=3)[0]
        pixel = scene.pixel[scene.hidden]
        visual, future = bl.ConstVelocityOracle().predict(scene)
        assert visual.shape == (10, 2) and future.shape == (3, 2)
        # clean sensor equals world, so the observed window is exact up to
        # the half-pixel rasterization of the targets
        err = np.abs(visual - pixel[:10]).max()
        assert err <= 0.5 + 1e-9

    @pytest.mark.parametrize("name", bl.REFERENCE_METHODS)
    def test_batch_predict_equals_each_scenes_predict_bit_for_bit(self, name):
        reference = bl.make_reference(name)
        scenes = tiny_scenes(5, noise="hard", t_obs=12, t_pred=4)
        visual, future = reference.predict(scenes)
        assert visual.shape == (5, 12, 2) and future.shape == (5, 4, 2)
        for i, scene in enumerate(scenes):
            got_v, got_f = reference.predict(scene)
            assert np.array_equal(got_v, visual[i]) and np.array_equal(got_f, future[i])

    def test_smoother_oracle_shapes(self):
        scene = tiny_scenes(1, noise="default", t_obs=8, t_pred=4)[0]
        visual, future = bl.SmootherOracle().predict(scene)
        assert visual.shape == (8, 2) and future.shape == (4, 2)
        assert np.all(np.isfinite(visual)) and np.all(np.isfinite(future))
