"""Pipeline: projection correctness and invariances, input blindness to the
hidden agent's labels, end-to-end differentiability, and trainer
determinism."""

import copy

import numpy as np
import pytest

from blindtrack import geometry as geo
from blindtrack import pipeline as pl
from blindtrack import simulator as sim
from blindtrack.errors import ConfigError, LengthMismatch, NoInSightAgents, NonFiniteLoss, SchemaError
from blindtrack.nn import Adam
from blindtrack.tensor import Tensor, add, scale

from test_simulator import small_config
from util_grad import check_gradients

TINY = pl.ModelConfig(t_pred=3, width=8, layers=1, heads=2)


def tiny_scenes(count, seed0=0, noise="clean", t_obs=6, t_pred=3):
    cfg = small_config(n_agents=4, t_obs=t_obs, t_pred=t_pred, noise=sim.NoiseModel.preset(noise))
    return [sim.make_scene(cfg, seed0 + i) for i in range(count)]


def without(drop, seed):
    """The tiny pipeline with one stage dropped (None: the full model)."""
    return pl.VisionPipeline(TINY, np.random.default_rng(seed), "full" if drop is None else f"no_{drop}")


def scene_mean_loss(model, scenes):
    """The per-scene reference: the mean over scenes of each scene's
    (denoising + prediction) loss, one graph per scene."""
    total = None
    for scene in scenes:
        term = add(*model.loss_terms(scene))
        total = term if total is None else add(total, term)
    return scale(total, 1.0 / len(scenes))


def assert_batch_matches_scene_mean(model, scenes):
    """loss_terms on the whole batch equals the per-scene mean to 1e-12
    relative, and so do its parameter gradients, to 1e-10."""
    params = model.parameters()
    reference = scene_mean_loss(model, scenes)
    reference.backward()
    want = [p.grad for p in params]
    for p in params:
        p.grad = None
    batched = add(*model.loss_terms(scenes))
    batched.backward()
    got = [p.grad for p in params]
    for p in params:
        p.grad = None
    assert batched.item() == pytest.approx(reference.item(), rel=1e-12)
    # parameters with no true gradient (attention key biases: softmax is
    # shift-invariant) hold rounding residue only, so each parameter is
    # compared on the scale of the largest gradient when its own is tiny
    floor = 1e-6 * max(np.abs(g).max() for g in want)
    for (name, _), a, b in zip(model.named_parameters(), got, want):
        assert np.abs(a - b).max() <= 1e-10 * max(np.abs(b).max(), floor), name


class TestProjectRows:
    def test_matches_reference_projection(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            scene = sim.make_scene(small_config(t_obs=8, t_pred=2), seed)
            hidden = scene.out_of_sight()
            rows = np.stack([geo.camera_to_rows(m) for m in scene.camera[: scene.t_obs]])
            got = pl.project_rows(Tensor(rows), Tensor(hidden.sensor)).data
            want = geo.project_trajectory(scene.camera[: scene.t_obs], hidden.sensor)
            assert np.allclose(got, want, atol=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        scene = sim.make_scene(small_config(t_obs=8, t_pred=2), 3)
        hidden = scene.out_of_sight()
        rows = np.stack([geo.camera_to_rows(m) for m in scene.camera[: scene.t_obs]])
        base = pl.project_rows(Tensor(rows), Tensor(hidden.sensor)).data
        for _ in range(20):
            lam = 10.0 ** rng.uniform(-3, 3)
            scaled = pl.project_rows(Tensor(rows * lam), Tensor(hidden.sensor)).data
            assert np.allclose(scaled, base, atol=1e-9)

    def test_degenerate_depth_stays_finite(self):
        rows = Tensor(np.zeros((3, 12)), requires_grad=True)
        points = Tensor(np.ones((3, 3)))
        out = pl.project_rows(rows, points)
        assert np.all(np.isfinite(out.data))
        from blindtrack.tensor import mean_all, square

        mean_all(square(out)).backward()
        assert np.all(np.isfinite(rows.grad))

    def test_gradients(self):
        rng = np.random.default_rng(2)
        rows = Tensor(rng.normal(size=(4, 12)) + 1.0, requires_grad=True)
        points = Tensor(rng.uniform(1, 3, size=(4, 3)), requires_grad=True)
        from blindtrack.tensor import mean_all, square

        check_gradients(lambda: mean_all(square(pl.project_rows(rows, points))), [rows, points], tol=1e-4)

    def test_shape_contracts(self):
        with pytest.raises(LengthMismatch):
            pl.project_rows(Tensor(np.zeros((3, 12))), Tensor(np.zeros((4, 3))))
        with pytest.raises(LengthMismatch):
            pl.project_rows(Tensor(np.zeros((3, 11))), Tensor(np.zeros((3, 3))))


def loop_estimator_features(scene):
    """estimator_features as a loop over agents, each averaged over its
    visible steps alone: the reference the vectorized form must match bit
    for bit, since its bytes key the camera memo."""
    agents = sorted(scene.in_sight(), key=lambda a: a.agent_id)
    size = np.asarray(scene.image_size)
    pairs = []
    for agent in agents:
        vis = agent.visible[: scene.t_obs]
        if vis.any():
            pixel = agent.pixel[: scene.t_obs][vis] / size - 0.5
            sensor = (agent.sensor[vis] - pl.ARENA_MID) / pl.ARENA_HALF
            pairs.append(np.concatenate([pixel, sensor], axis=1).mean(axis=0))
    return np.array(pairs).reshape(-1, 5)


class TestFeatures:
    def test_matches_the_per_agent_loop_bit_for_bit(self):
        rng = np.random.default_rng(23)
        scenes = tiny_scenes(4, noise="hard", t_obs=12) + [
            sim.make_scene(sim.SimulatorConfig(t_obs=30, t_pred=5, camera_motion="arc"), seed) for seed in (1, 2)
        ]
        for scene in scenes:
            for _ in range(5):
                edited = copy.deepcopy(scene)
                t = scene.t_obs
                for agent in edited.in_sight():
                    agent.visible[:t] &= rng.random(t) < rng.random()
                    agent.pixel[:t][~agent.visible[:t]] = np.nan
                want = loop_estimator_features(edited)
                got = pl.estimator_features(edited)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_slots_filled_in_agent_order(self):
        scene = tiny_scenes(1)[0]
        pairs = pl.estimator_features(scene)
        in_sight = sorted(scene.in_sight(), key=lambda a: a.agent_id)
        w, h = scene.image_size
        t = scene.t_obs
        # one row per visible agent, none for the unused fourth slot
        assert pairs.shape == (len(in_sight), 5) == (3, 5)
        for row, agent in zip(pairs, in_sight):
            assert agent.visible[:t].all()
            assert np.allclose(row[0], np.mean(agent.pixel[:t, 0] / w - 0.5), rtol=1e-12, atol=0)
            assert np.allclose(row[1], np.mean(agent.pixel[:t, 1] / h - 0.5), rtol=1e-12, atol=0)
            want = ((agent.sensor - pl.ARENA_MID) / pl.ARENA_HALF).mean(axis=0)
            assert np.allclose(row[2:], want, rtol=1e-12, atol=0)
        # pixels centered on the image, positions on the arena box
        assert np.all(np.abs(pairs[:, :2]) < 0.5)
        assert np.all(np.abs(pairs[:, 2:]) <= 1.0)

    def test_only_visible_steps_are_averaged(self):
        scene = tiny_scenes(1)[0]
        base = pl.estimator_features(scene)
        edited = copy.deepcopy(scene)
        first, second = sorted(edited.in_sight(), key=lambda a: a.agent_id)[:2]
        first.visible[:2] = False
        first.pixel[:2] = np.nan
        second.visible[: scene.t_obs] = False
        second.pixel[: scene.t_obs] = np.nan
        pairs = pl.estimator_features(edited)
        # the agent never visible in the window is dropped; the other two
        # keep their slot order
        assert pairs.shape == (2, 5)
        assert np.array_equal(pairs[1], base[2])
        w, h = scene.image_size
        t = scene.t_obs
        assert np.allclose(pairs[0, :2], (first.pixel[2:t] / [w, h] - 0.5).mean(axis=0), rtol=1e-12, atol=0)
        want = ((first.sensor[2:t] - pl.ARENA_MID) / pl.ARENA_HALF).mean(axis=0)
        assert np.allclose(pairs[0, 2:], want, rtol=1e-12, atol=0)

    def test_no_pairs_in_the_window_leave_the_prior(self):
        scene = tiny_scenes(1)[0]
        blind = copy.deepcopy(scene)
        for agent in blind.in_sight():
            agent.visible[: scene.t_obs] = False
        pairs = pl.estimator_features(blind)
        assert pairs.shape == (0, 5)
        rows = pl.CameraEstimator(sim.FOCAL)(pairs, blind.image_size, blind.t_obs).data
        assert np.all(np.isfinite(rows))

    def test_no_visible_agents_rejected(self):
        scene = tiny_scenes(1)[0]
        lone = copy.deepcopy(scene)
        lone.agents = [scene.out_of_sight()]
        with pytest.raises(NoInSightAgents):
            pl.estimator_features(lone)


def fit_rows(estimator, scene):
    return estimator(pl.estimator_features(scene), scene.image_size, scene.t_obs).data


def fitted_camera(scene, focal=sim.FOCAL):
    rows = fit_rows(pl.CameraEstimator(focal), scene)
    assert rows.shape == (scene.t_obs, 12)
    assert np.all(rows == rows[0])  # one matrix for the whole window
    return geo.rows_to_camera(rows[0])


def hidden_track_error(scene, camera):
    """Mean pixel distance between the hidden agent's true observed track
    projected through `camera` and through the scene's true camera."""
    hidden = scene.out_of_sight()
    t = scene.t_obs
    true = geo.project_trajectory(scene.camera[:t], hidden.world[:t])
    return float(np.linalg.norm(geo.project_trajectory(camera, hidden.world[:t]) - true, axis=1).mean())


class TestCameraFit:
    def test_clean_scenes_recover_the_camera(self):
        cfg = sim.SimulatorConfig(noise=sim.NoiseModel.preset("clean"))
        errors = [hidden_track_error(s, fitted_camera(s)) for s in sim.make_split(cfg, 600, 12)]
        assert np.mean(errors) < 1.0

    def test_clean_scenes_of_another_rig_recover_the_camera(self):
        cfg = sim.SimulatorConfig(noise=sim.NoiseModel.preset("clean"), image_size=(1280, 960), focal=1000.0)
        errors = [hidden_track_error(s, fitted_camera(s, cfg.focal)) for s in sim.make_split(cfg, 650, 20)]
        assert np.mean(errors) < 1.0

    def test_beats_the_nominal_camera_at_default_noise(self):
        cfg = sim.SimulatorConfig(noise=sim.NoiseModel.preset("default"))
        scenes = sim.make_split(cfg, 700, 12)
        nominal = geo.rows_to_camera(pl.nominal_camera(cfg.intrinsics())[0].ravel())
        fitted = np.mean([hidden_track_error(s, fitted_camera(s)) for s in scenes])
        assert fitted < np.mean([hidden_track_error(s, nominal) for s in scenes])

    def test_too_few_pairs_still_give_a_finite_camera(self):
        scene = sim.make_scene(small_config(n_agents=2, t_obs=2, t_pred=2), 5)
        assert len(scene.in_sight()) * scene.t_obs < geo.MIN_CORRESPONDENCES
        camera = fitted_camera(scene)
        assert np.all(np.isfinite(camera))
        assert np.all(np.isfinite(geo.homogeneous_apply(camera, scene.in_sight()[0].sensor)))

    def test_ignores_the_hidden_agent(self):
        for scene in tiny_scenes(4, noise="hard"):
            tampered = copy.deepcopy(scene)
            hidden = tampered.out_of_sight()
            hidden.pixel[:] = hidden.pixel + 500.0
            hidden.world[:] = hidden.world + 9.0
            hidden.sensor[:] = hidden.sensor - 3.0
            hidden.visible[:] = ~hidden.visible
            assert np.array_equal(fitted_camera(scene), fitted_camera(tampered))

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        world = rng.uniform([-4.0, 10.0, 0.8], [4.0, 22.0, 1.9], (7, 3))
        pixel = rng.uniform(0.0, 480.0, (7, 2))
        pose = rng.uniform(pl.POSE_BOX[:, 0], pl.POSE_BOX[:, 1])
        k = geo.CameraIntrinsics.centered(700.0, (800, 600))
        res, jac = pl.look_at_residuals(pose, world, pixel, k)
        want = geo.project_trajectory(pl.pose_camera(pose, k), world) - pixel
        assert np.allclose(res, want.ravel(), atol=1e-9)
        numeric = np.empty_like(jac)
        for i in range(6):
            step = np.zeros(6)
            step[i] = 1e-6
            up = pl.look_at_residuals(pose + step, world, pixel, k)[0]
            down = pl.look_at_residuals(pose - step, world, pixel, k)[0]
            numeric[:, i] = (up - down) / 2e-6
        assert np.abs(jac - numeric).max() < 1e-6 * np.abs(numeric).max()


class TestCameraMemo:
    def test_one_fit_per_scene_across_epochs_and_validation(self, monkeypatch):
        fitted = []
        fit = pl.fit_camera

        def counting(world, pixel, intrinsics):
            fitted.append(world.tobytes())
            return fit(world, pixel, intrinsics)

        monkeypatch.setattr(pl, "fit_camera", counting)
        scenes = tiny_scenes(6, noise="default")
        model = pl.VisionPipeline(TINY, np.random.default_rng(20))
        result = pl.train_model(model, scenes[:4], scenes[4:], pl.TrainConfig(epochs=2, batch_size=2, seed=0))
        assert len(result.history) == 2 and result.history[-1].val_sum is not None
        assert len(fitted) == len(set(fitted)) == 6
        for scene in scenes:
            model.predict(scene)
        assert len(fitted) == 6

    def test_memoized_predictions_equal_a_fresh_models(self):
        scenes = tiny_scenes(5, noise="default")
        model = pl.VisionPipeline(TINY, np.random.default_rng(21))
        pl.train_model(model, scenes[:3], scenes[3:], pl.TrainConfig(epochs=2, batch_size=2, seed=1))
        assert len(model.estimator.fits) == 5
        fresh = pl.VisionPipeline(TINY, np.random.default_rng(0))
        pl.restore_parameters(fresh, pl.snapshot_parameters(model))
        assert not fresh.estimator.fits
        for scene in scenes:
            for got, want in zip(model.predict(scene), fresh.predict(scene)):
                assert np.array_equal(got, want)

    def test_moved_agents_get_their_own_fit(self):
        scene = tiny_scenes(1, noise="default")[0]
        estimator = pl.CameraEstimator(sim.FOCAL)
        original = fit_rows(estimator, scene)
        moved = copy.deepcopy(scene)
        for agent in moved.in_sight():
            agent.sensor[:] = agent.sensor + np.array([1.5, -2.0, 0.0])
            agent.pixel[:] = agent.pixel + 7.0
        got = fit_rows(estimator, moved)
        assert len(estimator.fits) == 2
        assert np.array_equal(got, fit_rows(pl.CameraEstimator(sim.FOCAL), moved))
        assert not np.allclose(got, original)
        assert np.array_equal(fit_rows(estimator, scene), original)


class TestMethodName:
    @pytest.mark.parametrize("name", ["", "Full", "denoiser", "no_camera", "plus_vpd:cnn", "direct:gru"])
    def test_a_name_that_is_no_pipeline_method_is_refused(self, name):
        with pytest.raises(ConfigError) as err:
            pl.VisionPipeline(TINY, np.random.default_rng(0), name)
        assert err.value.field == "method"

    def test_the_name_alone_sets_the_stages(self):
        stages = {
            drop: {key.split(".")[0] for key, _ in without(drop, 0).named_parameters()} for drop in (None, *pl.STAGES)
        }
        assert stages == {
            None: {"denoiser", "predictor"},
            "denoiser": {"predictor"},
            "estimator": {"denoiser", "static_rows", "predictor"},
            "projection": {"denoiser", "visual_head", "predictor"},
            "predictor": {"denoiser"},
        }
        for kind in ("transformer", "gru"):
            model = pl.VisionPipeline(TINY, np.random.default_rng(0), f"plus_vpd:{kind}")
            assert model.predictor.trunk.kind == kind and model.denoiser.trunk.kind == "transformer"


class TestForward:
    @pytest.mark.parametrize(
        "drop", [None, "denoiser", "estimator", "projection", "predictor"]
    )
    def test_shapes_for_all_variants(self, drop):
        model = without(drop, 0)
        scene = tiny_scenes(1)[0]
        visual, future = model.forward(scene)
        assert visual.data.shape == (scene.t_obs, 2)
        assert future.data.shape == (scene.t_pred, 2)
        loss_d, loss_p = model.loss_terms(scene)
        assert np.isfinite(loss_d.item()) and np.isfinite(loss_p.item())

    def test_no_predictor_carries_last_pixel(self):
        model = without("predictor", 1)
        visual, future = model.forward(tiny_scenes(1)[0])
        assert np.allclose(future.data, np.tile(visual.data[-1], (future.data.shape[0], 1)))

    def test_scene_horizon_must_match(self):
        model = pl.VisionPipeline(TINY, np.random.default_rng(2))
        scene = tiny_scenes(1, t_pred=4)[0]
        with pytest.raises(SchemaError) as err:
            model.forward(scene)
        assert err.value.field == "t_pred"
        assert f"scene seed {scene.seed} predicts 4 steps, the model 3" in str(err.value)

    def test_loss_matches_manual_computation(self):
        model = pl.VisionPipeline(TINY, np.random.default_rng(3))
        scene = tiny_scenes(1)[0]
        hidden = scene.out_of_sight()
        w, h = scene.image_size
        visual, future = model.predict(scene)
        loss_d, loss_p = model.loss_terms(scene)
        norm = np.array([1.0 / w, 1.0 / h])
        want_d = np.mean(((visual - hidden.pixel[: scene.t_obs]) * norm) ** 2)
        want_p = np.mean(((future - hidden.pixel[scene.t_obs:]) * norm) ** 2)
        assert loss_d.item() == pytest.approx(want_d, rel=1e-12)
        assert loss_p.item() == pytest.approx(want_p, rel=1e-12)


class TestBatching:
    @pytest.mark.parametrize("drop", [None, "denoiser", "estimator", "projection", "predictor"])
    def test_batch_loss_and_gradients_equal_the_scene_mean(self, drop):
        model = without(drop, 10)
        assert_batch_matches_scene_mean(model, tiny_scenes(4, noise="default"))

    def test_mixed_observation_windows_equal_the_scene_mean(self):
        long, short = tiny_scenes(2, noise="default"), tiny_scenes(2, seed0=20, noise="default", t_obs=5)
        model = pl.VisionPipeline(TINY, np.random.default_rng(11))
        assert_batch_matches_scene_mean(model, [long[0], short[0], short[1], long[1]])

    def test_predict_equals_the_scenes_rows_of_a_batched_forward(self):
        scenes = tiny_scenes(3, noise="default")
        model = pl.VisionPipeline(TINY, np.random.default_rng(12))
        visual, future = model.forward(scenes)
        t_obs, t_pred = scenes[0].t_obs, TINY.t_pred
        assert visual.data.shape == (3 * t_obs, 2) and future.data.shape == (3 * t_pred, 2)
        batch_v, batch_f = model.predict(scenes)
        assert batch_v.shape == (3, t_obs, 2) and batch_f.shape == (3, t_pred, 2)
        assert np.array_equal(batch_v.reshape(-1, 2), visual.data)
        assert np.array_equal(batch_f.reshape(-1, 2), future.data)
        for i, scene in enumerate(scenes):
            got_v, got_f = model.predict(scene)
            assert np.allclose(got_v, batch_v[i], rtol=1e-12, atol=1e-9)
            assert np.allclose(got_f, batch_f[i], rtol=1e-12, atol=1e-9)

    def test_forward_rejects_mixed_shapes(self):
        scenes = [tiny_scenes(1)[0], tiny_scenes(1, t_obs=5)[0]]
        model = pl.VisionPipeline(TINY, np.random.default_rng(13))
        with pytest.raises(LengthMismatch):
            model.forward(scenes)

    def test_predict_builds_no_graph(self):
        scene = tiny_scenes(1, noise="default")[0]
        model = pl.VisionPipeline(TINY, np.random.default_rng(14))
        visual, future = model.forward(scene)
        returned = []

        def forward(scenes):  # what predict's forward pass returns
            returned.extend(pl.VisionPipeline.forward(model, scenes))
            return returned

        model.forward = forward
        got_v, got_f = model.predict(scene)
        assert np.array_equal(got_v, visual.data) and np.array_equal(got_f, future.data)
        assert all(node._parents == () and not node.requires_grad for node in returned)
        assert all(p.grad is None for p in model.parameters())

    def test_evaluate_split_matches_per_scene_predictions(self):
        scenes = tiny_scenes(3, noise="default") + tiny_scenes(2, seed0=30, noise="default", t_obs=5)
        model = pl.VisionPipeline(TINY, np.random.default_rng(15))
        d_errors, p_errors = [], []
        for scene in scenes:
            visual, future = model.predict(scene)
            pixel = scene.out_of_sight().pixel
            d_errors.append(np.linalg.norm(visual - pixel[: scene.t_obs], axis=1).mean())
            p_errors.append(np.linalg.norm(future - pixel[scene.t_obs:], axis=1).mean())
        got_d, got_p = pl.evaluate_split(model, scenes)
        assert got_d == pytest.approx(np.mean(d_errors), rel=1e-12)
        assert got_p == pytest.approx(np.mean(p_errors), rel=1e-12)


class TestBlindness:
    def test_hidden_labels_never_enter_the_forward_pass(self):
        model = pl.VisionPipeline(TINY, np.random.default_rng(4))
        for scene in tiny_scenes(5, noise="hard"):
            base_v, base_f = model.predict(scene)
            tampered = copy.deepcopy(scene)
            hidden = tampered.out_of_sight()
            hidden.pixel[:] = hidden.pixel + 500.0
            hidden.world[:] = hidden.world + 9.0
            got_v, got_f = model.predict(tampered)
            assert np.array_equal(base_v, got_v)
            assert np.array_equal(base_f, got_f)

    def test_features_ignore_hidden_agent(self):
        scene = tiny_scenes(1)[0]
        base = pl.estimator_features(scene)
        tampered = copy.deepcopy(scene)
        tampered.out_of_sight().pixel[:] = -1.0
        assert np.array_equal(base, pl.estimator_features(tampered))


class TestEndToEndGradients:
    def test_full_pipeline_against_finite_differences(self):
        cfg = pl.ModelConfig(t_pred=2, width=8, layers=1, heads=2)
        model = pl.VisionPipeline(cfg, np.random.default_rng(5))
        scene = tiny_scenes(1, t_obs=4, t_pred=2)[0]

        def build():
            loss_d, loss_p = model.loss_terms(scene)
            from blindtrack.tensor import add

            return add(loss_d, loss_p)

        worst = check_gradients(build, model.parameters(), tol=1e-3)
        assert worst < 1e-3


class TestTrainer:
    def test_loss_decreases_and_history_records(self):
        scenes = tiny_scenes(6, noise="clean")
        model = pl.VisionPipeline(TINY, np.random.default_rng(6))
        tcfg = pl.TrainConfig(epochs=25, batch_size=3, lr=3e-3, seed=0)
        result = pl.train_model(model, scenes, scenes[:2], tcfg)
        first = result.history[0].loss_denoise + result.history[0].loss_pred
        last = result.history[-1].loss_denoise + result.history[-1].loss_pred
        assert last < first
        assert len(result.history) == 25
        assert result.best_epoch >= 0
        assert result.best_val_sum is not None

    def test_training_is_bitwise_deterministic(self):
        scenes = tiny_scenes(4, noise="default")

        def run():
            model = pl.VisionPipeline(TINY, np.random.default_rng(7))
            tcfg = pl.TrainConfig(epochs=5, batch_size=2, lr=1e-3, seed=3)
            result = pl.train_model(model, scenes, [], tcfg)
            return result, pl.snapshot_parameters(model)

        res_a, params_a = run()
        res_b, params_b = run()
        assert [s.loss_denoise for s in res_a.history] == [s.loss_denoise for s in res_b.history]
        assert [s.loss_pred for s in res_a.history] == [s.loss_pred for s in res_b.history]
        for name in params_a:
            assert np.array_equal(params_a[name], params_b[name])

    def test_best_validation_parameters_are_restored(self):
        scenes = tiny_scenes(4, noise="clean")
        model = pl.VisionPipeline(TINY, np.random.default_rng(8))
        tcfg = pl.TrainConfig(epochs=8, batch_size=2, lr=3e-3, seed=1)
        result = pl.train_model(model, scenes, scenes[:2], tcfg)
        got_d, got_p = pl.evaluate_split(model, scenes[:2])
        assert got_d + got_p == pytest.approx(result.best_val_sum, abs=1e-9)

    def test_non_finite_loss_aborts_with_location(self):
        scenes = tiny_scenes(2, noise="clean")
        model = pl.VisionPipeline(TINY, np.random.default_rng(9))
        model.parameters()[0].data[0, 0] = np.nan
        with pytest.raises(NonFiniteLoss) as err:
            pl.train_model(model, scenes, [], pl.TrainConfig(epochs=1, batch_size=2))
        assert err.value.epoch == 0
        assert err.value.batch == 0

    def test_shuffle_is_epoch_keyed(self):
        a = pl._shuffle(5, 0, 10)
        b = pl._shuffle(5, 0, 10)
        c = pl._shuffle(5, 1, 10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
