"""Pipeline: projection correctness and invariances, input blindness to the
hidden agent's labels, end-to-end differentiability, and trainer
determinism."""

import copy
import dataclasses
import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindtrack import geometry as geo
from blindtrack import pipeline as pl
from blindtrack import simulator as sim
from blindtrack.checkpoint import restore_model
from blindtrack.config import ModelConfig, TrainConfig
from blindtrack.errors import ConfigError, LengthMismatch, NoInSightAgents, NonFiniteLoss, SchemaError
from blindtrack.nn import Adam
from blindtrack.tensor import Tensor, add, scale

from test_simulator import small_config
from util_grad import check_gradients

TINY = ModelConfig(t_pred=3, width=8, layers=1, heads=2)


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
            sensor = scene.sensor[scene.hidden]
            rows = scene.camera[: scene.t_obs].reshape(-1, 12)
            got = pl.project_rows(Tensor(rows), Tensor(sensor)).data
            want = geo.project_trajectory(scene.camera[: scene.t_obs], sensor)
            assert np.allclose(got, want, atol=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        scene = sim.make_scene(small_config(t_obs=8, t_pred=2), 3)
        sensor = scene.sensor[scene.hidden]
        rows = scene.camera[: scene.t_obs].reshape(-1, 12)
        base = pl.project_rows(Tensor(rows), Tensor(sensor)).data
        for _ in range(20):
            lam = 10.0 ** rng.uniform(-3, 3)
            scaled = pl.project_rows(Tensor(rows * lam), Tensor(sensor)).data
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


def in_sight_rows(scene):
    """The rows of every agent but the hidden one, in ascending agent_id."""
    return [row for row in np.argsort(scene.agent_ids) if row != scene.hidden]


def loop_estimator_features(scene):
    """estimator_features as a loop over agents, each averaged over its
    visible steps alone: the reference the vectorized form must match bit
    for bit, since the camera fit reads them and its pins are digests."""
    size = np.asarray(scene.image_size)
    pairs = []
    for row in in_sight_rows(scene):
        vis = scene.visible[row, : scene.t_obs]
        if vis.any():
            pixel = scene.pixel[row, : scene.t_obs][vis] / size - 0.5
            sensor = (scene.sensor[row][vis] - pl.ARENA_MID) / pl.ARENA_HALF
            pairs.append(np.concatenate([pixel, sensor], axis=1).mean(axis=0))
    return np.array(pairs).reshape(-1, 5)


class TestFeatures:
    def test_matches_the_per_agent_loop_bit_for_bit(self):
        rng = np.random.default_rng(23)
        scenes = tiny_scenes(4, noise="hard", t_obs=12) + [
            sim.make_scene(sim.SimulatorConfig(t_obs=30, t_pred=5, camera_motion="arc"), seed) for seed in (1, 2)
        ]
        edited = []
        for scene in scenes:
            for _ in range(5):
                copied = copy.deepcopy(scene)
                t = scene.t_obs
                for row in in_sight_rows(copied):
                    copied.visible[row, :t] &= rng.random(t) < rng.random()
                    copied.pixel[row, :t][~copied.visible[row, :t]] = np.nan
                edited.append(copied)
        blind = edited[0]  # one agent never visible inside the window
        gone = in_sight_rows(blind)[0]
        blind.visible[gone, : blind.t_obs] = False
        blind.pixel[gone, : blind.t_obs] = np.nan
        # one list, its agent counts and shapes interleaved
        order = rng.permutation(len(edited))
        edited = [edited[i] for i in order]
        assert len({len(scene.agent_ids) for scene in edited}) == 2
        got = pl.estimator_features(edited)
        assert len(got) == len(edited)
        for scene, pairs in zip(edited, got):
            want = loop_estimator_features(scene)
            assert pairs.shape == want.shape and pairs.tobytes() == want.tobytes()
        assert len(got[np.flatnonzero(order == 0)[0]]) < len(in_sight_rows(blind))

    def test_slots_filled_in_agent_order(self):
        scene = tiny_scenes(1)[0]
        pairs = pl.estimator_features([scene])[0]
        in_sight = in_sight_rows(scene)
        w, h = scene.image_size
        t = scene.t_obs
        # one row per visible agent, none for the unused fourth slot
        assert pairs.shape == (len(in_sight), 5) == (3, 5)
        for pair, row in zip(pairs, in_sight):
            assert scene.visible[row, :t].all()
            assert np.allclose(pair[0], np.mean(scene.pixel[row, :t, 0] / w - 0.5), rtol=1e-12, atol=0)
            assert np.allclose(pair[1], np.mean(scene.pixel[row, :t, 1] / h - 0.5), rtol=1e-12, atol=0)
            want = ((scene.sensor[row] - pl.ARENA_MID) / pl.ARENA_HALF).mean(axis=0)
            assert np.allclose(pair[2:], want, rtol=1e-12, atol=0)
        # pixels centered on the image, positions on the arena box
        assert np.all(np.abs(pairs[:, :2]) < 0.5)
        assert np.all(np.abs(pairs[:, 2:]) <= 1.0)

    def test_only_visible_steps_are_averaged(self):
        scene = tiny_scenes(1)[0]
        base = pl.estimator_features([scene])[0]
        edited = copy.deepcopy(scene)
        first, second = in_sight_rows(edited)[:2]
        edited.visible[first, :2] = False
        edited.pixel[first, :2] = np.nan
        edited.visible[second, : scene.t_obs] = False
        edited.pixel[second, : scene.t_obs] = np.nan
        pairs = pl.estimator_features([edited])[0]
        # the agent never visible in the window is dropped; the other two
        # keep their slot order
        assert pairs.shape == (2, 5)
        assert np.array_equal(pairs[1], base[2])
        w, h = scene.image_size
        t = scene.t_obs
        assert np.allclose(pairs[0, :2], (edited.pixel[first, 2:t] / [w, h] - 0.5).mean(axis=0), rtol=1e-12, atol=0)
        want = ((edited.sensor[first, 2:t] - pl.ARENA_MID) / pl.ARENA_HALF).mean(axis=0)
        assert np.allclose(pairs[0, 2:], want, rtol=1e-12, atol=0)

    def test_no_pairs_in_the_window_leave_the_prior(self):
        scene = tiny_scenes(1)[0]
        blind = copy.deepcopy(scene)
        for row in in_sight_rows(blind):
            blind.visible[row, : scene.t_obs] = False
        pairs = pl.estimator_features([blind])[0]
        assert pairs.shape == (0, 5)
        rows = pl.CameraEstimator(sim.FOCAL)([blind]).data
        assert rows.shape == (1, 12) and np.all(np.isfinite(rows))

    def test_no_visible_agents_rejected(self):
        scene = tiny_scenes(1)[0]
        rows = [scene.hidden]
        lone = dataclasses.replace(scene, agent_ids=[scene.out_of_sight_id], world=scene.world[rows],
                                   sensor=scene.sensor[rows], pixel=scene.pixel[rows], visible=scene.visible[rows])
        with pytest.raises(NoInSightAgents, match=f"scene seed {scene.seed} "):
            pl.estimator_features([lone])
        lone.seed = 77
        with pytest.raises(NoInSightAgents, match="scene seed 77 "):
            pl.estimator_features([scene, lone])


def fit_rows(estimator, scene):
    """The estimator's (1, 12) camera row of one scene."""
    return estimator([scene]).data


def fitted_camera(scene, focal=sim.FOCAL):
    rows = fit_rows(pl.CameraEstimator(focal), scene)
    assert rows.shape == (1, 12)
    return rows[0].reshape(3, 4)


def keep_pairs(scene, count):
    """The scene with every in-sight agent after the first `count` unseen
    in the window, so its pairs are the first `count` of the original."""
    for row in in_sight_rows(scene)[count:]:
        scene.visible[row, : scene.t_obs] = False
        scene.pixel[row, : scene.t_obs] = np.nan
    return scene


def hidden_track_error(scene, camera):
    """Mean pixel distance between the hidden agent's true observed track
    projected through `camera` and through the scene's true camera."""
    world = scene.world[scene.hidden]
    t = scene.t_obs
    true = geo.project_trajectory(scene.camera[:t], world[:t])
    return float(np.linalg.norm(geo.project_trajectory(camera, world[:t]) - true, axis=1).mean())


def loop_look_at_residuals(pose, world, pixel, intrinsics):
    """look_at_residuals of one (6,) pose, (n, 3) world points and (n, 2)
    pixels, as the fit computed it scene by scene: the reference the
    stacked form must match bit for bit."""
    gx, gy, gz = (pose[3:] - pose[:3]).tolist()
    rho2 = gx * gx + gy * gy
    rho = rho2**0.5
    norm2 = rho2 + gz * gz
    norm = norm2**0.5
    sin_h, cos_h = gx / rho, gy / rho
    sin_e, cos_e = gz / norm, rho / norm
    frames = np.array(
        [
            [[cos_h, -sin_h, 0.0], [sin_e * sin_h, sin_e * cos_h, -cos_e], [cos_e * sin_h, cos_e * cos_h, sin_e]],
            [[-sin_h, -cos_h, 0.0], [sin_e * cos_h, -sin_e * sin_h, 0.0], [cos_e * cos_h, -cos_e * sin_h, 0.0]],
            [[0.0, 0.0, 0.0], [cos_e * sin_h, cos_e * cos_h, sin_e], [-sin_e * sin_h, -sin_e * cos_h, cos_e]],
        ]
    )
    d_angles = np.array(
        [[gy / rho2, -gx / rho2, 0.0], [-gz * gx / (rho * norm2), -gz * gy / (rho * norm2), rho / norm2]]
    )
    cam = (world - pose[:3]) @ frames.reshape(9, 3).T
    depth = np.maximum(cam[:, 2], geo.EPS_DEPTH)
    focal = np.array([intrinsics.fx, intrinsics.fy])
    image = cam[:, 0:2] / depth[:, None]
    res = (focal * image + np.array([intrinsics.cx, intrinsics.cy]) - pixel).ravel()
    gain = focal / depth[:, None]
    d_world = gain[:, :, None] * (frames[0][None, 0:2, :] - image[:, :, None] * frames[0][None, 2:3, :])
    d_heading = gain * (cam[:, 3:5] - image * cam[:, 5:6])
    d_elevation = gain * (cam[:, 6:8] - image * cam[:, 8:9])
    d_aim = d_heading[:, :, None] * d_angles[0] + d_elevation[:, :, None] * d_angles[1]
    jac = np.concatenate([-d_world - d_aim, d_aim], axis=2)
    return res, jac.reshape(-1, 6)


def loop_fit_pose(world, pixel, intrinsics, start, prior_weight):
    """One scene's Gauss-Newton with its step-halving line search, as a
    loop: the reference for the stacked fit's masks."""
    precision = prior_weight / geo.POSE_STD**2

    def energy(pose, res):
        return float(res @ res + precision @ (pose - geo.POSE_MID) ** 2)

    pose = start
    res, jac = loop_look_at_residuals(pose, world, pixel, intrinsics)
    current = energy(pose, res)
    for _ in range(geo.FIT_ITERATIONS):
        step = np.linalg.solve(jac.T @ jac + np.diag(precision), jac.T @ res + precision * (pose - geo.POSE_MID))
        for _ in range(4):
            trial = pose - step
            trial_res, trial_jac = loop_look_at_residuals(trial, world, pixel, intrinsics)
            trial_energy = energy(trial, trial_res)
            if trial_energy < current:
                break
            step = step / 2.0
        else:
            break
        pose, res, jac, current = trial, trial_res, trial_jac, trial_energy
    return pose, res


def loop_fit_camera(world, pixel, intrinsics):
    """One scene's (3, 4) camera, fitted alone: the reference fit_cameras
    must match bit for bit, since criterion 6 amplifies a one-ulp change
    of a camera into a visible move of its error."""
    pose, res = loop_fit_pose(world, pixel, intrinsics, geo.POSE_MID, geo.ROUNDING_VAR)
    variance = max(float(res @ res) / max(len(res) - 5, 1), geo.ROUNDING_VAR)
    pose, _ = loop_fit_pose(world, pixel, intrinsics, pose, variance)
    return geo.pose_camera(pose, intrinsics)


FIT_RIGS = {
    "desk": sim.SimulatorConfig(),
    "desk_hard": sim.SimulatorConfig(noise=sim.NoiseModel.preset("hard")),
    "1280x960": sim.SimulatorConfig(image_size=(1280, 960), focal=1000.0),
    "arc_hard": sim.SimulatorConfig(t_obs=100, camera_motion="arc", noise=sim.NoiseModel.preset("hard")),
}


def fit_points(cfg, pairs):
    """(world, pixel) of estimator_features pairs, (..., n, 5), as the
    estimator hands them to the fit."""
    return pairs[..., 2:] * pl.ARENA_HALF + pl.ARENA_MID, (pairs[..., :2] + 0.5) * np.asarray(cfg.image_size, float)


def assert_fits_equal_the_loop(cfg, features):
    """One fit_cameras call per pair count of a batch's pairs, as the
    estimator stacks them, gives each scene the camera loop_fit_camera
    fits it alone, bit for bit."""
    for count in {len(pairs) for pairs in features}:
        stack = [pairs for pairs in features if len(pairs) == count]
        got = geo.fit_cameras(*fit_points(cfg, np.stack(stack)), cfg.intrinsics())
        for pairs, camera in zip(stack, got):
            assert np.array_equal(camera, loop_fit_camera(*fit_points(cfg, pairs), cfg.intrinsics()))


class TestCameraFit:
    @settings(max_examples=30, deadline=None)
    @given(
        rig=st.sampled_from(sorted(FIT_RIGS)),
        batch=st.lists(st.tuples(st.integers(0, 5000), st.integers(1, 7)), min_size=1, max_size=6),
    )
    def test_batched_fit_equals_each_scene_fitted_alone(self, rig, batch):
        cfg = FIT_RIGS[rig]
        features = []
        for seed, count in batch:
            pairs = pl.estimator_features([sim.make_scene(cfg, seed)])[0]
            features.append(pairs[np.arange(count) % len(pairs)])  # repeat rows to reach the count
        assert_fits_equal_the_loop(cfg, features)

    @pytest.mark.parametrize("rig", sorted(FIT_RIGS))
    def test_a_split_fitted_in_one_batch_keeps_every_cameras_bits(self, rig):
        # 48 scenes per rig: enough that a one-ulp change of the fit's
        # arithmetic (np.sqrt for pow, say) moves at least one camera
        cfg = FIT_RIGS[rig]
        rng = np.random.default_rng(5)
        scenes = sim.make_split(cfg, 4242, 48)
        counts = [len(pairs) for pairs in pl.estimator_features(scenes)]
        scenes = [keep_pairs(s, rng.integers(1, count + 1)) for s, count in zip(scenes, counts)]
        features = pl.estimator_features(scenes)
        assert_fits_equal_the_loop(cfg, features)
        # the estimator, on the scenes themselves
        rows = pl.CameraEstimator(cfg.focal)(scenes).data
        for pairs, got in zip(features, rows):
            assert np.array_equal(got, loop_fit_camera(*fit_points(cfg, pairs), cfg.intrinsics()).reshape(12))
        # and fit_cameras itself, on the stack of every scene's first pair
        world, pixel = fit_points(cfg, np.stack([pairs[:1] for pairs in features]))
        got = geo.fit_cameras(world, pixel, cfg.intrinsics())
        assert all(np.array_equal(g, loop_fit_camera(w, p, cfg.intrinsics())) for g, w, p in zip(got, world, pixel))

    def test_nominal_rows_and_spreads_equal_the_per_corner_loop(self):
        for cfg in FIT_RIGS.values():
            intrinsics = cfg.intrinsics()
            nominal, spread = geo.nominal_camera(intrinsics)
            want = geo.pose_camera(geo.POSE_MID, intrinsics)
            corners = np.array([geo.pose_camera(np.array(c), intrinsics) for c in itertools.product(*geo.POSE_BOX)])
            assert np.array_equal(nominal, want.reshape(1, 12))
            assert np.array_equal(spread, np.maximum(np.abs(corners - want).max(axis=0), 1e-2).reshape(1, 12))

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
        nominal = geo.nominal_camera(cfg.intrinsics())[0].reshape(3, 4)
        fitted = np.mean([hidden_track_error(s, fitted_camera(s)) for s in scenes])
        assert fitted < np.mean([hidden_track_error(s, nominal) for s in scenes])

    def test_too_few_pairs_still_give_a_finite_camera(self):
        scene = sim.make_scene(small_config(n_agents=2, t_obs=2, t_pred=2), 5)
        assert len(in_sight_rows(scene)) * scene.t_obs < geo.MIN_CORRESPONDENCES
        camera = fitted_camera(scene)
        assert np.all(np.isfinite(camera))
        assert np.all(np.isfinite(geo.homogeneous_apply(camera, scene.sensor[in_sight_rows(scene)[0]])))

    def test_ignores_the_hidden_agent(self):
        for scene in tiny_scenes(4, noise="hard"):
            tampered = copy.deepcopy(scene)
            hidden = tampered.hidden
            tampered.pixel[hidden] = tampered.pixel[hidden] + 500.0
            tampered.world[hidden] = tampered.world[hidden] + 9.0
            tampered.sensor[hidden] = tampered.sensor[hidden] - 3.0
            tampered.visible[hidden] = ~tampered.visible[hidden]
            assert np.array_equal(fitted_camera(scene), fitted_camera(tampered))

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        world = rng.uniform([-4.0, 10.0, 0.8], [4.0, 22.0, 1.9], (3, 7, 3))
        pixel = rng.uniform(0.0, 480.0, (3, 7, 2))
        pose = rng.uniform(geo.POSE_BOX[:, 0], geo.POSE_BOX[:, 1], (3, 6))
        k = geo.CameraIntrinsics.centered(700.0, (800, 600))
        res, jac = geo.look_at_residuals(pose, world, pixel, k)
        numeric = np.empty_like(jac)
        for i in range(6):
            step = np.zeros(6)
            step[i] = 1e-6
            up = geo.look_at_residuals(pose + step, world, pixel, k)[0]
            down = geo.look_at_residuals(pose - step, world, pixel, k)[0]
            numeric[:, :, i] = (up - down) / 2e-6
        for b in range(3):
            want = geo.project_trajectory(geo.pose_camera(pose[b], k), world[b]) - pixel[b]
            assert np.allclose(res[b], want.ravel(), atol=1e-9)
            assert np.abs(jac[b] - numeric[b]).max() < 1e-6 * np.abs(numeric[b]).max()
            alone_res, alone_jac = geo.look_at_residuals(pose[b : b + 1], world[b : b + 1], pixel[b : b + 1], k)
            assert np.array_equal(alone_res[0], res[b]) and np.array_equal(alone_jac[0], jac[b])
            loop_res, loop_jac = loop_look_at_residuals(pose[b], world[b], pixel[b], k)
            assert np.array_equal(loop_res, res[b]) and np.array_equal(loop_jac, jac[b])


def digest(*arrays):
    """sha256 of arrays as little-endian float64 bytes, one after another."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


class TestFitPins:
    """The fit's own output pinned by digest: the cameras that training,
    evaluation and the ablation's nominal camera read."""

    def test_a_batch_of_two_pair_counts_keeps_its_digest(self):
        cfg = sim.SimulatorConfig()
        scenes = [keep_pairs(scene, 3 if i % 2 else 7) for i, scene in enumerate(sim.make_split(cfg, 900, 6))]
        assert [len(pairs) for pairs in pl.estimator_features(scenes)] == [7, 3] * 3
        # each camera tiled over two steps, as a forward pass over T = 2 tiles it
        rows = np.repeat(pl.CameraEstimator(cfg.focal)(scenes).data, 2, axis=0)
        assert digest(rows) == "761fa699a9ee7653098473ff59b05bfbbf55d567ad712a8ccc0bb4ff143c9028"

    def test_an_arc_t100_hard_batch_keeps_its_digest(self):
        cfg = FIT_RIGS["arc_hard"]
        world, pixel = fit_points(cfg, np.stack(pl.estimator_features(sim.make_split(cfg, 910, 4))))
        cameras = geo.fit_cameras(world, pixel, cfg.intrinsics())
        assert digest(cameras) == "577e818bb281f938cd6fcaedd231a75d56739abb4b6d80e54c65e03dff6e43cf"

    def test_seeded_poses_keep_their_cameras(self):
        poses = np.random.default_rng(20).uniform(geo.POSE_BOX[:, 0], geo.POSE_BOX[:, 1], (50, 6))
        intrinsics = sim.SimulatorConfig().intrinsics()
        assert digest(geo.pose_camera(poses, intrinsics)) == (
            "5bf64b3ea8dddbb70f5b0198cbb3102845c030e5cedfae0ad260e0cbcbca6e7e"
        )
        assert digest(geo.pose_camera(poses[0], intrinsics)) == (
            "c11e24699f921dcc47d47267ae0fb2d57960b188225f72a812b5d20a16bc5352"
        )

    @pytest.mark.parametrize("rig, want", [
        ("desk", "44a7c3d1f67d1234ecc747bdb9fc0744feb94482c4fe9f7619f2def81229f7e0"),
        ("1280x960", "b6795ab666d138f83d816ddf34853e840c7c9a182048a389ef5c8b3b68f69221"),
    ])
    def test_nominal_camera_keeps_its_digest(self, rig, want):
        assert digest(*geo.nominal_camera(FIT_RIGS[rig].intrinsics())) == want


class TestCameraMemo:
    @staticmethod
    def count_fits(monkeypatch):
        """The scenes each fit_cameras call is given, one list per call."""
        calls = []
        fit = pl.fit_cameras

        def counting(world, pixel, intrinsics):
            calls.append([scene.tobytes() for scene in world])
            return fit(world, pixel, intrinsics)

        monkeypatch.setattr(pl, "fit_cameras", counting)
        return calls

    def test_one_fit_per_scene_across_epochs_and_validation(self, monkeypatch):
        calls = self.count_fits(monkeypatch)
        scenes = tiny_scenes(6, noise="default")
        model = pl.VisionPipeline(TINY, np.random.default_rng(20))
        result = pl.train_model(model, scenes[:4], scenes[4:], TrainConfig(epochs=2, batch_size=2, seed=0))
        assert len(result.history) == 2 and result.history[-1].val_sum is not None
        fitted = [scene for call in calls for scene in call]
        assert len(fitted) == len(set(fitted)) == 6
        for scene in scenes:
            model.predict(scene)
        assert sum(len(call) for call in calls) == 6

    def test_one_fit_call_per_pair_count_of_a_batch(self, monkeypatch):
        calls = self.count_fits(monkeypatch)
        scenes = tiny_scenes(4, seed0=40, noise="default")
        for scene in scenes[1::2]:  # two of the four scenes lose a visible agent
            gone = in_sight_rows(scene)[0]
            scene.visible[gone, : scene.t_obs] = False
            scene.pixel[gone, : scene.t_obs] = np.nan
        assert [len(pairs) for pairs in pl.estimator_features(scenes)] == [3, 2, 3, 2]
        model = pl.VisionPipeline(TINY, np.random.default_rng(22))
        model.forward(scenes)
        assert sorted(len(call) for call in calls) == [2, 2]
        model.forward(scenes)
        assert len(calls) == 2

    def test_a_predict_over_many_forward_passes_fits_once_per_pair_count(self, monkeypatch):
        calls = self.count_fits(monkeypatch)
        monkeypatch.setattr(pl, "SCORE_ROWS", 12)  # two 6-step scenes per forward pass
        scenes = tiny_scenes(6, seed0=40, noise="default")
        for scene in scenes[1::2]:  # three of the six scenes lose a visible agent
            gone = in_sight_rows(scene)[0]
            scene.visible[gone, : scene.t_obs] = False
            scene.pixel[gone, : scene.t_obs] = np.nan
        assert [len(pairs) for pairs in pl.estimator_features(scenes)] == [3, 2] * 3
        model = pl.VisionPipeline(TINY, np.random.default_rng(22))
        forward, passes = model.forward, []

        def counting(batch):
            passes.append(len(batch))
            return forward(batch)

        model.forward = counting
        model.predict(scenes)
        assert passes == [2, 2, 2]
        assert sorted(len(call) for call in calls) == [3, 3]
        model.predict(scenes)
        assert len(calls) == 2

    def test_training_fits_every_camera_once_before_its_first_step(self, monkeypatch):
        events = []
        fit, step = pl.fit_cameras, Adam.step
        monkeypatch.setattr(pl, "fit_cameras", lambda *args: events.append("fit") or fit(*args))
        monkeypatch.setattr(Adam, "step", lambda self: events.append("step") or step(self))
        scenes = tiny_scenes(6, noise="default")
        assert len({len(pairs) for pairs in pl.estimator_features(scenes)}) == 1
        model = pl.VisionPipeline(TINY, np.random.default_rng(20))
        pl.train_model(model, scenes[:4], scenes[4:], TrainConfig(epochs=2, batch_size=2, seed=0))
        assert events == ["fit"] + ["step"] * 4

    def test_memoized_predictions_equal_a_fresh_models(self):
        scenes = tiny_scenes(5, noise="default")
        model = pl.VisionPipeline(TINY, np.random.default_rng(21))
        pl.train_model(model, scenes[:3], scenes[3:], TrainConfig(epochs=2, batch_size=2, seed=1))
        assert len(model.estimator.fits) == 5
        fresh = pl.VisionPipeline(TINY, np.random.default_rng(0))
        restore_model(fresh, {}, {name: p.data for name, p in model.named_parameters()})
        assert not fresh.estimator.fits
        for scene in scenes:
            for got, want in zip(model.predict(scene), fresh.predict(scene)):
                assert np.array_equal(got, want)

    def test_each_scene_is_averaged_once_across_training_and_predictions(self, monkeypatch):
        seen = Counter()
        features = pl.estimator_features
        monkeypatch.setattr(
            pl, "estimator_features", lambda scenes: seen.update(map(id, scenes)) or features(scenes)
        )
        scenes = tiny_scenes(8, noise="default")
        model = pl.VisionPipeline(TINY, np.random.default_rng(20))
        result = pl.train_model(model, scenes[:4], scenes[4:6], TrainConfig(epochs=2, batch_size=2, seed=0))
        assert result.history[-1].val_sum is not None
        model.predict(scenes)
        model.predict(scenes)
        assert seen == Counter(map(id, scenes))

    def test_a_scene_listed_twice_in_one_call_is_fitted_once(self, monkeypatch):
        calls = self.count_fits(monkeypatch)
        scene, other = tiny_scenes(2, seed0=50, noise="default")
        estimator = pl.CameraEstimator(sim.FOCAL)
        rows = estimator([scene, other, scene]).data
        assert sum(len(call) for call in calls) == 2 and len(estimator.fits) == 2
        assert rows.shape == (3, 12) and np.array_equal(rows[0], rows[2])
        assert np.array_equal(rows[:1], fit_rows(pl.CameraEstimator(sim.FOCAL), scene))

    def test_moved_agents_get_their_own_fit(self):
        scene = tiny_scenes(1, noise="default")[0]
        estimator = pl.CameraEstimator(sim.FOCAL)
        original = fit_rows(estimator, scene)
        moved = copy.deepcopy(scene)
        for row in in_sight_rows(moved):
            moved.sensor[row] = moved.sensor[row] + np.array([1.5, -2.0, 0.0])
            moved.pixel[row] = moved.pixel[row] + 7.0
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

    def test_no_estimator_starts_at_the_nominal_camera_of_the_scenes_rig(self, monkeypatch):
        cfg = sim.SimulatorConfig(image_size=(1280, 960), focal=1000.0, t_pred=TINY.t_pred)
        scenes = sim.make_split(cfg, 30, 2)
        model = pl.VisionPipeline(dataclasses.replace(TINY, focal=cfg.focal), np.random.default_rng(0), "no_estimator")
        seen, project = [], pl.project_rows
        monkeypatch.setattr(pl, "project_rows", lambda rows, points: seen.append(rows.data) or project(rows, points))
        model.forward(scenes)
        nominal = geo.nominal_camera(cfg.intrinsics())[0]
        assert np.array_equal(seen[0], np.repeat(nominal, 2 * cfg.t_obs, axis=0))

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
        pixel = scene.pixel[scene.hidden]
        w, h = scene.image_size
        visual, future = model.predict(scene)
        loss_d, loss_p = model.loss_terms(scene)
        norm = np.array([1.0 / w, 1.0 / h])
        want_d = np.mean(((visual - pixel[: scene.t_obs]) * norm) ** 2)
        want_p = np.mean(((future - pixel[scene.t_obs:]) * norm) ** 2)
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
            pixel = scene.pixel[scene.hidden]
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
            hidden = tampered.hidden
            tampered.pixel[hidden] = tampered.pixel[hidden] + 500.0
            tampered.world[hidden] = tampered.world[hidden] + 9.0
            got_v, got_f = model.predict(tampered)
            assert np.array_equal(base_v, got_v)
            assert np.array_equal(base_f, got_f)

    def test_features_ignore_hidden_agent(self):
        scene = tiny_scenes(1)[0]
        base = pl.estimator_features([scene])[0]
        tampered = copy.deepcopy(scene)
        tampered.pixel[tampered.hidden] = -1.0
        assert np.array_equal(base, pl.estimator_features([tampered])[0])


class TestEndToEndGradients:
    def test_full_pipeline_against_finite_differences(self):
        cfg = ModelConfig(t_pred=2, width=8, layers=1, heads=2)
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
        tcfg = TrainConfig(epochs=25, batch_size=3, lr=3e-3, seed=0)
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
            tcfg = TrainConfig(epochs=5, batch_size=2, lr=1e-3, seed=3)
            result = pl.train_model(model, scenes, [], tcfg)
            return result, {name: p.data.copy() for name, p in model.named_parameters()}

        res_a, params_a = run()
        res_b, params_b = run()
        assert [s.loss_denoise for s in res_a.history] == [s.loss_denoise for s in res_b.history]
        assert [s.loss_pred for s in res_a.history] == [s.loss_pred for s in res_b.history]
        for name in params_a:
            assert np.array_equal(params_a[name], params_b[name])

    def test_best_validation_parameters_are_restored(self):
        scenes = tiny_scenes(4, noise="clean")
        model = pl.VisionPipeline(TINY, np.random.default_rng(8))
        tcfg = TrainConfig(epochs=6, batch_size=2, lr=3e-3, seed=1)
        optimizer = Adam(model.parameters(), lr=tcfg.lr)
        stores = []
        result = pl.train_model(
            model, scenes, scenes[:2], tcfg, optimizer=optimizer, on_epoch=lambda _: stores.append(optimizer.store.copy())
        )
        assert result.best_epoch != len(stores) - 1  # the restore has something to undo
        assert np.array_equal(optimizer.store, stores[result.best_epoch])
        assert all(np.shares_memory(p.data, optimizer.store) for p in model.parameters())
        got_d, got_p = pl.evaluate_split(model, scenes[:2])
        assert got_d + got_p == pytest.approx(result.best_val_sum, abs=1e-9)

    def test_non_finite_loss_aborts_with_location(self):
        scenes = tiny_scenes(2, noise="clean")
        model = pl.VisionPipeline(TINY, np.random.default_rng(9))
        model.parameters()[0].data[0, 0] = np.nan
        with pytest.raises(NonFiniteLoss) as err:
            pl.train_model(model, scenes, [], TrainConfig(epochs=1, batch_size=2))
        assert err.value.epoch == 0
        assert err.value.batch == 0

    def test_shuffle_is_epoch_keyed(self):
        a = pl._shuffle(5, 0, 10)
        b = pl._shuffle(5, 0, 10)
        c = pl._shuffle(5, 1, 10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
