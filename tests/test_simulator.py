"""Simulator: motion bounds, visibility contracts, noise statistics against
closed-form laws, bitwise scene determinism, and the lockstep walk against
a per-track, per-step reference walk."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindtrack import geometry as geo
from blindtrack import simulator as sim
from blindtrack.errors import ConfigError, SceneGenerationFailed

from test_geometry import per_step_extrinsic


def small_config(**overrides):
    base = dict(n_agents=4, t_obs=10, t_pred=5, noise=sim.NoiseModel.preset("clean"))
    base.update(overrides)
    return sim.SimulatorConfig(**base)


def assert_scene_equal(a: sim.Scene, b: sim.Scene):
    assert a.seed == b.seed and a.out_of_sight_id == b.out_of_sight_id
    assert np.array_equal(a.camera, b.camera)
    for x, y in zip(a.agents, b.agents):
        assert x.agent_id == y.agent_id
        assert np.array_equal(x.world, y.world)
        assert np.array_equal(x.sensor, y.sensor)
        assert np.array_equal(x.pixel, y.pixel, equal_nan=True)
        assert np.array_equal(x.visible, y.visible)


def reference_track(rng: np.random.Generator, steps: int) -> np.ndarray:
    """One track walked step by step, drawing a new waypoint and speed
    whenever the current waypoint is within one step: the per-track form
    the lockstep walk must reproduce bit for bit."""
    height = rng.uniform(*sim.HEIGHT_RANGE)
    pos = np.array([rng.uniform(*sim.ARENA_X), rng.uniform(*sim.ARENA_Y)])
    waypoint = np.array([rng.uniform(*sim.ARENA_X), rng.uniform(*sim.ARENA_Y)])
    speed = rng.uniform(*sim.WALK_SPEED)
    velocity = np.zeros((max(steps - 1, 1), 2))
    cur = pos.copy()
    for t in range(steps - 1):
        to_go = waypoint - cur
        dist = math.sqrt(to_go.dot(to_go))
        while dist < speed * sim.DT:
            waypoint = np.array([rng.uniform(*sim.ARENA_X), rng.uniform(*sim.ARENA_Y)])
            speed = rng.uniform(*sim.WALK_SPEED)
            to_go = waypoint - cur
            dist = math.sqrt(to_go.dot(to_go))
        velocity[t] = to_go / dist * speed
        cur = cur + velocity[t] * sim.DT
    if steps > 1:
        kernel = np.ones(sim.SMOOTH_WINDOW) / sim.SMOOTH_WINDOW
        padded = np.vstack(
            [np.repeat(velocity[:1], sim.SMOOTH_WINDOW // 2, axis=0), velocity,
             np.repeat(velocity[-1:], sim.SMOOTH_WINDOW // 2, axis=0)]
        )
        smooth = np.column_stack(
            [np.convolve(padded[:, 0], kernel, mode="valid"), np.convolve(padded[:, 1], kernel, mode="valid")]
        )
        xy = pos + np.vstack([np.zeros(2), np.cumsum(smooth * sim.DT, axis=0)])
    else:
        xy = pos[None, :]
    xy[:, 0] = np.clip(xy[:, 0], *sim.ARENA_X)
    xy[:, 1] = np.clip(xy[:, 1], *sim.ARENA_Y)
    return np.column_stack([xy, np.full(len(xy), height)])


def reference_render(world: np.ndarray, camera: np.ndarray, image_size) -> tuple[np.ndarray, np.ndarray]:
    """One track projected alone through geometry.homogeneous_apply."""
    rows = geo.homogeneous_apply(camera, world)
    depths = rows[:, 2]
    uv = np.rint(rows[:, :2] / np.where(depths > geo.EPS_DEPTH, depths, 1.0)[:, None])
    w, h = image_size
    visible = (
        (depths > geo.EPS_DEPTH)
        & (uv[:, 0] >= 0.0) & (uv[:, 0] <= w - 1.0)
        & (uv[:, 1] >= 0.0) & (uv[:, 1] <= h - 1.0)
    )
    uv[~visible] = np.nan
    return uv, visible


def reference_scene(cfg: sim.SimulatorConfig, seed: int) -> tuple[sim.Scene, int]:
    """One scene built agent by agent and attempt by attempt from
    reference tracks, each rendered alone; also returns the largest
    attempt index any agent needed. The camera rig and the noise are the
    simulator's own; their bits are pinned elsewhere."""
    total = cfg.t_total
    camera = sim.camera_sequence(cfg, sim._scene_rng(seed, 0), total)
    hidden_id = int(sim._scene_rng(seed, 1).integers(0, cfg.n_agents))
    agents, last_attempt = [], 0
    for agent_id in range(cfg.n_agents):
        need_until = total if agent_id == hidden_id else cfg.t_obs
        for attempt in range(sim.RETRY_BUDGET):
            world = reference_track(sim._scene_rng(seed, 2, agent_id, attempt), total)
            uv, visible = reference_render(world, camera, cfg.image_size)
            if visible[:need_until].all():
                break
        else:
            raise AssertionError("reference scene exhausted its retry budget")
        last_attempt = max(last_attempt, attempt)
        noise = cfg.noise.sample(sim._scene_rng(seed, 3, agent_id), cfg.t_obs)
        agents.append(sim.SceneAgent(agent_id, world, world[: cfg.t_obs] + noise, uv, visible))
    scene = sim.Scene(int(seed), cfg.t_obs, cfg.t_pred, tuple(cfg.image_size), camera, agents, hidden_id)
    return scene, last_attempt


class TestLockstepWalk:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12),
        st.sampled_from([1, 2, 3, 40, 200]),
    )
    def test_walk_equals_one_reference_walk_per_generator(self, seeds, steps):
        walked = sim.walk_tracks([np.random.default_rng(s) for s in seeds], steps)
        assert walked.shape == (len(seeds), steps, 3)
        for seed, track in zip(seeds, walked):
            assert np.array_equal(track, reference_track(np.random.default_rng(seed), steps))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(camera_motion="static"),
            dict(camera_motion="linear"),
            dict(camera_motion="arc", t_obs=30, t_pred=20),
            dict(noise=sim.NoiseModel.preset("hard")),
        ],
        ids=["static", "linear", "arc", "hard"],
    )
    def test_split_equals_scene_by_scene_reference(self, overrides):
        cfg = small_config(n_agents=6, **overrides)
        split = sim.make_split(cfg, 40, 12)
        assert [s.seed for s in split] == list(range(40, 52))
        for scene in split:
            assert_scene_equal(scene, reference_scene(cfg, scene.seed)[0])
            assert len(scene.agents) == cfg.n_agents

    def test_make_scene_is_a_split_of_one(self):
        cfg = small_config(noise=sim.NoiseModel.preset("hard"))
        for seed in (3, 17):
            assert_scene_equal(sim.make_scene(cfg, seed), sim.make_split(cfg, seed - 2, 5)[2])


class TestRetries:
    # a small image forces resampling, which no default config exercises
    RETRY_CFG = dict(n_agents=4, t_obs=10, t_pred=5, image_size=(200, 150))

    def test_retried_scenes_equal_the_reference(self):
        cfg = small_config(**self.RETRY_CFG)
        split = sim.make_split(cfg, 0, 30)
        retried = 0
        for scene in split:
            expected, last_attempt = reference_scene(cfg, scene.seed)
            assert_scene_equal(scene, expected)
            retried += last_attempt > 0
        assert retried == 21

    def test_retry_blocks_do_not_change_scenes(self, monkeypatch):
        cfg = small_config(**self.RETRY_CFG, camera_motion="arc")
        whole = sim.make_split(cfg, 0, 30)
        monkeypatch.setattr(sim, "RETRY_SCENES", 1)
        for a, b in zip(whole, sim.make_split(cfg, 0, 30)):
            assert_scene_equal(a, b)

    @pytest.mark.parametrize(
        "image_size, base_seed, count, seed, agent_id, steps",
        [((2, 2), 5, 1, 5, 0, 15), ((24, 18), 3, 10, 5, 2, 10), ((30, 22), 2, 14, 12, 0, 10)],
    )
    def test_exhausted_budget_names_the_first_failing_scene_and_agent(
        self, image_size, base_seed, count, seed, agent_id, steps
    ):
        # seeds before the named one build; it and later ones fail
        cfg = small_config(n_agents=4, t_obs=10, t_pred=5, image_size=image_size)
        message = f"scene seed {seed}: agent {agent_id} never fully visible for {steps} steps in 100 attempts"
        with pytest.raises(SceneGenerationFailed, match=f"^{message}$"):
            sim.make_split(cfg, base_seed, count)
        with pytest.raises(SceneGenerationFailed, match=f"^{message}$"):
            sim.make_scene(cfg, seed)


class TestTracks:
    def test_displacement_bounded_by_speed_cap(self):
        for seed in range(10):
            track = sim.gen_track(np.random.default_rng(seed), 40)
            steps = np.linalg.norm(np.diff(track, axis=0), axis=1)
            assert np.all(steps <= sim.V_MAX * sim.DT + 1e-9)

    def test_track_stays_in_arena_at_constant_height(self):
        track = sim.gen_track(np.random.default_rng(3), 60)
        assert np.all(track[:, 0] >= sim.ARENA_X[0]) and np.all(track[:, 0] <= sim.ARENA_X[1])
        assert np.all(track[:, 1] >= sim.ARENA_Y[0]) and np.all(track[:, 1] <= sim.ARENA_Y[1])
        assert np.all(track[:, 2] == track[0, 2])
        assert sim.HEIGHT_RANGE[0] <= track[0, 2] <= sim.HEIGHT_RANGE[1]

    def test_agents_in_one_scene_have_distinct_heights(self):
        scene = sim.make_scene(small_config(), seed=11)
        heights = sorted(a.world[0, 2] for a in scene.agents)
        assert len(set(heights)) == len(heights)

    def test_two_step_track_is_single_segment(self):
        track = sim.gen_track(np.random.default_rng(4), 2)
        assert track.shape == (2, 3)
        assert np.linalg.norm(track[1] - track[0]) <= sim.WALK_SPEED[1] * sim.DT + 1e-9


class TestNoise:
    def test_presets(self):
        clean = sim.NoiseModel.preset("clean")
        assert clean.gps_sigma == 0.0
        hard = sim.NoiseModel.preset("hard")
        assert hard.kind == "combined" and hard.drift_step_sigma == 0.05
        with pytest.raises(ConfigError):
            sim.NoiseModel.preset("extreme")

    def test_ranges_enforced(self):
        with pytest.raises(ConfigError):
            sim.NoiseModel(gps_sigma=11.0).validate()
        with pytest.raises(ConfigError):
            sim.NoiseModel(kind="odometer", drift_step_sigma=1.5).validate()
        with pytest.raises(ConfigError):
            sim.NoiseModel(kind="sonar").validate()

    def test_white_noise_variance(self):
        model = sim.NoiseModel(kind="gps", gps_sigma=2.0)
        rng = np.random.default_rng(0)
        draws = np.stack([model.sample(rng, 10) for _ in range(3000)])
        assert np.var(draws) == pytest.approx(4.0, rel=0.1)

    def test_drift_variance_grows_linearly(self):
        # random walk: var at step k is k * sigma^2
        model = sim.NoiseModel(kind="odometer", gps_sigma=0.0, drift_step_sigma=0.1)
        rng = np.random.default_rng(1)
        draws = np.stack([model.sample(rng, 50) for _ in range(3000)])
        assert np.var(draws[:, 49, :]) == pytest.approx(50 * 0.01, rel=0.15)
        assert np.var(draws[:, 9, :]) == pytest.approx(10 * 0.01, rel=0.15)

    def test_clean_sensor_equals_world(self):
        scene = sim.make_scene(small_config(), seed=5)
        for agent in scene.agents:
            assert np.array_equal(agent.sensor, agent.world[: scene.t_obs])


class TestScenes:
    def test_scene_is_seed_deterministic(self):
        cfg = small_config(noise=sim.NoiseModel.preset("hard"))
        assert_scene_equal(sim.make_scene(cfg, 7), sim.make_scene(cfg, 7))

    def test_different_seeds_differ(self):
        cfg = small_config()
        a, b = sim.make_scene(cfg, 1), sim.make_scene(cfg, 2)
        assert not np.array_equal(a.agents[0].world, b.agents[0].world)

    def test_visibility_contracts(self):
        for seed in range(8):
            scene = sim.make_scene(small_config(), seed)
            assert scene.out_of_sight().visible.all()
            for agent in scene.in_sight():
                assert agent.visible[: scene.t_obs].all()

    def test_rendered_pixels_are_rounded_projections(self):
        scene = sim.make_scene(small_config(), 11)
        w, h = scene.image_size
        for agent in scene.agents:
            exact = geo.project_trajectory(scene.camera, agent.world)
            vis = agent.visible
            assert np.all(np.abs(agent.pixel[vis] - exact[vis]) <= 0.5)
            assert np.array_equal(agent.pixel[vis], np.rint(agent.pixel[vis]))
            assert np.all(agent.pixel[vis, 0] >= 0) and np.all(agent.pixel[vis, 0] <= w - 1)
            assert np.all(agent.pixel[vis, 1] >= 0) and np.all(agent.pixel[vis, 1] <= h - 1)
            assert np.all(np.isnan(agent.pixel[~vis]))

    def test_sensor_covers_observation_window_only(self):
        scene = sim.make_scene(small_config(), 13)
        for agent in scene.agents:
            assert agent.sensor.shape == (scene.t_obs, 3)
            assert agent.world.shape == (scene.t_total, 3)

    def test_retry_budget_exhaustion_raises(self):
        cfg = small_config(image_size=(2, 2))
        with pytest.raises(SceneGenerationFailed):
            sim.make_scene(cfg, 0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            small_config(n_agents=1).validate()
        with pytest.raises(ConfigError):
            small_config(t_obs=1).validate()
        with pytest.raises(ConfigError):
            small_config(camera_motion="drone").validate()


class TestCameraMotion:
    @staticmethod
    def positions_from(camera: np.ndarray) -> np.ndarray:
        # M = K [R | t] with t = -R p, so p = -R^-1 t recovered per step
        out = []
        for m in camera:
            k_r = m[:, :3]
            out.append(-np.linalg.solve(k_r, m[:, 3]))
        return np.array(out)

    def test_static_camera_is_constant(self):
        scene = sim.make_scene(small_config(camera_motion="static"), 3)
        assert np.allclose(scene.camera, scene.camera[0])

    def test_linear_camera_translates(self):
        scene = sim.make_scene(small_config(camera_motion="linear"), 3)
        pos = self.positions_from(scene.camera)
        steps = np.diff(pos, axis=0)
        assert np.allclose(np.linalg.norm(steps, axis=1), sim.CAMERA_SPEED * sim.DT, atol=1e-9)
        assert not np.allclose(scene.camera[0], scene.camera[-1])

    def test_arc_camera_moves_on_a_circle(self):
        scene = sim.make_scene(small_config(camera_motion="arc"), 3)
        pos = self.positions_from(scene.camera)
        # circumcenter of the first three positions, then every step must
        # keep that radius (the centre is the scene's own gaze point)
        (ax, ay), (bx, by), (cx, cy) = pos[:3, :2]
        d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
        uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
        dist = np.linalg.norm(pos[:, :2] - np.array([ux, uy]), axis=1)
        assert np.allclose(dist, dist[0], atol=1e-6)
        assert np.allclose(pos[:, 2], pos[0, 2], atol=1e-9)

    @pytest.mark.parametrize(
        "motion, t_obs, t_pred", [("static", 10, 5), ("linear", 10, 5), ("arc", 10, 5), ("arc", 50, 50)]
    )
    def test_rig_equals_per_step_poses_bit_for_bit(self, monkeypatch, motion, t_obs, t_pred):
        # the rig is built in one array pass; each matrix must carry the
        # bits of composing that step's pose alone
        seen = []

        def recording_look_at(position, target):
            seen.append((np.array(position), np.array(target)))
            return geo.look_at(position, target)

        monkeypatch.setattr(sim, "look_at", recording_look_at)
        cfg = small_config(camera_motion=motion, t_obs=t_obs, t_pred=t_pred)
        for seed in range(8):
            seen.clear()
            camera = sim.camera_sequence(cfg, np.random.default_rng(seed), cfg.t_total)
            (positions, aim), = seen
            assert camera.shape == (cfg.t_total, 3, 4) and positions.shape == (cfg.t_total, 3)
            k = cfg.intrinsics().matrix()
            assert np.array_equal(camera, np.stack([k @ per_step_extrinsic(p, aim) for p in positions]))

    def test_all_motions_keep_scene_generable(self):
        for motion in sim.MOTION_KINDS:
            scene = sim.make_scene(small_config(camera_motion=motion), 9)
            assert scene.out_of_sight().visible.all()


class TestDatasets:
    def test_split_seeds_disjoint_and_contiguous(self):
        cfg = small_config()
        splits = sim.make_dataset(cfg, base_seed=100, n_train=3, n_val=2, n_test=2)
        seeds = {name: [s.seed for s in scenes] for name, scenes in splits.items()}
        assert seeds["train"] == [100, 101, 102]
        assert seeds["val"] == [103, 104]
        assert seeds["test"] == [105, 106]
