"""Simulator: motion bounds, visibility contracts, noise statistics against
closed-form laws, bitwise scene determinism, the lockstep walk against a
per-track, per-step reference walk, the vectorised stream seeding against
numpy's SeedSequence, and split files pinned by their sha256."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindtrack import dataset as ds
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
    assert list(a.agent_ids) == list(b.agent_ids)
    assert np.array_equal(a.world, b.world)
    assert np.array_equal(a.sensor, b.sensor)
    assert np.array_equal(a.pixel, b.pixel, equal_nan=True)
    assert np.array_equal(a.visible, b.visible)


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


def scene_rng(seed: int, *stream) -> np.random.Generator:
    """One stream's generator built alone, through numpy's SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + [int(s) for s in stream]))


def camera_sequence(cfg: sim.SimulatorConfig, rng: np.random.Generator, steps: int) -> np.ndarray:
    """One scene's rig, (steps, 3, 4): mount, gaze point and, for moving
    presets, a direction drawn one by one with rng.uniform and rng.choice,
    then each step's pose composed alone."""
    base = np.array([rng.uniform(*box) for box in geo.POSE_BOX[:3]])
    aim = np.array([rng.uniform(*box) for box in geo.POSE_BOX[3:]])
    positions = np.tile(base, (steps, 1))
    if cfg.camera_motion == "linear":
        direction = np.array([rng.choice([-1.0, 1.0]), 0.0, 0.0])
        positions = base + direction * sim.CAMERA_SPEED * sim.DT * np.arange(steps)[:, None]
    elif cfg.camera_motion == "arc":
        radius_vec = base[:2] - aim[:2]
        omega = sim.CAMERA_SPEED / np.linalg.norm(radius_vec) * rng.choice([-1.0, 1.0])
        angles = omega * sim.DT * np.arange(steps)
        cos_a, sin_a = np.cos(angles), np.sin(angles)
        rotated = np.column_stack(
            [cos_a * radius_vec[0] - sin_a * radius_vec[1], sin_a * radius_vec[0] + cos_a * radius_vec[1]]
        )
        positions = np.column_stack([aim[:2] + rotated, np.full(steps, base[2])])
    k = cfg.intrinsics().matrix()
    return np.stack([k @ per_step_extrinsic(p, aim) for p in positions])


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
    attempt index any agent needed. Every stream's generator is built
    alone through numpy's SeedSequence."""
    total = cfg.t_total
    camera = camera_sequence(cfg, scene_rng(seed, 0), total)
    hidden_id = int(scene_rng(seed, 1).integers(0, cfg.n_agents))
    rows, last_attempt = [], 0
    for agent_id in range(cfg.n_agents):
        need_until = total if agent_id == hidden_id else cfg.t_obs
        for attempt in range(sim.RETRY_BUDGET):
            world = reference_track(scene_rng(seed, 2, agent_id, attempt), total)
            uv, visible = reference_render(world, camera, cfg.image_size)
            if visible[:need_until].all():
                break
        else:
            raise AssertionError("reference scene exhausted its retry budget")
        last_attempt = max(last_attempt, attempt)
        noise = cfg.noise.sample(scene_rng(seed, 3, agent_id), cfg.t_obs)
        rows.append((world, world[: cfg.t_obs] + noise, uv, visible))
    world, sensor, pixel, visible = map(np.stack, zip(*rows))
    scene = sim.Scene(int(seed), cfg.t_obs, cfg.t_pred, tuple(cfg.image_size), camera, list(range(cfg.n_agents)),
                      world, sensor, pixel, visible, hidden_id)
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
            assert len(scene.agent_ids) == cfg.n_agents

    def test_seeds_of_two_and_three_words_equal_the_reference(self):
        # 2**64 - 1 is two 32-bit entropy words and 2**64 three: one pass
        # seeds rows of several lengths
        cfg = small_config(camera_motion="arc", noise=sim.NoiseModel.preset("hard"))
        for scene in sim.make_split(cfg, 2**64 - 1, 3):
            assert_scene_equal(scene, reference_scene(cfg, scene.seed)[0])

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
            assert np.all(steps <= sim.WALK_SPEED[1] * sim.DT + 1e-9)

    def test_track_stays_in_arena_at_constant_height(self):
        track = sim.gen_track(np.random.default_rng(3), 60)
        assert np.all(track[:, 0] >= sim.ARENA_X[0]) and np.all(track[:, 0] <= sim.ARENA_X[1])
        assert np.all(track[:, 1] >= sim.ARENA_Y[0]) and np.all(track[:, 1] <= sim.ARENA_Y[1])
        assert np.all(track[:, 2] == track[0, 2])
        assert sim.HEIGHT_RANGE[0] <= track[0, 2] <= sim.HEIGHT_RANGE[1]

    def test_agents_in_one_scene_have_distinct_heights(self):
        scene = sim.make_scene(small_config(), seed=11)
        heights = sorted(scene.world[:, 0, 2])
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
        for sensor, world in zip(scene.sensor, scene.world):
            assert np.array_equal(sensor, world[: scene.t_obs])


class TestScenes:
    def test_scene_is_seed_deterministic(self):
        cfg = small_config(noise=sim.NoiseModel.preset("hard"))
        assert_scene_equal(sim.make_scene(cfg, 7), sim.make_scene(cfg, 7))

    def test_different_seeds_differ(self):
        cfg = small_config()
        a, b = sim.make_scene(cfg, 1), sim.make_scene(cfg, 2)
        assert not np.array_equal(a.world[0], b.world[0])

    def test_visibility_contracts(self):
        for seed in range(8):
            scene = sim.make_scene(small_config(), seed)
            assert scene.visible[scene.hidden].all()
            for row, visible in enumerate(scene.visible):
                if row != scene.hidden:
                    assert visible[: scene.t_obs].all()

    def test_rendered_pixels_are_rounded_projections(self):
        scene = sim.make_scene(small_config(), 11)
        w, h = scene.image_size
        for world, pixel, vis in zip(scene.world, scene.pixel, scene.visible):
            exact = geo.project_trajectory(scene.camera, world)
            assert np.all(np.abs(pixel[vis] - exact[vis]) <= 0.5)
            assert np.array_equal(pixel[vis], np.rint(pixel[vis]))
            assert np.all(pixel[vis, 0] >= 0) and np.all(pixel[vis, 0] <= w - 1)
            assert np.all(pixel[vis, 1] >= 0) and np.all(pixel[vis, 1] <= h - 1)
            assert np.all(np.isnan(pixel[~vis]))

    def test_sensor_covers_observation_window_only(self):
        scene = sim.make_scene(small_config(), 13)
        for sensor, world in zip(scene.sensor, scene.world):
            assert sensor.shape == (scene.t_obs, 3)
            assert world.shape == (scene.t_total, 3)

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

    @pytest.mark.parametrize(
        "changes, field",
        [({"focal": math.nan}, "focal"), ({"focal": math.inf}, "focal"), ({"focal": -math.inf}, "focal"),
         ({"focal": 0.0}, "focal"), ({"image_size": (640.5, 480)}, "image_size"),
         ({"image_size": (640, 480.0)}, "image_size"), ({"image_size": (True, 480)}, "image_size"),
         ({"image_size": (640,)}, "image_size"), ({"image_size": (0, 480)}, "image_size")],
    )
    def test_rig_refused_before_any_track_is_walked(self, monkeypatch, changes, field):
        def walk(*args):
            raise AssertionError("a track was walked")

        monkeypatch.setattr(sim, "walk_tracks", walk)
        with pytest.raises(ConfigError) as err:
            sim.make_split(small_config(**changes), 0, 2)
        assert err.value.field == field and err.value.exit_code == 2 and field in str(err.value)


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
        # every scene's rig of a split is built in one array pass; each
        # matrix must carry the bits of composing that step's pose alone
        seen = []

        def recording_look_at(position, target):
            seen.append(np.shape(position))
            return geo.look_at(position, target)

        monkeypatch.setattr(sim, "look_at", recording_look_at)
        cfg = small_config(camera_motion=motion, t_obs=t_obs, t_pred=t_pred)
        split = sim.make_split(cfg, 0, 8)
        assert seen == [(8, cfg.t_total, 3)]
        for scene in split:
            assert np.array_equal(scene.camera, camera_sequence(cfg, scene_rng(scene.seed, 0), cfg.t_total))

    def test_all_motions_keep_scene_generable(self):
        for motion in sim.MOTION_KINDS:
            scene = sim.make_scene(small_config(camera_motion=motion), 9)
            assert scene.visible[scene.hidden].all()


class TestDatasets:
    def test_split_seeds_disjoint_and_contiguous(self):
        cfg = small_config()
        splits = sim.make_dataset(cfg, base_seed=100, n_train=3, n_val=2, n_test=2)
        seeds = {name: [s.seed for s in scenes] for name, scenes in splits.items()}
        assert seeds["train"] == [100, 101, 102]
        assert seeds["val"] == [103, 104]
        assert seeds["test"] == [105, 106]

    def test_dataset_is_its_splits_built_alone(self):
        cfg = small_config(**TestRetries.RETRY_CFG)
        splits = sim.make_dataset(cfg, 2**32 - 4, 3, 2, 3)
        for name, base_seed, count in (("train", 2**32 - 4, 3), ("val", 2**32 - 1, 2), ("test", 2**32 + 1, 3)):
            assert len(splits[name]) == count
            for a, b in zip(splits[name], sim.make_split(cfg, base_seed, count)):
                assert_scene_equal(a, b)


# entropy ints of one to three 32-bit words and past 2**64, with the word
# boundaries drawn often
ENTROPY_INTS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 3]), st.integers(0, 2**80))


class TestStreamSeeding:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(1, 6).flatmap(
        lambda k: st.lists(st.lists(ENTROPY_INTS, min_size=k, max_size=k), min_size=1, max_size=6)
    ))
    def test_states_and_draws_equal_seed_sequence(self, rows):
        columns = list(zip(*rows))
        states = sim.stream_states(*columns)
        assert states.shape == (len(rows), 4) and states.dtype == np.uint64
        for row, state, rng in zip(rows, states, sim.stream_rngs(*columns)):
            expected = np.random.SeedSequence(row)
            assert np.array_equal(state, expected.generate_state(4, np.uint64))
            reference = np.random.default_rng(expected)
            assert np.array_equal(rng.random(5), reference.random(5))
            assert np.array_equal(rng.integers(0, 2**62, 3), reference.integers(0, 2**62, 3))

    @pytest.mark.parametrize(
        "row", [(0,), (2**32 - 1,), (2**32,), (2**64 + 1,), (7, 2, 3, 99), (2**32, 2**32 - 1, 0, 2**65, 7, 1)]
    )
    def test_word_boundaries(self, row):
        state = sim.stream_states(*([v] for v in row))[0]
        assert np.array_equal(state, np.random.SeedSequence(row).generate_state(4, np.uint64))

    def test_one_int_serves_every_row(self):
        seeds = np.array([5, 2**32 + 6, 2**70], dtype=object)
        states = sim.stream_states(seeds, 2, [0, 1, 2], 9)
        for i, seed in enumerate(seeds):
            assert np.array_equal(states[i], np.random.SeedSequence([seed, 2, i, 9]).generate_state(4, np.uint64))

    def test_negative_int_is_refused_as_numpy_refuses_it(self):
        with pytest.raises(ValueError, match="non-negative"):
            np.random.SeedSequence([3, -1])
        with pytest.raises(ValueError, match="non-negative"):
            sim.stream_states([3], [-1])


# (config, base seed, (train, val, test) sizes) -> each split file's sha256,
# as the per-stream SeedSequence simulator wrote them. The retry config's
# second range straddles 2**32, where a seed becomes two entropy words.
RETRY_SIM = sim.SimulatorConfig(n_agents=4, t_obs=10, t_pred=5, image_size=(200, 150),
                                noise=sim.NoiseModel.preset("clean"))
GOLDEN = {
    "desk": (sim.SimulatorConfig(), 0, (3, 1, 2), {
        "train": "c2a2c417f9c60af8f2ca06edfc5c1c12f2eea7e491b55c7adafdf07f322e6ff2",
        "val": "08c57a1d1543100320f676e07a9fd06d119d751fe9cebf559c315f8c5d3e77d9",
        "test": "061755e865b0ae930d7e117b128695fac1b4ef458b55dac5dfb20690d7bf5c20",
    }),
    "arc_t100_hard": (
        sim.SimulatorConfig(t_obs=50, t_pred=50, camera_motion="arc", noise=sim.NoiseModel.preset("hard")),
        11, (2, 1, 1), {
            "train": "ea79dbe24c52289e25630f619b3381d9da60ec2fcb9b5c95afef01272cfd0d92",
            "val": "c1578f02ca11d6c7f7e0e35b18d4ac5e935cd4bf5fce34c136c5008cf0723360",
            "test": "4034aec8b5240315cb2d07678b85b93d106cda9525cfaf3cfa5643d6cc382caf",
        }),
    "linear_odometer_5_agents": (
        sim.SimulatorConfig(n_agents=5, camera_motion="linear",
                            noise=sim.NoiseModel(kind="odometer", drift_step_sigma=0.05)),
        20, (3, 1, 2), {
            "train": "ad37cfe1918a0e5a99481ff9d157e43202b7ec92fca050d180d243dd882ef3d3",
            "val": "1ba42624621b99a50779c9b86fe2070998e62a75ee6e536908b7b147e417c29f",
            "test": "a96948d35cb5a93d7caccea5b521dd7f8c61628276f09a55bc4055e754f30843",
        }),
    "retries": (RETRY_SIM, 0, (5, 2, 3), {
        "train": "2fb2b1b955fdf46f9b6fec64ec2eef6dad0ff678f51549cf9e2559cf804a304b",
        "val": "fff8f14e8f1bdaaaebb7a95c59a81c82ae143d94139287bae5b39ad82009e50b",
        "test": "7526bce8a3343bbbdae9d5ecd52b9ff6c09f3db78dbddbb98a56e1dd03f2e146",
    }),
    "retries_straddling_2_32": (RETRY_SIM, 2**32 - 4, (3, 2, 3), {
        "train": "207b6e54aa63d969aa5e6308f95ff8f05e959390b3d749b056e4c30d92639623",
        "val": "2ca5ca67025d55003c21eb8f99f8bbe62c567f8062156fdd7c284327341a9bce",
        "test": "f7025c837295a36293dfd914958c9a01042647363b23d957635ba6734a669857",
    }),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("name", GOLDEN)
    def test_split_files_keep_their_sha256(self, tmp_path, name):
        cfg, base_seed, sizes, digests = GOLDEN[name]
        splits = sim.make_dataset(cfg, base_seed, *sizes)
        assert {split: ds.write_scenes(tmp_path / f"{split}.jsonl", scenes) for split, scenes in splits.items()} == digests

    def test_retry_ranges_retry_and_leave_steps_unseen(self):
        # what the two retry entries pin that the benchmark's data lacks
        scenes = [s for base_seed, count in ((0, 10), (2**32 - 4, 8)) for s in sim.make_split(RETRY_SIM, base_seed, count)]
        assert sum(reference_scene(RETRY_SIM, s.seed)[1] > 0 for s in scenes) >= 10
        assert any(not s.visible.all() for s in scenes)
