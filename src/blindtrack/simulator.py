"""Synthetic multimodal scenes: several agents walk an arena watched by one
camera; every agent carries a noisy positioning sensor, and one designated
agent's visual track is withheld from models (it exists only as ground
truth). All randomness flows through hierarchical seed sequences, so a
scene is a pure function of its config and seed.

A split is built in a few array passes rather than track by track: every
agent's first attempt of every scene walks in one lockstep pass
(`walk_tracks`), each scene's agents are rendered in one projection, and
only agents still out of frame walk again, one pass per attempt index.
Each track keeps its own (seed, agent, attempt) generator, drawn in a
fixed order, so a scene carries the same bits whichever split builds it,
and `make_scene` is `make_split` of one seed.

Geometry defaults: the arena is a ground patch 8 m wide and 12 m deep in
front of the camera, sensors ride at about 1 m height, and the camera
sits 2-3 m high near the origin gazing at a per-scene point drawn near
the arena centre. Sensor noise is drawn per axis; vertical error uses
the same sigma as horizontal for simplicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SceneGenerationFailed, SchemaError
from .geometry import EPS_DEPTH, CameraIntrinsics, compose_matrix, look_at, row_norms

DT = 0.1  # seconds per timestep
V_MAX = 3.0  # hard cap on agent speed, m/s
# per-agent sensor height range; distinct heights keep the set of world
# points non-coplanar, which classical calibration needs
HEIGHT_RANGE = (0.8, 1.9)
IMAGE_SIZE = (640, 480)
FOCAL = 500.0

ARENA_X = (-4.0, 4.0)
ARENA_Y = (10.0, 22.0)

WALK_SPEED = (0.4, 1.4)  # m/s, sampled per waypoint leg
SMOOTH_WINDOW = 5
CAMERA_SPEED = 0.5  # m/s for moving-camera presets
RETRY_BUDGET = 100
RETRY_SCENES = 16  # scenes whose unplaced agents retry together

# camera rig jitter: each scene draws its mount position from the MOUNT
# box and its gaze point from the AIM box. Aim jitter is what makes the
# per-scene camera genuinely different: rotating the view by an aim
# offset d moves pixels by roughly FOCAL*d/range, tens of pixels here,
# while mount translation alone is largely cancelled by the re-aiming.
# The sideways aim range is kept wide and the other two narrow so the
# variation a model must infer stays low-dimensional enough to learn
# from a desk-scale training set.
MOUNT_X = (-0.6, 0.6)
MOUNT_Y = (-0.25, 0.25)
MOUNT_H = (2.35, 2.65)
AIM_X = (-1.2, 1.2)
AIM_Y = (15.8, 16.2)
AIM_H = (0.95, 1.05)

NOISE_KINDS = ("gps", "odometer", "combined")
MOTION_KINDS = ("static", "linear", "arc")


@dataclass(frozen=True)
class NoiseModel:
    """Sensor corruption: white positional error, integrated drift, or both."""

    kind: str = "gps"
    gps_sigma: float = 2.0
    drift_step_sigma: float = 0.0

    def validate(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"noise kind {self.kind!r} not in {NOISE_KINDS}", field="noise.kind")
        if not 0.0 <= self.gps_sigma <= 10.0:
            raise ConfigError(f"gps_sigma {self.gps_sigma} outside [0, 10]", field="noise.gps_sigma")
        if not 0.0 <= self.drift_step_sigma <= 1.0:
            raise ConfigError(
                f"drift_step_sigma {self.drift_step_sigma} outside [0, 1]", field="noise.drift_step_sigma"
            )

    @classmethod
    def preset(cls, name: str) -> "NoiseModel":
        if name == "clean":
            return cls(kind="gps", gps_sigma=0.0)
        if name == "default":
            return cls(kind="gps", gps_sigma=2.0)
        if name == "hard":
            return cls(kind="combined", gps_sigma=2.0, drift_step_sigma=0.05)
        raise ConfigError(f"unknown noise preset {name!r}", field="noise")

    def sample(self, rng: np.random.Generator, steps: int) -> np.ndarray:
        """Additive offsets, (steps, 3). Draw order is fixed: white error
        first, then drift, so 'combined' is reproducible."""
        offsets = np.zeros((steps, 3))
        if self.kind in ("gps", "combined"):
            offsets += rng.normal(0.0, self.gps_sigma, (steps, 3))
        if self.kind in ("odometer", "combined"):
            offsets += np.cumsum(rng.normal(0.0, self.drift_step_sigma, (steps, 3)), axis=0)
        return offsets


@dataclass(frozen=True)
class SimulatorConfig:
    n_agents: int = 8
    t_obs: int = 20
    t_pred: int = 20
    camera_motion: str = "static"
    noise: NoiseModel = field(default_factory=NoiseModel)
    image_size: tuple[int, int] = IMAGE_SIZE
    focal: float = FOCAL

    def validate(self) -> None:
        if self.n_agents < 2:
            raise ConfigError(f"n_agents {self.n_agents} < 2 (one hidden plus one visible)", field="n_agents")
        if self.t_obs < 2:
            raise ConfigError(f"t_obs {self.t_obs} < 2", field="t_obs")
        if self.t_pred < 1:
            raise ConfigError(f"t_pred {self.t_pred} < 1", field="t_pred")
        if self.camera_motion not in MOTION_KINDS:
            raise ConfigError(
                f"camera_motion {self.camera_motion!r} not in {MOTION_KINDS}", field="camera_motion"
            )
        if len(self.image_size) != 2 or min(self.image_size) < 1:
            raise ConfigError(f"image_size {self.image_size} invalid", field="image_size")
        if self.focal <= 0:
            raise ConfigError(f"focal {self.focal} must be positive", field="focal")
        self.noise.validate()

    @property
    def t_total(self) -> int:
        return self.t_obs + self.t_pred

    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics.centered(self.focal, self.image_size)


@dataclass
class SceneAgent:
    agent_id: int
    world: np.ndarray  # (t_total, 3) ground truth
    sensor: np.ndarray  # (t_obs, 3) noisy; models never see more than this
    pixel: np.ndarray  # (t_total, 2) rounded pixels, NaN where invisible
    visible: np.ndarray  # (t_total,) bool


@dataclass
class Scene:
    seed: int
    t_obs: int
    t_pred: int
    image_size: tuple[int, int]
    camera: np.ndarray  # (t_total, 3, 4)
    agents: list[SceneAgent]
    out_of_sight_id: int

    @property
    def t_total(self) -> int:
        return self.t_obs + self.t_pred

    def out_of_sight(self) -> SceneAgent:
        for agent in self.agents:
            if agent.agent_id == self.out_of_sight_id:
                return agent
        raise SchemaError(
            f"scene seed {self.seed}: no agent carries out_of_sight_id {self.out_of_sight_id}",
            field="out_of_sight_id",
        )

    def in_sight(self) -> list[SceneAgent]:
        return [a for a in self.agents if a.agent_id != self.out_of_sight_id]

    @property
    def shape(self) -> tuple[int, int, tuple[int, int]]:
        """(t_obs, t_pred, image_size): scenes of one shape row-stack into
        one forward pass."""
        return self.t_obs, self.t_pred, tuple(self.image_size)


def shape_groups(scenes: list[Scene]) -> list[list[int]]:
    """Positions of scenes grouped by shape (Scene.shape), each group in
    list order and the groups in order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for position, scene in enumerate(scenes):
        groups.setdefault(scene.shape, []).append(position)
    return list(groups.values())


def walk_tracks(rngs: list[np.random.Generator], steps: int) -> np.ndarray:
    """Waypoint wanders inside the arena, one per generator, walked in
    lockstep: (len(rngs), steps, 3), z fixed per track.

    Each track walks toward successive waypoints; velocities are then
    box-smoothed and re-integrated, which keeps per-step displacement at or
    under the raw maximum. Positions are clipped to the arena (projection
    onto a box never increases step length). Each track carries its sensor
    at a constant height drawn from HEIGHT_RANGE.

    A track's draws come from its own generator alone, in a fixed order:
    height, start, first waypoint and leg speed, then one waypoint and
    speed per leg as each waypoint is reached. So a track's bits do not
    depend on which other tracks walk beside it.
    """
    if steps < 1:
        raise ConfigError(f"track needs at least 1 step, got {steps}", field="t_obs")
    n = len(rngs)
    # height, start x, y, then the first leg: waypoint x, y and speed
    boxes = [HEIGHT_RANGE, ARENA_X, ARENA_Y, ARENA_X, ARENA_Y, WALK_SPEED]
    first = np.array([rng.uniform(*zip(*boxes)) for rng in rngs]).reshape(n, len(boxes))
    heights, pos, waypoint, speed = first[:, 0], first[:, 1:3], first[:, 3:5].copy(), first[:, 5].copy()
    leg_low, leg_high = zip(ARENA_X, ARENA_Y, WALK_SPEED)
    velocity = np.zeros((n, max(steps - 1, 1), 2))
    cur = pos
    for t in range(steps - 1):
        to_go = waypoint - cur
        dist = row_norms(to_go)
        # only the tracks that reached their waypoint this step draw new
        # legs, until a leg is longer than one step
        for i in np.flatnonzero(dist < speed * DT):
            while dist[i] < speed[i] * DT:
                waypoint[i, 0], waypoint[i, 1], speed[i] = rngs[i].uniform(leg_low, leg_high)
                to_go[i] = waypoint[i] - cur[i]
                dist[i] = row_norms(to_go[i : i + 1])[0]
        velocity[:, t] = to_go / dist[:, None] * speed[:, None]
        cur = cur + velocity[:, t] * DT
    if steps > 1:
        half = SMOOTH_WINDOW // 2
        kernel = np.ones(SMOOTH_WINDOW) / SMOOTH_WINDOW
        padded = np.concatenate(
            [np.repeat(velocity[:, :1], half, axis=1), velocity, np.repeat(velocity[:, -1:], half, axis=1)], axis=1
        )
        # the window's products summed in order carry np.convolve's bits;
        # a matmul with the kernel rounds differently
        smooth = padded[:, : steps - 1] * kernel[0]
        for j in range(1, SMOOTH_WINDOW):
            smooth = smooth + padded[:, j : j + steps - 1] * kernel[j]
        xy = pos[:, None, :] + np.concatenate([np.zeros((n, 1, 2)), np.cumsum(smooth * DT, axis=1)], axis=1)
    else:
        xy = pos[:, None, :]
    xy = np.clip(xy, (ARENA_X[0], ARENA_Y[0]), (ARENA_X[1], ARENA_Y[1]))
    return np.concatenate([xy, np.broadcast_to(heights[:, None, None], (n, steps, 1))], axis=2)


def gen_track(rng: np.random.Generator, steps: int) -> np.ndarray:
    """One waypoint wander, (steps, 3): `walk_tracks` of one generator."""
    return walk_tracks([rng], steps)[0]


def camera_sequence(cfg: SimulatorConfig, rng: np.random.Generator, steps: int) -> np.ndarray:
    """Per-timestep projection matrices, (steps, 3, 4), built in one array
    pass over the mount positions. Mount position and gaze point are
    jittered per scene; moving presets translate the mount while always
    re-aiming at the scene's own gaze point."""
    base = np.array([rng.uniform(*MOUNT_X), rng.uniform(*MOUNT_Y), rng.uniform(*MOUNT_H)])
    aim = np.array([rng.uniform(*AIM_X), rng.uniform(*AIM_Y), rng.uniform(*AIM_H)])
    intrinsics = cfg.intrinsics()
    positions = np.tile(base, (steps, 1))
    if cfg.camera_motion == "linear":
        direction = np.array([rng.choice([-1.0, 1.0]), 0.0, 0.0])
        positions = base + direction * CAMERA_SPEED * DT * np.arange(steps)[:, None]
    elif cfg.camera_motion == "arc":
        radius_vec = base[:2] - aim[:2]
        radius = np.linalg.norm(radius_vec)
        omega = CAMERA_SPEED / radius * rng.choice([-1.0, 1.0])
        angles = omega * DT * np.arange(steps)
        cos_a, sin_a = np.cos(angles), np.sin(angles)
        rotated = np.column_stack(
            [cos_a * radius_vec[0] - sin_a * radius_vec[1], sin_a * radius_vec[0] + cos_a * radius_vec[1]]
        )
        positions = np.column_stack([aim[:2] + rotated, np.full(steps, base[2])])
    return compose_matrix(1.0, intrinsics, look_at(positions, aim))


def render_visual(
    world: np.ndarray, matrices: np.ndarray, image_size: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Rasterize world tracks (..., T, 3) through per-timestep (..., T, 3, 4)
    matrices: rounded pixel coordinates (..., T, 2) plus a visibility mask
    (..., T). Points behind the camera or outside the image are invisible
    (NaN pixels), never an error. A stack of tracks gets the bits each
    track gets alone."""
    hom = np.concatenate([world, np.ones(world.shape[:-1] + (1,))], axis=-1)
    rows = np.einsum("...tij,...tj->...ti", matrices, hom)
    depths = rows[..., 2]
    safe = np.where(depths > EPS_DEPTH, depths, 1.0)
    uv = np.rint(rows[..., :2] / safe[..., None])
    w, h = image_size
    visible = (
        (depths > EPS_DEPTH)
        & (uv[..., 0] >= 0.0) & (uv[..., 0] <= w - 1.0)
        & (uv[..., 1] >= 0.0) & (uv[..., 1] <= h - 1.0)
    )
    uv[~visible] = np.nan
    return uv, visible


def _scene_rng(seed: int, *stream) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + [int(s) for s in stream]))


def make_split(cfg: SimulatorConfig, base_seed: int, count: int) -> list[Scene]:
    """Sample scenes of seeds base_seed .. base_seed + count - 1. The hidden
    agent must stay renderable over the full horizon (its pixels are the
    labels); visible agents must stay in frame over the observation window.
    A track violating this is resampled from the agent's next attempt
    stream, up to a fixed retry budget.

    All tracks of the split walk in lockstep: first every agent's first
    attempt, then, one attempt index at a time, only the agents still
    unplaced. Every track draws from its own (seed, agent, attempt) stream,
    so each scene is the same whichever split builds it."""
    cfg.validate()
    total = cfg.t_total
    seeds = [int(base_seed) + i for i in range(count)]
    cameras = np.array([camera_sequence(cfg, _scene_rng(seed, 0), total) for seed in seeds]).reshape(
        count, total, 3, 4
    )
    hidden = np.array([int(_scene_rng(seed, 1).integers(0, cfg.n_agents)) for seed in seeds], dtype=int)
    # the steps each agent must stay visible for: all of them for the hidden agent
    need_until = np.where(np.arange(cfg.n_agents) == hidden[:, None], total, cfg.t_obs)
    must_see = np.arange(total) < need_until[..., None]
    world = np.empty((count, cfg.n_agents, total, 3))
    pixel = np.empty((count, cfg.n_agents, total, 2))
    visible = np.empty((count, cfg.n_agents, total), dtype=bool)
    unplaced = np.ones((count, cfg.n_agents), dtype=bool)

    def walk(attempt: int, rows: np.ndarray, cols: np.ndarray) -> None:
        """Walk and render one attempt of the given agents in one pass."""
        tracks = walk_tracks([_scene_rng(seeds[r], 2, c, attempt) for r, c in zip(rows, cols)], total)
        world[rows, cols] = tracks
        pixel[rows, cols], visible[rows, cols] = render_visual(tracks, cameras[rows], cfg.image_size)
        unplaced[rows, cols] = ~np.all(visible[rows, cols] | ~must_see[rows, cols], axis=1)

    walk(0, *np.nonzero(unplaced))
    # retries go RETRY_SCENES scenes at a time in seed order, so a rig no
    # track fits fails after RETRY_BUDGET passes over a few scenes
    retry_rows = np.flatnonzero(unplaced.any(axis=1))
    for block in np.split(retry_rows, range(RETRY_SCENES, len(retry_rows), RETRY_SCENES)):
        for attempt in range(1, RETRY_BUDGET):
            rows, cols = np.nonzero(unplaced[block])
            if not len(rows):
                break
            walk(attempt, block[rows], cols)
        if unplaced[block].any():
            row, agent_id = (int(i[0]) for i in np.nonzero(unplaced))
            raise SceneGenerationFailed(
                f"scene seed {seeds[row]}: agent {agent_id} never fully visible for "
                f"{need_until[row, agent_id]} steps in {RETRY_BUDGET} attempts"
            )
    scenes = []
    for row, seed in enumerate(seeds):
        scene_agents = []
        for agent_id in range(cfg.n_agents):
            noise = cfg.noise.sample(_scene_rng(seed, 3, agent_id), cfg.t_obs)
            scene_agents.append(
                SceneAgent(
                    agent_id=agent_id,
                    world=world[row, agent_id],
                    sensor=world[row, agent_id, : cfg.t_obs] + noise,
                    pixel=pixel[row, agent_id],
                    visible=visible[row, agent_id],
                )
            )
        scenes.append(
            Scene(
                seed=seed,
                t_obs=cfg.t_obs,
                t_pred=cfg.t_pred,
                image_size=tuple(cfg.image_size),
                camera=cameras[row],
                agents=scene_agents,
                out_of_sight_id=int(hidden[row]),
            )
        )
    return scenes


def make_scene(cfg: SimulatorConfig, seed: int) -> Scene:
    """Sample one scene: `make_split` of one seed."""
    return make_split(cfg, seed, 1)[0]


def make_dataset(
    cfg: SimulatorConfig, base_seed: int, n_train: int, n_val: int, n_test: int
) -> dict[str, list[Scene]]:
    """Three disjoint splits with consecutive seed blocks starting at
    base_seed: train, then val, then test."""
    return {
        "train": make_split(cfg, base_seed, n_train),
        "val": make_split(cfg, base_seed + n_train, n_val),
        "test": make_split(cfg, base_seed + n_train + n_val, n_test),
    }
