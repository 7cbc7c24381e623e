"""Synthetic multimodal scenes: several agents walk an arena watched by one
camera; every agent carries a noisy positioning sensor, and one designated
agent's visual track is withheld from models (it exists only as ground
truth). All randomness flows through hierarchical seed sequences, so a
scene is a pure function of its config and seed.

A whole dataset is built in a few array passes rather than scene by
scene or track by track. `make_dataset` is one `make_split` over the seeds
of all three splits, sliced into train, val and test. Within it:
- every stream's generator of a pass is seeded at once: `stream_states`
  runs numpy's SeedSequence hash over the (rows, words) uint32 entropy of
  all (seed, *stream) rows, and each PCG64 seeds itself from its row;
- every scene's camera rig is one intrinsics-times-look_at product on
  (scenes, T, 3) mount positions (`camera_rigs`), its pose drawn from
  the camera model's box (geometry.POSE_BOX);
- every agent's first attempt of every scene walks in one lockstep pass
  (`walk_tracks`) and is rendered in one projection; only agents still
  out of frame walk again, one pass per attempt index.
Each scene and each track keeps its own (seed, *stream) generator, drawn
in a fixed order, so a scene carries the same bits whichever split or
dataset builds it, and `make_scene` is `make_split` of one seed. A `Scene`
holds its agents as rows of stacked arrays: each scene is a slice of the
split's (scenes, agents, T, .) arrays, and every later stage computes on
those rows.

Geometry defaults: the arena is a ground patch 8 m wide and 12 m deep in
front of the camera, sensors ride at about 1 m height, and the camera
sits 2-3 m high near the origin gazing at a per-scene point drawn near
the arena centre. Sensor noise is drawn per axis; vertical error uses
the same sigma as horizontal for simplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigError, SceneGenerationFailed, SchemaError
from .geometry import EPS_DEPTH, POSE_BOX, CameraIntrinsics, look_at, row_norms

DT = 0.1  # seconds per timestep
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

MOTION_KINDS = ("static", "linear", "arc")


def is_int(value) -> bool:
    """The int rule of every config: a bool or a float is no int."""
    return type(value) is int


# whether a value fits a config field of each annotated type, read from
# JSON or passed by a caller alike: a bool is no number, an int is accepted
# as a float, and an image size is a tuple of ints (JSON's list, as read)
JSON_TYPES = {"int": is_int, "float": lambda v: type(v) in (int, float), "str": lambda v: type(v) is str,
              "tuple[int, int]": lambda v: type(v) is tuple and all(map(is_int, v))}


def require_types(config, where: str = "", **least: int) -> None:
    """ConfigError naming config's first field whose value is not of its
    type (JSON_TYPES), then the first field named in least that holds less
    than its value there; where prefixes every name."""
    for f in fields(config):
        name, value = where + f.name, getattr(config, f.name)
        if f.type in JSON_TYPES and not JSON_TYPES[f.type](value):
            raise ConfigError(f"field {name!r} holds {type(value).__name__}, not {f.type}", field=name)
    for name, low in least.items():
        if getattr(config, name) < low:
            raise ConfigError(f"{name} must be >= {low}, got {getattr(config, name)}", field=where + name)


@dataclass(frozen=True)
class NoiseModel:
    """Sensor corruption: white positional error (GPS-style) plus an
    integrated drift (odometry-style); a term whose sigma is zero is off."""

    gps_sigma: float = 2.0
    drift_step_sigma: float = 0.0

    def validate(self) -> None:
        require_types(self, "noise.")
        for name, high in (("gps_sigma", 10.0), ("drift_step_sigma", 1.0)):
            if not 0.0 <= getattr(self, name) <= high:
                raise ConfigError(f"{name} {getattr(self, name)} outside [0, {high:g}]", field=f"noise.{name}")

    @classmethod
    def preset(cls, name: str) -> "NoiseModel":
        presets = {"clean": cls(0.0), "default": cls(2.0), "hard": cls(2.0, 0.05)}
        if name not in presets:
            raise ConfigError(f"unknown noise preset {name!r}", field="noise")
        return presets[name]

    def sample(self, rng: np.random.Generator, steps: int) -> np.ndarray:
        """Additive offsets, (steps, 3): the white error plus the cumulative
        drift. A term is drawn only when its sigma is non-zero, white error
        first, so a model of two zero sigmas draws nothing."""
        noise = np.zeros((steps, 3))
        if self.gps_sigma:
            noise += rng.normal(0.0, self.gps_sigma, (steps, 3))
        if self.drift_step_sigma:
            noise += np.cumsum(rng.normal(0.0, self.drift_step_sigma, (steps, 3)), axis=0)
        return noise


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
        require_types(self, n_agents=2, t_obs=2, t_pred=1)  # n_agents: one hidden plus one visible
        if self.camera_motion not in MOTION_KINDS:
            raise ConfigError(f"camera_motion {self.camera_motion!r} not in {MOTION_KINDS}", field="camera_motion")
        if len(self.image_size) != 2 or min(self.image_size) < 1:
            raise ConfigError(f"image_size {self.image_size} must be two positive integers", field="image_size")
        if not (math.isfinite(self.focal) and self.focal > 0):
            raise ConfigError(f"focal must be finite and positive, got {self.focal}", field="focal")
        self.noise.validate()

    @property
    def t_total(self) -> int:
        return self.t_obs + self.t_pred

    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics.centered(self.focal, self.image_size)


@dataclass(eq=False)
class Scene:
    """One scene: its camera and its agents, stacked as rows. Row i of
    world, sensor, pixel and visible belongs to agent agent_ids[i]. A
    scene equals and hashes only to itself (pipeline.CameraEstimator)."""

    seed: int
    t_obs: int
    t_pred: int
    image_size: tuple[int, int]
    camera: np.ndarray  # (t_total, 3, 4)
    agent_ids: list[int]
    world: np.ndarray  # (n, t_total, 3) ground truth
    sensor: np.ndarray  # (n, t_obs, 3) noisy; models never see more than this
    pixel: np.ndarray  # (n, t_total, 2) rounded pixels, NaN where invisible
    visible: np.ndarray  # (n, t_total) bool
    out_of_sight_id: int

    @property
    def t_total(self) -> int:
        return self.t_obs + self.t_pred

    @property
    def hidden(self) -> int:
        """The row of the agent whose visual track models never see."""
        try:
            return self.agent_ids.index(self.out_of_sight_id)
        except ValueError:
            raise SchemaError(
                f"scene seed {self.seed}: no agent carries out_of_sight_id {self.out_of_sight_id}",
                field="out_of_sight_id",
            ) from None

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


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words, hashed with the A constants and expanded with the B ones
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
XSHIFT = 16
MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int):
    """The (xor, multiply) constants of each successive hashmix call. They
    depend on the call's position alone, so one serves every row."""
    const = init
    while True:
        following = const * mult & MASK32
        yield np.uint32(const), np.uint32(following)
        const = following


def _hashmix(value: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ value >> XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
    return result ^ result >> XSHIFT


def _int_words(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Little-endian 32-bit words of non-negative ints of any size, (N, D)
    uint32, and how many of each row's words the int has (0 has one)."""
    if (values < 0).any():
        raise ValueError("expected non-negative integer")
    words, counts, rest = [], np.ones(values.shape, dtype=np.intp), values
    while True:
        words.append((rest & MASK32).astype(np.uint32))
        rest = rest >> 32
        more = rest > 0
        if not more.any():
            return np.stack(words, axis=-1), counts
        counts += more


def _pool_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) of each row of (n, L)
    uint32 entropy words. Words past the pool size are mixed in one at a
    time; a row shorter than the pool hashes zeros in their place."""
    n, length = entropy.shape
    constants = _hash_constants(INIT_A, MULT_A)
    pool = [_hashmix(entropy[:, i] if i < length else np.zeros(n, np.uint32), constants) for i in range(POOL_SIZE)]
    for i_src in range(POOL_SIZE):
        for i_dst in range(POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], constants))
    for i_src in range(POOL_SIZE, length):
        for i_dst in range(POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], _hashmix(entropy[:, i_src], constants))
    constants = _hash_constants(INIT_B, MULT_B)
    words = [_hashmix(pool[i % POOL_SIZE], constants).astype(np.uint64) for i in range(8)]
    return np.stack([lo | hi << np.uint64(32) for lo, hi in zip(words[0::2], words[1::2])], axis=1)


def stream_states(*columns) -> np.ndarray:
    """PCG64 seed states of many entropy rows in one array pass, (N, 4)
    uint64: row i is `np.random.SeedSequence([c[i] for c in
    columns]).generate_state(4, np.uint64)`. Each column is N non-negative
    ints of any size, or one int for every row. Every int enters as its
    little-endian 32-bit words, so rows are hashed in groups of one word
    count."""
    parts = [_int_words(c) for c in np.broadcast_arrays(*(np.asarray(c, dtype=object) for c in columns))]
    words = np.concatenate([w for w, _ in parts], axis=1)
    present = np.concatenate([np.arange(w.shape[1]) < c[:, None] for w, c in parts], axis=1)
    lengths = present.sum(axis=1)
    flat = words[present]  # each row's words in order, row after row
    starts = np.cumsum(lengths) - lengths
    states = np.empty((len(lengths), 4), dtype=np.uint64)
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        states[rows] = _pool_states(flat[starts[rows, None] + np.arange(length)])
    return states


class _SeedState(ISeedSequence):
    """A seed state computed ahead, handed to PCG64, which asks for
    exactly generate_state(4, np.uint64) and seeds itself from it."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def stream_rngs(seeds, *stream) -> list[np.random.Generator]:
    """One generator per entropy row (seeds[i], *stream at i), each drawing
    what np.random.default_rng(np.random.SeedSequence(row)) draws; the
    stream's entries are per row or one int for every row."""
    return [np.random.Generator(np.random.PCG64(_SeedState(s))) for s in stream_states(seeds, *stream)]


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
    depend on which other tracks walk beside it. Each draw is
    `low + (high - low) * rng.random(k)`, the formula and the bits of
    `rng.uniform(low, high)` without its per-call argument checks.
    """
    if steps < 1:
        raise ConfigError(f"track needs at least 1 step, got {steps}", field="t_obs")
    n = len(rngs)
    # height, start x, y, then the first leg: waypoint x, y and speed
    low, high = np.array([HEIGHT_RANGE, ARENA_X, ARENA_Y, ARENA_X, ARENA_Y, WALK_SPEED]).T
    first = low + (high - low) * np.array([rng.random(len(low)) for rng in rngs]).reshape(n, len(low))
    heights, pos, waypoint, speed = first[:, 0], first[:, 1:3], first[:, 3:5].copy(), first[:, 5].copy()
    leg_low, leg_range = low[3:], high[3:] - low[3:]
    velocity = np.zeros((n, max(steps - 1, 1), 2))
    cur = pos
    for t in range(steps - 1):
        to_go = waypoint - cur
        dist = row_norms(to_go)
        # only the tracks that reached their waypoint this step draw new
        # legs, until a leg is longer than one step
        for i in np.flatnonzero(dist < speed * DT):
            while dist[i] < speed[i] * DT:
                waypoint[i, 0], waypoint[i, 1], speed[i] = leg_low + leg_range * rngs[i].random(3)
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


def camera_rigs(cfg: SimulatorConfig, rngs: list[np.random.Generator], steps: int) -> np.ndarray:
    """Per-timestep projection matrices of one scene per generator,
    (len(rngs), steps, 3, 4), built in one look_at pass over every
    scene's mount positions. Each scene draws from its own generator its
    mount position, then its gaze point (POSE_BOX), then for moving
    presets a direction; moving presets translate the mount while always
    re-aiming at the scene's own gaze point. The draws are uniform, in the
    formula and bits of `rng.uniform`, as in `walk_tracks`."""
    n = len(rngs)
    low, high = POSE_BOX.T
    draws = low + (high - low) * np.array([rng.random(len(low)) for rng in rngs]).reshape(n, len(low))
    base, aim = draws[:, :3], draws[:, 3:]
    if cfg.camera_motion == "static":
        positions = np.repeat(base[:, None, :], steps, axis=1)
    else:
        sign = np.array([rng.choice([-1.0, 1.0]) for rng in rngs])
        ticks = np.arange(steps)
        if cfg.camera_motion == "linear":
            direction = np.stack([sign, np.zeros(n), np.zeros(n)], axis=1)
            positions = base[:, None, :] + direction[:, None, :] * CAMERA_SPEED * DT * ticks[:, None]
        else:  # arc
            radius_vec = base[:, :2] - aim[:, :2]
            omega = CAMERA_SPEED / row_norms(radius_vec) * sign
            angles = omega[:, None] * DT * ticks
            cos_a, sin_a = np.cos(angles), np.sin(angles)
            rx, ry = radius_vec[:, :1], radius_vec[:, 1:]
            positions = np.stack(
                [aim[:, :1] + (cos_a * rx - sin_a * ry), aim[:, 1:2] + (sin_a * rx + cos_a * ry),
                 np.repeat(base[:, 2:], steps, axis=1)],
                axis=2,
            )
    return cfg.intrinsics().matrix() @ look_at(positions, aim[:, None, :])


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


def make_split(cfg: SimulatorConfig, base_seed: int, count: int) -> list[Scene]:
    """Sample scenes of seeds base_seed .. base_seed + count - 1. The hidden
    agent must stay renderable over the full horizon (its pixels are the
    labels); visible agents must stay in frame over the observation window.
    A track violating this is resampled from the agent's next attempt
    stream, up to a fixed retry budget.

    All tracks of the split walk in lockstep: first every agent's first
    attempt, then, one attempt index at a time, only the agents still
    unplaced. Every track draws from its own (seed, agent, attempt) stream,
    so each scene is the same whichever split builds it. Every stream of a
    pass is seeded in one `stream_rngs` call, and every scene's camera rig
    is built in one `camera_rigs` call."""
    cfg.validate()
    total = cfg.t_total
    # Python ints of any size, so a seed past 2**63 neither wraps nor rounds
    seeds = np.array([int(base_seed) + i for i in range(count)], dtype=object)
    cameras = camera_rigs(cfg, stream_rngs(seeds, 0), total)
    hidden = np.array([rng.integers(0, cfg.n_agents) for rng in stream_rngs(seeds, 1)], dtype=int).reshape(count)
    # the steps each agent must stay visible for: all of them for the hidden agent
    need_until = np.where(np.arange(cfg.n_agents) == hidden[:, None], total, cfg.t_obs)
    must_see = np.arange(total) < need_until[..., None]
    world = np.empty((count, cfg.n_agents, total, 3))
    pixel = np.empty((count, cfg.n_agents, total, 2))
    visible = np.empty((count, cfg.n_agents, total), dtype=bool)
    unplaced = np.ones((count, cfg.n_agents), dtype=bool)

    def walk(attempt: int, rows: np.ndarray, cols: np.ndarray) -> None:
        """Walk and render one attempt of the given agents in one pass."""
        tracks = walk_tracks(stream_rngs(seeds[rows], 2, cols, attempt), total)
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
    noise_rngs = stream_rngs(np.repeat(seeds, cfg.n_agents), 3, np.tile(np.arange(cfg.n_agents), count))
    noise = np.array([cfg.noise.sample(rng, cfg.t_obs) for rng in noise_rngs]).reshape(
        count, cfg.n_agents, cfg.t_obs, 3
    )
    sensor = world[:, :, : cfg.t_obs] + noise
    return [
        Scene(seed, cfg.t_obs, cfg.t_pred, tuple(cfg.image_size), cameras[row], list(range(cfg.n_agents)),
              world[row], sensor[row], pixel[row], visible[row], int(hidden[row]))
        for row, seed in enumerate(seeds)
    ]


def make_scene(cfg: SimulatorConfig, seed: int) -> Scene:
    """Sample one scene: `make_split` of one seed."""
    return make_split(cfg, seed, 1)[0]


def make_dataset(
    cfg: SimulatorConfig, base_seed: int, n_train: int, n_val: int, n_test: int
) -> dict[str, list[Scene]]:
    """Three disjoint splits with consecutive seed blocks starting at
    base_seed: train, then val, then test. All three are one `make_split`
    pass, sliced; every scene draws from its own streams, so a scene has
    the bits it has when its split is built alone."""
    scenes = make_split(cfg, base_seed, n_train + n_val + n_test)
    return {
        "train": scenes[:n_train],
        "val": scenes[n_train : n_train + n_val],
        "test": scenes[n_train + n_val :],
    }
