"""The vision-positioning pipeline: denoise the hidden agent's sensor
track, fit the camera to the visible agents' (pixel, sensor) pairs,
project the denoised track into the image with a differentiable pinhole
map, and predict future pixels from the projected track. The camera is a
geometric fit with no learned parameters: one matrix per observation
window, tiled over the window's steps. It never depends on the weights,
so a model fits each scene's camera once and reuses it in every later
epoch, validation pass and prediction (CameraEstimator). The fit reads the
rig it is given: the focal length is a model dimension (ModelConfig.focal,
filled from the run config's sim.focal and kept in the checkpoint header),
and the principal point is the centre of each scene's image. The denoiser
and the predictor are trained end to end on the hidden agent's pixels
(hidden.pixel, in pixel_losses): the denoising loss compares the projected
denoised track with them over the observation window, the prediction loss
the forecast over the prediction window. No loss compares against the
sensor stream mapped through the camera, and positions are never
supervised.

A forward pass takes a batch of scenes of one shape (t_obs, t_pred, image
size) and row-stacks them, scene-major, so a training minibatch is one
autodiff graph (see the tensor module), and a chunk of scenes scored by
metrics.score_scenes is one forward pass with no graph. Only the camera
fit runs scene by scene; its rows are stacked like the rest. A scene whose
horizon is not the model's t_pred is refused with SchemaError
(TrajectoryModel.batch).

The method name alone is a pipeline's architecture (pipeline_layout);
ModelConfig holds only its dimensions.

Model inputs are strictly: the hidden agent's sensor window and the
visible agents' pixel/sensor windows. The hidden agent's ground-truth
pixels appear only inside loss targets and metrics, never in the forward
pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, LengthMismatch, NonFiniteLoss, NoInSightAgents, SchemaError
from .geometry import EPS_DEPTH, CameraIntrinsics, compose_matrix, look_at
from .metrics import score_scenes
from .nn import SEQUENCE_KINDS, Adam, Linear, Module, SequenceTrunk
from .simulator import (
    AIM_H,
    AIM_X,
    AIM_Y,
    ARENA_X,
    ARENA_Y,
    FOCAL,
    HEIGHT_RANGE,
    IMAGE_SIZE,
    MOUNT_H,
    MOUNT_X,
    MOUNT_Y,
    Scene,
    shape_groups,
)
from .tensor import (
    Tensor,
    add,
    clamp_away_from_zero,
    col_scale,
    concat_cols,
    concat_rows,
    div,
    mean_rows,
    mse_loss,
    mul,
    no_grad,
    reshape,
    row_sum,
    scale,
    slice_cols,
    strided_rows,
    tile_rows,
)


@dataclass(frozen=True)
class ModelConfig:
    """A model's dimensions; its method name alone names its architecture,
    and each batch of scenes gives its observation window."""

    t_pred: int = 20
    width: int = 64
    layers: int = 2
    heads: int = 4
    focal: float = FOCAL  # the rig's focal length in pixels, which the camera fit reads

    def validate(self) -> None:
        for name in ("t_pred", "width", "layers", "heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}", field=name)
        if self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}", field="heads")
        if not (np.isfinite(self.focal) and self.focal > 0):
            raise ConfigError(f"focal must be finite and positive, got {self.focal}", field="focal")


# feature conditioning: positions are centered on the arena box and
# scaled to roughly [-1, 1]; pixels are centered on the image
ARENA_MID = np.array(
    [sum(ARENA_X) / 2.0, sum(ARENA_Y) / 2.0, sum(HEIGHT_RANGE) / 2.0]
)
ARENA_HALF = np.array(
    [(ARENA_X[1] - ARENA_X[0]) / 2.0, (ARENA_Y[1] - ARENA_Y[0]) / 2.0, (HEIGHT_RANGE[1] - HEIGHT_RANGE[0]) / 2.0]
)


def estimator_features(scene: Scene) -> np.ndarray:
    """The camera fit's input: each visible agent's (pixel, sensor) pair
    averaged over the observation window, (n, 5).

    Rows follow ascending agent_id over every visible agent; an agent never
    visible inside the window is dropped, so n may be 0.
    Each row holds the image-centered pixel [u/W - 1/2, v/H - 1/2] and the
    arena-normalized sensor position. Averaging over the window shrinks
    the sensor noise, which would otherwise bias a fit toward a camera
    that sees the agents closer together than they are.
    """
    agents = sorted(scene.in_sight(), key=lambda a: a.agent_id)
    if not agents:
        raise NoInSightAgents(f"scene seed {scene.seed} has no visible agents")
    t_obs = scene.t_obs
    visible = np.stack([agent.visible[:t_obs] for agent in agents])
    pixel = np.stack([agent.pixel[:t_obs] for agent in agents]) / np.asarray(scene.image_size) - 0.5
    sensor = (np.stack([agent.sensor for agent in agents]) - ARENA_MID) / ARENA_HALF
    values = np.where(visible[:, :, None], np.concatenate([pixel, sensor], axis=2), 0.0)
    # summing over the step axis adds each agent's rows in sequence, and
    # adding the zeros of a hidden step is exact: the same bits as the mean
    # over the agent's visible rows alone
    counts = visible.sum(axis=1)
    seen = counts > 0
    return values.sum(axis=1)[seen] / counts[seen, None]


def project_rows(matrix_rows: Tensor, points: Tensor) -> Tensor:
    """Differentiable pinhole projection.

    matrix_rows is (T, 12), one row-major 3x4 matrix per step; points is
    (T, 3). Output is (T, 2) pixels. The perspective denominator is kept
    away from zero by a sign-preserving clamp whose backward pass masks
    clamped entries, so the map stays finite and differentiable for any
    matrix the estimator emits. Scaling a row by any positive factor leaves
    the output unchanged.
    """
    steps = points.data.shape[0]
    if points.data.shape[1] != 3:
        raise LengthMismatch(f"points must be (T, 3), got {points.data.shape}")
    if matrix_rows.data.shape != (steps, 12):
        raise LengthMismatch(f"matrix rows {matrix_rows.data.shape} for {steps} points")
    hom = concat_cols([points, Tensor(np.ones((steps, 1)))])
    u_num = row_sum(mul(slice_cols(matrix_rows, 0, 4), hom))
    v_num = row_sum(mul(slice_cols(matrix_rows, 4, 8), hom))
    den = clamp_away_from_zero(row_sum(mul(slice_cols(matrix_rows, 8, 12), hom)), EPS_DEPTH)
    return concat_cols([div(u_num, den), div(v_num, den)])


def as_batch(scenes: Scene | list[Scene]) -> list[Scene]:
    """A list of scenes; a single Scene is a batch of one."""
    return [scenes] if isinstance(scenes, Scene) else list(scenes)


def batch_shape(scenes: list[Scene]) -> tuple[int, int, tuple[int, int]]:
    """(t_obs, t_pred, image_size) shared by every scene of a batch."""
    if not scenes:
        raise LengthMismatch("a forward pass needs at least one scene")
    key = scenes[0].shape
    for scene in scenes[1:]:
        if scene.shape != key:
            raise LengthMismatch(
                f"scenes of one forward pass must share (t_obs, t_pred, image_size): {key} vs {scene.shape}"
            )
    return key


def hidden_sensor(scenes: list[Scene]) -> Tensor:
    """The hidden agents' sensor windows, row-stacked, (B*t_obs, 3)."""
    return Tensor(np.concatenate([scene.out_of_sight().sensor for scene in scenes]))


class TrajectoryModel(Module):
    """Interface shared by the pipeline and the learned baselines: a
    forward pass from scenes to raw-pixel tracks, with losses and metrics
    derived uniformly from it."""

    name = "model"
    cfg: ModelConfig

    def batch(self, scenes: Scene | list[Scene]) -> tuple[list[Scene], int, tuple[int, int]]:
        """(scenes, t_obs, image_size) of a batch of equal-shape scenes
        whose horizon is the model's: every forward pass starts here, and a
        scene of another t_pred is refused with SchemaError."""
        scenes = as_batch(scenes)
        t_obs, t_pred, size = batch_shape(scenes)
        if t_pred != self.cfg.t_pred:
            raise SchemaError(
                f"scene seed {scenes[0].seed} predicts {t_pred} steps, the model {self.cfg.t_pred}", field="t_pred"
            )
        return scenes, t_obs, size

    def forward(self, scenes: Scene | list[Scene]) -> tuple[Tensor, Tensor]:
        """Row-stacked tracks of a batch of equal-shape scenes: observed
        pixels (B*t_obs, 2) and future pixels (B*t_pred, 2)."""
        raise NotImplementedError

    def loss_terms(self, scenes: Scene | list[Scene]) -> tuple[Tensor, Tensor]:
        """(denoising loss, prediction loss) of a scene or a minibatch: the
        mean over scenes of each scene's mean squared error on pixel
        coordinates normalized by the image size. Scenes of different
        shapes run as separate forward passes, weighted by scene count."""
        scenes = as_batch(scenes)
        groups = shape_groups(scenes)
        if len(groups) == 1:
            return pixel_losses(scenes, *self.forward(scenes))
        loss_d = loss_p = None
        for positions in groups:
            group = [scenes[i] for i in positions]
            weight = len(group) / len(scenes)
            group_d, group_p = pixel_losses(group, *self.forward(group))
            group_d, group_p = scale(group_d, weight), scale(group_p, weight)
            loss_d = group_d if loss_d is None else add(loss_d, group_d)
            loss_p = group_p if loss_p is None else add(loss_p, group_p)
        return loss_d, loss_p

    def predict(self, scenes: Scene | list[Scene]) -> tuple[np.ndarray, np.ndarray]:
        """Observed and future pixel tracks from one forward pass that
        builds no graph: (t_obs, 2) and (t_pred, 2) for a Scene, (B,
        t_obs, 2) and (B, t_pred, 2) for a list of B equal-shape scenes.
        The batch form is what metrics.score_scenes calls."""
        with no_grad():
            visual, future = self.forward(scenes)
        if isinstance(scenes, Scene):
            return visual.data, future.data
        count = len(scenes)
        return visual.data.reshape(count, -1, 2), future.data.reshape(count, -1, 2)


def pixel_losses(scenes: list[Scene], visual: Tensor, future: Tensor) -> tuple[Tensor, Tensor]:
    """Normalized-pixel MSE of a row-stacked batch of equal-shape scenes:
    the mean over its scenes of each scene's mean, since every scene has
    the same number of entries."""
    t_obs, _, (w, h) = batch_shape(scenes)
    norm = np.array([1.0 / w, 1.0 / h])
    pixels = [scene.out_of_sight().pixel for scene in scenes]
    observed = np.concatenate([p[:t_obs] for p in pixels]) * norm
    ahead = np.concatenate([p[t_obs:] for p in pixels]) * norm
    return mse_loss(col_scale(visual, norm), Tensor(observed)), mse_loss(col_scale(future, norm), Tensor(ahead))


# the camera prior, shared by nominal_camera() and the camera fit: the
# boxes each scene draws its look-at pose from uniformly, as (low, high)
# rows for mount x, y, z then aim x, y, z, with the mean and standard
# deviation of those draws
POSE_BOX = np.array([MOUNT_X, MOUNT_Y, MOUNT_H, AIM_X, AIM_Y, AIM_H])
POSE_MID = POSE_BOX.mean(axis=1)
POSE_STD = (POSE_BOX[:, 1] - POSE_BOX[:, 0]) / np.sqrt(12.0)

# variance of a pixel coordinate rounded to the integer grid; the least
# residual variance the camera fit assumes, so its prior never vanishes
ROUNDING_VAR = 1.0 / 12.0
# Gauss-Newton steps per fit: on the default rig, three put the hidden
# agent's projection within 0.02 px of where ten would
FIT_ITERATIONS = 3


def pose_camera(pose: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """The (3, 4) camera of a look-at pose (mount xyz, aim xyz)."""
    return compose_matrix(1.0, intrinsics, look_at(pose[:3], pose[3:]))


def nominal_camera(intrinsics: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Camera rows of the nominal rig mount, with per-element spreads.

    The no-estimator ablation parameterizes its learned camera as a
    correction to this matrix: row = nominal + spread * raw. The spread
    of each element over the corners of the published mount box makes a
    unit raw output span the plausible cameras, so the projection is well
    conditioned from the first optimizer step: denominators start at true
    scene depths, far from the clamp, instead of at random near-zero
    values. Both arrays are (1, 12), row-major.
    """
    nominal = pose_camera(POSE_MID, intrinsics)
    corners = np.array([pose_camera(np.array(corner), intrinsics) for corner in itertools.product(*POSE_BOX)])
    spread = np.maximum(np.abs(corners - nominal).max(axis=0), 1e-2)
    return nominal.reshape(1, 12), spread.reshape(1, 12)


def look_at_residuals(
    pose: np.ndarray, world: np.ndarray, pixel: np.ndarray, intrinsics: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Reprojection residuals of a look-at pose, and their Jacobian.

    pose is (mount xyz, aim xyz); world is (n, 3) and pixel (n, 2). The
    residuals are (2n,), projected minus observed pixels, u and v
    interleaved. The Jacobian, (2n, 6), is analytic: the rotation depends
    on the pose only through the heading and elevation of the view axis
    aim - mount, so it is differentiated through those two angles. Depths
    are clamped at EPS_DEPTH, which keeps both finite for a point behind
    the camera.
    """
    gx, gy, gz = (pose[3:] - pose[:3]).tolist()
    rho2 = gx * gx + gy * gy
    rho = rho2**0.5
    norm2 = rho2 + gz * gz
    norm = norm2**0.5
    sin_h, cos_h = gx / rho, gy / rho  # heading
    sin_e, cos_e = gz / norm, rho / norm  # elevation
    # rows: right, down, forward, as in geometry.look_at; then the rows'
    # derivatives by heading and by elevation
    frames = np.array(
        [
            [[cos_h, -sin_h, 0.0], [sin_e * sin_h, sin_e * cos_h, -cos_e], [cos_e * sin_h, cos_e * cos_h, sin_e]],
            [[-sin_h, -cos_h, 0.0], [sin_e * cos_h, -sin_e * sin_h, 0.0], [cos_e * cos_h, -cos_e * sin_h, 0.0]],
            [[0.0, 0.0, 0.0], [cos_e * sin_h, cos_e * cos_h, sin_e], [-sin_e * sin_h, -sin_e * cos_h, cos_e]],
        ]
    )
    # (heading, elevation) by the view axis
    d_angles = np.array(
        [[gy / rho2, -gx / rho2, 0.0], [-gz * gx / (rho * norm2), -gz * gy / (rho * norm2), rho / norm2]]
    )
    cam = (world - pose[:3]) @ frames.reshape(9, 3).T  # (n, 9): camera coords, then their angle derivatives
    depth = np.maximum(cam[:, 2], EPS_DEPTH)
    focal = np.array([intrinsics.fx, intrinsics.fy])
    image = cam[:, 0:2] / depth[:, None]  # (n, 2) normalized image coords
    res = (focal * image + np.array([intrinsics.cx, intrinsics.cy]) - pixel).ravel()
    # d(pixel)/d(camera coords), applied to the rotation rows and to their
    # angle derivatives
    gain = focal / depth[:, None]
    d_world = gain[:, :, None] * (frames[0][None, 0:2, :] - image[:, :, None] * frames[0][None, 2:3, :])
    d_heading = gain * (cam[:, 3:5] - image * cam[:, 5:6])
    d_elevation = gain * (cam[:, 6:8] - image * cam[:, 8:9])
    d_aim = d_heading[:, :, None] * d_angles[0] + d_elevation[:, :, None] * d_angles[1]
    jac = np.concatenate([-d_world - d_aim, d_aim], axis=2)
    return res, jac.reshape(-1, 6)


def _fit_pose(
    world: np.ndarray, pixel: np.ndarray, intrinsics: CameraIntrinsics, start: np.ndarray, prior_weight: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton on the squared reprojection error plus prior_weight
    times the squared pose offset from POSE_MID in units of POSE_STD,
    from `start`; a step that does not lower that energy is halved.
    Returns the pose and its residuals."""
    precision = prior_weight / POSE_STD**2

    def energy(pose, res):
        return float(res @ res + precision @ (pose - POSE_MID) ** 2)

    pose = start
    res, jac = look_at_residuals(pose, world, pixel, intrinsics)
    current = energy(pose, res)
    for _ in range(FIT_ITERATIONS):
        step = np.linalg.solve(jac.T @ jac + np.diag(precision), jac.T @ res + precision * (pose - POSE_MID))
        for _ in range(4):
            trial = pose - step
            trial_res, trial_jac = look_at_residuals(trial, world, pixel, intrinsics)
            trial_energy = energy(trial, trial_res)
            if trial_energy < current:
                break
            step = step / 2.0
        else:
            break
        pose, res, jac, current = trial, trial_res, trial_jac, trial_energy
    return pose, res


def fit_camera(world: np.ndarray, pixel: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Look-at camera of the given intrinsics fitted to (n, 3) world points
    and their (n, 2) pixels, shrunk toward the pose box; returns (3, 4).

    A first fit, from the box centre with the weakest prior, gives the
    residual variance per pixel coordinate (never below ROUNDING_VAR); a
    second fit from there weighs the prior by that variance, so noisy
    pairs lean on the box and exact ones ignore it. The prior also fixes
    what the pairs leave open (the aim's distance along the view axis,
    or everything when there are fewer pairs than unknowns), so the fit
    returns a finite camera for any number of pairs.
    """
    pose, res = _fit_pose(world, pixel, intrinsics, POSE_MID, ROUNDING_VAR)
    # five of the six pose coordinates move the image
    variance = max(float(res @ res) / max(len(res) - 5, 1), ROUNDING_VAR)
    pose, _ = _fit_pose(world, pixel, intrinsics, pose, variance)
    return pose_camera(pose, intrinsics)


class SensorDenoiser(Module):
    """Residual correction of the noisy sensor track, (B*T, 3) -> (B*T, 3)
    for B row-stacked tracks of T = steps rows.

    The trunk reads the track normalized like the features (ARENA_MID,
    ARENA_HALF), and its residual is scaled back to metres by ARENA_HALF.
    The head's weight starts at zero, so the stage starts as the identity.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.trunk = SequenceTrunk("transformer", 3, cfg.width, cfg.layers, cfg.heads, rng)
        self.head = Linear(cfg.width, 3, rng)
        self.head.weight.data[...] = 0.0
        self.shift = Tensor(-ARENA_MID[None, :])

    def __call__(self, sensor: Tensor, steps: int) -> Tensor:
        normalized = col_scale(add(sensor, self.shift), 1.0 / ARENA_HALF)
        return add(sensor, col_scale(self.head(self.trunk(normalized, steps)), ARENA_HALF))


class CameraEstimator:
    """The camera fitted to the visible agents, as matrix rows tiled over
    the observation window: (n, 5) pairs from estimator_features -> (steps,
    12).

    It fits one look-at camera (fit_camera) to the pairs, with the rig's
    focal length and the principal point at the image centre. It has no
    parameters and passes no gradient: the camera is a pure function of
    the visible agents' inputs. So each estimator fits a scene's camera
    once and keeps it in `fits`, keyed by the fit's exact input (the pairs'
    bytes and the image size): later epochs, validation passes and
    predictions reuse the same float64 rows, and a scene whose visible
    agents change gets a fit of its own.
    """

    def __init__(self, focal: float):
        self.focal = focal
        self.fits: dict[tuple[bytes, tuple[int, int]], np.ndarray] = {}

    def __call__(self, pairs: np.ndarray, image_size: tuple[int, int], steps: int) -> Tensor:
        key = (pairs.tobytes(), tuple(image_size))
        rows = self.fits.get(key)
        if rows is None:
            pixel = (pairs[:, :2] + 0.5) * np.asarray(image_size, dtype=np.float64)
            world = pairs[:, 2:] * ARENA_HALF + ARENA_MID
            intrinsics = CameraIntrinsics.centered(self.focal, image_size)
            rows = self.fits[key] = fit_camera(world, pixel, intrinsics).reshape(1, 12)
        return Tensor(np.repeat(rows, steps, axis=0))


class FuturePixelPredictor(Module):
    """Forecast the prediction window from an observed pixel track,
    (B*T, 2) -> (B*t_pred, 2) for B row-stacked tracks of T = steps rows.

    Input and output are raw pixels; coordinates are normalized by the
    image size internally and denormalized on the way out.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, kind: str):
        self.t_pred = cfg.t_pred
        self.trunk = SequenceTrunk(kind, 2, cfg.width, cfg.layers, cfg.heads, rng)
        self.head = Linear(cfg.width, 2 * cfg.t_pred, rng)

    def __call__(self, pixels: Tensor, image_size: tuple[int, int], steps: int) -> Tensor:
        w, h = image_size
        normalized = col_scale(pixels, (1.0 / w, 1.0 / h))
        pooled = mean_rows(self.trunk(normalized, steps), steps)
        out = reshape(self.head(pooled), pooled.data.shape[0] * self.t_pred, 2)
        return col_scale(out, (w, h))


# the stages a `no_<stage>` method drops, one at a time
STAGES = ("denoiser", "estimator", "projection", "predictor")


def pipeline_layout(name: str) -> tuple[str, str | None]:
    """(predictor kind, dropped stage or None) of a pipeline method name:
    full, no_<stage> or plus_vpd:<kind>."""
    if name == "full":
        return "transformer", None
    if name.startswith("no_") and name[3:] in STAGES:
        return "transformer", name[3:]
    family, _, kind = name.partition(":")
    if family == "plus_vpd" and kind in SEQUENCE_KINDS:
        return kind, None
    raise ConfigError(f"{name!r} is not a pipeline method (full, no_<stage>, plus_vpd:<kind>)", field="method")


class VisionPipeline(TrajectoryModel):
    """The four-stage model; its method name is its architecture.

    `full` runs every stage with a transformer predictor, plus_vpd:<kind>
    swaps the predictor's trunk to <kind>, and no_<stage> drops one stage
    (pipeline_layout). A dropped stage falls back to: identity on the
    sensor (no_denoiser), one learned scene-independent matrix
    (no_estimator), a learned linear sensor-to-pixel map (no_projection,
    which also drops the estimator), or carrying the last denoised pixel
    forward (no_predictor).
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, name: str = "full"):
        kind, drop = pipeline_layout(name)
        self.cfg = cfg
        self.name = name
        self.drop = drop
        if drop != "denoiser":
            self.denoiser = SensorDenoiser(cfg, rng)
        if drop != "projection":
            if drop != "estimator":
                self.estimator = CameraEstimator(cfg.focal)
            else:
                # scene-independent camera: a learned correction to the
                # nominal mount at the standard image centre, starting there
                nominal, spread = nominal_camera(CameraIntrinsics.centered(cfg.focal, IMAGE_SIZE))
                self.static_rows = Tensor(np.zeros((1, 12)), requires_grad=True)
                self.static_nominal = Tensor(nominal)
                self.static_spread = spread.ravel()
        else:
            self.visual_head = Linear(3, 2, rng)
        if drop != "predictor":
            self.predictor = FuturePixelPredictor(cfg, rng, kind)

    def forward(self, scenes: Scene | list[Scene]) -> tuple[Tensor, Tensor]:
        """Returns (denoised pixel tracks (B*t_obs, 2), future tracks
        (B*t_pred, 2)), row-stacked in batch order."""
        drop = self.drop
        scenes, t_obs, size = self.batch(scenes)
        sensor = hidden_sensor(scenes)

        denoised = self.denoiser(sensor, t_obs) if drop != "denoiser" else sensor

        if drop != "projection":
            if drop != "estimator":
                rows = concat_rows([self.estimator(estimator_features(s), size, t_obs) for s in scenes])
            else:
                static = add(col_scale(self.static_rows, self.static_spread), self.static_nominal)
                rows = tile_rows(static, len(scenes) * t_obs)
            visual = project_rows(rows, denoised)
        else:
            visual = col_scale(self.visual_head(denoised), size)

        if drop != "predictor":
            future = self.predictor(visual, size, t_obs)
        else:
            future = tile_rows(strided_rows(visual, t_obs - 1, t_obs), self.cfg.t_pred)
        return visual, future


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 16
    lr: float = 1e-3
    pred_weight: float = 1.0  # weight of the prediction loss in the total
    seed: int = 0


@dataclass
class EpochStats:
    epoch: int
    loss_denoise: float
    loss_pred: float
    val_mse_d: float | None = None
    val_mse_p: float | None = None
    val_sum: float | None = None


@dataclass
class TrainResult:
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_val_sum: float | None = None


def _shuffle(seed: int, epoch: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1000003, epoch]))
    return rng.permutation(count)


def snapshot_parameters(model: Module) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in model.named_parameters()}


def restore_parameters(model: Module, arrays: dict[str, np.ndarray]) -> None:
    for name, p in model.named_parameters():
        if name not in arrays:
            raise KeyError(f"missing parameter {name!r} in snapshot")
        if arrays[name].shape != p.data.shape:
            raise LengthMismatch(
                f"parameter {name!r}: stored {arrays[name].shape} vs model {p.data.shape}"
            )
        p.data[...] = arrays[name]


def evaluate_split(model, scenes: list[Scene]) -> tuple[float, float]:
    """Mean denoising and prediction errors (raw pixels) over scenes, from
    the one scorer (metrics.score_scenes)."""
    report = score_scenes(model.predict, scenes, model.name, "val")
    return report.mse_d, report.mse_p


def train_model(
    model,
    train_scenes: list[Scene],
    val_scenes: list[Scene],
    tcfg: TrainConfig,
    optimizer: Adam | None = None,
    start_epoch: int = 0,
    stop_epoch: int | None = None,
    on_epoch=None,
) -> TrainResult:
    """Joint training on the weighted pixel losses, one autodiff graph per
    minibatch (TrajectoryModel.loss_terms on the whole batch).

    The scene order is reshuffled each epoch from a generator keyed by
    (seed, epoch) alone, so resuming from a checkpoint replays the exact
    batch sequence; stop_epoch pauses a run early for checkpointing. The
    model is left holding the parameters of its best validation epoch
    (by summed error); without validation scenes, the final epoch wins.
    """
    optimizer = optimizer or Adam(model.parameters(), lr=tcfg.lr)
    result = TrainResult()
    best: dict[str, np.ndarray] | None = None
    end_epoch = tcfg.epochs if stop_epoch is None else min(stop_epoch, tcfg.epochs)
    for epoch in range(start_epoch, end_epoch):
        order = _shuffle(tcfg.seed, epoch, len(train_scenes))
        sum_d = sum_p = 0.0
        for batch_no, start in enumerate(range(0, len(order), tcfg.batch_size)):
            batch = [train_scenes[idx] for idx in order[start:start + tcfg.batch_size]]
            loss_d, loss_p = model.loss_terms(batch)
            total = add(loss_d, scale(loss_p, tcfg.pred_weight))
            if not np.isfinite(total.item()):
                raise NonFiniteLoss(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}", epoch=epoch, batch=batch_no
                )
            total.backward()
            optimizer.step()
            sum_d += loss_d.item() * len(batch)
            sum_p += loss_p.item() * len(batch)
        stats = EpochStats(
            epoch=epoch,
            loss_denoise=sum_d / len(order),
            loss_pred=sum_p / len(order),
        )
        if val_scenes:
            stats.val_mse_d, stats.val_mse_p = evaluate_split(model, val_scenes)
            stats.val_sum = stats.val_mse_d + stats.val_mse_p
            if result.best_val_sum is None or stats.val_sum < result.best_val_sum:
                result.best_val_sum = stats.val_sum
                result.best_epoch = epoch
                best = snapshot_parameters(model)
        result.history.append(stats)
        if on_epoch is not None:
            on_epoch(stats)
    if best is not None:
        restore_parameters(model, best)
    elif result.history:
        result.best_epoch = result.history[-1].epoch
    return result


def history_to_csv(history: list[EpochStats]) -> str:
    lines = ["epoch,loss_denoise,loss_pred,val_mse_d,val_mse_p,val_sum"]
    for s in history:
        val = (
            f"{s.val_mse_d!r},{s.val_mse_p!r},{s.val_sum!r}"
            if s.val_sum is not None
            else ",,"
        )
        lines.append(f"{s.epoch},{s.loss_denoise!r},{s.loss_pred!r},{val}")
    return "\n".join(lines) + "\n"
