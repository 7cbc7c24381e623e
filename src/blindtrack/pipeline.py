"""The vision-positioning pipeline: denoise the hidden agent's sensor
track, fit the camera to the visible agents' (pixel, sensor) pairs,
project the denoised track into the image with a differentiable pinhole
map, and predict future pixels from the projected track. This module
holds the stages; the camera math they call (the look-at fit, its
pose-box prior, the nominal camera) is in geometry. The camera is a
geometric fit with no learned parameters: one matrix per observation
window, tiled over the window's steps. It is a pure function of the
scene, so a model fits a scene's camera on first sight and then looks it
up by the scene (CameraEstimator). The fit reads the rig it is given: the
focal length is a model dimension (ModelConfig.focal, filled from the run
config's sim.focal and kept in the checkpoint header), and the principal
point is the centre of each scene's image. The denoiser and the predictor
are trained end to end on the hidden agent's pixels
(scene.pixel[scene.hidden], in pixel_losses): the denoising loss compares
the projected denoised track with them over the observation window, the
prediction loss the forecast over the prediction window, and training
steps on their plain sum (train_model). No loss compares against the
sensor stream mapped through the camera, and positions are never
supervised.

A forward pass takes a batch of scenes of one shape (t_obs, t_pred, image
size) and row-stacks them, scene-major, so a training minibatch is one
autodiff graph (see the tensor module). metrics.score_scenes hands
predict a whole shape group, which predict cuts into forward passes with
no graph of at most SCORE_ROWS observed rows each. Before those passes,
and before training's first epoch, the model prepares the scenes
(TrajectoryModel.prepare): the pipeline fits every new scene's camera
there, stacked by image size and pair count (geometry.fit_cameras),
bit for bit the per-scene fit, so the forward passes only look cameras
up. A scene whose horizon is not the model's t_pred is refused with
SchemaError (TrajectoryModel.batch).

The method name alone is a pipeline's architecture (pipeline_layout);
ModelConfig holds only its dimensions.

Model inputs are strictly: the hidden agent's sensor window and the
visible agents' pixel/sensor windows. The hidden agent's ground-truth
pixels appear only inside loss targets and metrics, never in the forward
pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig, TrainConfig
from .errors import ConfigError, EmptyInput, LengthMismatch, NonFiniteLoss, NoInSightAgents, SchemaError
from .geometry import EPS_DEPTH, CameraIntrinsics, fit_cameras, nominal_camera
from .metrics import score_scenes
from .nn import SEQUENCE_KINDS, Adam, Linear, Module, SequenceTrunk
from .simulator import ARENA_X, ARENA_Y, HEIGHT_RANGE, Scene, shape_groups
from .tensor import (
    Tensor,
    add,
    clamp_away_from_zero,
    col_scale,
    concat_cols,
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


# feature conditioning: positions are centered on the arena box and
# scaled to roughly [-1, 1]; pixels are centered on the image
ARENA_MID = np.array(
    [sum(ARENA_X) / 2.0, sum(ARENA_Y) / 2.0, sum(HEIGHT_RANGE) / 2.0]
)
ARENA_HALF = np.array(
    [(ARENA_X[1] - ARENA_X[0]) / 2.0, (ARENA_Y[1] - ARENA_Y[0]) / 2.0, (HEIGHT_RANGE[1] - HEIGHT_RANGE[0]) / 2.0]
)


def estimator_features(scenes: list[Scene]) -> list[np.ndarray]:
    """The camera fit's input: each visible agent's (pixel, sensor) pair
    averaged over the observation window, one (n, 5) array per scene.

    Rows are the scene's agent rows except the hidden one (Scene.hidden),
    taken in ascending agent_id; an agent never visible inside the window
    is dropped, so n may be 0. A scene with no agent but the hidden one
    raises NoInSightAgents naming its seed.
    Each row holds the image-centered pixel [u/W - 1/2, v/H - 1/2] and the
    arena-normalized sensor position. Averaging over the window shrinks
    the sensor noise, which would otherwise bias a fit toward a camera
    that sees the agents closer together than they are.

    Scenes of one agent count and one shape are stacked and averaged in
    one array pass; every scene gets the bits it would get alone.
    """
    rows, stacks = [], {}
    for position, scene in enumerate(scenes):
        order = np.argsort(scene.agent_ids)
        order = order[order != scene.hidden]
        if not len(order):
            raise NoInSightAgents(f"scene seed {scene.seed} has no visible agents")
        rows.append(order)
        stacks.setdefault((len(order), scene.shape), []).append(position)
    out: list = [None] * len(scenes)
    for positions in stacks.values():
        stack = [scenes[i] for i in positions]
        t_obs, _, size = stack[0].shape
        picked = np.arange(len(stack))[:, None], np.array([rows[i] for i in positions])
        visible = np.stack([scene.visible for scene in stack])[picked][..., :t_obs]
        pixel = np.stack([scene.pixel for scene in stack])[picked][..., :t_obs, :] / np.asarray(size) - 0.5
        sensor = (np.stack([scene.sensor for scene in stack])[picked] - ARENA_MID) / ARENA_HALF
        values = np.where(visible[..., None], np.concatenate([pixel, sensor], axis=3), 0.0)
        # summing over the step axis adds each agent's rows in sequence, and
        # adding the zeros of a hidden step is exact: the same bits as the mean
        # over the agent's visible rows alone
        counts = visible.sum(axis=2)
        means = values.sum(axis=2) / np.maximum(counts, 1)[..., None]
        for position, scene_means, scene_counts in zip(positions, means, counts):
            out[position] = scene_means[scene_counts > 0]
    return out


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
    return Tensor(np.concatenate([scene.sensor[scene.hidden] for scene in scenes]))


# observed rows (scenes x t_obs) per forward pass of predict. A sweep on a
# 2-core x86-64 box (numpy 2.4, OpenBLAS 0.3.31; ms per scene, best of 9)
# found larger passes up to a tenth faster at T = 20 (full, 96 desk
# scenes: 0.41-0.44 at 320 rows, 0.36-0.40 at 480; two_stage:gru:
# 0.12-0.20 at 320, 0.10-0.14 at 640) and none faster at T = 100 (full,
# 24 arc scenes: 2.26-2.35 at 320, 2.27-2.29 at 400). A cut changes a
# scene's bits only when it leaves the scene alone in a pass, whose
# one-row products (predictor head, GRU step) take numpy's matrix-vector
# path: passes of 2 or more scenes gave the same predictions at 320 to
# 100000 rows (96 desk and 24 long_arc scenes), and 17 desk scenes at 320
# rows left the 17th alone, and it differed.
SCORE_ROWS = 320


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

    def prepare(self, scenes: list[Scene]) -> None:
        """Work that depends only on the scenes, never on the weights, done
        once for a list of scenes before forward passes over them: predict
        calls it on its whole list, train_model on the training and
        validation scenes. Nothing here; VisionPipeline fits cameras."""

    def predict(self, scenes: Scene | list[Scene]) -> tuple[np.ndarray, np.ndarray]:
        """Observed and future pixel tracks from forward passes that build
        no graph: (t_obs, 2) and (t_pred, 2) for a Scene, (B, t_obs, 2) and
        (B, t_pred, 2) for a list of B equal-shape scenes. The list form is
        what metrics.score_scenes calls, once per shape group: after
        prepare(scenes), it cuts the list, in order, into forward passes of
        at most SCORE_ROWS observed rows (scenes x t_obs) and concatenates
        their rows."""
        batch, t_obs, _ = self.batch(scenes)
        self.prepare(batch)
        per_pass = max(1, SCORE_ROWS // t_obs)
        visual, future = [], []
        with no_grad():
            for start in range(0, len(batch), per_pass):
                observed, ahead = self.forward(batch[start:start + per_pass])
                visual.append(observed.data)
                future.append(ahead.data)
        if isinstance(scenes, Scene):
            return visual[0], future[0]
        count = len(batch)
        return np.concatenate(visual).reshape(count, -1, 2), np.concatenate(future).reshape(count, -1, 2)


def pixel_losses(scenes: list[Scene], visual: Tensor, future: Tensor) -> tuple[Tensor, Tensor]:
    """Normalized-pixel MSE of a row-stacked batch of equal-shape scenes:
    the mean over its scenes of each scene's mean, since every scene has
    the same number of entries."""
    t_obs, _, (w, h) = batch_shape(scenes)
    norm = np.array([1.0 / w, 1.0 / h])
    pixels = [scene.pixel[scene.hidden] for scene in scenes]
    observed = np.concatenate([p[:t_obs] for p in pixels]) * norm
    ahead = np.concatenate([p[t_obs:] for p in pixels]) * norm
    return mse_loss(col_scale(visual, norm), Tensor(observed)), mse_loss(col_scale(future, norm), Tensor(ahead))


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
    """The camera fitted to each scene's visible agents: a list of scenes
    -> (B, 12), one row-major 3x4 matrix per scene, in list order.

    One look-at camera per scene, fitted to its pairs (estimator_features)
    with the rig's focal length and the principal point at the centre of
    the scene's image. It has no parameters and passes no gradient: the
    camera is a pure function of the scene. So a call fits only the scenes
    not yet in `fits`, which is keyed by the Scene object itself: one
    estimator_features call over them and one fit_cameras call per image
    size and pair count. A scene edited in place keeps its first fit; an
    edited copy is a new scene and gets its own.
    """

    def __init__(self, focal: float):
        self.focal = focal
        self.fits: dict[Scene, np.ndarray] = {}

    def __call__(self, scenes: list[Scene]) -> Tensor:
        new = list(dict.fromkeys(scene for scene in scenes if scene not in self.fits))
        groups: dict[tuple, dict[Scene, np.ndarray]] = {}  # by (image size, pair count)
        for scene, pairs in zip(new, estimator_features(new) if new else []):
            groups.setdefault((tuple(scene.image_size), len(pairs)), {})[scene] = pairs
        for (size, _), group in groups.items():
            pairs = np.stack(list(group.values()))
            pixel = (pairs[..., :2] + 0.5) * np.asarray(size, dtype=np.float64)
            world = pairs[..., 2:] * ARENA_HALF + ARENA_MID
            cameras = fit_cameras(world, pixel, CameraIntrinsics.centered(self.focal, size))
            self.fits.update(zip(group, cameras.reshape(-1, 12)))
        return Tensor(np.array([self.fits[scene] for scene in scenes]).reshape(-1, 12))


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
                # nominal mount of the batch's rig (forward), starting there
                self.static_rows = Tensor(np.zeros((1, 12)), requires_grad=True)
        else:
            self.visual_head = Linear(3, 2, rng)
        if drop != "predictor":
            self.predictor = FuturePixelPredictor(cfg, rng, kind)

    def prepare(self, scenes: list[Scene]) -> None:
        """Fit the camera of every scene the estimator has not seen yet, in
        one estimator call over the whole list, so the forward passes over
        the scenes only look their cameras up."""
        if self.drop not in ("estimator", "projection"):
            self.estimator(scenes)

    def forward(self, scenes: Scene | list[Scene]) -> tuple[Tensor, Tensor]:
        """Returns (denoised pixel tracks (B*t_obs, 2), future tracks
        (B*t_pred, 2)), row-stacked in batch order."""
        drop = self.drop
        scenes, t_obs, size = self.batch(scenes)
        sensor = hidden_sensor(scenes)

        denoised = self.denoiser(sensor, t_obs) if drop != "denoiser" else sensor

        if drop != "projection":
            if drop != "estimator":
                rows = tile_rows(self.estimator(scenes), t_obs)
            else:
                nominal, spread = nominal_camera(CameraIntrinsics.centered(self.cfg.focal, size))
                static = add(col_scale(self.static_rows, spread.ravel()), Tensor(nominal))
                rows = tile_rows(static, len(scenes) * t_obs)
            visual = project_rows(rows, denoised)
        else:
            visual = col_scale(self.visual_head(denoised), size)

        if drop != "predictor":
            future = self.predictor(visual, size, t_obs)
        else:
            future = tile_rows(strided_rows(visual, t_obs - 1, t_obs), self.cfg.t_pred)
        return visual, future


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
    on_epoch=None,
) -> TrainResult:
    """Joint training on the summed pixel losses, one autodiff graph per
    minibatch (TrajectoryModel.loss_terms on the whole batch).

    Before the first epoch the model prepares every training and
    validation scene (TrajectoryModel.prepare): the pipeline fits all
    their cameras there. The scene order is reshuffled each epoch from a
    generator keyed by (seed, epoch) alone. The model is left holding the
    parameters of its best validation epoch (by summed error), kept as a
    copy of the optimizer's store (nn.Adam), which holds every parameter
    training changes; without validation scenes, the final epoch wins.
    """
    if not train_scenes:
        raise EmptyInput("no training scenes")
    optimizer = optimizer or Adam(model.parameters(), lr=tcfg.lr)
    model.prepare(train_scenes + val_scenes)
    result = TrainResult()
    best: np.ndarray | None = None
    for epoch in range(tcfg.epochs):
        order = _shuffle(tcfg.seed, epoch, len(train_scenes))
        sum_d = sum_p = 0.0
        for batch_no, start in enumerate(range(0, len(order), tcfg.batch_size)):
            batch = [train_scenes[idx] for idx in order[start:start + tcfg.batch_size]]
            loss_d, loss_p = model.loss_terms(batch)
            total = add(loss_d, loss_p)
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
                best = optimizer.store.copy()
        result.history.append(stats)
        if on_epoch is not None:
            on_epoch(stats)
    if best is not None:
        optimizer.store[...] = best
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
