"""Comparison methods.

Learned baselines share the pipeline's backbone widths, losses, optimizer,
and training schedule; only the architecture between sensor and pixels
differs:

- direct:<kind>     one sequence trunk maps the noisy sensor straight to
                    observed pixels and a pooled future forecast.
- two_stage:<kind>  a trunk regresses observed pixels, then a separate
                    pixel-track predictor of the same kind forecasts from
                    them (no geometry anywhere).
- plus_vpd:<kind>   the full geometric pipeline with the future-pixel
                    predictor swapped to <kind>. plus_vpd:transformer is
                    the full model.

Classical references (const_velocity, smoother) are training-free and use
the ground-truth camera, so they bound what sensor-side filtering alone
can do.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import ModelConfig
from .errors import ConfigError, TooShort
from .geometry import clamped_project
from .nn import SEQUENCE_KINDS, Linear, SequenceTrunk
from .pipeline import (
    FuturePixelPredictor,
    STAGES,
    TrajectoryModel,
    VisionPipeline,
    as_batch,
    batch_shape,
    hidden_sensor,
)
from .simulator import DT, Scene
from .tensor import col_scale, mean_rows, reshape

LEARNED_FAMILIES = ("direct", "two_stage", "plus_vpd")
REFERENCE_METHODS = ("const_velocity", "smoother")


def method_names() -> list[str]:
    """The trainable methods; the references (REFERENCE_METHODS) need no training."""
    names = ["full"]
    names += [f"{family}:{kind}" for family in LEARNED_FAMILIES for kind in SEQUENCE_KINDS]
    names += [f"no_{stage}" for stage in STAGES]
    return names


class DirectBaseline(TrajectoryModel):
    """Sensor straight to pixels with one backbone and two heads."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, kind: str):
        self.cfg = cfg
        self.name = f"direct:{kind}"
        self.trunk = SequenceTrunk(kind, 3, cfg.width, cfg.layers, cfg.heads, rng)
        self.obs_head = Linear(cfg.width, 2, rng)
        self.future_head = Linear(cfg.width, 2 * cfg.t_pred, rng)

    def forward(self, scenes: Scene | list[Scene]):
        scenes, t_obs, size = self.batch(scenes)
        feats = self.trunk(hidden_sensor(scenes), t_obs)
        visual = col_scale(self.obs_head(feats), size)
        future_rows = reshape(self.future_head(mean_rows(feats, t_obs)), len(scenes) * self.cfg.t_pred, 2)
        return visual, col_scale(future_rows, size)


class TwoStageBaseline(TrajectoryModel):
    """Pixel regression first, then a same-kind forecaster on its output.

    Trained jointly with the shared loss; gradients from the prediction
    loss flow back into the first stage.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, kind: str):
        self.cfg = cfg
        self.name = f"two_stage:{kind}"
        self.trunk = SequenceTrunk(kind, 3, cfg.width, cfg.layers, cfg.heads, rng)
        self.obs_head = Linear(cfg.width, 2, rng)
        self.predictor = FuturePixelPredictor(cfg, rng, kind)

    def forward(self, scenes: Scene | list[Scene]):
        scenes, t_obs, size = self.batch(scenes)
        visual = col_scale(self.obs_head(self.trunk(hidden_sensor(scenes), t_obs)), size)
        return visual, self.predictor(visual, size, t_obs)


def make_model(name: str, cfg: ModelConfig, rng: np.random.Generator) -> TrajectoryModel:
    """Build any trainable method by its canonical name."""
    if name not in method_names():
        raise ConfigError(
            f"{name!r} is no trainable method; expected one of {method_names()} "
            f"(the references {' and '.join(REFERENCE_METHODS)} need no training)",
            field="method",
        )
    family, _, kind = name.partition(":")
    if family == "direct":
        return DirectBaseline(cfg, rng, kind)
    if family == "two_stage":
        return TwoStageBaseline(cfg, rng, kind)
    return VisionPipeline(cfg, rng, name)


def const_velocity_extrapolate(
    positions: np.ndarray, steps: int, dt: float = DT, tail: int = 10
) -> np.ndarray:
    """Continue a track at the mean velocity of its last `tail` steps."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape[0] < 2:
        raise TooShort(f"need at least 2 positions to estimate velocity, got {positions.shape[0]}")
    use = min(tail, positions.shape[0] - 1)
    velocity = (positions[-1] - positions[-1 - use]) / (use * dt)
    horizon = np.arange(1, steps + 1)[:, None] * dt
    return positions[-1] + horizon * velocity


@functools.lru_cache(maxsize=16)
def _smoother_gains(steps: int, dt: float, process_var: float, meas_var: float):
    """The covariance half of rts_smooth, which no measurement enters: the
    transition F, the Kalman gains (steps, 2) and the smoother gains
    C_t = P_t F^T P_pred(t+1)^-1, (steps - 1, 2, 2). Computed once per
    (steps, dt, process_var, meas_var) and returned read-only."""
    f = np.array([[1.0, dt], [0.0, 1.0]])
    q = process_var * np.array(
        [[dt**4 / 4.0, dt**3 / 2.0], [dt**3 / 2.0, dt**2]]
    )
    p = np.diag([max(meas_var, 1e-9), 25.0])
    gains = np.zeros((steps, 2))
    filtered_p = np.zeros((steps, 2, 2))
    predicted_p = np.zeros((steps, 2, 2))
    predicted_p[0] = p
    for t in range(steps):
        if t > 0:
            p = f @ p @ f.T + q
            predicted_p[t] = p
        s = p[0, 0] + meas_var
        gain = p[:, 0] / max(s, 1e-12)
        p = p - np.outer(gain, p[0, :])
        gains[t] = gain
        filtered_p[t] = p
    smoother = np.stack([filtered_p[t] @ f.T @ np.linalg.inv(predicted_p[t + 1]) for t in range(steps - 1)])
    for arr in (f, gains, smoother):
        arr.setflags(write=False)
    return f, gains, smoother


def rts_smooth(
    measurements: np.ndarray,
    dt: float = DT,
    process_var: float = 0.5,
    meas_var: float = 4.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Constant-velocity Kalman filter plus backward smoothing pass.

    Each axis runs the same 2-state [position, velocity] model, so the
    covariance recursion is shared across axes, and since no measurement
    enters it, its gains come from _smoother_gains once per horizon; a
    call runs only the state recursion. Returns (positions, velocities),
    both (T, d). With meas_var 0 and clean input the smoothed positions
    equal the measurements.
    """
    z = np.asarray(measurements, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise TooShort(f"smoother needs a (T>=2, d) array, got {z.shape}")
    steps, dims = z.shape
    f, gains, smoother = _smoother_gains(steps, dt, process_var, meas_var)
    x = np.zeros((2, dims))
    x[0] = z[0]

    filtered_x = np.zeros((steps, 2, dims))
    predicted_x = np.zeros((steps, 2, dims))
    predicted_x[0] = x
    for t in range(steps):
        if t > 0:
            x = f @ x
            predicted_x[t] = x
        innovation = z[t] - x[0]
        x = x + gains[t][:, None] * innovation[None, :]
        filtered_x[t] = x

    smooth_x = filtered_x.copy()
    for t in range(steps - 2, -1, -1):
        smooth_x[t] = filtered_x[t] + smoother[t] @ (smooth_x[t + 1] - predicted_x[t + 1])
    return smooth_x[:, 0, :], smooth_x[:, 1, :]


def _reference_predict(scenes: Scene | list[Scene], world_tracks) -> tuple[np.ndarray, np.ndarray]:
    """A reference's predict: the hidden sensor windows of a batch of B
    equal-shape scenes, column-stacked into one (t_obs, 3B) array, go
    through world_tracks(sensor, t_pred) -> (observed, future) world
    columns in one call; both are projected through each scene's true
    camera in one clamped_project call. Each scene's columns see only
    elementwise arithmetic, or matrix products of which each column is
    its own, so every scene gets the bits a batch of one would give it.
    Shapes are as TrajectoryModel.predict returns them."""
    batch = as_batch(scenes)
    t_obs, t_pred, _ = batch_shape(batch)
    sensor = np.concatenate([scene.sensor[scene.hidden] for scene in batch], axis=1)
    observed, ahead = world_tracks(sensor, t_pred)

    def project(columns: np.ndarray, window: slice) -> np.ndarray:
        steps = len(columns)
        points = columns.reshape(steps, len(batch), 3).swapaxes(0, 1).reshape(-1, 3)
        cameras = np.concatenate([scene.camera[window] for scene in batch])
        return clamped_project(cameras, points).reshape(len(batch), steps, 2)

    visual, future = project(observed, slice(0, t_obs)), project(ahead, slice(t_obs, None))
    if isinstance(scenes, Scene):
        return visual[0], future[0]
    return visual, future


class ConstVelocityOracle:
    """Raw sensor projected through the true camera; future by straight-line
    extrapolation of the sensor track."""

    name = "const_velocity"

    def predict(self, scenes: Scene | list[Scene]) -> tuple[np.ndarray, np.ndarray]:
        return _reference_predict(scenes, lambda sensor, steps: (sensor, const_velocity_extrapolate(sensor, steps)))


class SmootherOracle:
    """Kalman-smoothed sensor projected through the true camera; future by
    rolling the final smoothed state forward."""

    name = "smoother"

    def predict(self, scenes: Scene | list[Scene]) -> tuple[np.ndarray, np.ndarray]:
        return _reference_predict(scenes, self._world_tracks)

    def _world_tracks(self, sensor: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
        positions, velocities = rts_smooth(sensor)
        horizon = np.arange(1, steps + 1)[:, None] * DT
        return positions, positions[-1] + horizon * velocities[-1]


def make_reference(name: str) -> ConstVelocityOracle | SmootherOracle:
    if name == "const_velocity":
        return ConstVelocityOracle()
    if name == "smoother":
        return SmootherOracle()
    raise ConfigError(f"unknown reference {name!r}; expected {REFERENCE_METHODS}", field="method")
