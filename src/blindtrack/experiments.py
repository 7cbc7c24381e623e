"""Benchmark and ablation harnesses.

Every learned method trains with the same data, optimizer, schedule, and
budget; only the architecture differs. Model initialization is keyed by
(training seed, method name) so methods are independent but reproducible.
"""

from __future__ import annotations

import zlib
from dataclasses import replace

import numpy as np

from .baselines import REFERENCE_METHODS, make_model, make_reference
from .config import RunConfig
from .errors import DepthNonPositive, InsufficientCorrespondences
from .geometry import MIN_CORRESPONDENCES, clamped_project, dlt_estimate, project_trajectory
from .metrics import EvalReport, score_scenes
from .pipeline import train_model
from .simulator import Scene

# presentation labels for the stage-removal study
ABLATION_ROWS = (
    ("full", "full"),
    ("no_estimator", "w/o CPE"),
    ("no_denoiser", "w/o MDE"),
    ("no_projection", "w/o VPP"),
    ("no_predictor", "w/o OPD"),
)


def method_rng(train_seed: int, method: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(train_seed), zlib.crc32(method.encode())])
    )


def train_method(
    method: str,
    splits: dict[str, list[Scene]],
    run_cfg: RunConfig,
    train_seed: int,
    on_epoch=None,
):
    """Build and train one method; returns (model, TrainResult)."""
    model = make_model(method, run_cfg.model_config(), method_rng(train_seed, method))
    result = train_model(
        model,
        splits["train"],
        splits.get("val", []),
        run_cfg.train_config(seed=train_seed),
        on_epoch=on_epoch,
    )
    return model, result


def evaluate_model(
    model, scenes: list[Scene], split: str, config_hash: str = "", seed: int = 0
) -> EvalReport:
    return score_scenes(model.predict, scenes, model.name, split, config_hash, seed)


def run_benchmark(
    splits: dict[str, list[Scene]],
    run_cfg: RunConfig,
    methods: list[str],
    seeds: list[int],
    config_hash: str = "",
    split: str = "test",
    progress=None,
) -> list[EvalReport]:
    """Train each learned method per seed and score it on the held-out
    split; training-free references are scored once per seed as well so
    every table row carries the same seed column."""
    reports = []
    for seed in seeds:
        for method in methods:
            if method in REFERENCE_METHODS:
                model = make_reference(method)
            else:
                model, _ = train_method(method, splits, run_cfg, seed)
            reports.append(evaluate_model(model, splits[split], split, config_hash, seed))
            if progress is not None:
                progress(reports[-1])
    return reports


def run_ablation(
    splits: dict[str, list[Scene]],
    run_cfg: RunConfig,
    seed: int,
    config_hash: str = "",
    split: str = "test",
    progress=None,
) -> list[EvalReport]:
    """Train the full model and the four stage-removal variants under the
    shared budget; emits exactly five rows in a fixed order."""
    reports = []
    for method, label in ABLATION_ROWS:
        model, _ = train_method(method, splits, run_cfg, seed)
        report = evaluate_model(model, splits[split], split, config_hash, seed)
        reports.append(replace(report, method=label))
        if progress is not None:
            progress(reports[-1])
    return reports


def median_sum(reports: list[EvalReport], method: str) -> float:
    values = [r.mse_sum for r in reports if r.method == method]
    if not values:
        raise KeyError(f"no reports for method {method!r}")
    return float(np.median(values))


# a scene whose classical recovery misses by more than this is flagged
FLAG_THRESHOLD_PX = 1.0


def calibrate_scene(scene: Scene) -> tuple[str, int, float, float]:
    """Classical camera recovery from the in-sight correspondences.

    Each in-sight agent's sensor reading is paired with the exact
    projection of its true position, so the residual isolates what the
    sensor channel does to calibration: zero noise recovers the camera to
    numerical precision, and the error grows with the noise level. A
    static mount pools the whole observation window into one estimate; a
    moving mount is estimated per timestep, which needs at least
    MIN_CORRESPONDENCES agents visible at every step.

    Returns (mode, n_points, mean_error, max_error), errors in pixels.
    """
    t_obs = scene.t_obs
    matrices = scene.camera[:t_obs]
    static = bool(np.array_equal(matrices, np.broadcast_to(matrices[0], matrices.shape)))
    rows = np.delete(np.arange(len(scene.agent_ids)), scene.hidden)
    seen = scene.visible[rows, :t_obs]  # (m, t_obs): each in-sight agent's visible steps
    sensor = scene.sensor[rows]
    exact = np.zeros(seen.shape + (2,))
    cameras = np.broadcast_to(matrices, seen.shape + (3, 4))
    try:
        exact[seen] = project_trajectory(cameras[seen], scene.world[rows, :t_obs][seen])
    except DepthNonPositive as err:  # name the agent and step of the stacked row
        row, t = np.argwhere(seen)[err.index]
        raise DepthNonPositive(
            f"scene seed {scene.seed}: agent {scene.agent_ids[rows[row]]} is at or behind the camera at step {t}"
        ) from None
    # one estimate from the whole window, or one per step
    masks = [seen] if static else [seen & (np.arange(t_obs) == t) for t in range(t_obs)]
    distances = []
    for t, mask in enumerate(masks):
        world, pixel = sensor[mask], exact[mask]
        if len(world) < MIN_CORRESPONDENCES:
            where, why = ("", "") if static else (f", timestep {t}", " for a moving mount")
            raise InsufficientCorrespondences(
                f"scene {scene.seed}{where}: {len(world)} correspondences, need {MIN_CORRESPONDENCES}{why}"
            )
        estimate = dlt_estimate(world, pixel)
        distances.append(_reproject_distance(estimate, world, pixel))
    dist = np.concatenate(distances)
    return "static" if static else "moving", len(dist), float(dist.mean()), float(dist.max())


def _reproject_distance(estimate: np.ndarray, world: np.ndarray, pixel: np.ndarray) -> np.ndarray:
    # clamped: a noisy point behind the estimated camera scores a huge
    # distance and flags the scene instead of crashing the diagnostic
    return np.linalg.norm(clamped_project(estimate, world) - pixel, axis=1)
