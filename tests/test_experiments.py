"""The classical calibration diagnostic against a per-agent, per-step
reference loop."""

import copy

import numpy as np
import pytest

from blindtrack import geometry as geo
from blindtrack import simulator as sim
from blindtrack.errors import DepthNonPositive, InsufficientCorrespondences
from blindtrack.experiments import calibrate_scene


def loop_calibrate(scene):
    """calibrate_scene as a loop over the in-sight agents, then over steps:
    the reference its masked form must match bit for bit."""
    t_obs = scene.t_obs
    matrices = scene.camera[:t_obs]
    static = np.array_equal(matrices, np.broadcast_to(matrices[0], matrices.shape))
    pairs = []  # (step, sensor, exact pixel), agent by agent
    for row in range(len(scene.agent_ids)):
        steps = np.flatnonzero(scene.visible[row, :t_obs])
        if row != scene.hidden and steps.size:
            exact = geo.project_trajectory(matrices[steps], scene.world[row, steps])
            pairs += [(t, scene.sensor[row, t], pixel) for t, pixel in zip(steps, exact)]
    windows = [pairs] if static else [[pair for pair in pairs if pair[0] == t] for t in range(t_obs)]
    distances = []
    for t, window in enumerate(windows):
        if len(window) < geo.MIN_CORRESPONDENCES:
            where, why = ("", "") if static else (f", timestep {t}", " for a moving mount")
            raise InsufficientCorrespondences(
                f"scene {scene.seed}{where}: {len(window)} correspondences, need {geo.MIN_CORRESPONDENCES}{why}"
            )
        world = np.array([sensor for _, sensor, _ in window])
        pixel = np.array([exact for _, _, exact in window])
        estimate = geo.dlt_estimate(world, pixel)
        distances.append(np.linalg.norm(geo.clamped_project(estimate, world) - pixel, axis=1))
    dist = np.concatenate(distances)
    return "static" if static else "moving", len(dist), float(dist.mean()), float(dist.max())


def outcome(calibrate, scene):
    try:
        return calibrate(scene)
    except InsufficientCorrespondences as err:
        return str(err)


@pytest.mark.parametrize("motion", ["static", "arc"])
def test_matches_the_per_agent_loop_bit_for_bit(motion):
    rng = np.random.default_rng(17)
    cfg = sim.SimulatorConfig(n_agents=8, t_obs=10, t_pred=2, camera_motion=motion,
                              noise=sim.NoiseModel.preset("default"))
    outcomes = []
    for scene in sim.make_split(cfg, 60, 6):
        for drop_rate in (0.0, 0.1, 0.4, 0.95):
            edited = copy.deepcopy(scene)
            edited.visible &= rng.random(edited.visible.shape) >= drop_rate
            want = outcome(loop_calibrate, edited)
            assert outcome(calibrate_scene, edited) == want
            outcomes.append(want)
    # both the estimates and the refusals are compared
    assert any(isinstance(o, str) for o in outcomes) and any(isinstance(o, tuple) for o in outcomes)


def test_a_point_behind_the_camera_is_named_by_agent_and_step():
    cfg = sim.SimulatorConfig(n_agents=8, t_obs=10, t_pred=2, noise=sim.NoiseModel.preset("default"))
    scene = next(
        s for s in sim.make_split(cfg, 60, 6) if s.out_of_sight_id != 2 and s.visible[s.agent_ids.index(2), 5]
    )
    edited = copy.deepcopy(scene)
    matrix = edited.camera[5]
    # back from the camera centre along the optical axis: depth -|m3|^2
    centre = -np.linalg.solve(matrix[:, :3], matrix[:, 3])
    edited.world[edited.agent_ids.index(2), 5] = centre - matrix[2, :3]
    message = f"scene seed {scene.seed}: agent 2 is at or behind the camera at step 5"
    with pytest.raises(DepthNonPositive, match=f"^{message}$") as err:
        calibrate_scene(edited)
    assert err.value.exit_code == 6
