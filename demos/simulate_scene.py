"""Generate one synthetic scene and look at it from every side: world
tracks, sensor noise, camera geometry, and an ASCII view of the image
plane. Rerunning with the same seed reproduces the scene bit for bit."""

import argparse

import numpy as np

from blindtrack.simulator import NoiseModel, SimulatorConfig, make_scene

parser = argparse.ArgumentParser()
parser.add_argument("--seed", type=int, default=5)
parser.add_argument("--noise", default="default", choices=["clean", "default", "hard"])
args = parser.parse_args()

cfg = SimulatorConfig(n_agents=5, t_obs=20, t_pred=20, noise=NoiseModel.preset(args.noise))
scene = make_scene(cfg, seed=args.seed)

hidden = scene.hidden
print(f"scene seed {scene.seed}: {len(scene.agent_ids)} agents, agent {scene.out_of_sight_id} is out of sight")
print(f"observation window {scene.t_obs} steps, prediction window {scene.t_pred} steps")

# sensor noise magnitude over the observation window, one row per agent
errors = np.linalg.norm(scene.sensor - scene.world[:, : scene.t_obs], axis=2)
for row, (agent_id, err) in enumerate(zip(scene.agent_ids, errors)):
    tag = "hidden " if row == hidden else "in-sight"
    print(f"  agent {agent_id} ({tag}) sensor error: mean {err.mean():.2f} m, max {err.max():.2f} m")

# ASCII view of the image plane over the whole horizon: digits are agent
# ids, '*' marks the hidden agent, lowercase marks the prediction window
w, h = scene.image_size
cols, rows = 72, 24
canvas = [[" "] * cols for _ in range(rows)]
# the hidden agent is drawn last so it stays visible
for row in [row for row in range(len(scene.agent_ids)) if row != hidden] + [hidden]:
    agent_id = scene.agent_ids[row]
    for t in np.flatnonzero(scene.visible[row]):
        u, v = scene.pixel[row, t]
        if row == hidden:
            mark = "*" if t < scene.t_obs else "o"
        else:
            mark = str(agent_id) if t < scene.t_obs else "abcdefghij"[agent_id]
        canvas[int(v / h * (rows - 1))][int(u / w * (cols - 1))] = mark
print("\nimage plane (digits in-sight, * hidden observed, o hidden future):")
print("+" + "-" * cols + "+")
for line in canvas:
    print("|" + "".join(line) + "|")
print("+" + "-" * cols + "+")

visible_future = int(scene.visible[hidden, scene.t_obs :].sum())
print(f"\nhidden agent visible for {visible_future}/{scene.t_pred} future steps")
again = make_scene(cfg, seed=args.seed)
same = np.array_equal(scene.world, again.world) and np.array_equal(scene.sensor, again.sensor)
print(f"regenerated with the same seed: {'identical' if same else 'DIFFERENT'}")
