"""Pinhole projection and classical recovery: build a camera, project a
walking path, then estimate the matrix back from noisy correspondences."""

import numpy as np

from blindtrack.geometry import (
    CameraIntrinsics,
    dlt_estimate,
    look_at,
    project_trajectory,
    reprojection_error,
)

# a camera two and a half metres up, looking at a spot 16 m away
intrinsics = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)
matrix = intrinsics.matrix() @ look_at(position=np.array([0.0, 0.0, 2.5]), target=np.array([0.0, 16.0, 1.0]))
print("projection matrix:\n", np.array_str(matrix, precision=2, suppress_small=True))

# project a short diagonal walk at chest height
steps = np.linspace(0.0, 1.0, 8).reshape(-1, 1)
path = np.array([[-2.0, 12.0, 1.2]]) + steps * np.array([[4.0, 6.0, 0.0]])
pixels = project_trajectory(matrix, path)
for world, uv in zip(path, pixels):
    print(f"  world ({world[0]:5.2f}, {world[1]:5.2f}, {world[2]:4.2f}) -> pixel ({uv[0]:6.1f}, {uv[1]:6.1f})")

# recover the matrix from correspondences with the direct linear transform
rng = np.random.default_rng(1)
world = np.column_stack(
    [rng.uniform(-4, 4, 60), rng.uniform(10, 22, 60), rng.uniform(0.5, 2.0, 60)]
)
exact = project_trajectory(matrix, world)

recovered = dlt_estimate(world, exact)
print(f"\nexact correspondences: reprojection error {reprojection_error(recovered, world, exact):.2e} px")

noisy = exact + rng.normal(0.0, 0.5, exact.shape)
recovered = dlt_estimate(world, noisy)
print(f"0.5 px pixel noise:    reprojection error {reprojection_error(recovered, world, exact):.3f} px")

# the estimate is scale-free; compare after matching the normalization
scale = matrix[2, :3] @ recovered[2, :3] / (recovered[2, :3] @ recovered[2, :3])
relative = np.abs(recovered * scale - matrix).max() / np.abs(matrix).max()
print(f"max matrix element error: {relative:.2e} relative to the largest entry")
