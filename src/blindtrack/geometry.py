"""Pinhole camera geometry: look-at poses, projecting trajectories, and
recovering a matrix from point correspondences.

World points are metres in a right-handed frame with +z up. Pixel
coordinates follow the usual image convention: u rightward, v downward,
origin at the top-left. Projection matrices are plain (3, 4) float arrays;
a time-varying camera is a (T, 3, 4) stack.

`look_at` returns the extrinsic [R | t] and broadcasts over leading axes,
so a camera is `intrinsics.matrix() @ look_at(position, target)`: given
(T, 3) positions that builds the whole (T, 3, 4) camera in one array
pass, with every pose check applied to every pose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConfiguration,
    DepthNonPositive,
    EmptyInput,
    InsufficientCorrespondences,
    InvalidPose,
    LengthMismatch,
)

# depth below this counts as "behind the camera"
EPS_DEPTH = 1e-6

# singular values below this fraction of the largest count as zero rank
RANK_TOL = 1e-8

MIN_CORRESPONDENCES = 6

# a view axis, or its cross product with +z, shorter than this leaves a
# look-at pose undefined
AXIS_TOL = 1e-9


@dataclass(frozen=True)
class CameraIntrinsics:
    """Focal lengths and principal point, in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    @classmethod
    def centered(cls, focal: float, image_size: tuple[int, int]) -> CameraIntrinsics:
        """Square pixels of one focal length, principal point at the image centre."""
        return cls(fx=focal, fy=focal, cx=image_size[0] / 2.0, cy=image_size[1] / 2.0)

    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.fx, 0.0, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )


def _first(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first set entry of a mask over poses (() for a single
    pose), or None when none is set."""
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))


def _invalid(index: tuple[int, ...], message: str) -> InvalidPose:
    """InvalidPose for the pose at `index`; a pose of a stack is named."""
    if index:
        message = f"step {index[0] if len(index) == 1 else index}: {message}"
    return InvalidPose(message)


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of (..., k). Taken as a row dot product
    through matmul, which gives the bits np.linalg.norm and ndarray.dot
    give one vector (a BLAS dot); np.linalg.norm(axis=-1), einsum and
    sum(v * v) round differently."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def look_at(position, target) -> np.ndarray:
    """World-to-camera extrinsic [R | t], (3, 4), of a camera at `position`
    looking toward `target`, world +z up.

    Both are (3,) or stacks (..., 3) that broadcast against each other; a
    stack gives a (..., 3, 4) stack. Camera axes follow the usual image
    convention: x right, y down, z forward, so the view axis must not be
    vertical. R's rows are unit vectors built from two cross products, so
    R is orthonormal with determinant +1. A non-finite, coincident or
    vertical pose raises InvalidPose; a stack names the first bad pose's
    index.
    """
    position = np.asarray(position, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    forward = target - position
    bad = _first(~np.isfinite(forward).all(axis=-1))
    if bad is not None:
        raise _invalid(bad, "camera position or target is not finite")
    norm = row_norms(forward)
    bad = _first(norm < AXIS_TOL)
    if bad is not None:
        raise _invalid(bad, "camera position and target coincide")
    forward = forward / norm[..., None]
    right = np.cross(forward, np.array([0.0, 0.0, 1.0]))
    right_norm = row_norms(right)
    bad = _first(right_norm < AXIS_TOL)
    if bad is not None:
        raise _invalid(bad, "view axis is vertical; image orientation undefined")
    right = right / right_norm[..., None]
    down = np.cross(forward, right)
    rotation = np.stack([right, down, forward], axis=-2)
    translation = -rotation @ position[..., None]
    return np.concatenate([rotation, translation], axis=-1)


def homogeneous_apply(matrices: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply per-timestep (3, 4) matrices to (T, 3) points; returns (T, 3)
    homogeneous rows [u*d, v*d, d] without dividing."""
    points = np.asarray(points, dtype=np.float64)
    matrices = np.asarray(matrices, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise LengthMismatch(f"points must be (T, 3), got {points.shape}")
    steps = points.shape[0]
    if matrices.shape == (3, 4):
        matrices = np.broadcast_to(matrices, (steps, 3, 4))
    if matrices.shape != (steps, 3, 4):
        raise LengthMismatch(f"{matrices.shape[0] if matrices.ndim == 3 else 1} matrices for {steps} points")
    hom = np.concatenate([points, np.ones((steps, 1))], axis=1)
    return np.einsum("tij,tj->ti", matrices, hom)


def project_trajectory(matrices: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Project a (T, 3) trajectory to (T, 2) pixels by the homogeneous
    division; raises DepthNonPositive (with the offending timestep, also
    carried as its index) for points at or behind the camera plane.
    homogeneous_apply gives the undivided rows."""
    rows = homogeneous_apply(matrices, points)
    depths = rows[:, 2]
    bad = np.nonzero(depths <= EPS_DEPTH)[0]
    if bad.size:
        raise DepthNonPositive(f"depth {depths[bad[0]]:.3e} <= {EPS_DEPTH} at timestep {bad[0]}", index=bad[0])
    return rows[:, :2] / depths[:, None]


def _normalizing_transform(points: np.ndarray, target_scale: float) -> np.ndarray:
    """Similarity transform moving the centroid to the origin and the mean
    distance to target_scale. Returns a square homogeneous matrix."""
    dim = points.shape[1]
    centroid = points.mean(axis=0)
    mean_dist = np.linalg.norm(points - centroid, axis=1).mean()
    if mean_dist < 1e-12:
        raise DegenerateConfiguration("correspondence points are coincident")
    s = target_scale / mean_dist
    transform = np.eye(dim + 1)
    transform[:dim, :dim] *= s
    transform[:dim, dim] = -s * centroid
    return transform


def dlt_estimate(world_points: np.ndarray, pixel_points: np.ndarray) -> np.ndarray:
    """Estimate a (3, 4) projection matrix from >= 6 correspondences.

    Uses the standard normalized direct linear transform: both point sets
    are conditioned with a similarity transform, the 2n x 12 system is
    solved by SVD, and the result is denormalized. The output has a
    unit-norm bottom row and positive depth for the majority of the inputs.
    """
    world = np.asarray(world_points, dtype=np.float64)
    pixels = np.asarray(pixel_points, dtype=np.float64)
    if world.ndim != 2 or world.shape[1] != 3:
        raise LengthMismatch(f"world points must be (n, 3), got {world.shape}")
    if pixels.ndim != 2 or pixels.shape[1] != 2:
        raise LengthMismatch(f"pixel points must be (n, 2), got {pixels.shape}")
    if world.shape[0] != pixels.shape[0]:
        raise LengthMismatch(f"{world.shape[0]} world points vs {pixels.shape[0]} pixels")
    n = world.shape[0]
    if n < MIN_CORRESPONDENCES:
        raise InsufficientCorrespondences(f"{n} correspondences; need >= {MIN_CORRESPONDENCES}")

    t_world = _normalizing_transform(world, np.sqrt(3.0))
    t_pix = _normalizing_transform(pixels, np.sqrt(2.0))
    world_h = np.concatenate([world, np.ones((n, 1))], axis=1) @ t_world.T
    pix_h = np.concatenate([pixels, np.ones((n, 1))], axis=1) @ t_pix.T

    system = np.zeros((2 * n, 12))
    system[0::2, 0:4] = world_h
    system[0::2, 8:12] = -pix_h[:, 0:1] * world_h
    system[1::2, 4:8] = world_h
    system[1::2, 8:12] = -pix_h[:, 1:2] * world_h

    _, singular, vt = np.linalg.svd(system)
    rank = int(np.sum(singular > RANK_TOL * singular[0]))
    if rank < 11:
        raise DegenerateConfiguration(f"design matrix rank {rank} < 11; correspondences are degenerate")

    normalized = vt[-1].reshape(3, 4)
    matrix = np.linalg.inv(t_pix) @ normalized @ t_world
    matrix /= np.linalg.norm(matrix[2, :])
    depths = homogeneous_apply(matrix, world)[:, 2]
    if np.median(depths) < 0.0:
        matrix = -matrix
    return matrix


def reprojection_error(matrix: np.ndarray, world_points: np.ndarray, pixel_points: np.ndarray) -> float:
    """Mean pixel distance between projected world points and observations."""
    world = np.asarray(world_points, dtype=np.float64)
    pixels = np.asarray(pixel_points, dtype=np.float64)
    if world.shape[0] == 0:
        raise EmptyInput("no correspondences to score")
    if world.shape[0] != pixels.shape[0]:
        raise LengthMismatch(f"{world.shape[0]} world points vs {pixels.shape[0]} pixels")
    projected = project_trajectory(matrix, world)
    return float(np.linalg.norm(projected - pixels, axis=1).mean())
