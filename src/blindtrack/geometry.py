"""The camera model: intrinsics, look-at poses and the box every rig's
pose is drawn from (POSE_BOX), projecting trajectories, fitting a look-at
camera to (world, pixel) pairs, and recovering a matrix from point
correspondences by DLT.

World points are metres in a right-handed frame with +z up. Pixel
coordinates follow the usual image convention: u rightward, v downward,
origin at the top-left. Projection matrices are plain (3, 4) float arrays;
a time-varying camera is a (T, 3, 4) stack.

`look_at` returns the extrinsic [R | t] and broadcasts over leading axes,
so a camera is `intrinsics.matrix() @ look_at(position, target)`: given
(T, 3) positions that builds the whole (T, 3, 4) camera in one array
pass, with every pose check applied to every pose. The simulator draws
each scene's rig from POSE_BOX; the camera fit (fit_cameras), which the
pipeline's camera stage runs, shrinks its poses toward the same box.
"""

from __future__ import annotations

import functools
import itertools
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

# camera rig jitter: each scene draws its look-at pose uniformly from
# this box (simulator.camera_rigs), (low, high) rows for mount x, y, z
# then aim x, y, z; the camera fit's prior reads the same box. Aim jitter
# is what makes the per-scene camera genuinely different: rotating the
# view by an aim offset d moves pixels by roughly focal*d/range, tens of
# pixels on the default rig, while mount translation alone is largely
# cancelled by the re-aiming. The sideways aim range is kept wide and the
# other two narrow so the variation a model must infer stays
# low-dimensional enough to learn from a desk-scale training set.
POSE_BOX = np.array([
    [-0.6, 0.6], [-0.25, 0.25], [2.35, 2.65],  # mount
    [-1.2, 1.2], [15.8, 16.2], [0.95, 1.05],  # aim
])

# the camera prior, shared by nominal_camera() and the camera fit: the
# mean and standard deviation of the uniform pose draws of POSE_BOX
POSE_MID = POSE_BOX.mean(axis=1)
POSE_STD = (POSE_BOX[:, 1] - POSE_BOX[:, 0]) / np.sqrt(12.0)

# variance of a pixel coordinate rounded to the integer grid; the least
# residual variance the camera fit assumes, so its prior never vanishes
ROUNDING_VAR = 1.0 / 12.0
# Gauss-Newton steps per fit: on the default rig, three put the hidden
# agent's projection within 0.02 px of where ten would
FIT_ITERATIONS = 3


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


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of (..., k) a with the same row of b, taken
    through matmul, which gives the bits ndarray.dot gives one pair of
    vectors (a BLAS dot); einsum and sum(a * b) round differently."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of (..., k), as a row dot (row_dots):
    the bits np.linalg.norm gives one vector; np.linalg.norm(axis=-1)
    rounds differently."""
    return np.sqrt(row_dots(v, v))


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


def pose_camera(pose: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """The (..., 3, 4) cameras of look-at poses (..., 6): mount xyz, aim xyz."""
    return intrinsics.matrix() @ look_at(pose[..., :3], pose[..., 3:])


@functools.lru_cache(maxsize=16)
def nominal_camera(intrinsics: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Camera rows of the nominal rig mount, with per-element spreads.

    The no-estimator ablation parameterizes its learned camera as a
    correction to this matrix: row = nominal + spread * raw. The spread
    of each element over the corners of the published mount box makes a
    unit raw output span the plausible cameras, so the projection is well
    conditioned from the first optimizer step: denominators start at true
    scene depths, far from the clamp, instead of at random near-zero
    values. Both arrays are (1, 12), row-major. Built once per intrinsics
    and returned read-only.
    """
    nominal = pose_camera(POSE_MID, intrinsics)
    corners = pose_camera(np.array(list(itertools.product(*POSE_BOX))), intrinsics)
    spread = np.maximum(np.abs(corners - nominal).max(axis=0), 1e-2)
    rows = nominal.reshape(1, 12), spread.reshape(1, 12)
    for array in rows:
        array.setflags(write=False)
    return rows


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


def clamped_project(matrices: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Pixel projection with the sign-preserving denominator clamp of the
    pipeline's differentiable map (project_rows); never raises."""
    rows = homogeneous_apply(matrices, points)
    den = rows[:, 2]
    sign = np.where(den < 0.0, -1.0, 1.0)
    den = np.where(np.abs(den) >= EPS_DEPTH, den, sign * EPS_DEPTH)
    return rows[:, :2] / den[:, None]


def _roots(values: np.ndarray) -> np.ndarray:
    """Square roots as Python's float ** 0.5 (libm pow) takes them; np.sqrt
    rounds some differently, which moves the fitted cameras' bits."""
    return np.array([value**0.5 for value in values.tolist()])


def look_at_residuals(
    pose: np.ndarray, world: np.ndarray, pixel: np.ndarray, intrinsics: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Reprojection residuals of a stack of look-at poses, and their Jacobians.

    pose is (B, 6), rows of mount xyz, aim xyz; world is (B, n, 3) and
    pixel (B, n, 2). The residuals are (B, 2n), projected minus observed
    pixels, u and v interleaved. The Jacobian, (B, 2n, 6), is analytic:
    the rotation depends on the pose only through the heading and
    elevation of the view axis aim - mount, so it is differentiated
    through those two angles. Depths are clamped at EPS_DEPTH, which keeps
    both finite for a point behind the camera.
    """
    gx, gy, gz = (pose[:, 3:] - pose[:, :3]).T
    rho2 = gx * gx + gy * gy
    rho = _roots(rho2)
    norm2 = rho2 + gz * gz
    norm = _roots(norm2)
    sin_h, cos_h = gx / rho, gy / rho  # heading
    sin_e, cos_e = gz / norm, rho / norm  # elevation
    zero = np.zeros_like(gx)
    # per scene, rows: right, down, forward, as in look_at; then the
    # rows' derivatives by heading and by elevation. Contiguous, so the
    # matmul below runs in BLAS as one scene's does: numpy's strided loop
    # rounds differently
    frames = np.array(
        [
            [[cos_h, -sin_h, zero], [sin_e * sin_h, sin_e * cos_h, -cos_e], [cos_e * sin_h, cos_e * cos_h, sin_e]],
            [[-sin_h, -cos_h, zero], [sin_e * cos_h, -sin_e * sin_h, zero], [cos_e * cos_h, -cos_e * sin_h, zero]],
            [[zero, zero, zero], [cos_e * sin_h, cos_e * cos_h, sin_e], [-sin_e * sin_h, -sin_e * cos_h, cos_e]],
        ]
    ).transpose(3, 0, 1, 2).copy()
    # per scene, (heading, elevation) by the view axis
    d_angles = np.array(
        [[gy / rho2, -gx / rho2, zero], [-gz * gx / (rho * norm2), -gz * gy / (rho * norm2), rho / norm2]]
    ).transpose(2, 0, 1)
    # (B, n, 9): camera coords, then their angle derivatives
    cam = (world - pose[:, None, :3]) @ np.swapaxes(frames.reshape(-1, 9, 3), 1, 2)
    depth = np.maximum(cam[..., 2], EPS_DEPTH)
    focal = np.array([intrinsics.fx, intrinsics.fy])
    image = cam[..., 0:2] / depth[..., None]  # (B, n, 2) normalized image coords
    res = (focal * image + np.array([intrinsics.cx, intrinsics.cy]) - pixel).reshape(len(pose), -1)
    # d(pixel)/d(camera coords), applied to the rotation rows and to their
    # angle derivatives
    gain = focal / depth[..., None]
    d_world = gain[..., None] * (frames[:, None, 0, 0:2] - image[..., None] * frames[:, None, 0, 2:3])
    d_heading = gain * (cam[..., 3:5] - image * cam[..., 5:6])
    d_elevation = gain * (cam[..., 6:8] - image * cam[..., 8:9])
    d_aim = d_heading[..., None] * d_angles[:, None, None, 0] + d_elevation[..., None] * d_angles[:, None, None, 1]
    jac = np.concatenate([-d_world - d_aim, d_aim], axis=3)
    return res, jac.reshape(len(pose), -1, 6)


def _fit_pose(
    world: np.ndarray, pixel: np.ndarray, intrinsics: CameraIntrinsics, start: np.ndarray, prior_weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton per scene of a (B, n, ·) stack, from the (B, 6) poses
    `start`, on the squared reprojection error plus prior_weight (B,) times
    the squared pose offset from POSE_MID in units of POSE_STD. A step that
    does not lower a scene's energy is halved; a scene whose four trials
    all fail stops. Returns the poses and their residuals."""
    precision = prior_weight[:, None] / POSE_STD**2

    def energy(pose, res, precision):
        return row_dots(res, res) + row_dots(precision, (pose - POSE_MID) ** 2)

    pose = start.copy()
    res, jac = look_at_residuals(pose, world, pixel, intrinsics)
    current = energy(pose, res, precision)
    active = np.ones(len(pose), dtype=bool)
    for _ in range(FIT_ITERATIONS):
        fit = np.flatnonzero(active)
        jac_fit = jac[fit]
        jac_t = np.swapaxes(jac_fit, 1, 2)  # one array on both sides, as in a single scene's jac.T @ jac
        normal = jac_t @ jac_fit + precision[fit, :, None] * np.eye(6)
        gradient = (jac_t @ res[fit, :, None])[..., 0] + precision[fit] * (pose[fit] - POSE_MID)
        step = np.linalg.solve(normal, gradient[..., None])[..., 0]  # rows follow `trying`
        trying = fit
        for _ in range(4):
            trial = pose[trying] - step
            trial_res, trial_jac = look_at_residuals(trial, world[trying], pixel[trying], intrinsics)
            trial_energy = energy(trial, trial_res, precision[trying])
            lower = trial_energy < current[trying]
            moved = trying[lower]
            pose[moved], res[moved], jac[moved], current[moved] = (
                trial[lower], trial_res[lower], trial_jac[lower], trial_energy[lower]
            )
            trying, step = trying[~lower], step[~lower] / 2.0
            if not len(trying):
                break
        active[trying] = False
        if not active.any():
            break
    return pose, res


def fit_cameras(world: np.ndarray, pixel: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Look-at cameras of the given intrinsics, one per scene, fitted to
    (B, n, 3) world points and their (B, n, 2) pixels and shrunk toward
    the pose box; returns (B, 3, 4). Scenes share the pair count n, and
    each scene's camera has the bits it would get fitted alone.

    A first fit, from the box centre with the weakest prior, gives the
    residual variance per pixel coordinate (never below ROUNDING_VAR); a
    second fit from there weighs the prior by that variance, so noisy
    pairs lean on the box and exact ones ignore it. The prior also fixes
    what the pairs leave open (the aim's distance along the view axis,
    or everything when there are fewer pairs than unknowns), so the fit
    returns a finite camera for any number of pairs.
    """
    count = len(world)
    pose, res = _fit_pose(world, pixel, intrinsics, np.tile(POSE_MID, (count, 1)), np.full(count, ROUNDING_VAR))
    # five of the six pose coordinates move the image
    variance = np.maximum(row_dots(res, res) / max(res.shape[1] - 5, 1), ROUNDING_VAR)
    pose, _ = _fit_pose(world, pixel, intrinsics, pose, variance)
    return pose_camera(pose, intrinsics)


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
