"""Camera geometry: hand-worked pinhole arithmetic, pose contracts,
projective invariances, and matrix recovery from correspondences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blindtrack import geometry as geo
from blindtrack.errors import (
    DegenerateConfiguration,
    DepthNonPositive,
    EmptyInput,
    InsufficientCorrespondences,
    InvalidPose,
    LengthMismatch,
)

INTRINSICS = geo.CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)


def random_camera(rng):
    position = np.array([rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(1.5, 3.0)])
    target = np.array([rng.uniform(-3, 3), rng.uniform(8, 15), rng.uniform(0.0, 2.0)])
    pose = geo.look_at(position, target)
    return geo.compose_matrix(1.0, INTRINSICS, pose)


def random_points(rng, n):
    return np.column_stack(
        [rng.uniform(-4, 4, n), rng.uniform(6, 18, n), rng.uniform(0.0, 2.5, n)]
    )


class TestProjection:
    def test_hand_computed_pinhole(self):
        # identity pose: camera coords equal world coords
        pose = geo.ExtrinsicPose(rotation=np.eye(3), translation=np.zeros(3))
        matrix = geo.compose_matrix(1.0, INTRINSICS, pose)
        # u = (500*1 + 320*5)/5, v = (500*(-2) + 240*5)/5
        uv = geo.project_trajectory(matrix, np.array([[1.0, -2.0, 5.0]]))[0]
        assert uv == pytest.approx([420.0, 40.0], abs=1e-12)

    def test_point_on_axis_hits_principal_point(self):
        rng = np.random.default_rng(0)
        position = np.array([0.5, -0.5, 2.0])
        target = np.array([1.0, 12.0, 1.0])
        matrix = geo.compose_matrix(1.0, INTRINSICS, geo.look_at(position, target))
        uv = geo.project_trajectory(matrix, target[None])[0]
        assert uv == pytest.approx([INTRINSICS.cx, INTRINSICS.cy], abs=1e-9)

    def test_compose_equals_direct_evaluation(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            position = np.array([rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(1, 3)])
            target = np.array([rng.uniform(-3, 3), rng.uniform(8, 15), rng.uniform(0, 2)])
            pose = geo.look_at(position, target)
            w = rng.uniform(0.2, 5.0)
            matrix = geo.compose_matrix(w, INTRINSICS, pose)
            p = random_points(rng, 1)[0]
            hom = matrix @ np.append(p, 1.0)
            direct = w * INTRINSICS.matrix() @ (pose.rotation @ p + pose.translation)
            assert np.allclose(hom, direct, atol=1e-10)

    def test_projection_scale_invariant(self):
        rng = np.random.default_rng(2)
        matrix = random_camera(rng)
        points = random_points(rng, 10)
        base = geo.project_trajectory(matrix, points)
        for lam in (1e-3, 0.5, 7.0, 1e4):
            scaled = geo.project_trajectory(lam * matrix, points)
            assert np.allclose(scaled, base, atol=1e-9)

    def test_projection_divides_numerators_by_depth(self):
        rng = np.random.default_rng(3)
        matrix = random_camera(rng)
        points = random_points(rng, 5)
        rows = geo.homogeneous_apply(matrix, points)
        divided = geo.project_trajectory(matrix, points)
        assert np.allclose(rows[:, :2] / rows[:, 2:3], divided, atol=1e-12)

    def test_behind_camera_raises_with_timestep(self):
        pose = geo.ExtrinsicPose(rotation=np.eye(3), translation=np.zeros(3))
        matrix = geo.compose_matrix(1.0, INTRINSICS, pose)
        points = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, -1.0]])
        with pytest.raises(DepthNonPositive, match="timestep 1"):
            geo.project_trajectory(matrix, points)

    def test_time_varying_length_check(self):
        rng = np.random.default_rng(4)
        stack = np.stack([random_camera(rng) for _ in range(3)])
        with pytest.raises(LengthMismatch):
            geo.project_trajectory(stack, random_points(rng, 4))


class TestPose:
    def test_look_at_is_orthonormal(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            pose = geo.look_at(rng.uniform(-2, 2, 3) + [0, 0, 3], rng.uniform(-2, 2, 3) + [0, 10, 0])
            pose.validate()

    def test_look_at_y_axis_points_down(self):
        pose = geo.look_at([0.0, 0.0, 2.0], [0.0, 10.0, 1.0])
        assert pose.rotation[1, 2] < 0.0

    def test_vertical_view_rejected(self):
        with pytest.raises(InvalidPose):
            geo.look_at([0.0, 0.0, 5.0], [0.0, 0.0, 0.0])

    def test_invalid_rotation_rejected(self):
        bad = geo.ExtrinsicPose(rotation=np.eye(3) * 2.0, translation=np.zeros(3))
        with pytest.raises(InvalidPose):
            geo.compose_matrix(1.0, INTRINSICS, bad)
        flipped = geo.ExtrinsicPose(rotation=np.diag([1.0, 1.0, -1.0]), translation=np.zeros(3))
        with pytest.raises(InvalidPose):
            flipped.validate()

    def test_nonpositive_scale_rejected(self):
        pose = geo.ExtrinsicPose(rotation=np.eye(3), translation=np.zeros(3))
        with pytest.raises(InvalidPose):
            geo.compose_matrix(0.0, INTRINSICS, pose)


def per_step_extrinsic(position, target):
    """[R | t] of one look-at pose, with the single-vector formulas:
    np.linalg.norm, np.cross, np.vstack and np.hstack."""
    forward = target - position
    forward = forward / np.linalg.norm(forward)
    right = np.cross(forward, [0.0, 0.0, 1.0])
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    rotation = np.vstack([right, down, forward])
    return np.hstack([rotation, (-rotation @ position)[:, None]])


def in_box(shape, low, high):
    """Float arrays of `shape` whose rows lie in the box [low, high]."""
    unit = arrays(np.float64, shape, elements=st.floats(0.0, 1.0))
    return unit.map(lambda u: np.asarray(low) + u * (np.subtract(high, low)))


# mounts 1-4 m high, gaze points ahead and lower: never coincident, never vertical
positions = st.integers(1, 40).flatmap(lambda t: in_box((t, 3), [-5.0, -5.0, 1.0], [5.0, 5.0, 4.0]))
targets = in_box(3, [-5.0, 9.0, 0.0], [5.0, 19.0, 0.9])


class TestPoseStacks:
    """look_at, ExtrinsicPose and compose_matrix over a leading axis."""

    @settings(max_examples=60, deadline=None)
    @given(positions, targets)
    def test_stack_equals_row_by_row_bit_for_bit(self, position, target):
        stack = geo.look_at(position, target)
        assert stack.rotation.shape == (len(position), 3, 3)
        for t, p in enumerate(position):
            one = geo.look_at(p, target)
            assert np.array_equal(stack.rotation[t], one.rotation)
            assert np.array_equal(stack.translation[t], one.translation)

    @settings(max_examples=60, deadline=None)
    @given(positions, targets)
    def test_stack_equals_single_vector_formulas(self, position, target):
        matrices = geo.compose_matrix(1.0, INTRINSICS, geo.look_at(position, target))
        for t, p in enumerate(position):
            assert np.array_equal(matrices[t], INTRINSICS.matrix() @ per_step_extrinsic(p, target))

    def test_targets_stack_too(self):
        rng = np.random.default_rng(9)
        position = np.array([0.2, -0.1, 2.5])
        target = random_points(rng, 6)
        stack = geo.look_at(position, target)
        for t in range(6):
            assert np.array_equal(stack.rotation[t], geo.look_at(position, target[t]).rotation)
        assert geo.compose_matrix(2.0, INTRINSICS, stack).shape == (6, 3, 4)

    def test_coincident_step_named(self):
        position = np.array([[0.0, 0.0, 2.0]] * 5)
        position[3] = [0.0, 10.0, 1.0]
        with pytest.raises(InvalidPose, match=r"^step 3: camera position and target coincide"):
            geo.look_at(position, [0.0, 10.0, 1.0])

    def test_vertical_step_named(self):
        position = np.array([[0.0, 0.0, 2.0]] * 5)
        position[4] = [0.0, 10.0, 6.0]
        with pytest.raises(InvalidPose, match=r"^step 4: view axis is vertical"):
            geo.look_at(position, [0.0, 10.0, 1.0])

    def test_bad_rotation_step_named(self):
        pose = geo.look_at(np.array([[0.0, 0.0, 2.0]] * 4), [0.0, 10.0, 1.0])
        pose.validate()
        skewed = pose.rotation.copy()
        skewed[2] *= 1.01
        with pytest.raises(InvalidPose, match=r"^step 2: rotation is not orthonormal"):
            geo.compose_matrix(1.0, INTRINSICS, geo.ExtrinsicPose(skewed, pose.translation))
        flipped = pose.rotation.copy()
        flipped[1] = -flipped[1]
        with pytest.raises(InvalidPose, match=r"^step 1: rotation determinant -1\.000000, not \+1"):
            geo.ExtrinsicPose(flipped, pose.translation).validate()

    def test_grid_of_poses_names_its_index(self):
        position = np.zeros((2, 3, 3)) + [0.0, 0.0, 2.0]
        position[1, 2] = [0.0, 10.0, 1.0]
        with pytest.raises(InvalidPose, match=r"^step \(1, 2\): camera position"):
            geo.look_at(position, [0.0, 10.0, 1.0])

    def test_single_pose_messages_unchanged(self):
        with pytest.raises(InvalidPose, match=r"^camera position and target coincide$"):
            geo.look_at([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(InvalidPose, match=r"^view axis is vertical"):
            geo.look_at([0.0, 0.0, 5.0], [0.0, 0.0, 0.0])
        with pytest.raises(InvalidPose, match=r"^rotation is not orthonormal$"):
            geo.ExtrinsicPose(rotation=np.eye(3) * 2.0, translation=np.zeros(3)).validate()

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(InvalidPose, match="pose shapes"):
            geo.ExtrinsicPose(rotation=np.stack([np.eye(3)] * 2), translation=np.zeros(3)).validate()


class TestDLT:
    def test_exact_recovery(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            matrix = random_camera(rng)
            world = random_points(rng, 12)
            pixels = geo.project_trajectory(matrix, world)
            estimate = geo.dlt_estimate(world, pixels)
            assert geo.reprojection_error(estimate, world, pixels) < 1e-9
            # same matrix up to the fixed normalization
            reference = matrix / np.linalg.norm(matrix[2])
            if np.sum(reference * estimate) < 0:
                estimate = -estimate
            assert np.allclose(estimate, reference, atol=1e-7)

    def test_bottom_row_unit_norm_and_positive_depths(self):
        rng = np.random.default_rng(42)
        matrix = random_camera(rng)
        world = random_points(rng, 20)
        estimate = geo.dlt_estimate(world, geo.project_trajectory(matrix, world))
        assert np.linalg.norm(estimate[2]) == pytest.approx(1.0, abs=1e-12)
        assert np.all(geo.homogeneous_apply(estimate, world)[:, 2] > 0)

    def test_noisy_recovery_stays_accurate(self):
        errors = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            matrix = random_camera(rng)
            world = random_points(rng, 50)
            pixels = geo.project_trajectory(matrix, world) + rng.normal(0.0, 0.5, (50, 2))
            estimate = geo.dlt_estimate(world, pixels)
            errors.append(geo.reprojection_error(estimate, world, pixels))
        assert np.mean(errors) < 1.0

    def test_too_few_points_rejected(self):
        rng = np.random.default_rng(7)
        matrix = random_camera(rng)
        world = random_points(rng, 5)
        with pytest.raises(InsufficientCorrespondences):
            geo.dlt_estimate(world, geo.project_trajectory(matrix, world))

    def test_coplanar_points_rejected(self):
        rng = np.random.default_rng(8)
        matrix = random_camera(rng)
        world = random_points(rng, 12)
        world[:, 2] = 1.0
        with pytest.raises(DegenerateConfiguration):
            geo.dlt_estimate(world, geo.project_trajectory(matrix, world))

    def test_reprojection_error_empty_rejected(self):
        with pytest.raises(EmptyInput):
            geo.reprojection_error(np.zeros((3, 4)), np.zeros((0, 3)), np.zeros((0, 2)))
