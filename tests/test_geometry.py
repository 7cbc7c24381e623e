"""Camera geometry: hand-worked pinhole arithmetic, look-at pose contracts,
projective invariances, matrix recovery from correspondences, and the
camera model's single home in the package."""

import ast
from pathlib import Path

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
# the identity pose: camera coordinates equal world coordinates
IDENTITY_CAMERA = INTRINSICS.matrix() @ np.eye(3, 4)


def random_camera(rng):
    position = np.array([rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(1.5, 3.0)])
    target = np.array([rng.uniform(-3, 3), rng.uniform(8, 15), rng.uniform(0.0, 2.0)])
    return INTRINSICS.matrix() @ geo.look_at(position, target)


def assert_rotations_proper(extrinsic):
    """Every rotation of a (..., 3, 4) [R | t] stack is orthonormal with
    determinant +1."""
    rotation = extrinsic[..., :3]
    assert np.allclose(rotation @ np.swapaxes(rotation, -1, -2), np.eye(3), atol=1e-12)
    assert np.allclose(np.linalg.det(rotation), 1.0, atol=1e-12)


def random_points(rng, n):
    return np.column_stack(
        [rng.uniform(-4, 4, n), rng.uniform(6, 18, n), rng.uniform(0.0, 2.5, n)]
    )


class TestProjection:
    def test_hand_computed_pinhole(self):
        # u = (500*1 + 320*5)/5, v = (500*(-2) + 240*5)/5
        uv = geo.project_trajectory(IDENTITY_CAMERA, np.array([[1.0, -2.0, 5.0]]))[0]
        assert uv == pytest.approx([420.0, 40.0], abs=1e-12)

    def test_point_on_axis_hits_principal_point(self):
        rng = np.random.default_rng(0)
        position = np.array([0.5, -0.5, 2.0])
        target = np.array([1.0, 12.0, 1.0])
        matrix = INTRINSICS.matrix() @ geo.look_at(position, target)
        uv = geo.project_trajectory(matrix, target[None])[0]
        assert uv == pytest.approx([INTRINSICS.cx, INTRINSICS.cy], abs=1e-9)

    def test_compose_equals_direct_evaluation(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            position = np.array([rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(1, 3)])
            target = np.array([rng.uniform(-3, 3), rng.uniform(8, 15), rng.uniform(0, 2)])
            pose = geo.look_at(position, target)
            matrix = INTRINSICS.matrix() @ pose
            p = random_points(rng, 1)[0]
            hom = matrix @ np.append(p, 1.0)
            direct = INTRINSICS.matrix() @ (pose[:, :3] @ p + pose[:, 3])
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
        points = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, -1.0]])
        with pytest.raises(DepthNonPositive, match="timestep 1"):
            geo.project_trajectory(IDENTITY_CAMERA, points)

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
            assert pose.shape == (3, 4)
            assert_rotations_proper(pose)

    def test_look_at_y_axis_points_down(self):
        pose = geo.look_at([0.0, 0.0, 2.0], [0.0, 10.0, 1.0])
        assert pose[1, 2] < 0.0

    def test_vertical_view_rejected(self):
        with pytest.raises(InvalidPose):
            geo.look_at([0.0, 0.0, 5.0], [0.0, 0.0, 0.0])


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
    """look_at over a leading axis."""

    @settings(max_examples=60, deadline=None)
    @given(positions, targets)
    def test_stack_equals_row_by_row_bit_for_bit(self, position, target):
        stack = geo.look_at(position, target)
        assert stack.shape == (len(position), 3, 4)
        assert_rotations_proper(stack)
        for t, p in enumerate(position):
            assert np.array_equal(stack[t], geo.look_at(p, target))

    @settings(max_examples=60, deadline=None)
    @given(positions, targets)
    def test_stack_equals_single_vector_formulas(self, position, target):
        matrices = INTRINSICS.matrix() @ geo.look_at(position, target)
        for t, p in enumerate(position):
            assert np.array_equal(matrices[t], INTRINSICS.matrix() @ per_step_extrinsic(p, target))

    def test_targets_stack_too(self):
        rng = np.random.default_rng(9)
        position = np.array([0.2, -0.1, 2.5])
        target = random_points(rng, 6)
        stack = geo.look_at(position, target)
        assert stack.shape == (6, 3, 4)
        for t in range(6):
            assert np.array_equal(stack[t], geo.look_at(position, target[t]))

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_step_named(self, bad):
        position = np.array([[0.0, 0.0, 2.0]] * 5)
        position[2, 1] = bad
        with pytest.raises(InvalidPose, match=r"^step 2: camera position or target is not finite$"):
            geo.look_at(position, [0.0, 10.0, 1.0])
        target = np.array([[0.0, 10.0, 1.0]] * 5)
        target[3, 2] = bad
        with pytest.raises(InvalidPose, match=r"^step 3: camera position or target is not finite$"):
            geo.look_at([0.0, 0.0, 2.0], target)

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
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidPose, match=r"^camera position or target is not finite$"):
                geo.look_at([0.0, bad, 2.0], [0.0, 10.0, 1.0])
            with pytest.raises(InvalidPose, match=r"^camera position or target is not finite$"):
                geo.look_at([0.0, 0.0, 2.0], [bad, 10.0, 1.0])


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


# the camera model: the rig's pose box and the fit's prior, poses, the fit
# and the clamped projection
CAMERA_NAMES = (
    "POSE_BOX", "POSE_MID", "POSE_STD", "look_at", "pose_camera", "nominal_camera", "fit_cameras",
    "look_at_residuals", "clamped_project",
)


def package_trees():
    """Each package module's parsed source, by module name."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in Path(geo.__file__).parent.glob("*.py")}


def top_level_names(tree):
    """The names a module's top-level statements define (an import defines none)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


class TestOneCameraModule:
    def test_the_camera_is_defined_in_geometry_alone(self):
        defined = {module: top_level_names(tree) for module, tree in package_trees().items()}
        homes = {name: sorted(module for module, names in defined.items() if name in names) for name in CAMERA_NAMES}
        assert homes == {name: ["geometry"] for name in CAMERA_NAMES}

    def test_geometry_reads_no_package_module_but_errors(self):
        imported = set()
        for node in ast.walk(package_trees()["geometry"]):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "blindtrack"):
                imported.add("." * node.level + (node.module or ""))
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names if alias.name.split(".")[0] == "blindtrack")
        assert imported == {".errors"}
