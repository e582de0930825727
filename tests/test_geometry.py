"""Tests for rigid-transform algebra, sampling, and visibility utilities."""

import numpy as np
import pytest

from matchreg.errors import DegenerateMesh, DegenerateView
from matchreg.geometry import (
    Pose,
    TriangleMesh,
    add_noise_and_outliers,
    apply_pose,
    hidden_point_removal,
    random_rotation_uniform,
    rotation_about_axis,
    sample_mesh_surface,
)


def random_pose(rng):
    return Pose(random_rotation_uniform(rng), rng.uniform(-1, 1, 3))


# ---------------------------------------------------------------------------
# Pose construction and algebra
# ---------------------------------------------------------------------------

def test_pose_rejects_bad_rotation():
    with pytest.raises(ValueError):
        Pose(np.eye(3) * 2.0, np.zeros(3))


def test_pose_rejects_reflection():
    with pytest.raises(ValueError):
        Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


def test_pose_reorthonormalizes_small_drift():
    r = rotation_about_axis([0, 0, 1], 0.3)
    drifted = r + 1e-8 * np.ones((3, 3))
    p = Pose(drifted, np.zeros(3))
    assert np.linalg.norm(p.rotation.T @ p.rotation - np.eye(3)) < 1e-9
    assert abs(np.linalg.det(p.rotation) - 1.0) < 1e-9


def test_apply_pose_identity():
    rng = np.random.default_rng(0)
    pc = rng.standard_normal((50, 3))
    out = apply_pose(Pose.identity(), pc)
    np.testing.assert_array_equal(out, pc)


def test_apply_pose_pure_translation():
    p = Pose(np.eye(3), [1.0, 2.0, 3.0])
    out = apply_pose(p, np.zeros((1, 3)))
    np.testing.assert_allclose(out, [[1.0, 2.0, 3.0]])


def test_apply_pose_z_rotation():
    p = Pose(rotation_about_axis([0, 0, 1], np.pi / 2), np.zeros(3))
    out = apply_pose(p, [[1.0, 0.0, 0.0]])
    np.testing.assert_allclose(out, [[0.0, 1.0, 0.0]], atol=1e-15)


def test_apply_pose_is_isometry():
    rng = np.random.default_rng(1)
    pc = rng.standard_normal((40, 3))
    out = apply_pose(random_pose(rng), pc)
    d_in = np.linalg.norm(pc[:, None] - pc[None, :], axis=2)
    d_out = np.linalg.norm(out[:, None] - out[None, :], axis=2)
    assert np.abs(d_in - d_out).max() < 1e-9


def test_apply_pose_leaves_input_unchanged():
    rng = np.random.default_rng(2)
    pc = rng.standard_normal((10, 3))
    before = pc.copy()
    apply_pose(random_pose(rng), pc)
    np.testing.assert_array_equal(pc, before)


# ---------------------------------------------------------------------------
# Uniform rotation sampling
# ---------------------------------------------------------------------------

def rotation_angle_deg(r):
    return np.degrees(np.arccos(np.clip((np.trace(r) - 1) / 2, -1, 1)))


def test_random_rotation_is_valid():
    rng = np.random.default_rng(7)
    for _ in range(200):
        r = random_rotation_uniform(rng)
        assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-9
        assert abs(np.linalg.det(r) - 1.0) < 1e-9


def test_random_rotation_mean_angle():
    # Independent oracle: uniform SO(3) through normalized Gaussian
    # quaternions has mean rotation angle pi/2 + 2/pi rad (~126.476 deg).
    expected = np.degrees(np.pi / 2 + 2 / np.pi)

    oracle_rng = np.random.default_rng(123)
    q = oracle_rng.standard_normal((1_000_000, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    oracle_angles = np.degrees(2 * np.arccos(np.clip(np.abs(q[:, 0]), -1, 1)))
    assert abs(oracle_angles.mean() - expected) < 0.2

    rng = np.random.default_rng(8)
    angles = [rotation_angle_deg(random_rotation_uniform(rng)) for _ in range(200_000)]
    assert abs(np.mean(angles) - expected) < 0.5


def test_random_rotation_deterministic():
    a = random_rotation_uniform(np.random.default_rng(99))
    b = random_rotation_uniform(np.random.default_rng(99))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Mesh surface sampling
# ---------------------------------------------------------------------------

UNIT_SQUARE = TriangleMesh(
    np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float),
    np.array([[0, 1, 2], [0, 2, 3]]),
)


def test_sample_unit_square_containment():
    pts = sample_mesh_surface(UNIT_SQUARE, 1000, np.random.default_rng(9))
    assert pts.shape == (1000, 3)
    assert np.all(pts[:, 0] >= 0) and np.all(pts[:, 0] <= 1)
    assert np.all(pts[:, 1] >= 0) and np.all(pts[:, 1] <= 1)
    np.testing.assert_array_equal(pts[:, 2], 0)


def test_sample_area_weighting():
    # Two coplanar right triangles with areas 1 and 3; binomial oracle says
    # the larger face gets 75% of samples, +-0.01 is ~7 sigma at n=1e5.
    mesh = TriangleMesh(
        np.array(
            [[0, 0, 0], [2, 0, 0], [0, 1, 0], [10, 0, 0], [10, 3, 0], [8, 0, 0]],
            dtype=float,
        ),
        np.array([[0, 1, 2], [3, 4, 5]]),
    )
    areas = mesh.face_areas()
    np.testing.assert_allclose(areas, [1.0, 3.0])
    pts = sample_mesh_surface(mesh, 100_000, np.random.default_rng(10))
    frac_large = np.mean(pts[:, 0] > 4)
    assert abs(frac_large - 0.75) < 0.01


def test_sample_skips_zero_area_face():
    mesh = TriangleMesh(
        np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]], dtype=float),
        np.array([[0, 1, 2], [3, 3, 3]]),
    )
    pts = sample_mesh_surface(mesh, 500, np.random.default_rng(11))
    assert np.all(np.linalg.norm(pts, axis=1) < 2)  # never near (5,5,5)


def test_sample_degenerate_mesh_raises():
    mesh = TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(DegenerateMesh):
        sample_mesh_surface(mesh, 10, np.random.default_rng(12))


def test_samples_lie_on_face_planes():
    rng = np.random.default_rng(13)
    verts = rng.standard_normal((6, 3))
    mesh = TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
    pts = sample_mesh_surface(mesh, 2000, rng)
    dists = []
    for f in mesh.faces:
        a, b, c = mesh.vertices[f]
        n = np.cross(b - a, c - a)
        n = n / np.linalg.norm(n)
        dists.append(np.abs((pts - a) @ n))
    assert np.min(dists, axis=0).max() < 1e-12


# ---------------------------------------------------------------------------
# Hidden point removal
# ---------------------------------------------------------------------------

def unit_sphere_cloud(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_hpr_single_point_visible():
    vis = hidden_point_removal(np.array([[0.0, 0.0, 1.0]]), [0, 0, 5])
    np.testing.assert_array_equal(vis, [0])


def test_hpr_sphere_front_back():
    pc = unit_sphere_cloud(2000, 15)
    vis = set(hidden_point_removal(pc, [0.0, 0.0, 3.0], gamma=10.0).tolist())
    front = int(np.argmin(np.linalg.norm(pc - [0, 0, 1], axis=1)))
    back = int(np.argmin(np.linalg.norm(pc - [0, 0, -1], axis=1)))
    assert front in vis
    assert back not in vis


def test_hpr_sphere_visible_fraction():
    pc = unit_sphere_cloud(2000, 16)
    vis = hidden_point_removal(pc, [0.0, 0.0, 3.0], gamma=10.0)
    assert 0.3 < len(vis) / len(pc) < 0.7


def test_hpr_subset_and_deterministic():
    pc = unit_sphere_cloud(500, 17)
    a = hidden_point_removal(pc, [2.0, 1.0, 0.5], gamma=8.0)
    b = hidden_point_removal(pc, [2.0, 1.0, 0.5], gamma=8.0)
    np.testing.assert_array_equal(a, b)
    assert np.all(a >= 0) and np.all(a < 500)
    assert len(np.unique(a)) == len(a)


def test_hpr_coincident_viewpoint_raises():
    pc = unit_sphere_cloud(50, 18)
    with pytest.raises(DegenerateView):
        hidden_point_removal(pc, pc[7], gamma=10.0)


# ---------------------------------------------------------------------------
# Noise and outliers
# ---------------------------------------------------------------------------

def test_noise_zero_is_identity():
    rng = np.random.default_rng(19)
    pc = rng.standard_normal((30, 3))
    out = add_noise_and_outliers(pc, 0.0, 0.0, 0.1, rng)
    np.testing.assert_array_equal(out, pc)


def test_all_outliers_replaces_everything():
    rng = np.random.default_rng(20)
    pc = rng.standard_normal((100, 3))
    out = add_noise_and_outliers(pc, 0.0, 1.0, 0.5, rng)
    assert out.shape == pc.shape
    # with continuous uniform draws no replaced point can equal its original
    assert not np.any(np.all(out == pc, axis=1))


def test_noise_std_matches_sigma():
    rng = np.random.default_rng(21)
    pc = np.zeros((100_000, 3))
    out = add_noise_and_outliers(pc, 0.01, 0.0, 0.0, rng)
    stds = out.std(axis=0)
    assert np.all(np.abs(stds - 0.01) < 0.001)
