"""Procedural shapes, pair generation, and dataset round trips."""

import json

import numpy as np
import pytest

from matchreg.errors import CorruptDataset, ManifestNotFound
from matchreg.geometry import sample_mesh_surface
from matchreg.metrics import model_diameter, rotation_error_deg
from matchreg.supervision import build_gt_matrix
from matchreg.synth import (
    MAX_SCALE,
    SHAPE_KINDS,
    SynthConfig,
    generate_dataset,
    generate_pair,
    make_shape,
    read_dataset,
    write_dataset,
)


def edge_census(mesh):
    directed = {}
    for tri in mesh.faces:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (int(a), int(b))
            directed[key] = directed.get(key, 0) + 1
    return directed


@pytest.mark.parametrize("kind", SHAPE_KINDS)
def test_shapes_are_watertight(kind):
    mesh = make_shape(kind, scale=1.3)
    directed = edge_census(mesh)
    # closed orientable surface: every directed edge once, every undirected twice
    assert all(c == 1 for c in directed.values())
    for (a, b) in directed:
        assert (b, a) in directed


@pytest.mark.parametrize("kind", SHAPE_KINDS)
def test_shapes_sampleable(kind):
    mesh = make_shape(kind, scale=0.8)
    assert mesh.face_areas().sum() > 0
    pts = sample_mesh_surface(mesh, 500, np.random.default_rng(0))
    assert pts.shape == (500, 3)


def test_sphere_vertices_on_sphere():
    mesh = make_shape("sphere", scale=1.0)
    radii = np.linalg.norm(mesh.vertices, axis=1)
    assert np.abs(radii - 0.5).max() < 1e-9


def test_box_extents_exact():
    mesh = make_shape("box", scale=2.0)
    extents = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
    np.testing.assert_allclose(extents, [2.0, 2.0, 2.0], atol=1e-15)


@pytest.mark.parametrize("scale", [1.0, 1.37])
def test_box_chamfers_cut_corner_tetrahedra(scale):
    # a cut at legs a removes a right-corner tetrahedron of volume a^3/6; its
    # three right-triangle faces (a^2/2 each) give way to one equilateral
    # triangle of side a*sqrt(2), area (sqrt(3)/2) a^2
    legs_sq = (scale * np.array([0.55, 0.30, 0.42])) ** 2
    volume = scale**3 - (legs_sq ** 1.5).sum() / 6
    area = 6 * scale**2 - 1.5 * legs_sq.sum() + np.sqrt(3) / 2 * legs_sq.sum()
    assert volume / scale**3 == pytest.approx(0.9554228, abs=1e-7)
    assert area / scale**2 == pytest.approx(5.6393319, abs=1e-7)

    mesh = make_shape("box", scale)
    a, b, c = (mesh.vertices[mesh.faces[:, i]] for i in range(3))
    mesh_volume = np.einsum("ij,ij->", a, np.cross(b, c)) / 6  # outward faces
    assert mesh_volume == pytest.approx(volume, rel=1e-12)
    assert mesh.face_areas().sum() == pytest.approx(area, rel=1e-12)


def test_shapes_deterministic():
    a = make_shape("cone", 1.1)
    b = make_shape("cone", 1.1)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    np.testing.assert_array_equal(a.faces, b.faces)


@pytest.mark.parametrize("kind", SHAPE_KINDS)
def test_shapes_have_no_rotational_symmetry(kind):
    # pose recovery is only well-defined if no nontrivial rotation maps the
    # surface onto itself: the Chamfer distance of a rotated sampling to the
    # original must exceed the resampling noise floor for every rotation a
    # plain primitive would be symmetric under
    from scipy.spatial import cKDTree

    from matchreg.geometry import rotation_about_axis

    mesh = make_shape(kind, scale=1.0)
    pts = sample_mesh_surface(mesh, 4000, np.random.default_rng(1))
    tree = cKDTree(pts)
    resampled = sample_mesh_surface(mesh, 4000, np.random.default_rng(2))
    floor = tree.query(resampled)[0].mean()

    candidates = [
        rotation_about_axis([0, 0, 1], np.pi),
        rotation_about_axis([0, 0, 1], np.pi / 2),
        rotation_about_axis([0, 0, 1], np.pi / 6),
        rotation_about_axis([1, 0, 0], np.pi),
        rotation_about_axis([0, 1, 0], np.pi),
        rotation_about_axis([1, 1, 1], 2 * np.pi / 3),
        rotation_about_axis([1, -1, 1], 2 * np.pi / 3),
    ]
    for rot in candidates:
        assert tree.query(pts @ rot.T)[0].mean() > 1.15 * floor


def test_generate_pair_full_visibility_subset():
    cfg = SynthConfig(
        m=256, n=64, noise_sigma=0.0, outlier_fraction=0.0,
        hpr_gamma=1e4, scale_range=(1.0, 1.0), seed=3,
    )
    sample = generate_pair(cfg, np.random.default_rng(3))
    from matchreg.geometry import apply_pose

    posed = apply_pose(sample.gt_pose, sample.source)
    d = np.linalg.norm(sample.target[:, None, :] - posed[None, :, :], axis=2)
    assert d.min(axis=1).max() < 1e-9


def test_generate_pair_limited_rotation_range():
    cfg = SynthConfig(m=128, n=32, rotation_max_deg=45.0, scale_range=(1.0, 1.0), seed=4)
    rng = np.random.default_rng(4)
    for _ in range(200):
        s = generate_pair(cfg, rng)
        assert rotation_error_deg(s.gt_pose.rotation, np.eye(3)) <= 45.0 + 1e-9


def test_full_rotation_mean_angle():
    cfg = SynthConfig(m=128, n=32, scale_range=(1.0, 1.0), seed=5)
    rng = np.random.default_rng(5)
    angles = [
        rotation_error_deg(generate_pair(cfg, rng).gt_pose.rotation, np.eye(3))
        for _ in range(2000)
    ]
    expected = np.degrees(np.pi / 2 + 2 / np.pi)
    # SE at n=2000 is about 0.9 deg; allow 4 sigma
    assert abs(np.mean(angles) - expected) < 3.6


def test_clean_pair_every_target_has_partner():
    # n small enough that the visible set is never padded with duplicates
    # (duplicate targets cannot all win the bipartite mutual-nearest check)
    cfg = SynthConfig(m=512, n=64, noise_sigma=0.0, outlier_fraction=0.0, seed=6)
    for i in range(5):
        sample = generate_pair(cfg, np.random.default_rng([6, i]))
        gt = build_gt_matrix(sample.source, sample.target, sample.gt_pose, d_thresh=1e-6)
        # every target point is an exact copy of some posed source point
        assert gt.values[cfg.m, : cfg.n].sum() == 0
        assert gt.inlier_count == cfg.n


def test_scale_diversity():
    cfg = SynthConfig(m=128, n=32, scale_range=(0.5, 2.0), seed=7)
    diameters = [
        model_diameter(generate_pair(cfg, np.random.default_rng([7, i])).source)
        for i in range(100)
    ]
    assert max(diameters) / min(diameters) >= 3.0


def test_generate_dataset_deterministic():
    cfg = SynthConfig(m=64, n=16, scale_range=(0.8, 1.2), seed=8)
    d1 = generate_dataset(cfg, 4)
    d2 = generate_dataset(cfg, 4)
    for a, b in zip(d1, d2):
        np.testing.assert_array_equal(a.source, b.source)
        np.testing.assert_array_equal(a.target, b.target)
        np.testing.assert_array_equal(a.gt_pose.rotation, b.gt_pose.rotation)
        assert a.shape_id == b.shape_id and a.scale == b.scale


def test_dataset_round_trip(tmp_path):
    cfg = SynthConfig(m=64, n=16, noise_sigma=0.002, seed=9)
    samples = generate_dataset(cfg, 10)
    write_dataset(tmp_path / "ds", samples, cfg)
    back, cfg_doc = read_dataset(tmp_path / "ds")
    assert len(back) == 10
    assert cfg_doc["seed"] == 9
    for a, b in zip(samples, back):
        np.testing.assert_array_equal(a.gt_pose.rotation, b.gt_pose.rotation)
        np.testing.assert_array_equal(a.gt_pose.translation, b.gt_pose.translation)
        np.testing.assert_allclose(a.source, b.source, atol=1e-15)
        np.testing.assert_allclose(a.target, b.target, atol=1e-15)
        assert a.shape_id == b.shape_id


def test_dataset_write_is_byte_identical(tmp_path):
    cfg = SynthConfig(m=64, n=16, seed=10)
    samples = generate_dataset(cfg, 3)
    write_dataset(tmp_path / "a", samples, cfg)
    write_dataset(tmp_path / "b", samples, cfg)
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def test_missing_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(ManifestNotFound):
        read_dataset(tmp_path / "empty")


def test_corrupt_count(tmp_path):
    cfg = SynthConfig(m=64, n=16, seed=11)
    write_dataset(tmp_path / "ds", generate_dataset(cfg, 2), cfg)
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    manifest["count"] = 5
    (tmp_path / "ds" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorruptDataset):
        read_dataset(tmp_path / "ds")


def test_missing_sample_file(tmp_path):
    cfg = SynthConfig(m=64, n=16, seed=12)
    write_dataset(tmp_path / "ds", generate_dataset(cfg, 2), cfg)
    (tmp_path / "ds" / "pair_00001_target.ply").unlink()
    with pytest.raises(CorruptDataset):
        read_dataset(tmp_path / "ds")


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(m=10, n=10)
    with pytest.raises(ValueError):
        SynthConfig(shapes=("box", "torus"))
    with pytest.raises(ValueError):
        SynthConfig(scale_range=(2.0, 1.0))
    inf, nan = float("inf"), float("nan")
    bad_values = [
        ("noise_sigma", inf), ("outlier_bound", inf), ("hpr_gamma", inf),
        ("translation_bound", inf), ("translation_bound", nan), ("translation_bound", -1.0),
        ("scale_range", (0.5, inf)), ("scale_range", (nan, 1.0)),
        ("rotation_max_deg", nan), ("rotation_max_deg", inf),
        ("viewpoint_distance_factor", 0.0), ("viewpoint_distance_factor", -1.0),
        ("viewpoint_distance_factor", 1.0), ("viewpoint_distance_factor", inf),
        ("viewpoint_distance_factor", nan),
        ("scale_range", (1e100, 1e100)), ("scale_range", (0.5, 1e308)), ("seed", -1),
    ]
    for key, value in bad_values:
        with pytest.raises(ValueError, match=key):
            SynthConfig(**{key: value})
    # the largest scale accepted samples without an overflow warning
    cfg = SynthConfig(m=64, n=32, scale_range=(MAX_SCALE, MAX_SCALE))
    assert np.all(np.isfinite(generate_pair(cfg, np.random.default_rng(0)).target))
