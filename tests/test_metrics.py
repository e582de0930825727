"""Metric correctness: rotation/translation errors, ADD, threshold tables."""

import numpy as np
import pytest

from matchreg.errors import EmptyInput
from matchreg.geometry import (
    Pose,
    apply_pose,
    random_rotation_uniform,
    rotation_about_axis,
    sample_mesh_surface,
)
from matchreg.matching import Match
from matchreg.metrics import (
    DIAMETER_BLOCK_PAIRS,
    PoseErrors,
    add_score,
    count_true_inliers,
    map_aggregate,
    model_diameter,
    rotation_error_deg,
    translation_error,
)
from matchreg.synth import SHAPE_KINDS, make_shape


def test_rotation_error_zero_for_equal():
    r = random_rotation_uniform(np.random.default_rng(0))
    assert rotation_error_deg(r, r) == 0.0


def test_rotation_error_quarter_turn():
    r = rotation_about_axis([0, 0, 1], np.pi / 2)
    assert abs(rotation_error_deg(r, np.eye(3)) - 90.0) < 1e-12


def test_rotation_error_clamps_roundoff():
    # trace slightly above 3 from float drift must clamp to 0, not NaN
    r = np.eye(3) + np.diag([1e-13, 0, -1e-13] )
    val = rotation_error_deg(r, np.eye(3))
    assert np.isfinite(val)
    assert val < 1e-5


def test_rotation_error_axis_angle_round_trip():
    rng = np.random.default_rng(1)
    base = random_rotation_uniform(rng)
    for theta in (1.0, 45.0, 90.0, 179.0):
        probe = base @ rotation_about_axis([0.3, -0.5, 0.8], np.radians(theta))
        assert abs(rotation_error_deg(base, probe) - theta) < 1e-9


def test_rotation_error_symmetric_and_triangle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b, c = (random_rotation_uniform(rng) for _ in range(3))
        assert abs(rotation_error_deg(a, b) - rotation_error_deg(b, a)) < 1e-9
        assert rotation_error_deg(a, c) <= (
            rotation_error_deg(a, b) + rotation_error_deg(b, c) + 1e-9
        )


def test_translation_error_cases():
    assert translation_error([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert translation_error([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == 1.0
    assert abs(translation_error([1.0, 2.0, 2.0], [0.0, 0.0, 0.0]) - 3.0) < 1e-15


# ---------------------------------------------------------------------------
# ADD
# ---------------------------------------------------------------------------

def test_add_zero_for_equal_poses():
    rng = np.random.default_rng(3)
    model = rng.standard_normal((40, 3))
    pose = Pose(random_rotation_uniform(rng), rng.uniform(-1, 1, 3))
    mean, passed = add_score(model, pose, pose, diameter=1.0)
    assert mean == 0.0 and passed


def test_add_translation_offset_fails():
    rng = np.random.default_rng(4)
    model = rng.standard_normal((25, 3))
    diameter = model_diameter(model)
    gt = Pose.identity()
    hat = Pose(np.eye(3), [0.2 * diameter, 0.0, 0.0])
    mean, passed = add_score(model, hat, gt, diameter)
    assert abs(mean - 0.2 * diameter) < 1e-12
    assert not passed


def test_model_diameter_blocks_equal_one_shot(monkeypatch):
    from matchreg import metrics

    rng = np.random.default_rng(12)
    for m, block_pairs in ((1000, metrics.DIAMETER_BLOCK_PAIRS), (50, 7), (1, 7)):
        model = rng.standard_normal((m, 3))
        one_shot = float(np.linalg.norm(model[:, None, :] - model[None, :, :], axis=2).max())
        monkeypatch.setattr(metrics, "DIAMETER_BLOCK_PAIRS", block_pairs)
        assert model_diameter(model) == one_shot


def _blocked_diameter(pts):
    """The unpruned blocked pass over every point."""
    rows = max(1, DIAMETER_BLOCK_PAIRS // len(pts))
    return max(
        float(np.linalg.norm(pts[lo:lo + rows, None, :] - pts[None, :, :], axis=2).max())
        for lo in range(0, len(pts), rows)
    )


@pytest.mark.parametrize("kind", SHAPE_KINDS)
def test_model_diameter_pruned_equals_unpruned(kind):
    for m in (128, 1024, 2048):
        model = sample_mesh_surface(make_shape(kind, 1.0), m, np.random.default_rng(m))
        assert model_diameter(model) == _blocked_diameter(model)


def test_model_diameter_one_and_two_points():
    assert model_diameter(np.array([[0.3, -1.0, 2.0]])) == 0.0
    pair = np.array([[0.3, -1.0, 2.0], [1.0, 0.5, -0.25]])
    assert model_diameter(pair) == _blocked_diameter(pair) == float(np.linalg.norm(pair[0] - pair[1]))


def test_add_matches_naive_loop_oracle():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        model = rng.standard_normal((15, 3))
        hat = Pose(random_rotation_uniform(rng), rng.uniform(-0.5, 0.5, 3))
        gt = Pose(random_rotation_uniform(rng), rng.uniform(-0.5, 0.5, 3))
        diameter = model_diameter(model)
        mean, _ = add_score(model, hat, gt, diameter)
        acc = 0.0
        for p in model:
            a = hat.rotation @ p + hat.translation
            b = gt.rotation @ p + gt.translation
            acc += float(np.sqrt(((a - b) ** 2).sum()))
        assert abs(mean - acc / len(model)) < 1e-12


def test_add_invariant_to_common_pre_transform():
    rng = np.random.default_rng(5)
    model = rng.standard_normal((30, 3))
    hat = Pose(random_rotation_uniform(rng), rng.uniform(-0.5, 0.5, 3))
    gt = Pose(random_rotation_uniform(rng), rng.uniform(-0.5, 0.5, 3))
    pre = Pose(random_rotation_uniform(rng), rng.uniform(-0.5, 0.5, 3))

    def after_pre(p):  # apply p, then pre
        return Pose(pre.rotation @ p.rotation, pre.rotation @ p.translation + pre.translation)

    base, _ = add_score(model, hat, gt, 1.0)
    moved, _ = add_score(model, after_pre(hat), after_pre(gt), 1.0)
    assert abs(base - moved) < 1e-9


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def test_map_all_zero_errors():
    errs = [PoseErrors(0.0, 0.0)] * 5
    rot, trans = map_aggregate(errs)
    assert all(v == 1.0 for v in rot.values())
    assert all(v == 1.0 for v in trans.values())


def test_map_direct_counting():
    errs = [PoseErrors(4.0, 0.0), PoseErrors(12.0, 0.0)]
    rot, _ = map_aggregate(errs, rot_thresholds=(5.0, 10.0, 20.0))
    assert rot == {5.0: 0.5, 10.0: 0.5, 20.0: 1.0}


def test_map_monotone_in_threshold():
    rng = np.random.default_rng(6)
    errs = [PoseErrors(float(rng.uniform(0, 60)), float(rng.uniform(0, 0.1))) for _ in range(200)]
    rot, trans = map_aggregate(errs, rot_thresholds=(1, 2, 5, 10, 20, 45), trans_thresholds=(0.001, 0.01, 0.05))
    rv = list(rot.values())
    tv = list(trans.values())
    assert all(b >= a for a, b in zip(rv, rv[1:]))
    assert all(b >= a for a, b in zip(tv, tv[1:]))
    assert all(0 <= v <= 1 for v in rv + tv)


def test_map_rejects_a_repeated_threshold():
    errs = [PoseErrors(0.5, 0.0), PoseErrors(100.0, 0.0)]
    with pytest.raises(ValueError, match="rotation threshold 1.0"):
        map_aggregate(errs, rot_thresholds=(1, 1.0, 360))
    with pytest.raises(ValueError, match="translation threshold 0.01"):
        map_aggregate(errs, trans_thresholds=(0.01, 0.01))


def test_map_empty_raises():
    with pytest.raises(EmptyInput):
        map_aggregate([])


# ---------------------------------------------------------------------------
# True inliers
# ---------------------------------------------------------------------------

def test_true_inliers_exact_alignment():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((10, 3))
    pose = Pose(random_rotation_uniform(rng), rng.uniform(-1, 1, 3))
    y = apply_pose(pose, x)
    matches = [Match(i, i, 1.0) for i in range(10)]
    assert count_true_inliers(matches, x, y, pose) == 10


def test_true_inliers_empty_matchset():
    assert count_true_inliers([], np.zeros((3, 3)), np.zeros((3, 3)), Pose.identity()) == 0


def test_true_inliers_mixed_instance():
    x = np.zeros((5, 3))
    x[:, 0] = np.arange(5)
    pose = Pose.identity()
    y = x.copy()
    y[3] += [0.2, 0.0, 0.0]  # 10x the threshold
    y[4] += [0.0, 0.2, 0.0]
    matches = [Match(i, i, 1.0) for i in range(5)]
    assert count_true_inliers(matches, x, y, pose, inlier_thresh=0.02) == 3


@pytest.mark.parametrize("inlier_thresh", [0.0, -0.02, float("nan")])
def test_true_inliers_rejects_a_threshold_that_is_not_positive(inlier_thresh):
    x = np.zeros((2, 3))
    with pytest.raises(ValueError, match="inlier_thresh"):
        count_true_inliers([Match(0, 0, 1.0)], x, x, Pose.identity(), inlier_thresh=inlier_thresh)
