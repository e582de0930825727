"""Kabsch solve, ICP refinement, and registration pipeline tests."""

from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from matchreg import solver

from matchreg.errors import DegenerateMatches
from matchreg.features import encode_source, init_net_params, load_checkpoint
from matchreg.geometry import Pose, apply_pose, random_rotation_uniform, rotation_about_axis
from matchreg.matching import Match
from matchreg.solver import (
    ICP_REJECT_FACTOR,
    RegisterOptions,
    icp_refine,
    register,
    weighted_kabsch,
)
from matchreg.synth import SynthConfig, generate_pair


def random_pose(rng, t_scale=1.0):
    return Pose(random_rotation_uniform(rng), rng.uniform(-t_scale, t_scale, 3))


def identity_matches(n, weight=1.0):
    return [Match(i, i, weight) for i in range(n)]


def rot_err_deg(r_a, r_b):
    return np.degrees(np.arccos(np.clip((np.trace(r_a.T @ r_b) - 1) / 2, -1, 1)))


# ---------------------------------------------------------------------------
# Weighted Kabsch
# ---------------------------------------------------------------------------

def test_kabsch_recovers_exact_pose_over_seeds():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((20, 3))
        pose = random_pose(rng)
        y = apply_pose(pose, x)
        est = weighted_kabsch(x, y, identity_matches(20))
        assert np.linalg.norm(est.rotation - pose.rotation) < 1e-9
        assert np.abs(est.translation - pose.translation).max() < 1e-9


def test_kabsch_identity_case():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((10, 3))
    est = weighted_kabsch(x, x, identity_matches(10))
    assert np.linalg.norm(est.rotation - np.eye(3)) < 1e-12
    assert np.linalg.norm(est.translation) < 1e-12


def test_kabsch_zero_weight_outlier_neutral():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((12, 3))
    pose = random_pose(rng)
    y = apply_pose(pose, x)
    clean = weighted_kabsch(x, y, identity_matches(12))
    x_bad = np.vstack([x, [100.0, -50.0, 30.0]])
    y_bad = np.vstack([y, [-70.0, 80.0, 10.0]])
    with_outlier = weighted_kabsch(
        x_bad, y_bad, identity_matches(12) + [Match(12, 12, 0.0)]
    )
    assert np.abs(with_outlier.rotation - clean.rotation).max() < 1e-12
    assert np.abs(with_outlier.translation - clean.translation).max() < 1e-12


def test_kabsch_weights_favor_heavy_pairs():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((15, 3))
    pose = random_pose(rng)
    y = apply_pose(pose, x)
    y_noisy = y.copy()
    y_noisy[10:] += rng.standard_normal((5, 3))  # corrupt 5 correspondences
    matches = identity_matches(10) + [Match(i, i, 1e-9) for i in range(10, 15)]
    est = weighted_kabsch(x, y_noisy, matches)
    assert rot_err_deg(est.rotation, pose.rotation) < 0.01


def test_kabsch_rejects_few_matches():
    with pytest.raises(DegenerateMatches):
        weighted_kabsch(np.eye(3), np.eye(3), identity_matches(2))


def test_kabsch_rejects_zero_total_weight():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 3))
    with pytest.raises(DegenerateMatches):
        weighted_kabsch(x, x, identity_matches(5, weight=0.0))


def test_kabsch_rejects_collinear_sources():
    x = np.array([[float(i), 0.0, 0.0] for i in range(6)])
    y = x + 1.0
    with pytest.raises(DegenerateMatches):
        weighted_kabsch(x, y, identity_matches(6))


def test_kabsch_reflection_input_still_proper_rotation():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((25, 3))
    y = x * np.array([1.0, 1.0, -1.0])  # reflected copy
    est = weighted_kabsch(x, y, identity_matches(25))
    assert abs(np.linalg.det(est.rotation) - 1.0) < 1e-9


def test_kabsch_beats_random_poses_on_small_instances():
    rng = np.random.default_rng(6)
    for _ in range(3):
        x = rng.standard_normal((6, 3))
        y = rng.standard_normal((6, 3))
        w = rng.uniform(0.2, 1.0, 6)
        matches = [Match(i, i, float(w[i])) for i in range(6)]
        est = weighted_kabsch(x, y, matches)

        def residual(pose):
            return float((w * np.linalg.norm(apply_pose(pose, x) - y, axis=1) ** 2).sum())

        best = residual(est)
        for _ in range(10_000):
            cand = random_pose(rng, t_scale=2.0)
            assert residual(cand) >= best - 1e-12


# ---------------------------------------------------------------------------
# ICP
# ---------------------------------------------------------------------------

def test_icp_fixed_point_at_ground_truth():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((50, 3))
    pose = random_pose(rng)
    y = apply_pose(pose, x)
    res = icp_refine(x, y, pose, max_iters=20, tol=1e-6)
    assert res.converged
    assert res.iterations == 1
    assert np.abs(res.pose.rotation - pose.rotation).max() < 1e-9
    assert np.abs(res.pose.translation - pose.translation).max() < 1e-9


def test_icp_recovers_from_small_perturbation():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((200, 3))
    pose = random_pose(rng)
    y = apply_pose(pose, x)
    bump = Pose(rotation_about_axis(rng.standard_normal(3), np.radians(5.0)), [0.01, 0.0, 0.0])
    init = Pose(bump.rotation @ pose.rotation, pose.translation + bump.translation)
    res = icp_refine(x, y, init, max_iters=50, tol=1e-9)
    assert rot_err_deg(res.pose.rotation, pose.rotation) < 0.5


def test_icp_zero_iterations_returns_init():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((30, 3))
    init = random_pose(rng)
    res = icp_refine(x, x, init, max_iters=0)
    assert res.pose is init
    assert res.iterations == 0
    assert not res.converged


def _icp_through_matches(x, y, init, max_iters, tol):
    """ICP that solves each step through ``weighted_kabsch`` and Match lists.

    Like ``icp_refine`` it pairs each view point ``y[j]``, mapped into the
    model frame, with its nearest model point ``x[nn[j]]``.
    """
    tree = cKDTree(x)
    pose = init
    residuals = []
    converged = False
    for _ in range(max_iters):
        dists, nn = tree.query((y - pose.translation) @ pose.rotation)
        keep = dists <= ICP_REJECT_FACTOR * np.median(dists)
        matches = [Match(int(nn[j]), int(j), 1.0) for j in np.nonzero(keep)[0]]
        new_pose = weighted_kabsch(x, y, matches)
        residuals.append(float(dists[keep].mean()))
        step = np.linalg.norm(new_pose.rotation - pose.rotation) / np.sqrt(8.0)
        delta_rot = 2.0 * np.arcsin(min(1.0, step))
        delta = float(delta_rot + np.linalg.norm(new_pose.translation - pose.translation))
        pose = new_pose
        if delta < tol:
            converged = True
            break
    return pose, len(residuals), converged, tuple(residuals)


PARTIAL_VIEWS = SynthConfig(m=300, n=200, noise_sigma=0.005, outlier_fraction=0.05)


def _perturbed_start(gt, rng, max_deg=10.0):
    """Ground truth turned by 2-``max_deg`` degrees and moved by up to 3 cm per axis."""
    bump = rotation_about_axis(rng.standard_normal(3), np.radians(rng.uniform(2.0, max_deg)))
    return Pose(bump @ gt.rotation, gt.translation + rng.uniform(-0.03, 0.03, 3))


def test_icp_equals_match_list_reference():
    for seed in range(3):
        rng = np.random.default_rng([31, seed])
        pair = generate_pair(PARTIAL_VIEWS, rng)
        gt = pair.gt_pose
        bump = rotation_about_axis(rng.standard_normal(3), np.radians(8.0))
        init = Pose(bump @ gt.rotation, gt.translation + rng.uniform(-0.03, 0.03, 3))
        res = icp_refine(pair.source, pair.target, init, max_iters=50, tol=1e-9)
        pose, iterations, converged, residuals = _icp_through_matches(
            pair.source, pair.target, init, 50, 1e-9
        )
        assert res.iterations == iterations > 1
        assert res.converged == converged
        assert res.residuals == residuals
        assert np.array_equal(res.pose.rotation, pose.rotation)
        assert np.array_equal(res.pose.translation, pose.translation)


def test_icp_refines_partial_views_from_near_ground_truth():
    # the model's hidden side has no partner in the view; pairing view
    # points into the model keeps it out of the fit
    good = 0
    for i in range(20):
        rng = np.random.default_rng([77, i])
        pair = generate_pair(PARTIAL_VIEWS, rng)
        res = icp_refine(pair.source, pair.target, _perturbed_start(pair.gt_pose, rng))
        good += rot_err_deg(res.pose.rotation, pair.gt_pose.rotation) < 0.5
    assert good >= 18, f"only {good}/20 partial views refined below 0.5 degrees"


def test_icp_target_shift_moves_only_the_translation():
    shift = np.array([0.3, -0.2, 0.5])
    for i in range(4):
        rng = np.random.default_rng([78, i])
        pair = generate_pair(PARTIAL_VIEWS, rng)
        init = _perturbed_start(pair.gt_pose, rng, max_deg=5.0)
        moved_init = Pose(init.rotation, init.translation + shift)
        base = icp_refine(pair.source, pair.target, init, tol=1e-9)
        moved = icp_refine(pair.source, pair.target + shift, moved_init, tol=1e-9)
        assert base.converged and moved.converged
        np.testing.assert_allclose(moved.pose.rotation, base.pose.rotation, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            moved.pose.translation, base.pose.translation + shift, rtol=0, atol=1e-9
        )


def _view_far_from_the_model(seed):
    """A model and a tiny view 20 units away: every view point maps to one model point."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((200, 3))
    y = np.array([20.0, 0.0, 0.0]) + 1e-3 * rng.standard_normal((100, 3))
    return x, y


def test_icp_stops_at_a_degenerate_step():
    x, y = _view_far_from_the_model(0)
    init = Pose.identity()
    res = icp_refine(x, y, init)
    assert res.pose is init
    assert (res.iterations, res.converged, res.residuals) == (0, False, ())


def test_register_survives_a_degenerate_icp_step(monkeypatch):
    rng = np.random.default_rng(16)
    params = init_net_params(rng, widths=(6,), knn_k=3)
    x, y = _view_far_from_the_model(1)
    matches = identity_matches(10)
    monkeypatch.setattr(solver, "extract_matches", lambda *args, **kwargs: list(matches))
    res = register(params, x, y, RegisterOptions(use_icp=True))
    kabsch = weighted_kabsch(x, y, matches)
    assert res.converged
    assert (res.icp_iterations_used, res.icp_residuals) == (0, ())
    np.testing.assert_array_equal(res.pose.rotation, kabsch.rotation)
    np.testing.assert_array_equal(res.pose.translation, kabsch.translation)


def test_icp_residual_non_increasing():
    rng = np.random.default_rng(10)
    for _ in range(10):
        x = rng.standard_normal((150, 3))
        pose = random_pose(rng)
        y = apply_pose(pose, x)
        bump = Pose(
            rotation_about_axis(rng.standard_normal(3), np.radians(rng.uniform(0, 5))),
            rng.uniform(-0.01, 0.01, 3),
        )
        init = Pose(bump.rotation @ pose.rotation, pose.translation + bump.translation)
        res = icp_refine(x, y, init, max_iters=30, tol=1e-12)
        diffs = np.diff(res.residuals)
        assert np.all(diffs <= 1e-12)


FIVE_ONTO_TWO = [Match(i, i % 2, 1.0) for i in range(5)]


def test_kabsch_rejects_matches_onto_two_target_points():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((5, 3))
    y = rng.standard_normal((2, 3))
    with pytest.raises(DegenerateMatches, match="target"):
        weighted_kabsch(x, y, FIVE_ONTO_TWO)


def test_register_falls_back_on_degenerate_target_matches(monkeypatch):
    rng = np.random.default_rng(6)
    params = init_net_params(rng, widths=(6,), knn_k=3)
    x = rng.standard_normal((15, 3))
    y = rng.standard_normal((12, 3))
    monkeypatch.setattr(solver, "extract_matches", lambda *args, **kwargs: list(FIVE_ONTO_TWO))
    res = register(params, x, y, RegisterOptions(use_icp=True))
    assert not res.converged
    assert res.predicted_match_count == 5
    np.testing.assert_array_equal(res.pose.rotation, np.eye(3))
    np.testing.assert_array_equal(res.pose.translation, np.zeros(3))


# ---------------------------------------------------------------------------
# register()
# ---------------------------------------------------------------------------

def test_register_runs_and_is_deterministic():
    rng = np.random.default_rng(11)
    params = init_net_params(rng, widths=(8, 8), knn_k=4)
    x = rng.standard_normal((30, 3))
    y = apply_pose(random_pose(rng), x[rng.choice(30, 22, replace=False)])
    r1 = register(params, x, y, RegisterOptions(tau=0.3))
    r2 = register(params, x, y, RegisterOptions(tau=0.3))
    np.testing.assert_array_equal(r1.pose.rotation, r2.pose.rotation)
    assert r1.matches == r2.matches
    assert r1.predicted_match_count == len(r1.matches)


def test_register_adversarial_target_never_crashes():
    rng = np.random.default_rng(12)
    params = init_net_params(rng, widths=(8, 8), knn_k=4)
    x = rng.standard_normal((30, 3))
    y = rng.standard_normal((20, 3)) * 100 + 500
    res = register(params, x, y, RegisterOptions(tau=0.9))
    assert res.converged or len(res.matches) < 3 or res.predicted_match_count >= 0
    if not res.converged:
        np.testing.assert_array_equal(res.pose.rotation, np.eye(3))


def test_register_degenerate_gives_identity_and_flag():
    rng = np.random.default_rng(13)
    params = init_net_params(rng, widths=(6,), knn_k=3)
    x = rng.standard_normal((15, 3))
    y = rng.standard_normal((12, 3))
    res = register(params, x, y, RegisterOptions(tau=0.999999))  # no match survives
    assert not res.converged
    assert res.predicted_match_count == 0
    np.testing.assert_array_equal(res.pose.rotation, np.eye(3))
    np.testing.assert_array_equal(res.pose.translation, np.zeros(3))


def test_register_icp_toggle_is_exactly_one_stage():
    rng = np.random.default_rng(14)
    params = init_net_params(rng, widths=(8, 8), knn_k=4)
    x = rng.standard_normal((40, 3))
    pose = random_pose(rng)
    y = apply_pose(pose, x[rng.choice(40, 30, replace=False)])
    plain = register(params, x, y, RegisterOptions(tau=0.2, use_icp=False))
    with_icp = register(params, x, y, RegisterOptions(tau=0.2, use_icp=True))
    assert plain.icp_iterations_used == 0
    if plain.converged:
        assert with_icp.icp_iterations_used >= 1
        # the match set feeding Kabsch is identical; only ICP differs
        assert plain.matches == with_icp.matches
        # with ICP disabled the pose is exactly the Kabsch output
        direct = weighted_kabsch(x, y, list(plain.matches))
        np.testing.assert_array_equal(plain.pose.rotation, direct.rotation)
        np.testing.assert_array_equal(plain.pose.translation, direct.translation)


def same_result(a, b):
    return (
        a.pose.rotation.tobytes() == b.pose.rotation.tobytes()
        and a.pose.translation.tobytes() == b.pose.translation.tobytes()
        and a.matches == b.matches
        and (a.converged, a.icp_iterations_used, a.icp_residuals)
        == (b.converged, b.icp_iterations_used, b.icp_residuals)
    )


def test_register_with_a_source_encoding_equals_register_without():
    rng = np.random.default_rng(15)
    params = init_net_params(rng, widths=(8, 8), knn_k=4)
    x = rng.standard_normal((40, 3))
    enc = encode_source(params, x, "per_instance_norm")
    opts = RegisterOptions(tau=0.2, normalization="per_instance_norm", use_icp=True)
    for _ in range(3):
        y = apply_pose(random_pose(rng), x[rng.choice(40, 30, replace=False)])
        plain = register(params, x, y, opts)
        reused = register(params, x, y, opts, source=enc)
        assert same_result(reused, plain)
    with pytest.raises(ValueError, match="encoding"):
        register(params, x, y, RegisterOptions(normalization="match_norm"), source=enc)
    with pytest.raises(ValueError, match="encoding"):
        register(params, x[:-1], y, opts, source=enc)


@pytest.mark.parametrize(
    "field, value",
    [("lam", 0.0), ("lam", -1.0), ("lam", float("nan")), ("sinkhorn_iters", 0),
     ("tau", 0.0), ("tau", 1.0), ("tau", float("nan")), ("alpha", float("nan")),
     ("alpha", float("inf")), ("normalization", "bogus")],
)
def test_register_options_reject_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        RegisterOptions(**{field: value})


# ---------------------------------------------------------------------------
# Metamorphic properties of register() under Match Normalization
# ---------------------------------------------------------------------------

DESK_CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "desk_model.json"
METAMORPHIC_SYNTH = SynthConfig(m=256, n=192, noise_sigma=0.005, outlier_fraction=0.05)
METAMORPHIC_OPTS = RegisterOptions(tau=0.2, normalization="match_norm", use_icp=False)


def _desk_pairs(count):
    params, normalization = load_checkpoint(DESK_CHECKPOINT)
    assert normalization == "match_norm"
    for i in range(count):
        yield params, generate_pair(METAMORPHIC_SYNTH, np.random.default_rng([7, i]))


def test_register_target_shift_moves_only_the_translation():
    """register(x, y + t) matches as register(x, y) does, and its pose is shifted by t.

    This holds under Match Normalization only: the first layer sees the raw
    target coordinates, so a shift adds one constant per channel to the
    target activations, which centering removes, while the shared scale
    comes from the source alone. Per-instance normalization takes the
    target's scale from its shifted activations and does not have it.
    """
    shift = np.array([0.3, -0.2, 0.5])
    for params, pair in _desk_pairs(8):
        base = register(params, pair.source, pair.target, METAMORPHIC_OPTS)
        moved = register(params, pair.source, pair.target + shift, METAMORPHIC_OPTS)
        assert base.converged and moved.converged
        assert [m[:2] for m in moved.matches] == [m[:2] for m in base.matches]
        np.testing.assert_allclose(
            [m.weight for m in moved.matches], [m.weight for m in base.matches], atol=1e-12
        )
        np.testing.assert_allclose(moved.pose.rotation, base.pose.rotation, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            moved.pose.translation, base.pose.translation + shift, rtol=0, atol=1e-12
        )


def test_register_target_permutation_permutes_match_targets():
    for params, pair in _desk_pairs(8):
        perm = np.random.default_rng(1).permutation(len(pair.target))
        base = register(params, pair.source, pair.target, METAMORPHIC_OPTS)
        permuted = register(params, pair.source, pair.target[perm], METAMORPHIC_OPTS)
        assert len(base.matches) > 0
        # target row j of the permuted cloud is row perm[j] of the original
        assert [(m.source, int(perm[m.target])) for m in permuted.matches] == [
            (m.source, m.target) for m in base.matches
        ]
