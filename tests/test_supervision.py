"""Ground-truth construction, NLL loss, end-to-end gradient, SVD probe."""

import numpy as np
import pytest

from matchreg import features, supervision
from matchreg.errors import EmptyGroundTruth, ShapeMismatch
from matchreg.features import NORMALIZATION_MODES, init_net_params, knn_indices
from matchreg.geometry import Pose, apply_pose, random_rotation_uniform
from matchreg.supervision import (
    build_gt_matrix,
    end_to_end_gradient,
    nll_loss,
    svd_gradient_probe,
)
from matchreg.synth import SynthConfig, generate_pair


def random_pose(rng):
    return Pose(random_rotation_uniform(rng), rng.uniform(-0.3, 0.3, 3))


# ---------------------------------------------------------------------------
# Ground-truth matrix
# ---------------------------------------------------------------------------

def test_gt_exact_alignment_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((12, 3))
    pose = random_pose(rng)
    y = apply_pose(pose, x)
    gt = build_gt_matrix(x, y, pose, d_thresh=1e-3)
    np.testing.assert_array_equal(gt.values[:12, :12], np.eye(12))
    assert gt.inlier_count == 12
    assert gt.values[:, 12].sum() == 0 and gt.values[12, :].sum() == 0


@pytest.mark.parametrize("d_thresh", [0.0, -1.0, float("nan")])
def test_gt_rejects_a_threshold_that_is_not_positive(d_thresh):
    x = np.zeros((4, 3))
    with pytest.raises(ValueError, match="d_thresh"):
        build_gt_matrix(x, x, Pose.identity(), d_thresh=d_thresh)


def test_gt_all_outliers_when_displaced():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((8, 3))
    y = x + np.array([0.0, 0.0, 0.5])  # 10x the threshold away
    gt = build_gt_matrix(x, y, Pose.identity(), d_thresh=0.05)
    assert gt.inlier_count == 0
    np.testing.assert_array_equal(gt.values[:8, 8], np.ones(8))
    np.testing.assert_array_equal(gt.values[8, :8], np.ones(8))
    assert gt.values[8, 8] == 0


def test_gt_mutual_nearest_resolves_contention():
    # two source points 0.01 and 0.02 from one target, threshold 0.05
    x = np.array([[0.01, 0.0, 0.0], [0.02, 0.0, 0.0]])
    y = np.array([[0.0, 0.0, 0.0]])
    gt = build_gt_matrix(x, y, Pose.identity(), d_thresh=0.05)
    assert gt.values[0, 0] == 1.0
    assert gt.values[1, 1] == 1.0  # second source point in the outlier bin
    assert gt.inlier_count == 1


def test_gt_bipartite_over_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal((15, 3)) * 0.05
        y = rng.standard_normal((11, 3)) * 0.05
        gt = build_gt_matrix(x, y, Pose.identity(), d_thresh=0.03)
        interior = gt.values[:15, :11]
        assert interior.sum(axis=0).max() <= 1
        assert interior.sum(axis=1).max() <= 1
        # each row/column has interior mass or a bin entry, never both
        rows = interior.sum(axis=1) + gt.values[:15, 11]
        cols = interior.sum(axis=0) + gt.values[15, :11]
        np.testing.assert_array_equal(rows, 1)
        np.testing.assert_array_equal(cols, 1)


@pytest.mark.parametrize("noise_sigma", [0.0, 0.005])
def test_gt_labels_equal_the_dense_norm_labels(monkeypatch, noise_sigma):
    # a padded 1024/768 view; without noise its repeated points tie exactly,
    # which exercises the lowest-index rule
    cfg = SynthConfig(noise_sigma=noise_sigma, outlier_fraction=0.05, seed=4)
    pair = generate_pair(cfg, np.random.default_rng(4))
    if noise_sigma == 0.0:
        assert len(np.unique(pair.target, axis=0)) < cfg.n
    gt = build_gt_matrix(pair.source, pair.target, pair.gt_pose)
    monkeypatch.setattr(
        supervision, "cdist", lambda a, b: np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    )
    dense = build_gt_matrix(pair.source, pair.target, pair.gt_pose)
    assert gt.inlier_count == dense.inlier_count > 0
    np.testing.assert_array_equal(gt.values, dense.values)


def test_gt_column_permutation_equivariance():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((10, 3)) * 0.05
    y = rng.standard_normal((9, 3)) * 0.05
    gt = build_gt_matrix(x, y, Pose.identity(), d_thresh=0.04)
    perm = rng.permutation(9)
    gt_p = build_gt_matrix(x, y[perm], Pose.identity(), d_thresh=0.04)
    np.testing.assert_array_equal(gt_p.values[:10, :9], gt.values[:10, :9][:, perm])
    assert gt_p.inlier_count == gt.inlier_count


# ---------------------------------------------------------------------------
# NLL loss
# ---------------------------------------------------------------------------

def make_gt(values):
    from matchreg.supervision import GtCorrespondence

    v = np.asarray(values, dtype=float)
    return GtCorrespondence(values=v, inlier_count=int(v[:-1, :-1].sum()))


def test_nll_zero_at_full_confidence():
    gt = make_gt([[1, 0], [0, 1]])
    p = np.array([[1.0, 0.3], [0.2, 1.0]])
    assert nll_loss(p, gt).value == 0.0


def test_nll_half_mass_is_ln2():
    gt = make_gt([[1, 0], [0, 1]])
    p = np.array([[0.5, 0.9], [0.9, 0.5]])
    assert abs(nll_loss(p, gt).value - np.log(2)) < 1e-12


def test_nll_gradient_matches_fd():
    rng = np.random.default_rng(4)
    gt = make_gt([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    p = rng.uniform(0.05, 1.0, (3, 3))
    loss = nll_loss(p, gt)
    h = 1e-7
    for fi in range(p.size):
        pp = p.copy()
        pp.flat[fi] += h
        pm = p.copy()
        pm.flat[fi] -= h
        fd = (nll_loss(pp, gt).value - nll_loss(pm, gt).value) / (2 * h)
        assert abs(loss.gradient.flat[fi] - fd) <= 1e-6 * max(abs(fd), 1.0)


def test_nll_nonnegative_and_floor():
    gt = make_gt([[1, 0], [0, 1]])
    p = np.array([[0.0, 0.1], [0.1, 1e-15]])
    lv = nll_loss(p, gt)
    assert np.isfinite(lv.value) and lv.value > 0
    assert lv.gradient[0, 0] == 0.0  # floored entries carry no gradient


def test_nll_row_permutation_invariance():
    rng = np.random.default_rng(5)
    gt = make_gt(np.eye(4))
    p = rng.uniform(0.1, 1.0, (4, 4))
    perm = rng.permutation(4)
    base = nll_loss(p, gt).value
    permuted = nll_loss(p[perm], make_gt(np.eye(4)[perm])).value
    assert abs(base - permuted) < 1e-15


def test_nll_empty_ground_truth_raises():
    with pytest.raises(EmptyGroundTruth):
        nll_loss(np.ones((2, 2)), make_gt(np.zeros((2, 2))))


def test_nll_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        nll_loss(np.ones((3, 2)), make_gt(np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# End-to-end gradients
# ---------------------------------------------------------------------------

def e2e_setup(seed, m=10, n=8):
    rng = np.random.default_rng(seed)
    params = init_net_params(rng, widths=(5, 4), knn_k=3)
    x = rng.standard_normal((m, 3))
    pose = random_pose(rng)
    y = apply_pose(pose, x[rng.choice(m, n, replace=False)])
    gt = build_gt_matrix(x, y, pose, d_thresh=0.01)
    return params, x, y, gt


def test_e2e_gradients_finite_over_seeds():
    for seed in range(50):
        params, x, y, gt = e2e_setup(seed)
        res = end_to_end_gradient(params, x, y, gt, lam=0.5, iters=10)
        assert np.isfinite(res.loss)
        for g in res.param_grads:
            for v in g.values():
                assert np.all(np.isfinite(v))


@pytest.mark.parametrize("normalization", NORMALIZATION_MODES)
def test_e2e_gradient_matches_fd(normalization):
    from test_features import perturbed

    params, x, y, gt = e2e_setup(7)
    res = end_to_end_gradient(params, x, y, gt, lam=0.5, iters=20, normalization=normalization)

    def loss_of(p):
        return end_to_end_gradient(
            p, x, y, gt, lam=0.5, iters=20, normalization=normalization
        ).loss

    h = 1e-6
    rng = np.random.default_rng(8)
    for li in range(2):
        for name in ("weight", "bias", "bn_gamma", "bn_beta"):
            analytic = res.param_grads[li][name]
            # spot check a third of the entries per array
            picks = rng.choice(analytic.size, max(3, analytic.size // 3), replace=False)
            for fi in picks:
                fd = (
                    loss_of(perturbed(params, li, name, int(fi), +h))
                    - loss_of(perturbed(params, li, name, int(fi), -h))
                ) / (2 * h)
                err = abs(analytic.flat[fi] - fd)
                assert err <= 1e-8 + 1e-3 * max(abs(fd), abs(analytic.flat[fi])), (
                    f"layer {li} {name}[{fi}]: analytic {analytic.flat[fi]:.3e} fd {fd:.3e}"
                )


def test_e2e_lambda_changes_gradients():
    params, x, y, gt = e2e_setup(9)
    g1 = end_to_end_gradient(params, x, y, gt, lam=0.5, iters=15).param_grads
    g2 = end_to_end_gradient(params, x, y, gt, lam=1.0, iters=15).param_grads
    diff = max(np.abs(a[k] - b[k]).max() for a, b in zip(g1, g2) for k in a)
    assert diff > 0


def test_e2e_deterministic():
    params, x, y, gt = e2e_setup(10)
    r1 = end_to_end_gradient(params, x, y, gt, lam=0.5, iters=12)
    r2 = end_to_end_gradient(params, x, y, gt, lam=0.5, iters=12)
    assert r1.loss == r2.loss
    for a, b in zip(r1.param_grads, r2.param_grads):
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("normalization", NORMALIZATION_MODES)
def test_e2e_given_its_graphs_returns_the_same_bytes(monkeypatch, normalization, mode):
    params, x, y, gt = e2e_setup(11)
    kw = dict(lam=0.5, iters=12, normalization=normalization, mode=mode)
    fresh = end_to_end_gradient(params, x, y, gt, **kw)
    knn = [knn_indices(x, params.knn_k), knn_indices(y, params.knn_k)]
    monkeypatch.setattr(features, "knn_indices", None)  # given the graphs, it builds none
    reused = end_to_end_gradient(params, x, y, gt, knn=knn, **kw)
    assert reused.loss == fresh.loss
    for a, b in zip(reused.param_grads, fresh.param_grads):
        assert a.keys() == b.keys()
        assert all(a[k].tobytes() == b[k].tobytes() for k in a)
    for (mean_a, var_a), (mean_b, var_b) in zip(reused.bn_batch_stats, fresh.bn_batch_stats):
        assert mean_a.tobytes() == mean_b.tobytes() and var_a.tobytes() == var_b.tobytes()


# ---------------------------------------------------------------------------
# SVD instability probe
# ---------------------------------------------------------------------------

def test_probe_blows_up_as_gap_closes():
    g1 = svd_gradient_probe(1.0)
    assert np.isfinite(g1) and g1 < 100
    g_small = svd_gradient_probe(1e-3)
    assert g_small >= 10 * g1


def test_probe_monotone_sweep():
    # magnitude is a non-increasing function of the gap, so walking the
    # gaps downward must never lower the probe value
    mags = [svd_gradient_probe(g) for g in (1.0, 1e-1, 1e-2, 1e-3)]
    assert all(m2 >= m1 for m1, m2 in zip(mags, mags[1:]))


def test_probe_rejects_nonpositive_gap():
    for gap in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            svd_gradient_probe(gap)
