"""Acceptance suite: one test per criterion, run with ``pytest -v``.

Each test prints a ``[criterion N] PASS`` line on success (visible with
``-s`` / ``-rA``); the two training criteria (6 and 7) dominate the
runtime at a few minutes each.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from matchreg.cli import main as cli_main
from matchreg.errors import NaNLoss
from matchreg.features import (
    extract_features,
    init_net_params,
    match_normalize,
)
from matchreg.geometry import (
    Pose,
    apply_pose,
    random_rotation_uniform,
    rotation_about_axis,
)
from matchreg.matching import Match, augment_scores, sinkhorn_log
from matchreg.metrics import (
    PoseErrors,
    add_score,
    map_aggregate,
    model_diameter,
    rotation_error_deg,
)
from matchreg.solver import icp_refine, weighted_kabsch
from matchreg.supervision import build_gt_matrix, end_to_end_gradient, svd_gradient_probe
from matchreg.synth import SynthConfig, generate_dataset
from matchreg.training import TrainConfig, ablate, eval_options, evaluate_dataset, train


def _report(n, text=""):
    print(f"[criterion {n}] PASS {text}")


# ---------------------------------------------------------------------------
# 1. Kabsch exactness
# ---------------------------------------------------------------------------

def test_criterion_01_kabsch_exactness():
    t0 = time.time()
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((20, 3))
        pose = Pose(random_rotation_uniform(rng), rng.uniform(-1, 1, 3))
        y = apply_pose(pose, x)
        est = weighted_kabsch(x, y, [Match(i, i, 1.0) for i in range(20)])
        assert np.linalg.norm(est.rotation - pose.rotation) < 1e-8
        assert np.abs(est.translation - pose.translation).max() < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _report(1, f"(1000 instances in {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. Sinkhorn correctness
# ---------------------------------------------------------------------------

def test_criterion_02_sinkhorn_correctness():
    # marginal convergence on 32x24 instances
    rng = np.random.default_rng(2024)
    a = np.ones(33)
    a[32] = 24
    b = np.ones(25)
    b[24] = 32
    for _ in range(10):
        aug = augment_scores(rng.standard_normal((32, 24)), alpha=1.0)
        p = sinkhorn_log(aug, lam=0.5, iters=200)
        assert np.abs(p.sum(axis=1) - a).max() < 1e-6
        assert np.abs(p.sum(axis=0) - b).max() < 1e-6

    # low-temperature agreement with the exhaustive-permutation optimum;
    # scores above alpha so a full matching is the transport optimum
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        s = rng.uniform(2.0, 5.0, (4, 4))
        p = sinkhorn_log(augment_scores(s, alpha=1.0), lam=0.01, iters=2000)
        best = max(
            itertools.permutations(range(4)),
            key=lambda perm: sum(s[i, perm[i]] for i in range(4)),
        )
        if tuple(p[:4, :4].argmax(axis=1)) == best:
            hits += 1
    assert hits >= 99, f"only {hits}/100 matched the assignment oracle"
    _report(2, f"(oracle agreement {hits}/100)")


# ---------------------------------------------------------------------------
# 3. End-to-end gradient soundness
# ---------------------------------------------------------------------------

def test_criterion_03_gradient_soundness():
    from test_features import perturbed

    t0 = time.time()
    h = 1e-6
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = init_net_params(rng, widths=(5, 4), knn_k=3)
        x = rng.standard_normal((10, 3))
        pose = Pose(random_rotation_uniform(rng), rng.uniform(-0.2, 0.2, 3))
        y = apply_pose(pose, x[rng.choice(10, 8, replace=False)])
        gt = build_gt_matrix(x, y, pose, d_thresh=0.01)
        res = end_to_end_gradient(params, x, y, gt, lam=0.5, iters=20, mode="train")

        def loss_of(p):
            return end_to_end_gradient(p, x, y, gt, lam=0.5, iters=20, mode="train").loss

        for li in range(2):
            for name in ("weight", "bias", "bn_gamma", "bn_beta"):
                analytic = res.param_grads[li][name]
                for fi in range(analytic.size):
                    fd = (
                        loss_of(perturbed(params, li, name, fi, +h))
                        - loss_of(perturbed(params, li, name, fi, -h))
                    ) / (2 * h)
                    err = abs(analytic.flat[fi] - fd)
                    assert err <= 1e-8 + 1e-3 * max(abs(fd), abs(analytic.flat[fi])), (
                        f"seed {seed} layer {li} {name}[{fi}]: "
                        f"analytic {analytic.flat[fi]:.4e} vs fd {fd:.4e}"
                    )
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(3, f"(10 seeds, all parameters, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. Match Normalization invariants
# ---------------------------------------------------------------------------

def test_criterion_04_match_normalization_invariants():
    params = init_net_params(np.random.default_rng(7), widths=(6, 5), knn_k=3)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.05, 20.0)
        x = rng.standard_normal((12, 3)) * scale
        y = rng.standard_normal((9, 3)) * scale + rng.uniform(-1, 1, 3)
        _, _, cache = extract_features(params, x, y, mode="train")
        for lc in cache.layers:
            assert np.abs(lc.mn_out[0].mean(axis=1)).max() < 1e-10
            assert np.abs(lc.mn_out[1].mean(axis=1)).max() < 1e-10

        ax = rng.standard_normal((5, 14))
        ay = rng.standard_normal((5, 11))
        ox0, oy0, stats0 = match_normalize(ax, ay)
        for c in (0.1, 1.0, 100.0):
            ox, oy, _ = match_normalize(c * ax, c * ay)
            assert np.abs(ox - ox0).max() < 1e-10
            assert np.abs(oy - oy0).max() < 1e-10
        # scale depends only on the source: swap the target entirely
        _, _, stats1 = match_normalize(ax, rng.standard_normal((5, 23)) * 1e3)
        assert stats0.beta == stats1.beta
    _report(4, "(100 seeds)")


# ---------------------------------------------------------------------------
# 5. SVD gradient instability
# ---------------------------------------------------------------------------

def test_criterion_05_svd_instability():
    t0 = time.time()
    g1 = svd_gradient_probe(1.0)
    g_small = svd_gradient_probe(1e-3)
    assert g_small >= 10 * g1, f"no blow-up: {g_small:.2f} vs {g1:.2f}"
    mags = [svd_gradient_probe(g) for g in (1.0, 1e-1, 1e-2, 1e-3)]
    assert all(m2 >= m1 for m1, m2 in zip(mags, mags[1:])), mags
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(5, f"(magnitudes {[f'{m:.1f}' for m in mags]}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 6. Full-rotation trainability
# ---------------------------------------------------------------------------

FULL_ROTATION_SYNTH = SynthConfig(
    m=128, n=112, noise_sigma=0.0, outlier_fraction=0.0,
    rotation_max_deg=None,           # full SO(3)
    scale_range=(1.0, 1.0), hpr_gamma=1e4, translation_bound=0.5, seed=42,
)


@pytest.mark.slow
def test_criterion_06_full_rotation_trainability():
    t0 = time.time()
    data = generate_dataset(FULL_ROTATION_SYNTH, 1000)
    heldout = generate_dataset(
        SynthConfig(**{**FULL_ROTATION_SYNTH.__dict__, "seed": 999}), 48
    )
    cfg = TrainConfig(
        iterations=2000, batch_size=8, sinkhorn_iters=20, seed=1,
        checkpoint_every=0, tau=0.2,
    )
    params0 = init_net_params(np.random.default_rng(0))
    try:
        params, log = train(cfg, data, params0)
    except NaNLoss as err:  # pragma: no cover - would fail the criterion
        pytest.fail(f"training aborted: {err}")
    losses = [r["loss"] for r in log.records]
    assert all(l is not None and np.isfinite(l) for l in losses)
    initial = losses[0]
    final = float(np.mean(losses[-10:]))
    assert final < 0.5 * initial, f"loss {initial:.3f} -> {final:.3f}"

    report = evaluate_dataset(
        params, heldout, eval_options(cfg), rot_thresholds=(5.0, 10.0, 20.0, 30.0)
    )
    map30 = report.rotation_map[30.0]
    assert map30 >= 0.5, f"held-out rotation mAP@30 = {map30:.3f}"
    elapsed = time.time() - t0
    assert elapsed < 1800, f"took {elapsed:.0f}s"
    _report(
        6,
        f"(mAP@30 {map30:.3f}, loss {initial:.2f}->{final:.2f}, {elapsed:.0f}s)",
    )


# ---------------------------------------------------------------------------
# 7. Match Normalization ablation
# ---------------------------------------------------------------------------

ABLATION_SYNTH = SynthConfig(
    m=128, n=112, noise_sigma=0.0, outlier_fraction=0.05, outlier_bound=0.5,
    rotation_max_deg=None, scale_range=(0.5, 2.0), hpr_gamma=1e4,
    translation_bound=0.5, seed=77,
)


@pytest.mark.slow
def test_criterion_07_match_normalization_ablation():
    t0 = time.time()
    data = generate_dataset(ABLATION_SYNTH, 800)
    heldout = generate_dataset(
        SynthConfig(**{**ABLATION_SYNTH.__dict__, "seed": 78}), 48
    )
    base = dict(
        iterations=1200, batch_size=8, sinkhorn_iters=20, seed=11,
        checkpoint_every=0, tau=0.2,
    )
    cfg_mn = TrainConfig(normalization="match_norm", **base)
    cfg_pi = TrainConfig(normalization="per_instance_norm", **base)
    params0 = init_net_params(np.random.default_rng(7))
    rep = ablate(
        cfg_mn, cfg_pi, data, heldout, params0,
        rot_thresholds=(5.0, 10.0, 20.0, 30.0), inlier_thresh=0.02,
    )
    mn, pi = rep.report_a, rep.report_b
    assert mn.mean_true_inliers >= 2.0 * pi.mean_true_inliers, (
        f"true inliers: {mn.mean_true_inliers:.2f} vs {pi.mean_true_inliers:.2f}"
    )
    assert mn.rotation_map[10.0] > pi.rotation_map[10.0], (
        f"mAP@10: {mn.rotation_map[10.0]:.3f} vs {pi.rotation_map[10.0]:.3f}"
    )
    elapsed = time.time() - t0
    _report(
        7,
        f"(true inliers {mn.mean_true_inliers:.1f} vs {pi.mean_true_inliers:.1f}, "
        f"mAP@10 {mn.rotation_map[10.0]:.3f} vs {pi.rotation_map[10.0]:.3f}, {elapsed:.0f}s)",
    )


# ---------------------------------------------------------------------------
# 8. ICP contract
# ---------------------------------------------------------------------------

def test_criterion_08_icp_contract():
    good = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((150, 3))
        pose = Pose(random_rotation_uniform(rng), rng.uniform(-0.5, 0.5, 3))
        y = apply_pose(pose, x)
        bump_rot = rotation_about_axis(
            rng.standard_normal(3), np.radians(rng.uniform(0.0, 5.0))
        )
        bump_t = rng.uniform(-1, 1, 3)
        bump_t *= 0.01 / max(np.linalg.norm(bump_t), 1e-12) * rng.random()
        init = Pose(bump_rot @ pose.rotation, pose.translation + bump_t)
        res = icp_refine(x, y, init, max_iters=50, tol=1e-9)
        diffs = np.diff(res.residuals)
        assert np.all(diffs <= 1e-12), f"seed {seed}: residuals increased"
        if rotation_error_deg(res.pose.rotation, pose.rotation) < 0.5:
            good += 1
    assert good >= 190, f"only {good}/200 refined below 0.5 degrees"
    _report(8, f"({good}/200 under 0.5 deg)")


# ---------------------------------------------------------------------------
# 9. Metrics correctness
# ---------------------------------------------------------------------------

def test_criterion_09_metrics_correctness():
    rng = np.random.default_rng(99)
    base = random_rotation_uniform(rng)
    for theta in (1.0, 45.0, 90.0, 179.0):
        probe = base @ rotation_about_axis([0.2, -0.7, 0.4], np.radians(theta))
        assert abs(rotation_error_deg(base, probe) - theta) < 1e-9

    errs = [PoseErrors(float(rng.uniform(0, 50)), float(rng.uniform(0, 0.1))) for _ in range(300)]
    rot_map, trans_map = map_aggregate(
        errs, rot_thresholds=(1, 2, 5, 10, 20, 45), trans_thresholds=(0.005, 0.02, 0.08)
    )
    rv, tv = list(rot_map.values()), list(trans_map.values())
    assert all(b >= a for a, b in zip(rv, rv[1:]))
    assert all(b >= a for a, b in zip(tv, tv[1:]))

    for seed in range(50):
        rng = np.random.default_rng(seed)
        model = rng.standard_normal((20, 3))
        hat = Pose(random_rotation_uniform(rng), rng.uniform(-0.5, 0.5, 3))
        gt = Pose(random_rotation_uniform(rng), rng.uniform(-0.5, 0.5, 3))
        mean, _ = add_score(model, hat, gt, model_diameter(model))
        oracle = 0.0
        for p in model:
            a = hat.rotation @ p + hat.translation
            b = gt.rotation @ p + gt.translation
            oracle += float(np.sqrt(((a - b) ** 2).sum()))
        assert abs(mean - oracle / len(model)) < 1e-12
    _report(9)


# ---------------------------------------------------------------------------
# 10. Reproducibility of gen / train / eval
# ---------------------------------------------------------------------------

def test_criterion_10_cli_reproducibility(tmp_path):
    def dir_bytes(root):
        return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir())}

    gen_flags = [
        "--count", "6", "--seed", "5", "--m", "48", "--n", "24",
        "--scale-min", "1", "--scale-max", "1", "--hpr-gamma", "10000",
    ]
    for tag in ("a", "b"):
        assert cli_main(["gen", "--out", str(tmp_path / f"ds_{tag}"), *gen_flags]) == 0
        assert cli_main([
            "train", "--data", str(tmp_path / f"ds_{tag}"),
            "--out-model", str(tmp_path / f"model_{tag}.json"),
            "--log", str(tmp_path / f"log_{tag}.jsonl"),
            "--iterations", "5", "--batch-size", "2", "--sinkhorn-iters", "5",
            "--widths", "6,6", "--knn-k", "3", "--seed", "9",
        ]) == 0
        assert cli_main([
            "eval", "--model", str(tmp_path / f"model_{tag}.json"),
            "--data", str(tmp_path / f"ds_{tag}"),
            "--json-out", str(tmp_path / f"report_{tag}.json"), "--tau", "0.2",
        ]) == 0

    assert dir_bytes(tmp_path / "ds_a") == dir_bytes(tmp_path / "ds_b")
    assert (tmp_path / "model_a.json").read_bytes() == (tmp_path / "model_b.json").read_bytes()
    assert (tmp_path / "log_a.jsonl").read_bytes() == (tmp_path / "log_b.jsonl").read_bytes()
    assert (tmp_path / "report_a.json").read_bytes() == (tmp_path / "report_b.json").read_bytes()
    _report(10)
