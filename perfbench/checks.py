"""Correctness checks that run outside the timed region.

Each check returns a list of problems, empty when the check passes. The
references here are written without the library (scipy trees and
distances, ``einsum``, a separate log-domain Sinkhorn, scipy rotations), so
that a faster kernel that changes results is caught even when the library's
own tests are not run.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist
from scipy.spatial.transform import Rotation
from scipy.special import logsumexp

# Sinkhorn rows are exact by construction (the last half-step scales rows).
SINKHORN_ROW_TOL = 1e-9
# Columns are only as converged as the iteration count allows: at 1024/768
# after 50 iterations the worst interior column of 20 pairs was off by 0.19
# units of mass and the outlier-bin column by 0.4 %. The tolerances leave
# room for that and still catch a layer that stops balancing columns.
SINKHORN_COL_TOL = 0.5        # interior columns, absolute
SINKHORN_BIN_COL_TOL = 0.05   # outlier-bin column, relative to its target M
# A separate implementation of the same iterations agrees to rounding.
SINKHORN_REF_TOL = 1e-8
SCORE_MAP_RTOL = 1e-12
KABSCH_TOL = 1e-9
DIAMETER_RTOL = 1e-12
ORTHONORMAL_TOL = 1e-9
EQUIVARIANCE_TOL = 1e-9
POSE_DETERMINED_RATIO = 1e-3   # second to first singular value of the covariance
# Criterion 3's finite-difference rule: |analytic - fd| <= 1e-8 + 1e-3 * max.
FD_STEP = 1e-6
FD_RTOL = 1e-3
FD_ATOL = 1e-8
REPORT_TOL = 1e-12
ROTATION_DEG_TOL = 1e-5   # arccos near 0 loses about half the digits
POSE_TOL = 1e-9


def knn(knn_indices, points, k: int) -> list[str]:
    """The library's kNN equals a k-d tree query on a tie-free cloud."""
    got = knn_indices(points, k)
    ref = cKDTree(points).query(points, k + 1)[1][:, 1:]  # column 0 is the point itself
    if got.shape != ref.shape:
        return [f"knn: shape {got.shape}, expected {ref.shape}"]
    bad = int(np.sum(np.any(got != ref, axis=1)))
    if bad:
        return [f"knn: {bad} of {len(points)} rows differ from the k-d tree reference"]
    return []


def score_map(score_map_fn, fx, fy) -> list[str]:
    got = score_map_fn(fx, fy)
    ref = np.einsum("ci,cj->ij", fx, fy)
    scale = max(float(np.abs(ref).max()), 1.0)
    err = float(np.abs(got - ref).max())
    if err > SCORE_MAP_RTOL * scale:
        return [f"score_map: max error {err:.3e} against einsum"]
    return []


def _reference_sinkhorn(aug, lam: float, iters: int):
    m, n = aug.shape[0] - 1, aug.shape[1] - 1
    log_a = np.log(np.r_[np.ones(m), n])
    log_b = np.log(np.r_[np.ones(n), m])
    z = aug / lam
    f = np.zeros(m + 1)
    for _ in range(iters):
        g = log_b - logsumexp(z + f[:, None], axis=0)
        f = log_a - logsumexp(z + g[None, :], axis=1)
    return np.exp(z + f[:, None] + g[None, :])


def sinkhorn(sinkhorn_log, aug, lam: float, iters: int) -> list[str]:
    """Row marginals exact, column marginals within tolerance, reference agrees."""
    problems = []
    p = sinkhorn_log(aug, lam=lam, iters=iters)
    m, n = aug.shape[0] - 1, aug.shape[1] - 1
    rows = p.sum(axis=1)
    row_err = max(float(np.abs(rows[:m] - 1).max()), abs(float(rows[m]) - n) / n)
    if row_err > SINKHORN_ROW_TOL:
        problems.append(f"sinkhorn: row marginal error {row_err:.3e}")
    cols = p.sum(axis=0)
    col_err = float(np.abs(cols[:n] - 1).max())
    bin_err = abs(float(cols[n]) - m) / m
    if col_err > SINKHORN_COL_TOL or bin_err > SINKHORN_BIN_COL_TOL:
        problems.append(
            f"sinkhorn: column marginal error {col_err:.3e}, bin column {bin_err:.3e}"
        )
    ref_err = float(np.abs(p - _reference_sinkhorn(aug, lam, iters)).max())
    if ref_err > SINKHORN_REF_TOL:
        problems.append(f"sinkhorn: differs from the reference iterations by {ref_err:.3e}")
    return problems


def kabsch(weighted_kabsch, match_type, points, rng) -> list[str]:
    """Exact correspondences under a known pose give that pose back."""
    rot = Rotation.random(random_state=rng).as_matrix()
    t = rng.uniform(-1.0, 1.0, 3)
    moved = points @ rot.T + t
    est = weighted_kabsch(points, moved, [match_type(i, i, 1.0) for i in range(len(points))])
    err = max(float(np.abs(est.rotation - rot).max()), float(np.abs(est.translation - t).max()))
    if err > KABSCH_TOL:
        return [f"weighted_kabsch: known pose recovered with error {err:.3e}"]
    return []


def diameter(model_diameter, points) -> list[str]:
    got = model_diameter(points)
    ref = float(pdist(points).max())
    if abs(got - ref) > DIAMETER_RTOL * ref:
        return [f"model_diameter: {got!r} against pdist {ref!r}"]
    return []


def rotation_deg(r_hat, r_gt) -> float:
    """Angle of the relative rotation, from scipy rather than a trace formula."""
    return float(np.degrees(Rotation.from_matrix(r_hat.T @ r_gt).magnitude()))


def registration(result, m: int, n: int, tau: float) -> list[str]:
    """Pose is a proper rotation; matches are in range, unique per source, >= tau."""
    problems = []
    r = result.pose.rotation
    if (
        np.abs(r.T @ r - np.eye(3)).max() > ORTHONORMAL_TOL
        or abs(np.linalg.det(r) - 1.0) > ORTHONORMAL_TOL
    ):
        problems.append("register: rotation is not orthonormal with det +1")
    if not result.converged and np.any(r != np.eye(3)):
        problems.append("register: fallback result is not the identity")
    src = [mt.source for mt in result.matches]
    tgt = [mt.target for mt in result.matches]
    if len(set(src)) != len(src):
        problems.append("register: a source point is matched twice")
    if any(not 0 <= i < m for i in src) or any(not 0 <= j < n for j in tgt):
        problems.append("register: match index out of range")
    if any(not (mt.weight >= tau) for mt in result.matches):
        problems.append("register: match weight below tau")
    if result.predicted_match_count != len(result.matches):
        problems.append("register: predicted_match_count differs from the match list")
    return problems


def match_quality(name: str, converged: list[bool], match_counts: list[int],
                  max_fallback_share: float, min_mean_matches: float) -> list[str]:
    """Over a run's registrations: few fall back to identity, enough matches.

    A fallback skips ICP and every later stage, so a change that breaks
    matching makes calls faster; this keeps such a run from passing.
    """
    if not converged:
        return [f"{name}: no registration was made"]
    problems = []
    share = 1 - float(np.mean(converged))
    if share > max_fallback_share:
        problems.append(
            f"{name}: {share:.3f} of {len(converged)} registrations fell back to identity, "
            f"more than {max_fallback_share}"
        )
    mean = float(np.mean(match_counts))
    if mean < min_mean_matches:
        problems.append(f"{name}: {mean:.2f} predicted matches per call, fewer than {min_mean_matches}")
    return problems


def _pose_determined(matches, pair) -> bool:
    """Whether the matched points fix a rotation: rank >= 2 cross-covariance."""
    if len(matches) < 3:
        return False
    w = np.array([mt.weight for mt in matches])
    xs = pair.source[[mt.source for mt in matches]]
    ys = pair.target[[mt.target for mt in matches]]
    xc = xs - w @ xs / w.sum()
    yc = ys - w @ ys / w.sum()
    sv = np.linalg.svd((w[:, None] * xc).T @ yc, compute_uv=False)
    return bool(sv[1] >= POSE_DETERMINED_RATIO * sv[0])


def translation_equivariance(base, shifted, shift, pair) -> list[str]:
    """register(x, y + t): same matches; same rotation and translation moved by t.

    The pose part holds only where the matches determine a rotation; where
    they do not (say, every match lands on two target points), the solve
    returns whatever rotation rounding picks.
    """
    pairs = [(mt.source, mt.target) for mt in base.matches]
    if pairs != [(mt.source, mt.target) for mt in shifted.matches]:
        return ["equivariance: shifting the target changed the matches"]
    if base.converged != shifted.converged:
        return ["equivariance: shifting the target changed convergence"]
    err = max(
        [abs(a.weight - b.weight) for a, b in zip(base.matches, shifted.matches)], default=0.0
    )
    if base.converged and _pose_determined(base.matches, pair):
        err = max(
            err,
            float(np.abs(base.pose.rotation - shifted.pose.rotation).max()),
            float(np.abs(shifted.pose.translation - base.pose.translation - shift).max()),
        )
    if err > EQUIVARIANCE_TOL:
        return [f"equivariance: shifted result differs by {err:.3e}"]
    return []


def _fd_agree(a: float, fd: float) -> bool:
    return abs(a - fd) <= FD_ATOL + FD_RTOL * max(abs(a), abs(fd))


def gradient_fd(end_to_end_gradient, params, sample, gt, kwargs) -> list[str]:
    """Central differences agree with the analytic gradient on a few entries.

    Per layer, the weight entry with the largest analytic gradient, plus the
    last layer's largest batch-norm gain gradient.

    The loss is piecewise smooth: a ReLU, a max-pool slot or the element that
    sets Match Normalization's scale can switch inside the step, and then the central difference averages two slopes (train-desk
    seed 64, layer 0: the slope changes between +1e-7 and +1e-6). The
    forward and backward differences disagree with each other exactly then,
    and the analytic gradient must agree with the one on the side without
    the switch. A wrong gradient on a smooth stretch disagrees with all three.
    """
    res = end_to_end_gradient(params, sample.source, sample.target, gt, **kwargs)
    last = len(params.layers) - 1
    entries = [(li, "weight") for li in range(len(params.layers))] + [(last, "bn_gamma")]
    problems = []
    for li, name in entries:
        analytic = res.param_grads[li][name]
        flat = int(np.argmax(np.abs(analytic)))
        losses = []
        for step in (FD_STEP, -FD_STEP):
            value = getattr(params.layers[li], name).copy()
            value.flat[flat] += step
            layers = list(params.layers)
            layers[li] = replace(layers[li], **{name: value})
            moved = replace(params, layers=tuple(layers))
            losses.append(
                end_to_end_gradient(moved, sample.source, sample.target, gt, **kwargs).loss
            )
        fd = (losses[0] - losses[1]) / (2 * FD_STEP)
        forward = (losses[0] - res.loss) / FD_STEP
        backward = (res.loss - losses[1]) / FD_STEP
        a = float(analytic.flat[flat])
        if _fd_agree(a, fd):
            continue
        if not _fd_agree(forward, backward) and (_fd_agree(a, forward) or _fd_agree(a, backward)):
            continue
        problems.append(
            f"gradient: layer {li} {name}[{flat}] analytic {a:.6e} vs fd {fd:.6e} "
            f"(forward {forward:.6e}, backward {backward:.6e})"
        )
    return problems


def report_tables(doc: dict) -> list[str]:
    """The mAP, ADD and match summaries follow from the per-sample records."""
    recs = doc["per_sample"]
    if len(recs) != doc["sample_count"]:
        return ["report: sample_count differs from the per-sample records"]
    expected = {}
    for table, field in (("rotation_map", "rotation_deg"), ("translation_map", "translation")):
        errs = np.array([r[field] for r in recs])
        for key in doc[table]:
            expected[(table, key)] = float(np.mean(errs <= float(key)))
    problems = [
        f"report: {table}[{key}] is {doc[table][key]!r}, records give {value!r}"
        for (table, key), value in expected.items()
        if abs(doc[table][key] - value) > REPORT_TOL
    ]
    for summary, field in (
        ("add_rate", "add_pass"),
        ("mean_pred_matches", "pred_matches"),
        ("mean_true_inliers", "true_inliers"),
    ):
        value = float(np.mean([r[field] for r in recs]))
        if abs(doc[summary] - value) > REPORT_TOL:
            problems.append(f"report: {summary} is {doc[summary]!r}, records give {value!r}")
    return problems


def report_sample(record: dict, pose, matches, sample, inlier_thresh: float,
                  add_fraction: float) -> list[str]:
    """One per-sample record against the benchmark's own pose-error formulas."""
    src, tgt, gt = sample.source, sample.target, sample.gt_pose
    add = float(np.linalg.norm(
        (src @ pose.rotation.T + pose.translation) - (src @ gt.rotation.T + gt.translation),
        axis=1,
    ).mean())
    si = np.array([mt.source for mt in matches], dtype=int)
    ti = np.array([mt.target for mt in matches], dtype=int)
    inliers = int(np.sum(
        np.linalg.norm(src[si] @ gt.rotation.T + gt.translation - tgt[ti], axis=1) <= inlier_thresh
    ))
    problems = [
        f"report sample: {key} is {record[key]!r}, recomputed {value!r}"
        for key, value, tol in (
            ("rotation_deg", rotation_deg(pose.rotation, gt.rotation), ROTATION_DEG_TOL),
            ("translation", float(np.linalg.norm(pose.translation - gt.translation)), POSE_TOL),
            ("add_mean", add, POSE_TOL),
        )
        if abs(record[key] - value) > tol
    ]
    if record["add_pass"] != bool(add < add_fraction * float(pdist(src).max())):
        problems.append("report sample: add_pass disagrees with ADD against the diameter")
    if (record["pred_matches"], record["true_inliers"]) != (len(matches), inliers):
        problems.append(
            f"report sample: matches/inliers {record['pred_matches']}/{record['true_inliers']}, "
            f"recomputed {len(matches)}/{inliers}"
        )
    return problems
