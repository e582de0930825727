"""Pose-error metrics, ADD, per-threshold accuracy tables, match diagnostics.

"mAP" here is the per-threshold success fraction the evaluation tables
report (share of samples whose error falls under each threshold), not a
precision-recall curve area.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput
from .geometry import Points, Pose, apply_pose, as_points

DEFAULT_ROTATION_THRESHOLDS_DEG = (5.0, 10.0, 20.0)
DEFAULT_TRANSLATION_THRESHOLDS_M = (0.01, 0.02, 0.05)
DEFAULT_INLIER_THRESHOLD = 0.02
ADD_PASS_DIAMETER_FRACTION = 0.1


@dataclass(frozen=True)
class PoseErrors:
    rotation_deg: float
    translation: float


def rotation_error_deg(r_hat, r_gt) -> float:
    """Geodesic rotation distance in degrees, arccos argument clamped."""
    r_hat = np.asarray(r_hat, dtype=np.float64)
    r_gt = np.asarray(r_gt, dtype=np.float64)
    cos = (np.trace(r_hat.T @ r_gt) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))


def translation_error(t_hat, t_gt) -> float:
    return float(np.linalg.norm(np.asarray(t_hat, dtype=np.float64) - np.asarray(t_gt)))


# Point pairs per block of ``model_diameter``: 65,536 pairs take 1.5 MB of
# differences, where one (M, M, 3) tensor takes 100 MB at M = 2048.
DIAMETER_BLOCK_PAIRS = 1 << 16
# Relative slack on the pruning bound of ``model_diameter``; it covers the
# rounding of the centroid distances, which is far smaller.
DIAMETER_PRUNE_MARGIN = 1e-9


def model_diameter(model: Points) -> float:
    """Largest pairwise distance; exact, O(M) memory.

    A lower bound D0 is the distance from the point farthest from the
    centroid c to the point farthest from it. A pair at least D0 apart has
    both ends p with |p - c| + max|q - c| >= D0, so only those points enter
    the exact pass. That pass takes rows in blocks, and each distance is the
    same per-pair ``norm`` a one-shot (M, M) computation over all points
    would give, so the result is bit-identical to it. Near-linear time on
    elongated or boxy shapes; on a sphere few points are pruned.
    """
    pts = as_points(model)
    radius = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
    far = pts[np.argmax(radius)]
    lower = float(np.linalg.norm(pts - far, axis=1).max())
    pts = pts[radius + radius.max() >= lower * (1 - DIAMETER_PRUNE_MARGIN)]
    rows = max(1, DIAMETER_BLOCK_PAIRS // len(pts))
    return max(
        float(np.linalg.norm(pts[lo:lo + rows, None, :] - pts[None, :, :], axis=2).max())
        for lo in range(0, len(pts), rows)
    )


def add_score(
    model: Points, pose_hat: Pose, pose_gt: Pose, diameter: float
) -> tuple[float, bool]:
    """Mean distance between model points under both poses; pass under 10% of diameter."""
    if diameter <= 0:
        raise ValueError("diameter must be positive")
    pts = as_points(model)
    dist = np.linalg.norm(apply_pose(pose_hat, pts) - apply_pose(pose_gt, pts), axis=1)
    mean = float(dist.mean())
    return mean, mean < ADD_PASS_DIAMETER_FRACTION * diameter


def map_aggregate(
    errors: list[PoseErrors],
    rot_thresholds=DEFAULT_ROTATION_THRESHOLDS_DEG,
    trans_thresholds=DEFAULT_TRANSLATION_THRESHOLDS_M,
) -> tuple[dict, dict]:
    """Success fractions keyed by each threshold as given (7.5 or "7.5"), compared as float(t)."""
    if not errors:
        raise EmptyInput("no samples to aggregate")
    check_thresholds(rot_thresholds, trans_thresholds)
    rot = np.array([e.rotation_deg for e in errors])
    trans = np.array([e.translation for e in errors])
    return (
        {t: float(np.mean(rot <= float(t))) for t in rot_thresholds},
        {t: float(np.mean(trans <= float(t))) for t in trans_thresholds},
    )


def check_thresholds(
    rot_thresholds, trans_thresholds, inlier_thresh: float = DEFAULT_INLIER_THRESHOLD
) -> None:
    """ValueError naming the list of a repeated threshold (1 and 1.0 too) or a bad inlier_thresh."""
    for name, key, thresholds in (
        ("rotation", "rot_thresholds", rot_thresholds),
        ("translation", "trans_thresholds", trans_thresholds),
    ):
        seen = set()
        for t in map(float, thresholds):
            if t in seen:
                raise ValueError(f"{name} threshold {t!r} is repeated in {key}")
            seen.add(t)
    if not inlier_thresh > 0:  # rejects NaN too
        raise ValueError(f"inlier_thresh must be positive, got {inlier_thresh}")


def count_true_inliers(
    matches,
    x: Points,
    y: Points,
    pose_gt: Pose,
    inlier_thresh: float = DEFAULT_INLIER_THRESHOLD,
) -> int:
    """Matches whose endpoints agree under the ground-truth pose."""
    if not inlier_thresh > 0:  # rejects NaN too
        raise ValueError("inlier_thresh must be positive")
    if not matches:
        return 0
    xp = as_points(x)
    yp = as_points(y)
    si = np.array([m.source for m in matches])
    ti = np.array([m.target for m in matches])
    d = np.linalg.norm(apply_pose(pose_gt, xp[si]) - yp[ti], axis=1)
    return int(np.sum(d <= inlier_thresh))


@dataclass
class MetricsReport:
    """Aggregated evaluation results plus the per-sample records behind them."""

    rotation_map: dict  # threshold as given -> success fraction
    translation_map: dict
    add_rate: float
    mean_pred_matches: float
    mean_true_inliers: float
    sample_count: int
    per_sample: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "rotation_map": {str(t): frac for t, frac in self.rotation_map.items()},
            "translation_map": {str(t): frac for t, frac in self.translation_map.items()},
            "add_rate": self.add_rate,
            "mean_pred_matches": self.mean_pred_matches,
            "mean_true_inliers": self.mean_true_inliers,
            "sample_count": self.sample_count,
            "per_sample": self.per_sample,
        }


def build_report(
    records: list[dict],
    rot_thresholds=DEFAULT_ROTATION_THRESHOLDS_DEG,
    trans_thresholds=DEFAULT_TRANSLATION_THRESHOLDS_M,
) -> MetricsReport:
    """Aggregate per-sample records (as produced by the evaluation loop).

    Each record needs: rotation_deg, translation, add_pass, pred_matches,
    true_inliers.
    """
    errs = [PoseErrors(r["rotation_deg"], r["translation"]) for r in records]
    rot_map, trans_map = map_aggregate(errs, rot_thresholds, trans_thresholds)
    return MetricsReport(
        rotation_map=rot_map,
        translation_map=trans_map,
        add_rate=float(np.mean([r["add_pass"] for r in records])),
        mean_pred_matches=float(np.mean([r["pred_matches"] for r in records])),
        mean_true_inliers=float(np.mean([r["true_inliers"] for r in records])),
        sample_count=len(records),
        per_sample=records,
    )
