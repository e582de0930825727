"""Supervision: ground-truth correspondences, the NLL loss, and gradients.

The ground-truth matrix pairs each transformed source point with target
points inside a distance threshold, then keeps only mutual-nearest pairs so the
matching is bipartite; everything unmatched lands in the outlier bins. The
loss is the negative log-likelihood of the soft assignment at ground-truth
positions, normalized by the number of ground-truth entries.

``svd_gradient_probe`` quantifies why an SVD-based pose loss destabilizes
training: the sensitivities of the singular vector factors feeding the
rigid-alignment rotation grow without bound as the top two singular values
approach each other, which is exactly the path a backpropagated pose loss
differentiates through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import EmptyGroundTruth, ShapeMismatch
from .features import (
    NetParams,
    extract_features,
    extract_features_backward,
)
from .geometry import Points, Pose, apply_pose, as_points
from .matching import (
    DEFAULT_ALPHA,
    DEFAULT_LAMBDA,
    DEFAULT_SINKHORN_ITERS,
    augment_scores,
    score_map,
    sinkhorn_backward,
    sinkhorn_log,
)

DEFAULT_GT_THRESHOLD = 0.02
LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class GtCorrespondence:
    """Binary (M+1) x (N+1) ground-truth assignment with outlier bins."""

    values: NDArray[np.float64]
    inlier_count: int


@dataclass(frozen=True)
class LossValue:
    value: float
    gradient: NDArray[np.float64] | None = None


def build_gt_matrix(
    x: Points,
    y: Points,
    pose_gt: Pose,
    d_thresh: float = DEFAULT_GT_THRESHOLD,
) -> GtCorrespondence:
    """Threshold + mutual-nearest (forward-backward) correspondence labels.

    A pair survives only if each side is the other's nearest candidate
    within ``d_thresh`` (ties to the lower index); unmatched points get a 1
    in their outlier bin, the corner stays 0.
    """
    if d_thresh <= 0:
        raise ValueError("d_thresh must be positive")
    xp = as_points(x)
    yp = as_points(y)
    tx = apply_pose(pose_gt, xp)
    m, n = xp.shape[0], yp.shape[0]
    d = np.linalg.norm(tx[:, None, :] - yp[None, :, :], axis=2)
    masked = np.where(d <= d_thresh, d, np.inf)

    nearest_j = masked.argmin(axis=1)          # first minimum: lowest index
    nearest_i = masked.argmin(axis=0)
    row_has = np.isfinite(masked[np.arange(m), nearest_j])
    mutual = row_has & (nearest_i[nearest_j] == np.arange(m))

    values = np.zeros((m + 1, n + 1))
    values[np.arange(m)[mutual], nearest_j[mutual]] = 1.0
    matched_cols = np.zeros(n, dtype=bool)
    matched_cols[nearest_j[mutual]] = True
    values[np.arange(m)[~mutual], n] = 1.0
    values[m, np.nonzero(~matched_cols)[0]] = 1.0
    return GtCorrespondence(values=values, inlier_count=int(mutual.sum()))


def nll_loss(assignment: NDArray[np.float64], gt: GtCorrespondence) -> LossValue:
    """Mean negative log assignment mass at ground-truth positions.

    Sums over the full augmented matrix, outlier bins included. Assignment
    entries are floored at 1e-12 inside the log; floored entries contribute
    no gradient (the loss is locally constant there).
    """
    p = np.asarray(assignment, dtype=np.float64)
    m = gt.values
    if p.shape != m.shape:
        raise ShapeMismatch(f"assignment {p.shape} vs ground truth {m.shape}")
    total = m.sum()
    if total < 1:
        raise EmptyGroundTruth("ground-truth matrix has no entries")
    safe = np.maximum(p, LOG_FLOOR)
    value = float(-(m * np.log(safe)).sum() / total)
    grad = np.where((m > 0) & (p >= LOG_FLOOR), -m / (safe * total), 0.0)
    return LossValue(value=value, gradient=grad)


@dataclass
class EndToEndResult:
    loss: float
    param_grads: list[dict[str, NDArray[np.float64]]]
    bn_batch_stats: list[tuple[NDArray[np.float64], NDArray[np.float64]]]


def end_to_end_gradient(
    params: NetParams,
    x: Points,
    y: Points,
    gt: GtCorrespondence,
    lam: float = DEFAULT_LAMBDA,
    iters: int = DEFAULT_SINKHORN_ITERS,
    alpha: float = DEFAULT_ALPHA,
    normalization: str = "match_norm",
    mode: str = "train",
) -> EndToEndResult:
    """NLL loss and its exact gradient through the whole pipeline.

    Chains the loss gradient through the unrolled Sinkhorn iterations, the
    score map, and the feature network down to the layer parameters.
    """
    fx, fy, cache = extract_features(params, x, y, mode=mode, normalization=normalization)
    scores = score_map(fx, fy)
    aug = augment_scores(scores, alpha=alpha)
    assignment, sk_cache = sinkhorn_log(aug, lam=lam, iters=iters, return_cache=True)
    loss = nll_loss(assignment, gt)

    d_aug = sinkhorn_backward(sk_cache, loss.gradient)
    m, n = scores.shape
    d_scores = d_aug[:m, :n]
    d_fx = fy @ d_scores.T
    d_fy = fx @ d_scores
    grads, _, _ = extract_features_backward(params, cache, d_fx, d_fy)
    stats = [(lc.bn.mean, lc.bn.var) for lc in cache.layers]
    return EndToEndResult(loss=loss.value, param_grads=grads, bn_batch_stats=stats)


# ---------------------------------------------------------------------------
# SVD gradient instability probe
# ---------------------------------------------------------------------------

_PROBE_SEED = 20240

def _probe_frame() -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    rng = np.random.default_rng(_PROBE_SEED)
    q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return q1, q2


def _aligned_svd(h, u_ref, v_ref):
    u, _, vt = np.linalg.svd(h)
    v = vt.T
    for k in range(3):
        # singular vector signs are arbitrary; flip pairs toward the
        # reference so finite differences measure rotation, not sign jumps
        if u[:, k] @ u_ref[:, k] < 0:
            u[:, k] = -u[:, k]
            v[:, k] = -v[:, k]
    return u, v


def svd_gradient_probe(sigma_gap: float) -> float:
    """Peak finite-difference sensitivity of the rotation's SVD factors.

    Builds a cross-covariance with singular values (1 + gap, 1, 0.5) in a
    fixed random frame and measures, entrywise, how fast the singular vector
    matrices U and V of the rigid-alignment solve move per unit perturbation
    of the cross-covariance. The composite rotation V diag(1,1,det) U^T is a
    smooth function of the input, but a pose loss backpropagated through the
    SVD node differentiates U and V separately, and those sensitivities
    scale like 1 / (sigma_1^2 - sigma_2^2).
    """
    if sigma_gap <= 0:
        raise ValueError("sigma_gap must be positive")
    u0, v0 = _probe_frame()
    h = u0 @ np.diag([1.0 + sigma_gap, 1.0, 0.5]) @ v0.T
    u_ref, v_ref = _aligned_svd(h, u0, v0)
    step = min(1e-7, sigma_gap / 100)
    peak = 0.0
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3))
            e[i, j] = step
            up, vp = _aligned_svd(h + e, u_ref, v_ref)
            um, vm = _aligned_svd(h - e, u_ref, v_ref)
            ju = (up - um) / (2 * step)
            jv = (vp - vm) / (2 * step)
            peak = max(peak, float(np.abs(ju).max()), float(np.abs(jv).max()))
    return peak
