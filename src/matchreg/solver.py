"""Rigid alignment: weighted Kabsch solve, ICP refinement, registration.

``register`` is the end-to-end entry point: features -> score map ->
Sinkhorn assignment -> hard matches -> weighted Kabsch, with optional ICP
refinement. Degenerate matching never raises out of ``register``; the
result carries the identity pose with ``converged=False`` instead so batch
evaluation can proceed. A degenerate ICP step does not raise either: ICP
stops and keeps its last good pose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateMatches
from .features import (
    NetParams,
    SourceEncoding,
    check_normalization,
    encode_source,
    encode_target,
)
from .geometry import Points, Pose, as_points
from .matching import (
    DEFAULT_ALPHA,
    DEFAULT_LAMBDA,
    DEFAULT_MATCH_THRESHOLD,
    DEFAULT_SINKHORN_ITERS,
    Match,
    augment_scores,
    extract_matches,
    score_map,
    sinkhorn_log,
)

ICP_REJECT_FACTOR = 2.5  # drop pairs beyond this multiple of the median distance


def weighted_kabsch(x: Points, y: Points, matches: list[Match]) -> Pose:
    """Weighted least-squares rigid transform from matched point pairs.

    Minimizes sum w |R x + t - y|^2 via the SVD of the weighted
    cross-covariance, with the determinant sign fix so the result is a
    proper rotation even for reflection-prone inputs. Matched points that
    lie on a line, on either side, raise ``DegenerateMatches``.
    """
    if len(matches) < 3:
        raise DegenerateMatches(f"need at least 3 matches, got {len(matches)}")
    xp = as_points(x)
    yp = as_points(y)
    si = np.array([m.source for m in matches])
    ti = np.array([m.target for m in matches])
    w = np.array([m.weight for m in matches], dtype=np.float64)
    if np.any(w < 0):
        raise DegenerateMatches("negative match weight")
    if w.sum() <= 0:
        raise DegenerateMatches("total match weight is zero")
    ys = yp[ti]
    _require_spread(ys - (w[:, None] * ys).sum(axis=0) / w.sum(), w, "target")
    return _kabsch(xp[si], ys, w)


def _require_spread(centered, w, side: str) -> None:
    """Raise ``DegenerateMatches`` when weighted, centered points lie on a line."""
    sv = np.linalg.svd(np.sqrt(w)[:, None] * centered, compute_uv=False)
    if sv[1] < 1e-9:
        raise DegenerateMatches(f"matched {side} points are collinear")


def _kabsch(xs, ys, w) -> Pose:
    """Weighted Kabsch on paired (K, 3) arrays with non-negative weights.

    Raises ``DegenerateMatches`` for fewer than 3 pairs or collinear
    sources; ``icp_refine`` calls it directly on its kept pairs.
    """
    if len(xs) < 3:
        raise DegenerateMatches(f"need at least 3 matches, got {len(xs)}")
    wsum = w.sum()
    x_bar = (w[:, None] * xs).sum(axis=0) / wsum
    y_bar = (w[:, None] * ys).sum(axis=0) / wsum
    xc = xs - x_bar
    yc = ys - y_bar

    _require_spread(xc, w, "source")

    h = (w[:, None] * xc).T @ yc
    u, _, vt = np.linalg.svd(h)
    v = vt.T
    d = 1.0 if np.linalg.det(v @ u.T) > 0 else -1.0
    r = v @ np.diag([1.0, 1.0, d]) @ u.T
    t = y_bar - r @ x_bar
    return Pose(r, t)


@dataclass(frozen=True)
class IcpResult:
    pose: Pose
    iterations: int
    converged: bool
    residuals: tuple[float, ...]  # mean accepted-pair distance per iteration


def icp_refine(
    x: Points,
    y: Points,
    init: Pose,
    max_iters: int = 50,
    tol: float = 1e-6,
) -> IcpResult:
    """Point-to-point ICP from a partial view ``y`` into a complete model ``x``.

    Each iteration maps every view point into the model frame under the
    inverse of the current pose, ``(y - t) @ R``, and pairs it with its
    nearest model point, so model points the view does not see get no
    partner. Pairs beyond 2.5x the median distance are rejected and the full
    model -> view pose is re-solved. Stops when the pose delta (rotation
    angle in radians plus translation norm) drops below ``tol``. A step
    whose kept model points are collinear, or fewer than 3, stops the loop:
    the last good pose is returned with ``converged=False``, and
    ``iterations`` and ``residuals`` count the completed steps only.
    """
    xp = as_points(x)
    yp = as_points(y)
    tree = cKDTree(xp)
    pose = init
    residuals: list[float] = []
    converged = False
    for _ in range(max_iters):
        dists, nn = tree.query((yp - pose.translation) @ pose.rotation)
        keep = dists <= ICP_REJECT_FACTOR * np.median(dists)
        try:
            new_pose = _kabsch(xp[nn[keep]], yp[keep], np.ones(int(keep.sum())))
        except DegenerateMatches:
            break
        residuals.append(float(dists[keep].mean()))
        # the step angle from |R1 - R2|_F = 2 sqrt(2) sin(angle / 2), exact near
        # zero, where arccos((trace - 1) / 2) rounds a zero step to about 1e-8
        step = np.linalg.norm(new_pose.rotation - pose.rotation) / np.sqrt(8.0)
        delta_rot = 2.0 * np.arcsin(min(1.0, step))
        delta = float(delta_rot + np.linalg.norm(new_pose.translation - pose.translation))
        pose = new_pose
        if delta < tol:
            converged = True
            break
    return IcpResult(
        pose=pose, iterations=len(residuals), converged=converged, residuals=tuple(residuals)
    )


@dataclass(frozen=True)
class RegisterOptions:
    lam: float = DEFAULT_LAMBDA
    sinkhorn_iters: int = DEFAULT_SINKHORN_ITERS
    tau: float = DEFAULT_MATCH_THRESHOLD
    alpha: float = DEFAULT_ALPHA
    normalization: str = "match_norm"
    use_icp: bool = False

    def __post_init__(self):
        if not self.lam > 0:  # rejects NaN too
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.sinkhorn_iters < 1:
            raise ValueError(f"sinkhorn_iters must be >= 1, got {self.sinkhorn_iters}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        check_normalization(self.normalization)


@dataclass(frozen=True)
class RegistrationResult:
    pose: Pose
    matches: tuple[Match, ...]
    predicted_match_count: int
    converged: bool
    icp_iterations_used: int = 0
    icp_residuals: tuple[float, ...] = field(default_factory=tuple)


def register(
    params: NetParams,
    x: Points,
    y: Points,
    opts: RegisterOptions = RegisterOptions(),
    source: SourceEncoding | None = None,
) -> RegistrationResult:
    """Full pipeline pose estimate for a source/target cloud pair.

    ``source`` is ``encode_source(params, x, opts.normalization)``, made
    once to register many views of one model; it is made here when None.
    The result is the same either way.
    """
    if source is None:
        source = encode_source(params, x, opts.normalization)
    elif source.normalization != opts.normalization or len(source.knn) != len(x):
        raise ValueError("the source encoding was made for another source or normalization")
    scores = score_map(source.descriptors, encode_target(params, source, y))
    assignment = sinkhorn_log(
        augment_scores(scores, alpha=opts.alpha), lam=opts.lam, iters=opts.sinkhorn_iters
    )
    matches = extract_matches(assignment, tau=opts.tau)
    try:
        pose = weighted_kabsch(x, y, matches)
    except DegenerateMatches:
        return RegistrationResult(
            pose=Pose.identity(),
            matches=tuple(matches),
            predicted_match_count=len(matches),
            converged=False,
        )
    icp_iters = 0
    icp_residuals: tuple[float, ...] = ()
    if opts.use_icp:
        refined = icp_refine(x, y, pose)
        pose = refined.pose
        icp_iters = refined.iterations
        icp_residuals = refined.residuals
    return RegistrationResult(
        pose=pose,
        matches=tuple(matches),
        predicted_match_count=len(matches),
        converged=True,
        icp_iterations_used=icp_iters,
        icp_residuals=icp_residuals,
    )
