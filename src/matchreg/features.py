"""Per-point feature extraction with Match Normalization.

The network is a stack of edge-feature blocks: for every point, concatenate
its feature with the max over its k nearest neighbors of the feature
differences, apply a linear map, then Match Normalization, then batch
normalization, then ReLU. Features are stored as (C, M) arrays, one column
per point.

Match Normalization centers the source and target activations separately
but divides both by one scale, the largest absolute raw source activation.
Because the source cloud is complete and outlier-free, its scale is stable,
and sharing it keeps the two activation distributions aligned.

Forward passes record everything needed for an exact analytic backward
(``extract_features_backward``), including the max-pool argmax slots and
the location of the scale's argmax element, so gradients match central
finite differences to first order away from ties.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Sequence, TypeAlias

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree

from .errors import ChannelMismatch, EmptyBatch, ShapeMismatch, TooFewPoints
from .geometry import Points, as_points

FeatureArray: TypeAlias = NDArray[np.float64]  # (C, M)

BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # running = momentum * running + (1 - momentum) * batch
MN_SCALE_FLOOR = 1e-8

NormalizationMode = Literal["match_norm", "per_instance_norm", "none"]
NORMALIZATION_MODES = ("match_norm", "per_instance_norm", "none")

DEFAULT_WIDTHS = (32, 64, 64)
DEFAULT_KNN_K = 10


@dataclass(frozen=True)
class LayerParams:
    """One edge-feature block: linear map plus batch-norm state."""

    weight: NDArray[np.float64]        # (C_out, 2 * C_in)
    bias: NDArray[np.float64]          # (C_out,)
    bn_gamma: NDArray[np.float64]      # (C_out,)
    bn_beta: NDArray[np.float64]       # (C_out,)
    bn_running_mean: NDArray[np.float64]
    bn_running_var: NDArray[np.float64]

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        c_out = w.shape[0]
        for name in ("bias", "bn_gamma", "bn_beta", "bn_running_mean", "bn_running_var"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            if v.shape != (c_out,):
                raise ValueError(f"{name} must have shape ({c_out},), got {v.shape}")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        if not np.all(np.isfinite(w)):
            raise ValueError("weight must be finite")
        if np.any(self.bn_running_var <= 0):
            raise ValueError("bn_running_var entries must be positive")
        object.__setattr__(self, "weight", w)

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def in_channels(self) -> int:
        # edge features double the incoming width
        return self.weight.shape[1] // 2


@dataclass(frozen=True)
class NetParams:
    layers: tuple[LayerParams, ...]
    knn_k: int

    def __post_init__(self):
        if not self.layers:
            raise ValueError("need at least one layer")
        if self.layers[0].weight.shape[1] != 6:
            raise ValueError("first layer must take the 6-wide point edge feature")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.weight.shape[1] != 2 * prev.out_channels:
                raise ValueError(
                    f"layer input width {cur.weight.shape[1]} does not match "
                    f"2 * previous output {prev.out_channels}"
                )
        if self.knn_k < 1:
            raise ValueError("knn_k must be >= 1")
        object.__setattr__(self, "layers", tuple(self.layers))


@dataclass(frozen=True)
class MatchNormStats:
    mu_x: NDArray[np.float64]
    mu_y: NDArray[np.float64]
    beta: float


DEFAULT_FINAL_GAIN = 0.25


def init_net_params(
    rng: np.random.Generator,
    widths: Sequence[int] = DEFAULT_WIDTHS,
    knn_k: int = DEFAULT_KNN_K,
    final_gain: float = DEFAULT_FINAL_GAIN,
) -> NetParams:
    """He-initialized network with the given per-layer output widths.

    The last layer's batch-norm gain starts at ``final_gain`` rather than 1:
    descriptor inner products grow with channel count, and unit-gain features
    would saturate the assignment layer at its default temperature before
    training can move the scores. The gain is learned freely afterwards.
    """
    layers = []
    c_in = 3
    for li, w in enumerate(widths):
        fan_in = 2 * c_in
        weight = rng.standard_normal((w, fan_in)) * np.sqrt(2.0 / fan_in)
        gain = final_gain if li == len(widths) - 1 else 1.0
        layers.append(
            LayerParams(
                weight=weight,
                bias=np.zeros(w),
                bn_gamma=np.full(w, gain),
                bn_beta=np.zeros(w),
                bn_running_mean=np.zeros(w),
                bn_running_var=np.ones(w),
            )
        )
        c_in = w
    return NetParams(layers=tuple(layers), knn_k=knn_k)


# ---------------------------------------------------------------------------
# k-nearest neighbors
# ---------------------------------------------------------------------------

# Candidates beyond k + 1 asked of the tree in the first query.
KNN_QUERY_PAD = 4
# Relative gap between the k-th distance and the tree's last candidate that
# covers the rounding difference between the tree's distances and ours.
KNN_SETTLE_MARGIN = 1e-9


def knn_indices(pc: Points, k: int) -> NDArray[np.int64]:
    """Row i holds the k nearest neighbors of point i, self excluded.

    Neighbors are ordered by the squared distance
    ``np.sum((p_i - p_j) ** 2)``, ties going to the lower index; duplicate
    points are neighbors at distance 0. A k-d tree proposes
    k + 1 + ``KNN_QUERY_PAD`` candidates per point, whose squared distances
    are recomputed with that expression and sorted by (distance, index). A
    row is final when its k-th distance lies below the tree's last
    candidate distance by ``KNN_SETTLE_MARGIN``, so no point left out can
    rank before it; other rows are queried again with twice as many
    candidates, up to all m points. The result equals a brute-force sort of
    the full distance matrix in O(M log M) time and O(M k) memory.
    A cloud whose bounding-box diagonal squared overflows raises
    ``ValueError``.
    """
    pts = as_points(pc)
    m = pts.shape[0]
    if k >= m:
        raise TooFewPoints(f"k={k} requires more than k points, got {m}")
    # the tree reports a neighbor at infinite distance as no neighbor at all
    with np.errstate(over="ignore"):
        extent = np.sum(np.ptp(pts, axis=0) ** 2)
    if not np.isfinite(extent):
        raise ValueError("point cloud extent too large: squared distances overflow")
    tree = cKDTree(pts)
    out = np.empty((m, k), dtype=np.int64)
    rows = np.arange(m)
    q = k + 1 + KNN_QUERY_PAD
    while rows.size:
        q = min(q, m)
        tree_dist, cand = tree.query(pts[rows], q)
        d2 = np.sum((pts[rows, None, :] - pts[cand]) ** 2, axis=2)
        d2[cand == rows[:, None]] = np.inf  # the point itself ranks last
        order = np.lexsort((cand, d2), axis=1)[:, :k]
        kth = np.take_along_axis(d2, order[:, -1:], axis=1)[:, 0]
        settled = (q == m) | (kth < tree_dist[:, -1] ** 2 * (1 - KNN_SETTLE_MARGIN))
        out[rows[settled]] = np.take_along_axis(cand, order, axis=1)[settled]
        rows = rows[~settled]
        q *= 2
    return out


# ---------------------------------------------------------------------------
# Match Normalization
# ---------------------------------------------------------------------------

def match_normalize(
    o_x: FeatureArray, o_y: FeatureArray
) -> tuple[FeatureArray, FeatureArray, MatchNormStats]:
    """Center each cloud's activations, divide both by the source scale.

    The scale is max |o_x| over all raw source entries, floored at 1e-8 so
    all-zero activations stay finite.
    """
    ax = np.asarray(o_x, dtype=np.float64)
    ay = np.asarray(o_y, dtype=np.float64)
    if ax.ndim != 2 or ay.ndim != 2:
        raise ValueError("feature tensors must be 2-D (channels, points)")
    if ax.shape[0] != ay.shape[0]:
        raise ChannelMismatch(f"channel counts differ: {ax.shape[0]} vs {ay.shape[0]}")
    mu_x = ax.mean(axis=1)
    mu_y = ay.mean(axis=1)
    beta = max(float(np.abs(ax).max()), MN_SCALE_FLOOR)
    ox = (ax - mu_x[:, None]) / beta
    oy = (ay - mu_y[:, None]) / beta
    return ox, oy, MatchNormStats(mu_x=mu_x, mu_y=mu_y, beta=beta)


def _mn_forward_single(a: FeatureArray):
    """Per-instance normalization: own mean, own scale."""
    mu = a.mean(axis=1)
    raw_max = float(np.abs(a).max())
    beta = max(raw_max, MN_SCALE_FLOOR)
    out = (a - mu[:, None]) / beta
    return out, mu, beta, raw_max < MN_SCALE_FLOOR, int(np.argmax(np.abs(a)))


def _mn_backward_pair(g, out, a, beta, floored, argmax_flat):
    """Gradient through (a - mean(a)) / beta for the cloud that owns beta."""
    da = (g - g.mean(axis=1, keepdims=True)) / beta
    if not floored:
        dbeta = -float((g * out).sum()) / beta
        da = da.copy()
        da.flat[argmax_flat] += dbeta * np.sign(a.flat[argmax_flat])
    return da


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

def batch_normalize(
    batch: Sequence[FeatureArray],
    gamma,
    beta,
    running_mean,
    running_var,
    mode: str = "train",
):
    """Channel-wise normalization over all points of all batch instances.

    Train mode uses (biased) batch statistics and returns running stats
    updated with momentum 0.9; eval mode normalizes by the running stats.
    Returns (outputs, new_running_mean, new_running_var).
    """
    if not batch:
        raise EmptyBatch("batch_normalize received no tensors")
    tensors = [np.asarray(t, dtype=np.float64) for t in batch]
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    rm = np.asarray(running_mean, dtype=np.float64)
    rv = np.asarray(running_var, dtype=np.float64)
    if mode == "train":
        pooled = np.concatenate(tensors, axis=1)
        if pooled.shape[1] < 2:
            raise EmptyBatch("train-mode batch normalization needs at least 2 points")
        m = pooled.mean(axis=1)
        v = pooled.var(axis=1)
        s = np.sqrt(v + BN_EPS)
        outs = [gamma[:, None] * ((t - m[:, None]) / s[:, None]) + beta[:, None] for t in tensors]
        new_rm = BN_MOMENTUM * rm + (1 - BN_MOMENTUM) * m
        new_rv = BN_MOMENTUM * rv + (1 - BN_MOMENTUM) * v
        return outs, new_rm, new_rv
    if mode == "eval":
        s = np.sqrt(rv + BN_EPS)
        outs = [gamma[:, None] * ((t - rm[:, None]) / s[:, None]) + beta[:, None] for t in tensors]
        return outs, rm, rv
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Edge features
# ---------------------------------------------------------------------------

def _edge_forward(f: FeatureArray, idx: NDArray[np.int64]):
    """[f_i ; max over neighbors of (f_j - f_i)] per point."""
    diffs = f[:, idx] - f[:, :, None]          # (C, M, k)
    amax = diffs.argmax(axis=2)                # first max wins ties
    pooled = np.take_along_axis(diffs, amax[:, :, None], axis=2)[:, :, 0]
    return np.vstack([f, pooled]), amax


def _edge_backward(d_edge, idx, amax, c_in):
    df = d_edge[:c_in].copy()
    dp = d_edge[c_in:]
    df -= dp
    m = idx.shape[0]
    j_star = idx[np.arange(m)[None, :], amax]  # (C, M) neighbor of the max slot
    rows = np.broadcast_to(np.arange(c_in)[:, None], j_star.shape)
    np.add.at(df, (rows, j_star), dp)
    return df


# ---------------------------------------------------------------------------
# Full forward / backward
# ---------------------------------------------------------------------------

@dataclass
class _LayerCache:
    edge_x: FeatureArray
    edge_y: FeatureArray
    amax_x: NDArray[np.int64]
    amax_y: NDArray[np.int64]
    act_x: FeatureArray            # linear output, pre-MN
    act_y: FeatureArray
    mn_out_x: FeatureArray
    mn_out_y: FeatureArray
    mn_beta_x: float
    mn_beta_y: float               # equals mn_beta_x in match_norm mode
    mn_floored_x: bool
    mn_floored_y: bool
    mn_argmax_x: int
    mn_argmax_y: int
    bn_std: NDArray[np.float64]    # per-channel divisor actually used
    bn_z_x: FeatureArray           # normalized, pre-affine
    bn_z_y: FeatureArray
    relu_mask_x: NDArray[np.bool_]
    relu_mask_y: NDArray[np.bool_]
    out_x: FeatureArray
    out_y: FeatureArray
    bn_batch_mean: NDArray[np.float64]  # stats of this forward (train mode)
    bn_batch_var: NDArray[np.float64]
    new_running_mean: NDArray[np.float64]
    new_running_var: NDArray[np.float64]


@dataclass
class ForwardCache:
    knn_x: NDArray[np.int64]
    knn_y: NDArray[np.int64]
    input_x: FeatureArray          # (3, M)
    input_y: FeatureArray          # (3, N)
    layers: list[_LayerCache]
    mode: str
    normalization: str


def extract_features(
    params: NetParams,
    x: Points,
    y: Points,
    mode: str = "eval",
    normalization: str = "match_norm",
) -> tuple[FeatureArray, FeatureArray, ForwardCache]:
    """Run both clouds through the feature network with shared weights.

    Returns (C, M) and (C, N) descriptor arrays plus the cache consumed by
    ``extract_features_backward``. Pure: running batch-norm statistics are
    reported in the cache, never written back into ``params``.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    if normalization not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization {normalization!r}")
    xp = as_points(x)
    yp = as_points(y)
    if xp.shape[0] <= params.knn_k or yp.shape[0] <= params.knn_k:
        raise TooFewPoints(
            f"cloud sizes ({xp.shape[0]}, {yp.shape[0]}) must exceed knn_k={params.knn_k}"
        )
    idx_x = knn_indices(xp, params.knn_k)
    idx_y = knn_indices(yp, params.knn_k)
    fx = xp.T.copy()
    fy = yp.T.copy()
    cache = ForwardCache(
        knn_x=idx_x, knn_y=idx_y, input_x=fx, input_y=fy,
        layers=[], mode=mode, normalization=normalization,
    )

    for lp in params.layers:
        ex, amax_x = _edge_forward(fx, idx_x)
        ey, amax_y = _edge_forward(fy, idx_y)
        ax = lp.weight @ ex + lp.bias[:, None]
        ay = lp.weight @ ey + lp.bias[:, None]

        if normalization == "match_norm":
            ux, uy, stats = match_normalize(ax, ay)
            beta_x = beta_y = stats.beta
            floored_x = floored_y = float(np.abs(ax).max()) < MN_SCALE_FLOOR
            argmax_x = argmax_y = int(np.argmax(np.abs(ax)))
        elif normalization == "per_instance_norm":
            ux, _, beta_x, floored_x, argmax_x = _mn_forward_single(ax)
            uy, _, beta_y, floored_y, argmax_y = _mn_forward_single(ay)
        else:  # "none"
            ux, uy = ax, ay
            beta_x = beta_y = 1.0
            floored_x = floored_y = True
            argmax_x = argmax_y = 0

        if mode == "train":
            pooled = np.concatenate([ux, uy], axis=1)
            m = pooled.mean(axis=1)
            v = pooled.var(axis=1)
            std = np.sqrt(v + BN_EPS)
            zx = (ux - m[:, None]) / std[:, None]
            zy = (uy - m[:, None]) / std[:, None]
            new_rm = BN_MOMENTUM * lp.bn_running_mean + (1 - BN_MOMENTUM) * m
            new_rv = BN_MOMENTUM * lp.bn_running_var + (1 - BN_MOMENTUM) * v
        else:
            m = lp.bn_running_mean
            v = lp.bn_running_var
            std = np.sqrt(lp.bn_running_var + BN_EPS)
            zx = (ux - lp.bn_running_mean[:, None]) / std[:, None]
            zy = (uy - lp.bn_running_mean[:, None]) / std[:, None]
            new_rm = lp.bn_running_mean
            new_rv = lp.bn_running_var
        bx = lp.bn_gamma[:, None] * zx + lp.bn_beta[:, None]
        by = lp.bn_gamma[:, None] * zy + lp.bn_beta[:, None]

        mask_x = bx > 0
        mask_y = by > 0
        out_x = np.where(mask_x, bx, 0.0)
        out_y = np.where(mask_y, by, 0.0)

        cache.layers.append(
            _LayerCache(
                edge_x=ex, edge_y=ey, amax_x=amax_x, amax_y=amax_y,
                act_x=ax, act_y=ay, mn_out_x=ux, mn_out_y=uy,
                mn_beta_x=beta_x, mn_beta_y=beta_y,
                mn_floored_x=floored_x, mn_floored_y=floored_y,
                mn_argmax_x=argmax_x, mn_argmax_y=argmax_y,
                bn_std=std, bn_z_x=zx, bn_z_y=zy,
                relu_mask_x=mask_x, relu_mask_y=mask_y,
                out_x=out_x, out_y=out_y,
                bn_batch_mean=m, bn_batch_var=v,
                new_running_mean=new_rm, new_running_var=new_rv,
            )
        )
        fx, fy = out_x, out_y

    return fx, fy, cache


def extract_features_backward(
    params: NetParams,
    cache: ForwardCache,
    d_fx: FeatureArray,
    d_fy: FeatureArray,
) -> tuple[list[dict[str, NDArray[np.float64]]], FeatureArray, FeatureArray]:
    """Analytic gradients for all layer parameters and both input clouds.

    Handles every forward path: ReLU masks, batch-norm statistics (train
    mode), the Match Normalization mean and scale (subgradient at the max
    element, ties to the lowest flat index), the linear maps, and the
    max-pool edge aggregation.
    """
    last = cache.layers[-1]
    d_fx = np.asarray(d_fx, dtype=np.float64)
    d_fy = np.asarray(d_fy, dtype=np.float64)
    if d_fx.shape != last.out_x.shape or d_fy.shape != last.out_y.shape:
        raise ShapeMismatch(
            f"upstream gradients {d_fx.shape}/{d_fy.shape} do not match "
            f"outputs {last.out_x.shape}/{last.out_y.shape}"
        )

    grads: list[dict[str, NDArray[np.float64]]] = []
    gx, gy = d_fx, d_fy
    for lp, lc in zip(reversed(params.layers), reversed(cache.layers)):
        # ReLU
        gx = np.where(lc.relu_mask_x, gx, 0.0)
        gy = np.where(lc.relu_mask_y, gy, 0.0)

        # batch norm
        d_gamma = (gx * lc.bn_z_x).sum(axis=1) + (gy * lc.bn_z_y).sum(axis=1)
        d_beta = gx.sum(axis=1) + gy.sum(axis=1)
        dzx = gx * lp.bn_gamma[:, None]
        dzy = gy * lp.bn_gamma[:, None]
        if cache.mode == "train":
            dz = np.concatenate([dzx, dzy], axis=1)
            z = np.concatenate([lc.bn_z_x, lc.bn_z_y], axis=1)
            du = (dz - dz.mean(axis=1, keepdims=True) - z * (dz * z).mean(axis=1, keepdims=True))
            du /= lc.bn_std[:, None]
            mx = dzx.shape[1]
            dux, duy = du[:, :mx], du[:, mx:]
        else:
            dux = dzx / lc.bn_std[:, None]
            duy = dzy / lc.bn_std[:, None]

        # match normalization
        if cache.normalization == "match_norm":
            dax = (dux - dux.mean(axis=1, keepdims=True)) / lc.mn_beta_x
            day = (duy - duy.mean(axis=1, keepdims=True)) / lc.mn_beta_x
            if not lc.mn_floored_x:
                d_scale = -(
                    float((dux * lc.mn_out_x).sum()) + float((duy * lc.mn_out_y).sum())
                ) / lc.mn_beta_x
                dax.flat[lc.mn_argmax_x] += d_scale * np.sign(lc.act_x.flat[lc.mn_argmax_x])
        elif cache.normalization == "per_instance_norm":
            dax = _mn_backward_pair(
                dux, lc.mn_out_x, lc.act_x, lc.mn_beta_x, lc.mn_floored_x, lc.mn_argmax_x
            )
            day = _mn_backward_pair(
                duy, lc.mn_out_y, lc.act_y, lc.mn_beta_y, lc.mn_floored_y, lc.mn_argmax_y
            )
        else:
            dax, day = dux, duy

        # linear
        d_weight = dax @ lc.edge_x.T + day @ lc.edge_y.T
        d_bias = dax.sum(axis=1) + day.sum(axis=1)
        dex = lp.weight.T @ dax
        dey = lp.weight.T @ day

        grads.append(
            {"weight": d_weight, "bias": d_bias, "bn_gamma": d_gamma, "bn_beta": d_beta}
        )

        # edge aggregation back to the previous layer's features
        c_in = lp.in_channels
        gx = _edge_backward(dex, cache.knn_x, lc.amax_x, c_in)
        gy = _edge_backward(dey, cache.knn_y, lc.amax_y, c_in)

    grads.reverse()
    return grads, gx.T.copy(), gy.T.copy()


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "matchreg-checkpoint"
CHECKPOINT_VERSION = 1

_LAYER_FIELDS = ("weight", "bias", "bn_gamma", "bn_beta", "bn_running_mean", "bn_running_var")


def save_checkpoint(path, params: NetParams, normalization: str = "match_norm") -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "knn_k": params.knn_k,
        "normalization": normalization,
        "layers": [
            {f: np.asarray(getattr(lp, f)).tolist() for f in _LAYER_FIELDS}
            for lp in params.layers
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def load_checkpoint(path) -> tuple[NetParams, str]:
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a checkpoint file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')}")
    layers = tuple(
        LayerParams(**{f: np.asarray(rec[f], dtype=np.float64) for f in _LAYER_FIELDS})
        for rec in doc["layers"]
    )
    normalization = doc.get("normalization", "match_norm")
    if normalization not in NORMALIZATION_MODES:
        raise ValueError(f"{path}: unknown normalization {normalization!r}")
    return NetParams(layers=layers, knn_k=int(doc["knn_k"])), normalization
