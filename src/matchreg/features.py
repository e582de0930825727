"""Per-point feature extraction with Match Normalization.

The network is a stack of edge-feature blocks: for every point, concatenate
its feature with the max over its k nearest neighbors of the feature
differences, apply a linear map, then Match Normalization, then batch
normalization, then ReLU. Features are stored as (C, M) arrays, one column
per point; each step is written once (``_layer_forward``) and runs over one
or two clouds.

Match Normalization centers the source and target activations separately
but divides both by one scale, the largest absolute raw source activation.
Because the source cloud is complete and outlier-free, its scale is stable,
and sharing it keeps the two activation distributions aligned. The
ablation modes (``per_instance_norm``, ``none``) take the same path,
``match_normalize``; batch norm is ``batch_normalize`` in either mode.

One loop (``_forward``) runs the layers over the (source, target) pair,
as ``extract_features`` does in either mode, or over one cloud. In eval
mode a target needs of its source only the per-layer scales, so a model
is encoded alone once (``encode_source``) and each view against it
(``encode_target``); these one-cloud passes keep no layer state.

The edge max-pool (``_edge_forward``) walks the k neighbor slots with a
running max and never builds the (C, M, k) difference tensor; a slot
replaces the max only when strictly greater, so of equal maxima the first
slot wins, as ``argmax`` would choose. Its backward adds every gradient
with one ``np.bincount`` in the order ``np.add.at`` would.

Forward passes record everything needed for an exact analytic backward
(``extract_features_backward``), including the max-pool argmax slots and
the location of the scale's argmax element, so gradients match central
finite differences to first order away from ties.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Sequence, TypeAlias

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree

from .errors import ChannelMismatch, EmptyBatch, ShapeMismatch, TooFewPoints
from .fileio import read_json, require_keys
from .geometry import Points, as_points

FeatureArray: TypeAlias = NDArray[np.float64]  # (C, M)

BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # running = momentum * running + (1 - momentum) * batch
MN_SCALE_FLOOR = 1e-8

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


DEFAULT_FINAL_GAIN = 0.25


def init_net_params(
    rng: np.random.Generator,
    widths: Sequence[int] = DEFAULT_WIDTHS,
    knn_k: int = DEFAULT_KNN_K,
) -> NetParams:
    """He-initialized network with the given per-layer output widths.

    The last layer's batch-norm gain starts at ``DEFAULT_FINAL_GAIN`` rather
    than 1: descriptor inner products grow with channel count, and unit-gain
    features would saturate the assignment layer at its default temperature
    before training can move the scores. The gain is learned freely afterwards.
    """
    layers = []
    c_in = 3
    for li, w in enumerate(widths):
        fan_in = 2 * c_in
        weight = rng.standard_normal((w, fan_in)) * np.sqrt(2.0 / fan_in)
        gain = DEFAULT_FINAL_GAIN if li == len(widths) - 1 else 1.0
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

@dataclass(frozen=True)
class MatchNormStats:
    """What ``match_normalize`` subtracted and divided by, one entry per cloud.

    Entries follow the clouds as given, source first. ``scale_at`` holds
    the flat index of the |activation| entry that set a cloud's own scale,
    where the scale's gradient goes; None when the cloud sets no scale of
    its own or its scale was floored.
    """

    mu: tuple[NDArray[np.float64], ...]
    scale: tuple[float, ...]
    scale_at: tuple[int | None, ...]

    @property
    def beta(self) -> float:
        """The scale dividing the first cloud given: the source scale."""
        return self.scale[0]


def check_normalization(normalization: str) -> None:
    if normalization not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization {normalization!r}")


def match_normalize(
    o_x: FeatureArray,
    o_y: FeatureArray | None = None,
    normalization: str = "match_norm",
    beta: float | None = None,
):
    """Center each cloud's activations, divide both by the source scale.

    A scale is max |a| over all raw entries of a cloud, floored at 1e-8 so
    all-zero activations stay finite. The modes differ only in where the
    scale comes from: ``match_norm`` divides both clouds by the source's,
    ``per_instance_norm`` divides each cloud by its own, and ``none`` passes
    both through unchanged (zero means, unit scales).

    Called with one cloud (``o_y`` None) it normalizes that cloud alone:
    a source when ``beta`` is None, else a target whose source scale is
    ``beta``, which only ``match_norm`` divides by. Returns one output per
    cloud given, then the ``MatchNormStats``.
    """
    clouds = [np.asarray(o_x, dtype=np.float64)]
    if o_y is not None:
        if beta is not None:
            raise ValueError("beta is given only with a target alone")
        clouds.append(np.asarray(o_y, dtype=np.float64))
    if any(a.ndim != 2 for a in clouds):
        raise ValueError("feature tensors must be 2-D (channels, points)")
    if len(clouds) == 2 and clouds[0].shape[0] != clouds[1].shape[0]:
        raise ChannelMismatch(
            f"channel counts differ: {clouds[0].shape[0]} vs {clouds[1].shape[0]}"
        )
    check_normalization(normalization)
    if normalization == "none":
        zeros = tuple(np.zeros(len(a)) for a in clouds)
        return (*clouds, MatchNormStats(zeros, (1.0,) * len(clouds), (None,) * len(clouds)))
    shared = beta if normalization == "match_norm" else None
    outs, mus, scales, at = [], [], [], []
    for a in clouds:
        scale, i = _scale(a) if shared is None else (shared, None)
        if normalization == "match_norm":
            shared = scale  # the source scale divides the target too
        mu = a.mean(axis=1)
        outs.append((a - mu[:, None]) / scale)
        mus.append(mu)
        scales.append(scale)
        at.append(i)
    return (*outs, MatchNormStats(tuple(mus), tuple(scales), tuple(at)))


def _scale(a: FeatureArray) -> tuple[float, int | None]:
    """max |a| floored at 1e-8, and the flat index of that entry (None if floored)."""
    mag = np.abs(a)
    i = int(np.argmax(mag))
    raw = float(mag.flat[i])
    return max(raw, MN_SCALE_FLOOR), None if raw < MN_SCALE_FLOOR else i


def _match_normalize_backward(g, act, out, stats: MatchNormStats, normalization: str):
    """Gradient through ``match_normalize`` for the (source, target) pair.

    ``g``, ``act`` and ``out`` are the pairs of upstream gradients, raw
    inputs and outputs. A scale is differentiated at its argmax entry (a
    subgradient; ties go to the lowest flat index).
    """
    if normalization == "none":
        return list(g)
    da = [(gc - gc.mean(axis=1, keepdims=True)) / b for gc, b in zip(g, stats.scale)]
    dots = [float((gc * oc).sum()) for gc, oc in zip(g, out)]
    if normalization == "match_norm":  # the source scale divides both clouds
        dots[0] += dots[1]
    for c, i in enumerate(stats.scale_at):
        if i is not None:
            da[c].flat[i] += -dots[c] / stats.scale[c] * np.sign(act[c].flat[i])
    return da


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchNormCache:
    """What ``batch_normalize`` hands its backward."""

    mode: str
    z: list[FeatureArray]          # normalized, pre-affine, one per tensor
    std: NDArray[np.float64]       # per-channel divisor actually used
    mean: NDArray[np.float64]      # the batch statistics in train mode,
    var: NDArray[np.float64]       # the running ones in eval mode


def fold_running_stats(running_mean, running_var, batch_stats):
    """Momentum updates of running statistics, one per (mean, var), in order."""
    for mean, var in batch_stats:
        running_mean = BN_MOMENTUM * running_mean + (1 - BN_MOMENTUM) * mean
        running_var = BN_MOMENTUM * running_var + (1 - BN_MOMENTUM) * var
    return running_mean, running_var


def batch_normalize(
    batch: Sequence[FeatureArray],
    gamma,
    beta,
    running_mean,
    running_var,
    mode: str = "train",
) -> tuple[list[FeatureArray], BatchNormCache]:
    """Channel-wise normalization over all points of all batch instances.

    Train mode uses the (biased) batch statistics; eval mode normalizes by
    the running statistics. Returns the outputs and the ``BatchNormCache``
    its backward needs, whose ``mean`` and ``var`` are the statistics used.
    The running statistics are read, never updated: the training step folds
    each sample's batch statistics into them (``fold_running_stats``).
    """
    if not batch:
        raise EmptyBatch("batch_normalize received no tensors")
    tensors = [np.asarray(t, dtype=np.float64) for t in batch]
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if mode == "train":
        pooled = np.concatenate(tensors, axis=1)
        if pooled.shape[1] < 2:
            raise EmptyBatch("train-mode batch normalization needs at least 2 points")
        mean = pooled.mean(axis=1)
        var = pooled.var(axis=1)
    elif mode == "eval":
        mean = np.asarray(running_mean, dtype=np.float64)
        var = np.asarray(running_var, dtype=np.float64)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    std = np.sqrt(var + BN_EPS)
    z = [(t - mean[:, None]) / std[:, None] for t in tensors]
    outs = [gamma[:, None] * zt + beta[:, None] for zt in z]
    return outs, BatchNormCache(mode, z, std, mean, var)


def _batch_normalize_backward(cache: BatchNormCache, gamma, grads):
    """Gradients of ``batch_normalize`` wrt its inputs, gamma and beta."""
    d_gamma = reduce(np.add, [(g * z).sum(axis=1) for g, z in zip(grads, cache.z)])
    d_beta = reduce(np.add, [g.sum(axis=1) for g in grads])
    dz = [g * gamma[:, None] for g in grads]
    if cache.mode == "eval":
        return [d / cache.std[:, None] for d in dz], d_gamma, d_beta
    pooled = np.concatenate(dz, axis=1)
    z = np.concatenate(cache.z, axis=1)
    du = pooled - pooled.mean(axis=1, keepdims=True) - z * (pooled * z).mean(axis=1, keepdims=True)
    du /= cache.std[:, None]
    return np.split(du, np.cumsum([d.shape[1] for d in dz])[:-1], axis=1), d_gamma, d_beta


# ---------------------------------------------------------------------------
# Edge features
# ---------------------------------------------------------------------------

def _edge_forward(f: FeatureArray, idx: NDArray[np.int64]):
    """[f_i ; max over neighbors of (f_j - f_i)] per point, and each max's slot.

    Walks the k neighbor slots of ``idx`` with a running max, in (M, C)
    layout so a slot gathers whole rows; no (C, M, k) array is built. A
    slot takes over only when strictly greater, so the first of equal
    maxima wins, as ``argmax`` over the slots chooses. Equal values are
    equal bytes except +0.0 and -0.0, of which ``np.maximum`` may keep
    either; when ``f`` has a sign bit set (ReLU outputs never do), each
    zero max is therefore recomputed from its winning slot.
    """
    ft = f.T.copy()
    pooled = ft[idx[:, 0]] - ft
    amax = np.zeros(ft.shape, dtype=np.intp)
    for s in range(1, idx.shape[1]):
        d = ft[idx[:, s]]
        d -= ft
        # slots only grow, so the last strict improvement is the first max
        np.maximum(amax, (d > pooled) * s, out=amax)
        np.maximum(pooled, d, out=pooled)
    if np.signbit(f).any():
        i, ch = np.nonzero(pooled == 0)
        pooled[i, ch] = ft[idx[i, amax[i, ch]], ch] - ft[i, ch]
    return np.vstack([f, pooled.T]), amax.T


def _edge_backward(d_edge, idx, amax, c_in):
    """Gradient wrt ``f`` of ``_edge_forward``, given the gradient of its output.

    A pooled entry's gradient goes to its max neighbor, and negated to the
    point itself. One ``np.bincount`` adds them up: its keys are each entry
    of ``f`` first, then each pooled entry's neighbor in row-major order,
    so every sum is added in the order ``np.add.at`` adds it. (A sum starts
    at +0.0, which would turn a lone -0.0 in ``df`` into +0.0; ``d_edge``
    is a matrix product, which gives no -0.0.)
    """
    dp = d_edge[c_in:]
    df = d_edge[:c_in] - dp
    m, k = idx.shape
    size = c_in * m
    j_star = np.take(idx, amax + np.arange(0, m * k, k))  # (C, M) neighbor of the max slot
    j_star += np.arange(0, size, m)[:, None]               # as a flat index into (C, M)
    keys = np.concatenate([np.arange(size), j_star.ravel()])
    weights = np.concatenate([df.ravel(), dp.ravel()])
    return np.bincount(keys, weights, size).reshape(c_in, m)


# ---------------------------------------------------------------------------
# Full forward / backward
# ---------------------------------------------------------------------------

@dataclass
class _LayerCache:
    """One layer's forward state; each list holds one entry per cloud, source first."""

    edge: list[FeatureArray]
    amax: list[NDArray[np.int64]]
    act: list[FeatureArray]        # linear output, pre-MN
    mn_out: list[FeatureArray]
    mn: MatchNormStats
    bn: BatchNormCache
    relu_mask: list[NDArray[np.bool_]]


@dataclass
class ForwardCache:
    knn: list[NDArray[np.int64]]   # (source, target) neighbor indices
    layers: list[_LayerCache]
    normalization: str


def _layer_forward(lp: LayerParams, feats, knn, mode: str, normalization: str, beta=None):
    """One edge-feature block over the (source, target) pair or over one cloud.

    ``beta`` is the source's scale at this layer when ``feats`` holds a
    target alone. Returns the block's outputs and its ``_LayerCache``.
    """
    edge, amax = zip(*[_edge_forward(f, idx) for f, idx in zip(feats, knn)])
    act = [lp.weight @ e + lp.bias[:, None] for e in edge]
    *mn_out, mn = match_normalize(*act, normalization=normalization, beta=beta)
    bn_out, bn = batch_normalize(
        mn_out, lp.bn_gamma, lp.bn_beta, lp.bn_running_mean, lp.bn_running_var, mode=mode
    )
    relu_mask = [b > 0 for b in bn_out]
    outs = [np.where(m, b, 0.0) for m, b in zip(relu_mask, bn_out)]
    return outs, _LayerCache(list(edge), list(amax), act, mn_out, mn, bn, relu_mask)


def _forward(
    params: NetParams, clouds, mode: str, normalization: str, betas=None, caches=None, knn=None
):
    """Every layer over the (source, target) pair or over one cloud.

    A lone cloud is a source when ``betas`` is None, else a target whose
    source has the per-layer scales ``betas``. Returns each cloud's kNN
    graph (``knn`` when given, else built here) and descriptors, and each
    layer's scale of the first cloud. Each layer's ``_LayerCache`` is
    appended to ``caches`` when a list is given.
    """
    if knn is None:
        knn = [knn_indices(p, params.knn_k) for p in clouds]
    feats = [p.T.copy() for p in clouds]
    scales = []
    for li, lp in enumerate(params.layers):
        beta = None if betas is None else betas[li]
        feats, lc = _layer_forward(lp, feats, knn, mode, normalization, beta)
        scales.append(lc.mn.beta)
        if caches is not None:
            caches.append(lc)
    return knn, feats, tuple(scales)


@dataclass(frozen=True)
class SourceEncoding:
    """A source cloud's eval-mode pass through the network, for any target.

    In eval mode batch norm reads only its running statistics, so the
    source branch never reads the target, and a target needs of its source
    only the per-layer scale ``betas`` (``match_norm``; the other modes
    need nothing). One encoding therefore serves every view of a model.
    It belongs to the ``NetParams`` and the normalization it was made with.
    """

    normalization: str
    knn: NDArray[np.int64]                  # (M, k) neighbor indices
    descriptors: FeatureArray               # the last layer's (C, M) output
    betas: tuple[float, ...]                # each layer's source scale


def encode_source(
    params: NetParams, x: Points, normalization: str = "match_norm"
) -> SourceEncoding:
    """Encode a source cloud once, to match any number of targets against.

    ``encode_target(params, enc, y)`` with ``enc = encode_source(params, x,
    normalization)`` gives ``extract_features(params, x, y, mode="eval",
    normalization=normalization)``'s target descriptors, byte for byte,
    and ``enc.descriptors`` its source descriptors. Eval mode only: in
    train mode batch norm pools both clouds at every layer.
    """
    check_normalization(normalization)
    knn, feats, betas = _forward(params, [as_points(x)], "eval", normalization)
    return SourceEncoding(normalization, knn[0], feats[0], betas)


def encode_target(params: NetParams, source: SourceEncoding, y: Points) -> FeatureArray:
    """The (C, N) eval-mode descriptors of target ``y`` against an encoded source."""
    return _forward(params, [as_points(y)], "eval", source.normalization, source.betas)[1][0]


def extract_features(
    params: NetParams,
    x: Points,
    y: Points,
    mode: str = "eval",
    normalization: str = "match_norm",
    knn=None,
) -> tuple[FeatureArray, FeatureArray, ForwardCache]:
    """Run both clouds through the feature network with shared weights.

    Returns (C, M) and (C, N) descriptor arrays plus the cache consumed by
    ``extract_features_backward``. Pure: train-mode batch statistics are
    reported in the cache (``bn.mean``, ``bn.var``), never folded into ``params``.

    ``knn``, when given, is the pair's graphs from an earlier call
    (``ForwardCache.knn``): the clouds never change between training
    draws, so their graphs are built once per sample.

    In eval mode the descriptors equal ``encode_source``'s and
    ``encode_target``'s byte for byte; to match many targets against one
    source, encode the source once instead.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    check_normalization(normalization)
    clouds = [as_points(x), as_points(y)]
    if any(p.shape[0] <= params.knn_k for p in clouds):
        raise TooFewPoints(
            f"cloud sizes ({clouds[0].shape[0]}, {clouds[1].shape[0]}) "
            f"must exceed knn_k={params.knn_k}"
        )
    layers: list[_LayerCache] = []
    knn, (fx, fy), _ = _forward(params, clouds, mode, normalization, caches=layers, knn=knn)
    return fx, fy, ForwardCache(knn, layers, normalization)


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
    want = [m.shape for m in cache.layers[-1].relu_mask]
    g = [np.asarray(d, dtype=np.float64) for d in (d_fx, d_fy)]
    got = [a.shape for a in g]
    if got != want:
        raise ShapeMismatch(f"upstream gradient shapes {got} do not match outputs {want}")

    grads: list[dict[str, NDArray[np.float64]]] = []
    for lp, lc in zip(reversed(params.layers), reversed(cache.layers)):
        g = [np.where(m, gc, 0.0) for m, gc in zip(lc.relu_mask, g)]
        du, d_gamma, d_beta = _batch_normalize_backward(lc.bn, lp.bn_gamma, g)
        da = _match_normalize_backward(du, lc.act, lc.mn_out, lc.mn, cache.normalization)
        d_weight = reduce(np.add, [d @ e.T for d, e in zip(da, lc.edge)])
        d_bias = reduce(np.add, [d.sum(axis=1) for d in da])
        grads.append({"weight": d_weight, "bias": d_bias, "bn_gamma": d_gamma, "bn_beta": d_beta})
        # linear map, then edge aggregation back to the previous layer's features
        g = [
            _edge_backward(lp.weight.T @ d, idx, amax, lp.in_channels)
            for d, idx, amax in zip(da, cache.knn, lc.amax)
        ]

    grads.reverse()
    return grads, g[0].T.copy(), g[1].T.copy()

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
    """Parameters and normalization mode; a bad file raises ``ValueError`` naming it."""
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a checkpoint file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')}")
    knn_k, records = require_keys(doc, {"knn_k": int, "layers": list}, path).values()
    layers = []
    for i, rec in enumerate(records):
        where = f"{path}: layer {i}"
        fields = require_keys(rec, dict.fromkeys(_LAYER_FIELDS, list), where)
        try:
            layers.append(LayerParams(**fields))
        except (TypeError, ValueError) as err:  # entries that are not numbers, or misshapen
            raise ValueError(f"{where}: {err}") from None
    normalization = doc.get("normalization", "match_norm")
    if normalization not in NORMALIZATION_MODES:
        raise ValueError(f"{path}: unknown normalization {normalization!r}")
    return NetParams(layers=tuple(layers), knn_k=knn_k), normalization
