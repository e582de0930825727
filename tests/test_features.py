"""Feature network tests: kNN, Match Normalization, batch norm, gradients."""

from pathlib import Path

import numpy as np
import pytest

from matchreg import features
from matchreg.errors import ChannelMismatch, EmptyBatch, ShapeMismatch, TooFewPoints
from matchreg.features import (
    LayerParams,
    NetParams,
    batch_normalize,
    encode_source,
    encode_target,
    extract_features,
    extract_features_backward,
    fold_running_stats,
    init_net_params,
    knn_indices,
    load_checkpoint,
    match_normalize,
    save_checkpoint,
)
from matchreg.geometry import apply_pose, Pose, random_rotation_uniform
from matchreg.synth import SynthConfig, generate_pair


# ---------------------------------------------------------------------------
# kNN
# ---------------------------------------------------------------------------

def test_knn_collinear_hand_case():
    pc = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
    idx = knn_indices(pc, 1)
    np.testing.assert_array_equal(idx[:, 0], [1, 0, 1])


def test_knn_never_self():
    rng = np.random.default_rng(0)
    pc = rng.standard_normal((60, 3))
    idx = knn_indices(pc, 7)
    for i in range(60):
        assert i not in idx[i]


def test_knn_matches_brute_force():
    rng = np.random.default_rng(1)
    pc = rng.standard_normal((100, 3))
    k = 5
    idx = knn_indices(pc, k)
    for i in range(100):
        cand = sorted(
            (float(np.sum((pc[i] - pc[j]) ** 2)), j) for j in range(100) if j != i
        )
        expected = [j for _, j in cand[:k]]
        assert idx[i].tolist() == expected


def test_knn_too_few_points():
    with pytest.raises(TooFewPoints):
        knn_indices(np.zeros((3, 3)), 3)


def brute_force_knn(pc, k):
    """The full-matrix kNN: stable sort of every row of squared distances."""
    pts = np.asarray(pc, dtype=np.float64)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :k].astype(np.int64)


def integer_grid(n):
    """All points of {0, ..., n - 1}^3, full of distance ties."""
    return np.stack(np.meshgrid(*[np.arange(float(n))] * 3, indexing="ij"), axis=-1).reshape(-1, 3)


def _knn_clouds():
    """(name, cloud) pairs: random, tied, duplicated and degenerate clouds."""
    rng = np.random.default_rng(21)
    for m in (12, 100, 1024, 2048):
        yield f"gaussian-{m}", rng.standard_normal((m, 3))
    grid = integer_grid(8)
    yield "grid", grid
    yield "grid-permuted", grid[rng.permutation(len(grid))]
    tripled = np.repeat(rng.standard_normal((70, 3)), 3, axis=0)
    yield "tripled", tripled[rng.permutation(len(tripled))]
    yield "integer", np.round(rng.standard_normal((400, 3)) * 3)
    yield "collinear", np.outer(rng.permutation(60).astype(float), [0.3, -1.0, 2.0])
    yield "subnormal-distances", rng.standard_normal((200, 3)) * 1e-160
    cfg = SynthConfig(m=256, n=200, noise_sigma=0.0, outlier_fraction=0.0, shapes=("box",))
    target = generate_pair(cfg, np.random.default_rng(3)).target
    assert len(np.unique(target, axis=0)) < len(target)  # padded by repeats
    yield "padded-target", target


@pytest.mark.parametrize("pc", [pytest.param(pc, id=name) for name, pc in _knn_clouds()])
def test_knn_equals_brute_force(pc):
    for k in (1, 3, 10):
        assert np.array_equal(knn_indices(pc, k), brute_force_knn(pc, k)), k


def test_knn_all_other_points():
    rng = np.random.default_rng(22)
    grid = integer_grid(3)
    for pc in (rng.standard_normal((40, 3)), grid[rng.permutation(len(grid))]):
        k = len(pc) - 1
        assert np.array_equal(knn_indices(pc, k), brute_force_knn(pc, k))


def test_knn_rejects_overflowing_extent():
    pc = np.array([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0], [-1e200, 0.0, 0.0]])
    with pytest.raises(ValueError, match="overflow"):
        knn_indices(pc, 1)


def test_knn_tie_across_slot_k_is_queried_again(monkeypatch):
    # The centre of a 3x3x3 grid has 6 neighbors at squared distance 1 and
    # 12 at 2, so slots 7 to 18 tie and slot k = 10 falls inside the tie.
    # The first query ends inside that tie, so the row must be re-queried.
    rng = np.random.default_rng(23)
    grid = integer_grid(3)
    pc = grid[rng.permutation(len(grid))]
    queried = []

    class RecordingTree(features.cKDTree):
        def query(self, x, k, *args, **kwargs):
            queried.append((len(x), k))
            return super().query(x, k, *args, **kwargs)

    monkeypatch.setattr(features, "cKDTree", RecordingTree)
    assert np.array_equal(knn_indices(pc, 10), brute_force_knn(pc, 10))
    first_q = 10 + 1 + features.KNN_QUERY_PAD
    assert queried[0] == (len(pc), first_q)
    assert len(queried) > 1 and queried[1][1] > first_q


# ---------------------------------------------------------------------------
# Match Normalization
# ---------------------------------------------------------------------------

def test_match_normalize_hand_case():
    ox, oy, stats = match_normalize(np.array([[1.0, 3.0]]), np.array([[2.0, 6.0]]))
    np.testing.assert_allclose(stats.mu[0], [2.0])
    np.testing.assert_allclose(stats.mu[1], [4.0])
    assert stats.beta == 3.0
    np.testing.assert_allclose(ox, [[-1 / 3, 1 / 3]])
    np.testing.assert_allclose(oy, [[-2 / 3, 2 / 3]])


def test_match_normalize_zero_mean():
    rng = np.random.default_rng(2)
    ox, oy, _ = match_normalize(rng.standard_normal((8, 30)), rng.standard_normal((8, 20)))
    assert np.abs(ox.mean(axis=1)).max() < 1e-12
    assert np.abs(oy.mean(axis=1)).max() < 1e-12


def test_match_normalize_joint_scale_invariance():
    rng = np.random.default_rng(3)
    ax = rng.standard_normal((5, 16))
    ay = rng.standard_normal((5, 12))
    base_x, base_y, _ = match_normalize(ax, ay)
    for c in (0.1, 1.0, 100.0):
        sx, sy, _ = match_normalize(c * ax, c * ay)
        np.testing.assert_allclose(sx, base_x, atol=1e-10)
        np.testing.assert_allclose(sy, base_y, atol=1e-10)


def test_match_normalize_scale_from_source_only():
    rng = np.random.default_rng(4)
    ax = rng.standard_normal((4, 10))
    _, _, s1 = match_normalize(ax, rng.standard_normal((4, 9)))
    _, _, s2 = match_normalize(ax, 100.0 * rng.standard_normal((4, 31)))
    assert s1.beta == s2.beta  # bitwise
    assert s1.beta == np.abs(ax).max()


def test_match_normalize_channel_mismatch():
    with pytest.raises(ChannelMismatch):
        match_normalize(np.zeros((3, 4)), np.zeros((2, 4)))


def test_match_normalize_floor_on_zeros():
    ox, oy, stats = match_normalize(np.zeros((2, 5)), np.ones((2, 4)))
    assert stats.beta == 1e-8
    assert np.all(np.isfinite(ox)) and np.all(np.isfinite(oy))


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

def test_bn_eval_identity():
    t = np.random.default_rng(5).standard_normal((4, 11))
    outs, cache = batch_normalize(
        [t], np.ones(4), np.zeros(4), np.zeros(4), np.ones(4), mode="eval"
    )
    np.testing.assert_allclose(outs[0], t / np.sqrt(1 + 1e-5), rtol=1e-12)
    np.testing.assert_array_equal(cache.mean, np.zeros(4))
    np.testing.assert_array_equal(cache.var, np.ones(4))


def test_bn_train_standardizes():
    rng = np.random.default_rng(6)
    # large channel variance so the 1e-5 epsilon is negligible
    batch = [100.0 * rng.standard_normal((3, 40)), 100.0 * rng.standard_normal((3, 25))]
    outs, _ = batch_normalize(
        batch, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), mode="train"
    )
    pooled = np.concatenate(outs, axis=1)
    assert np.abs(pooled.mean(axis=1)).max() < 1e-6
    assert np.abs(pooled.var(axis=1) - 1.0).max() < 1e-6


def test_bn_single_instance_stats():
    rng = np.random.default_rng(7)
    t = rng.standard_normal((2, 15))
    _, cache = batch_normalize(
        [t], np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), mode="train"
    )
    rm, rv = fold_running_stats(np.zeros(2), np.ones(2), [(cache.mean, cache.var)])
    np.testing.assert_allclose(rm, 0.1 * t.mean(axis=1), rtol=1e-12)
    np.testing.assert_allclose(rv, 0.9 + 0.1 * t.var(axis=1), rtol=1e-12)


def test_bn_empty_batch():
    with pytest.raises(EmptyBatch):
        batch_normalize([], np.ones(2), np.zeros(2), np.zeros(2), np.ones(2))


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def small_net(seed=0, widths=(5, 4), k=3):
    return init_net_params(np.random.default_rng(seed), widths=widths, knn_k=k)


def test_identical_clouds_identical_features():
    rng = np.random.default_rng(8)
    pc = rng.standard_normal((14, 3))
    params = small_net()
    fx, fy, _ = extract_features(params, pc, pc.copy(), mode="train")
    np.testing.assert_array_equal(fx, fy)


def test_forward_finite_over_seeds():
    params = small_net(seed=1)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((12, 3)) * rng.uniform(0.01, 50)
        y = rng.standard_normal((9, 3)) * rng.uniform(0.01, 50)
        for mode in ("train", "eval"):
            fx, fy, _ = extract_features(params, x, y, mode=mode)
            assert np.all(np.isfinite(fx)) and np.all(np.isfinite(fy))


def test_rotation_changes_features_but_keeps_mn_centered():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((16, 3))
    y = rng.standard_normal((11, 3))
    params = small_net(seed=2)
    fx0, _, _ = extract_features(params, x, y, mode="train")
    pose = Pose(random_rotation_uniform(rng), np.zeros(3))
    fx1, _, cache = extract_features(params, apply_pose(pose, x), apply_pose(pose, y), mode="train")
    assert np.abs(fx1 - fx0).max() > 1e-6  # no invariance claimed
    for lc in cache.layers:
        assert np.abs(lc.mn_out[0].mean(axis=1)).max() < 1e-10
        assert np.abs(lc.mn_out[1].mean(axis=1)).max() < 1e-10
        # the shared scale is exactly the absolute raw source maximum
        assert lc.mn.beta == np.abs(lc.act[0]).max()


def test_forward_deterministic():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((13, 3))
    y = rng.standard_normal((13, 3))
    params = small_net(seed=3)
    fx1, fy1, _ = extract_features(params, x, y, mode="train")
    fx2, fy2, _ = extract_features(params, x, y, mode="train")
    np.testing.assert_array_equal(fx1, fx2)
    np.testing.assert_array_equal(fy1, fy2)


def test_forward_too_few_points():
    params = small_net(k=5)
    with pytest.raises(TooFewPoints):
        extract_features(params, np.zeros((5, 3)), np.ones((9, 3)))


# ---------------------------------------------------------------------------
# Source encoding (eval mode)
# ---------------------------------------------------------------------------

DESK_CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "desk_model.json"
NORMALIZATIONS = ["match_norm", "per_instance_norm", "none"]


def eval_net(kind):
    """The desk checkpoint's trained network, or a random one of the same shape."""
    if kind == "desk":
        return load_checkpoint(DESK_CHECKPOINT)[0]
    return init_net_params(np.random.default_rng(12))


def model_and_view(m, n, seed):
    """A model cloud and a posed, noisy partial view of it."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.5, 0.5, (m, 3))
    pose = Pose(random_rotation_uniform(rng), rng.uniform(-0.5, 0.5, 3))
    y = apply_pose(pose, x[rng.choice(m, n, replace=False)]) + 0.005 * rng.standard_normal((n, 3))
    return x, y


def joint_eval_forward(params, x, y, normalization):
    """Both clouds through each layer together, as train mode runs them, in eval mode."""
    knn = [knn_indices(p, params.knn_k) for p in (x, y)]
    feats = [x.T.copy(), y.T.copy()]
    for lp in params.layers:
        feats, _ = features._layer_forward(lp, feats, knn, "eval", normalization)
    return feats


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("normalization", NORMALIZATIONS)
def test_eval_source_descriptors_ignore_the_target(normalization):
    """In eval mode the source branch reads nothing of the target.

    Encoding a model once for many views rests on this. Train mode has no
    such property: its batch norm pools both clouds at every layer.
    """
    params = eval_net("random")
    x, y1 = model_and_view(60, 40, seed=30)
    _, y2 = model_and_view(60, 25, seed=31)
    y2 = 3.0 * y2 + 1.0
    fx1, fy1, c1 = extract_features(params, x, y1, mode="eval", normalization=normalization)
    fx2, fy2, c2 = extract_features(params, x, y2, mode="eval", normalization=normalization)
    assert same_bytes(fx1, fx2)
    assert [lc.mn.beta for lc in c1.layers] == [lc.mn.beta for lc in c2.layers]
    assert fy1.shape != fy2.shape
    tx1, _, _ = extract_features(params, x, y1, mode="train", normalization=normalization)
    tx2, _, _ = extract_features(params, x, y2, mode="train", normalization=normalization)
    assert not np.array_equal(tx1, tx2)


@pytest.mark.parametrize("normalization", NORMALIZATIONS)
@pytest.mark.parametrize("m, n", [(40, 30), (2048, 512)])
@pytest.mark.parametrize("net", ["random", "desk"])
def test_encodings_equal_eval_extract_features_bitwise(net, m, n, normalization):
    params = eval_net(net)
    x, y = model_and_view(m, n, seed=m + n)
    enc = encode_source(params, x, normalization)
    fy = encode_target(params, enc, y)
    fx_ref, fy_ref, cache = extract_features(params, x, y, mode="eval", normalization=normalization)
    assert same_bytes(enc.descriptors, fx_ref)
    assert same_bytes(fy, fy_ref)
    assert same_bytes(enc.knn, cache.knn[0])
    assert enc.betas == tuple(lc.mn.beta for lc in cache.layers)
    # and both equal the pair run through each layer together
    jx, jy = joint_eval_forward(params, x, y, normalization)
    assert same_bytes(enc.descriptors, jx)
    assert same_bytes(fy, jy)


def test_encoding_scales_follow_the_mode():
    params = eval_net("random")
    x, y = model_and_view(50, 30, seed=32)
    assert encode_source(params, x, "none").betas == (1.0,) * len(params.layers)
    enc = encode_source(params, x, "match_norm")
    _, _, cache = extract_features(params, x, y, mode="eval", normalization="match_norm")
    # under MN the target is divided by the source scale, under PI by its own
    assert [lc.mn.scale[1] for lc in cache.layers] == list(enc.betas)
    _, _, cache = extract_features(params, x, y, mode="eval", normalization="per_instance_norm")
    assert [lc.mn.scale[1] for lc in cache.layers] != list(enc.betas)


def test_match_normalize_one_cloud_form_equals_the_pair_form():
    rng = np.random.default_rng(33)
    ax = rng.standard_normal((4, 12))
    ay = 5.0 * rng.standard_normal((4, 7))
    for normalization in NORMALIZATIONS:
        ox, oy, stats = match_normalize(ax, ay, normalization)
        sx, sstats = match_normalize(ax, normalization=normalization)
        ty, tstats = match_normalize(ay, normalization=normalization, beta=sstats.beta)
        assert same_bytes(sx, ox) and same_bytes(ty, oy)
        assert stats.scale == sstats.scale + tstats.scale
    with pytest.raises(ValueError, match="beta"):
        match_normalize(ax, ay, beta=1.0)


# ---------------------------------------------------------------------------
# Backward pass vs. finite differences
# ---------------------------------------------------------------------------

def perturbed(params: NetParams, layer: int, name: str, flat_index: int, delta: float) -> NetParams:
    layers = list(params.layers)
    lp = layers[layer]
    fields = {f: np.array(getattr(lp, f)) for f in
              ("weight", "bias", "bn_gamma", "bn_beta", "bn_running_mean", "bn_running_var")}
    fields[name] = fields[name].copy()
    fields[name].flat[flat_index] += delta
    layers[layer] = LayerParams(**fields)
    return NetParams(layers=tuple(layers), knn_k=params.knn_k)


def projection_loss(params, x, y, wx, wy, mode, normalization):
    fx, fy, _ = extract_features(params, x, y, mode=mode, normalization=normalization)
    return float((wx * fx).sum() + (wy * fy).sum())


@pytest.mark.parametrize("normalization", ["match_norm", "per_instance_norm", "none"])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_backward_matches_finite_differences(mode, normalization):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((12, 3))
    y = rng.standard_normal((10, 3))
    params = small_net(seed=4)
    fx, fy, cache = extract_features(params, x, y, mode=mode, normalization=normalization)
    wx = rng.standard_normal(fx.shape)
    wy = rng.standard_normal(fy.shape)
    grads, _, _ = extract_features_backward(params, cache, wx, wy)

    h = 1e-5
    for li in range(len(params.layers)):
        for name in ("weight", "bias", "bn_gamma", "bn_beta"):
            analytic = grads[li][name]
            fd = np.zeros_like(analytic)
            for fi in range(analytic.size):
                lp = projection_loss(
                    perturbed(params, li, name, fi, +h), x, y, wx, wy, mode, normalization
                )
                lm = projection_loss(
                    perturbed(params, li, name, fi, -h), x, y, wx, wy, mode, normalization
                )
                fd.flat[fi] = (lp - lm) / (2 * h)
            # rtol on the array scale plus an atol floor: identically-zero
            # gradients (bias cancelled by the normalization that follows)
            # otherwise amplify bare FD noise into a huge relative error
            scale = max(np.abs(fd).max(), np.abs(analytic).max())
            err = np.abs(analytic - fd).max()
            assert err <= 5e-9 + 1e-4 * scale, f"layer {li} {name}: err {err:.2e} scale {scale:.2e}"


@pytest.mark.parametrize("layer_count", [1, 2, 3])
def test_backward_fd_all_depths(layer_count):
    rng = np.random.default_rng(12 + layer_count)
    widths = (6, 5, 4)[:layer_count]
    params = small_net(seed=5 + layer_count, widths=widths)
    x = rng.standard_normal((11, 3))
    y = rng.standard_normal((9, 3))
    fx, fy, cache = extract_features(params, x, y, mode="train")
    wx = rng.standard_normal(fx.shape)
    wy = rng.standard_normal(fy.shape)
    grads, _, _ = extract_features_backward(params, cache, wx, wy)

    h = 1e-5
    for li in range(layer_count):
        for name in ("weight", "bn_gamma"):
            analytic = grads[li][name]
            fd = np.zeros_like(analytic)
            for fi in range(analytic.size):
                lp = projection_loss(perturbed(params, li, name, fi, +h), x, y, wx, wy, "train", "match_norm")
                lm = projection_loss(perturbed(params, li, name, fi, -h), x, y, wx, wy, "train", "match_norm")
                fd.flat[fi] = (lp - lm) / (2 * h)
            rel = np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-6)
            assert rel < 1e-4, f"depth {layer_count} layer {li} {name}: rel {rel:.2e}"


def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((10, 3))
    y = rng.standard_normal((8, 3))
    params = small_net(seed=6)
    fx, fy, cache = extract_features(params, x, y, mode="train")
    grads, dx, dy = extract_features_backward(
        params, cache, np.zeros_like(fx), np.zeros_like(fy)
    )
    for g in grads:
        for v in g.values():
            np.testing.assert_array_equal(v, 0)
    np.testing.assert_array_equal(dx, 0)
    np.testing.assert_array_equal(dy, 0)


def test_backward_shape_mismatch():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((10, 3))
    y = rng.standard_normal((8, 3))
    params = small_net(seed=7)
    fx, fy, cache = extract_features(params, x, y)
    with pytest.raises(ShapeMismatch):
        extract_features_backward(params, cache, fx[:, :-1], fy)


def test_scale_path_constant_under_non_max_perturbation():
    rng = np.random.default_rng(22)
    ax = rng.standard_normal((3, 8))
    ay = rng.standard_normal((3, 6))
    _, _, stats = match_normalize(ax, ay)
    flat = int(np.argmax(np.abs(ax)))
    bumped = ax.copy()
    other = (flat + 1) % ax.size  # any non-max element
    bumped.flat[other] += 1e-6
    _, _, stats2 = match_normalize(bumped, ay)
    assert stats.beta == stats2.beta


def test_input_gradients_match_fd():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((9, 3))
    y = rng.standard_normal((8, 3))
    params = small_net(seed=8, widths=(4,), k=2)
    fx, fy, cache = extract_features(params, x, y, mode="train")
    wx = rng.standard_normal(fx.shape)
    wy = rng.standard_normal(fy.shape)
    _, dx, dy = extract_features_backward(params, cache, wx, wy)

    # kNN graph and pooling argmaxes must not flip under the probe step
    h = 1e-7
    fd = np.zeros_like(x)
    for fi in range(x.size):
        xp = x.copy()
        xp.flat[fi] += h
        xm = x.copy()
        xm.flat[fi] -= h
        fd.flat[fi] = (
            projection_loss(params, xp, y, wx, wy, "train", "match_norm")
            - projection_loss(params, xm, y, wx, wy, "train", "match_norm")
        ) / (2 * h)
    rel = np.abs(dx - fd).max() / max(np.abs(fd).max(), 1e-8)
    assert rel < 1e-3


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    params = small_net(seed=9, widths=(5, 4), k=4)
    path = tmp_path / "model.json"
    save_checkpoint(path, params, normalization="per_instance_norm")
    loaded, norm = load_checkpoint(path)
    assert norm == "per_instance_norm"
    assert loaded.knn_k == 4
    for a, b in zip(params.layers, loaded.layers):
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bn_running_var, b.bn_running_var)


def test_checkpoint_deterministic_bytes(tmp_path):
    params = small_net(seed=10)
    save_checkpoint(tmp_path / "a.json", params)
    save_checkpoint(tmp_path / "b.json", params)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_checkpoint_rejects_foreign_file(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{}")
    with pytest.raises(ValueError):
        load_checkpoint(p)
