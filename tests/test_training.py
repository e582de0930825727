"""Training loop behavior: determinism, Adam, learning progress, ablation."""

import numpy as np
import pytest

from matchreg import features, training
from matchreg.errors import NaNLoss
from matchreg.features import init_net_params
from matchreg.metrics import (
    DEFAULT_INLIER_THRESHOLD,
    count_true_inliers,
    rotation_error_deg,
    translation_error,
)
from matchreg.solver import register
from matchreg.synth import SynthConfig, generate_dataset
from matchreg.training import (
    TrainConfig,
    ablate,
    adam_step,
    eval_options,
    evaluate_dataset,
    init_adam,
    train,
)

EASY_SYNTH = SynthConfig(
    m=96, n=64, noise_sigma=0.0, outlier_fraction=0.0,
    rotation_max_deg=45.0, scale_range=(1.0, 1.0), shapes=("box",),
    hpr_gamma=1e4, translation_bound=0.2, seed=100,
)


def small_params(seed=0):
    return init_net_params(np.random.default_rng(seed), widths=(8, 8), knn_k=4)


def quick_cfg(**kw):
    base = dict(
        iterations=5, batch_size=2, sinkhorn_iters=8, eval_sinkhorn_iters=12,
        checkpoint_every=0, seed=3,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_zero_learning_rate_keeps_learnables_bitwise():
    data = generate_dataset(EASY_SYNTH, 6)
    params0 = small_params()
    params, log = train(quick_cfg(learning_rate=0.0, iterations=3), data, params0)
    for before, after in zip(params0.layers, params.layers):
        np.testing.assert_array_equal(before.weight, after.weight)
        np.testing.assert_array_equal(before.bias, after.bias)
        np.testing.assert_array_equal(before.bn_gamma, after.bn_gamma)
        np.testing.assert_array_equal(before.bn_beta, after.bn_beta)
    assert len(log.records) == 3


def test_adam_zero_gradient_is_identity():
    params = small_params(1)
    state = init_adam(params)
    zero = [
        {k: np.zeros_like(getattr(lp, k)) for k in ("weight", "bias", "bn_gamma", "bn_beta")}
        for lp in params.layers
    ]
    updated, _ = adam_step(params, zero, state, quick_cfg())
    for a, b in zip(params.layers, updated.layers):
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bn_gamma, b.bn_gamma)


def test_training_is_bitwise_reproducible():
    data = generate_dataset(EASY_SYNTH, 8)
    p1, log1 = train(quick_cfg(), data, small_params(2))
    p2, log2 = train(quick_cfg(), data, small_params(2))
    for a, b in zip(p1.layers, p2.layers):
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bn_running_mean, b.bn_running_mean)
    assert [r["loss"] for r in log1.records] == [r["loss"] for r in log2.records]


def test_training_loss_is_finite_and_logged():
    data = generate_dataset(EASY_SYNTH, 6)
    _, log = train(quick_cfg(iterations=4), data, small_params(3))
    assert len(log.records) == 4
    for r in log.records:
        assert r["loss"] is not None and np.isfinite(r["loss"])


def test_non_finite_gradient_raises_before_the_update(monkeypatch):
    data = generate_dataset(EASY_SYNTH, 4)
    real_gradient = training.end_to_end_gradient

    def nan_gradient(*args, **kwargs):
        res = real_gradient(*args, **kwargs)
        res.param_grads[0]["weight"][0, 0] = np.nan
        return res

    def no_update(*args, **kwargs):
        raise AssertionError("adam_step ran on a non-finite gradient")

    monkeypatch.setattr(training, "end_to_end_gradient", nan_gradient)
    monkeypatch.setattr(training, "adam_step", no_update)
    with pytest.raises(NaNLoss) as exc:
        train(quick_cfg(), data, small_params())
    assert exc.value.iteration == 1


def test_normalization_switch_changes_outputs_not_shapes():
    data = generate_dataset(EASY_SYNTH, 6)
    p_mn, _ = train(quick_cfg(normalization="match_norm"), data, small_params(4))
    p_pi, _ = train(quick_cfg(normalization="per_instance_norm"), data, small_params(4))
    p_no, _ = train(quick_cfg(normalization="none"), data, small_params(4))
    for a, b, c in zip(p_mn.layers, p_pi.layers, p_no.layers):
        assert a.weight.shape == b.weight.shape == c.weight.shape
    assert any(
        np.abs(a.weight - b.weight).max() > 0 for a, b in zip(p_mn.layers, p_pi.layers)
    )


@pytest.mark.slow
def test_desk_scale_training_halves_loss():
    # single easy shape, limited rotations, default backbone: the loss must
    # at least halve within 300 iterations
    data = generate_dataset(EASY_SYNTH, 200)
    cfg = TrainConfig(
        iterations=300, batch_size=8, sinkhorn_iters=15, seed=5, checkpoint_every=0
    )
    params, log = train(cfg, data, init_net_params(np.random.default_rng(5)))
    losses = [r["loss"] for r in log.records]
    first = losses[0]
    last = float(np.mean(losses[-10:]))
    assert last < 0.5 * first, f"loss {first:.3f} -> {last:.3f}"


def test_validation_records_appear():
    data = generate_dataset(EASY_SYNTH, 6)
    val = generate_dataset(SynthConfig(**{**EASY_SYNTH.__dict__, "seed": 101}), 3)
    _, log = train(quick_cfg(iterations=4, checkpoint_every=2), data, small_params(6), val_data=val)
    assert [v["iteration"] for v in log.val_records] == [2, 4]
    for v in log.val_records:
        assert np.isfinite(v["mean_rotation_deg"])


def test_checkpoints_written(tmp_path):
    data = generate_dataset(EASY_SYNTH, 6)
    train(quick_cfg(iterations=4, checkpoint_every=2), data, small_params(7), checkpoint_dir=tmp_path)
    assert (tmp_path / "checkpoint_000002.json").exists()
    assert (tmp_path / "checkpoint_000004.json").exists()


def test_train_log_jsonl_round_trip(tmp_path):
    import json

    data = generate_dataset(EASY_SYNTH, 6)
    _, log = train(quick_cfg(iterations=3), data, small_params(8))
    path = tmp_path / "log.jsonl"
    log.write_jsonl(path)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["type"] == "config"
    assert lines[0]["normalization"] == "match_norm"
    assert sum(1 for l in lines if l["type"] == "loss") == 3


def test_ablate_rejects_mismatched_configs():
    data = generate_dataset(EASY_SYNTH, 4)
    cfg_a = quick_cfg(normalization="match_norm")
    cfg_b = quick_cfg(normalization="per_instance_norm", iterations=7)
    with pytest.raises(ValueError):
        ablate(cfg_a, cfg_b, data, data, small_params(9))


def test_ablate_identical_configs_identical_reports():
    data = generate_dataset(EASY_SYNTH, 6)
    holdout = generate_dataset(SynthConfig(**{**EASY_SYNTH.__dict__, "seed": 102}), 3)
    cfg = quick_cfg()
    rep = ablate(cfg, cfg, data, holdout, small_params(10))
    assert rep.report_a.rotation_map == rep.report_b.rotation_map
    assert rep.report_a.mean_pred_matches == rep.report_b.mean_pred_matches
    assert rep.report_a.mean_true_inliers == rep.report_b.mean_true_inliers


def test_evaluate_dataset_oracle_mode_is_perfect():
    data = generate_dataset(EASY_SYNTH, 4)
    report = evaluate_dataset(
        small_params(11), data, eval_options(quick_cfg()), oracle=True
    )
    assert all(v == 1.0 for v in report.rotation_map.values())
    assert all(v == 1.0 for v in report.translation_map.values())
    assert report.add_rate == 1.0


def test_evaluate_dataset_reuses_diameter_of_a_repeated_source(monkeypatch):
    from matchreg import features, training

    data = generate_dataset(EASY_SYNTH, 2)
    repeated = [data[0], data[0], data[1], data[1], data[0]]
    calls = []
    diameter = training.model_diameter

    def counting(points):
        calls.append(len(points))
        return diameter(points)

    monkeypatch.setattr(training, "model_diameter", counting)
    report = evaluate_dataset(small_params(), repeated, eval_options(quick_cfg()))
    assert len(calls) == 3
    assert len(report.per_sample) == 5


def test_evaluate_dataset_encodes_a_repeated_source_once(monkeypatch):
    data = generate_dataset(EASY_SYNTH, 2)
    repeated = [data[0], data[0], data[1], data[1], data[0]]
    calls = []
    encode = training.encode_source

    def counting(params, points, normalization):
        calls.append(len(points))
        return encode(params, points, normalization)

    monkeypatch.setattr(training, "encode_source", counting)
    params, opts = small_params(), eval_options(quick_cfg())
    report = evaluate_dataset(params, repeated, opts)
    assert len(calls) == 3
    # the report is the one a plain register call per sample gives
    for rec, s in zip(report.per_sample, repeated):
        plain = register(params, s.source, s.target, opts)
        assert rec["pred_matches"] == len(plain.matches)
        assert rec["converged"] == plain.converged
        assert rec["rotation_deg"] == rotation_error_deg(plain.pose.rotation, s.gt_pose.rotation)
        assert rec["translation"] == translation_error(plain.pose.translation, s.gt_pose.translation)
        assert rec["true_inliers"] == count_true_inliers(
            plain.matches, s.source, s.target, s.gt_pose, DEFAULT_INLIER_THRESHOLD
        )
    evaluate_dataset(params, repeated, opts, oracle=True)
    assert len(calls) == 3  # the oracle encodes nothing


def test_train_builds_the_graphs_of_each_drawn_sample_once(monkeypatch):
    data = generate_dataset(EASY_SYNTH, 3)
    clouds = []
    knn = features.knn_indices

    def counting(points, k):
        clouds.append(points.tobytes())
        return knn(points, k)

    monkeypatch.setattr(features, "knn_indices", counting)
    train(quick_cfg(iterations=4, batch_size=3), data, small_params())  # 12 draws
    assert clouds and len(set(clouds)) == len(clouds) <= 2 * len(data)


@pytest.mark.parametrize(
    "field, value",
    [("iterations", 0), ("lam", 0.0), ("lam", float("nan")), ("sinkhorn_iters", 0),
     ("eval_sinkhorn_iters", 0), ("tau", 0.0), ("tau", 1.0), ("alpha", float("nan")),
     ("alpha", float("inf")), ("normalization", "bogus")],
)
def test_train_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        quick_cfg(**{field: value})
