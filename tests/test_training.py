"""Training loop behavior: determinism, Adam, learning progress, ablation."""

import hashlib
import multiprocessing
import os
from dataclasses import is_dataclass, replace

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
from matchreg.supervision import build_gt_matrix, end_to_end_gradient
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


# CPU sets a test's process may use, as os.sched_getaffinity reports them: one
# CPU trains in this process, more train on that many worker processes
CPU_SETS = [pytest.param({0}, id="1cpu"), pytest.param({0, 1}, id="2cpus"),
            pytest.param({0, 1, 2}, id="3cpus")]


def on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


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


def layer_bytes(params):
    fields = ("weight", "bias", "bn_gamma", "bn_beta", "bn_running_mean", "bn_running_var")
    return [[getattr(lp, f).tobytes() for f in fields] for lp in params.layers]


def checkpoint_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize(
    "cpus, blas",
    [pytest.param({0}, "found", id="1cpu"), pytest.param({0, 1}, "found", id="2cpus"),
     pytest.param({0, 1, 2}, "found", id="3cpus"),
     pytest.param({0, 1}, "missing", id="2cpus-no-blas-setter")],
)
def test_training_is_bitwise_reproducible(monkeypatch, tmp_path, cpus, blas):
    # the same bytes as a run in this process, for any worker count; batch 3
    # gives two workers uneven chunks
    data = generate_dataset(EASY_SYNTH, 8)
    val = generate_dataset(SynthConfig(**{**EASY_SYNTH.__dict__, "seed": 101}), 2)
    cfg = quick_cfg(batch_size=3, checkpoint_every=2)
    on_cpus(monkeypatch, {0})
    p1, log1 = train(cfg, data, small_params(2), val_data=val, checkpoint_dir=tmp_path / "a")

    pools = []
    real_pool = training.ProcessPoolExecutor

    def recording_pool(workers, **kwargs):
        pools.append(workers)
        return real_pool(workers, **kwargs)

    on_cpus(monkeypatch, cpus)
    monkeypatch.setattr(training, "ProcessPoolExecutor", recording_pool)
    if blas == "missing":  # no way to hold a worker's BLAS at one thread: no workers
        monkeypatch.setattr(training, "_blas_thread_setter", lambda: None)
    p2, log2 = train(cfg, data, small_params(2), val_data=val, checkpoint_dir=tmp_path / "b")
    workers = min(len(cpus), cfg.batch_size) if blas == "found" else 1
    assert pools == ([workers] if workers > 1 else [])
    assert multiprocessing.active_children() == []

    assert layer_bytes(p1) == layer_bytes(p2)
    assert log1.records == log2.records
    assert log1.val_records == log2.val_records and len(log1.val_records) == 2
    assert checkpoint_bytes(tmp_path / "a") == checkpoint_bytes(tmp_path / "b")


def test_training_loss_is_finite_and_logged():
    data = generate_dataset(EASY_SYNTH, 6)
    _, log = train(quick_cfg(iterations=4), data, small_params(3))
    assert len(log.records) == 4
    for r in log.records:
        assert r["loss"] is not None and np.isfinite(r["loss"])


@pytest.mark.parametrize("cpus", CPU_SETS)
def test_one_step_is_adam_over_the_draw_order_mean_then_the_fold(monkeypatch, cpus):
    # the reduction a step must keep however its samples are computed
    on_cpus(monkeypatch, cpus)
    data = generate_dataset(EASY_SYNTH, 3)
    cfg = quick_cfg(iterations=1, batch_size=4)  # four draws of three: one repeats
    picks = np.random.default_rng(cfg.seed).integers(0, len(data), size=cfg.batch_size)
    params0 = small_params(4)
    results = []
    for s in (data[i] for i in picks):
        gt = build_gt_matrix(s.source, s.target, s.gt_pose, cfg.gt_thresh)
        results.append(end_to_end_gradient(
            params0, s.source, s.target, gt, lam=cfg.lam, iters=cfg.sinkhorn_iters,
            alpha=cfg.alpha, normalization=cfg.normalization,
        ))
    loss = results[0].loss
    grads = [{k: v.copy() for k, v in g.items()} for g in results[0].param_grads]
    for r in results[1:]:
        loss += r.loss
        for acc, g in zip(grads, r.param_grads):
            for k in acc:
                acc[k] += g[k]
    mean = [{k: v / len(results) for k, v in g.items()} for g in grads]
    expected, _ = adam_step(params0, mean, init_adam(params0), cfg)
    momentum = training.BN_MOMENTUM
    layers = []
    for li, lp in enumerate(expected.layers):
        rm, rv = lp.bn_running_mean, lp.bn_running_var
        for r in results:
            batch_mean, batch_var = r.bn_batch_stats[li]
            rm = momentum * rm + (1 - momentum) * batch_mean
            rv = momentum * rv + (1 - momentum) * batch_var
        layers.append(replace(lp, bn_running_mean=rm, bn_running_var=rv))

    params, log = train(cfg, data, params0)
    assert log.records == [{"iteration": 1, "loss": loss / len(results), "skipped": 0}]
    for got, want in zip(params.layers, layers):
        for name in ("weight", "bias", "bn_gamma", "bn_beta", "bn_running_mean", "bn_running_var"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("cpus", CPU_SETS[:2])
def test_non_finite_gradient_raises_before_the_update(monkeypatch, cpus):
    # with workers the patched gradient runs in the forked children
    on_cpus(monkeypatch, cpus)
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
    assert multiprocessing.active_children() == []


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


def test_ablate_rejects_mismatched_configs(monkeypatch):
    data = generate_dataset(EASY_SYNTH, 4)
    cfg_a = quick_cfg(normalization="match_norm")
    cfg_b = quick_cfg(normalization="per_instance_norm", iterations=7)
    with pytest.raises(ValueError):
        ablate(cfg_a, cfg_b, data, data, small_params(9))
    # bad metric thresholds are rejected before either arm trains
    runs = []
    monkeypatch.setattr(training, "train", lambda *a, **kw: runs.append(a))
    for kw in ({"inlier_thresh": float("nan")}, {"trans_thresholds": (0.01, 0.01)}):
        with pytest.raises(ValueError):
            ablate(cfg_a, replace(cfg_a, normalization="none"), data, data, small_params(9), **kw)
    assert runs == []


def test_ablate_identical_configs_identical_reports():
    data = generate_dataset(EASY_SYNTH, 6)
    holdout = generate_dataset(SynthConfig(**{**EASY_SYNTH.__dict__, "seed": 102}), 3)
    cfg = quick_cfg()
    rep = ablate(cfg, cfg, data, holdout, small_params(10))
    assert rep.report_a.rotation_map == rep.report_b.rotation_map
    assert rep.report_a.mean_pred_matches == rep.report_b.mean_pred_matches
    assert rep.report_a.mean_true_inliers == rep.report_b.mean_true_inliers


def test_evaluate_dataset_rejects_a_repeated_threshold(monkeypatch):
    data = generate_dataset(EASY_SYNTH, 2)
    calls = []
    monkeypatch.setattr(training, "register", lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match="rotation threshold 5.0"):
        evaluate_dataset(small_params(), data, eval_options(quick_cfg()), rot_thresholds=(5, 5.0))
    with pytest.raises(ValueError, match="inlier_thresh"):
        evaluate_dataset(small_params(), data, eval_options(quick_cfg()), inlier_thresh=float("nan"))
    assert calls == []  # rejected before any sample is registered


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


@pytest.mark.parametrize("cpus", CPU_SETS[:2])
def test_train_builds_the_graphs_of_each_drawn_sample_once(monkeypatch, tmp_path, cpus):
    # workers build graphs in their own processes, so each build is written
    # to a file as (process, cloud): no process may build a cloud twice
    on_cpus(monkeypatch, cpus)
    data = generate_dataset(EASY_SYNTH, 3)
    builds = tmp_path / "builds.txt"
    knn = features.knn_indices

    def counting(points, k):
        with builds.open("a") as f:
            f.write(f"{os.getpid()} {hashlib.sha256(points.tobytes()).hexdigest()}\n")
        return knn(points, k)

    monkeypatch.setattr(features, "knn_indices", counting)
    train(quick_cfg(iterations=4, batch_size=3), data, small_params())  # 12 draws
    lines = builds.read_text().splitlines()
    assert lines and len(set(lines)) == len(lines)
    assert len({line.split()[1] for line in lines}) <= 2 * len(data)
    pids = {int(line.split()[0]) for line in lines}
    if len(cpus) == 1:
        assert pids == {os.getpid()}
    else:  # the workers do all sample work
        assert os.getpid() not in pids


def arrays_in(obj):
    """Every numpy array inside ``obj``, through tuples, lists and dataclasses."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from arrays_in(item)
    elif is_dataclass(obj):
        yield from arrays_in(list(vars(obj).values()))


def test_sample_cache_keeps_no_dense_labels():
    # a cached sample costs O(M + N), not its (M+1) x (N+1) ground-truth matrix
    data = generate_dataset(EASY_SYNTH, 2)
    samples = training._SampleGradients(quick_cfg(), data)
    first, _, again = samples(small_params(), [0, 1, 0])
    dense = (EASY_SYNTH.m + 1) * (EASY_SYNTH.n + 1)
    assert sorted(samples.cache) == [0, 1]
    assert all(a.size < dense for a in arrays_in(list(samples.cache.values())))
    assert again.loss == first.loss
    for g, h in zip(again.param_grads, first.param_grads):
        assert all(g[k].tobytes() == h[k].tobytes() for k in g)


@pytest.mark.parametrize(
    "field, value",
    [("iterations", 0), ("lam", 0.0), ("lam", float("nan")), ("sinkhorn_iters", 0),
     ("eval_sinkhorn_iters", 0), ("tau", 0.0), ("tau", 1.0), ("alpha", float("nan")),
     ("alpha", float("inf")), ("normalization", "bogus"), ("seed", -1),
     ("checkpoint_every", -3)],
)
def test_train_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        quick_cfg(**{field: value})
