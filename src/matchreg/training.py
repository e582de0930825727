"""Training loop, Adam optimizer, evaluation helpers, and the ablation driver.

The batch gradient is the mean of per-sample end-to-end gradients; gradients
and batch-norm running statistics are reduced in sample-index order so a
fixed seed reproduces parameters bitwise. The ``normalization`` switch is
the ablation axis: shared source scale (``match_norm``), one scale per
cloud (``per_instance_norm``), or no instance normalization at all.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import EmptyGroundTruth, EmptyInput, NaNLoss
from .features import (
    NetParams,
    check_normalization,
    encode_source,
    fold_running_stats,
    save_checkpoint,
)
from .matching import (
    DEFAULT_ALPHA,
    DEFAULT_LAMBDA,
    DEFAULT_MATCH_THRESHOLD,
    DEFAULT_SINKHORN_ITERS,
)
from .metrics import (
    DEFAULT_INLIER_THRESHOLD,
    DEFAULT_ROTATION_THRESHOLDS_DEG,
    DEFAULT_TRANSLATION_THRESHOLDS_M,
    MetricsReport,
    add_score,
    build_report,
    count_true_inliers,
    model_diameter,
    rotation_error_deg,
    translation_error,
)
from .solver import RegisterOptions, register
from .supervision import DEFAULT_GT_THRESHOLD, build_gt_matrix, end_to_end_gradient
from .synth import PairSample

LEARNABLE_FIELDS = ("weight", "bias", "bn_gamma", "bn_beta")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 8
    iterations: int = 2000
    lam: float = DEFAULT_LAMBDA
    sinkhorn_iters: int = 20       # training-time unroll depth
    eval_sinkhorn_iters: int = DEFAULT_SINKHORN_ITERS  # used for validation / final evaluation
    normalization: str = "match_norm"
    seed: int = 0
    checkpoint_every: int = 200
    gt_thresh: float = DEFAULT_GT_THRESHOLD
    alpha: float = DEFAULT_ALPHA
    tau: float = DEFAULT_MATCH_THRESHOLD

    def __post_init__(self):
        if not self.learning_rate >= 0:  # rejects NaN too
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.sinkhorn_iters < 1:
            raise ValueError("sinkhorn_iters must be >= 1")
        if self.eval_sinkhorn_iters < 1:
            raise ValueError("eval_sinkhorn_iters must be >= 1")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if not self.gt_thresh > 0:
            raise ValueError(f"gt_thresh must be positive, got {self.gt_thresh}")
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        check_normalization(self.normalization)


@dataclass
class TrainLog:
    config: dict
    records: list[dict] = field(default_factory=list)
    val_records: list[dict] = field(default_factory=list)

    def write_jsonl(self, path) -> None:
        lines = [json.dumps({"type": "config", **self.config}, sort_keys=True)]
        lines += [json.dumps({"type": "loss", **r}, sort_keys=True) for r in self.records]
        lines += [json.dumps({"type": "validation", **r}, sort_keys=True) for r in self.val_records]
        Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    step: int
    m: list[dict[str, NDArray[np.float64]]]
    v: list[dict[str, NDArray[np.float64]]]


def init_adam(params: NetParams) -> AdamState:
    zeros = [
        {f: np.zeros_like(getattr(lp, f)) for f in LEARNABLE_FIELDS}
        for lp in params.layers
    ]
    return AdamState(
        step=0,
        m=[{k: v.copy() for k, v in layer.items()} for layer in zeros],
        v=zeros,
    )


def adam_step(
    params: NetParams,
    grads: list[dict[str, NDArray[np.float64]]],
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[NetParams, AdamState]:
    """One Adam update over the learnable fields; running stats untouched."""
    state.step += 1
    t = state.step
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    new_layers = []
    for li, lp in enumerate(params.layers):
        updates = {}
        for name in LEARNABLE_FIELDS:
            g = grads[li][name]
            state.m[li][name] = b1 * state.m[li][name] + (1 - b1) * g
            state.v[li][name] = b2 * state.v[li][name] + (1 - b2) * g * g
            m_hat = state.m[li][name] / (1 - b1**t)
            v_hat = state.v[li][name] / (1 - b2**t)
            updates[name] = getattr(lp, name) - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        new_layers.append(replace(lp, **updates))
    return NetParams(layers=tuple(new_layers), knn_k=params.knn_k), state


def _fold_running_stats(
    params: NetParams,
    per_sample_stats: list[list[tuple[NDArray[np.float64], NDArray[np.float64]]]],
) -> NetParams:
    """Apply batch-norm momentum updates sample by sample, in index order."""
    layers = []
    for li, lp in enumerate(params.layers):
        rm, rv = fold_running_stats(
            lp.bn_running_mean, lp.bn_running_var, [stats[li] for stats in per_sample_stats]
        )
        layers.append(replace(lp, bn_running_mean=rm, bn_running_var=rv))
    return NetParams(layers=tuple(layers), knn_k=params.knn_k)


# ---------------------------------------------------------------------------
# Evaluation loop (shared by validation, ablation, and the CLI)
# ---------------------------------------------------------------------------

def evaluate_dataset(
    params: NetParams,
    samples: list[PairSample],
    opts: RegisterOptions,
    rot_thresholds=DEFAULT_ROTATION_THRESHOLDS_DEG,
    trans_thresholds=DEFAULT_TRANSLATION_THRESHOLDS_M,
    inlier_thresh: float = DEFAULT_INLIER_THRESHOLD,
    oracle: bool = False,
    rotation_keys: list[str] | None = None,
    translation_keys: list[str] | None = None,
) -> MetricsReport:
    """Register every sample and aggregate the standard metric tables.

    A source equal to the previous sample's is not measured or encoded
    again: its diameter and its ``encode_source`` encoding are reused, so a
    dataset of many views of one model encodes the model once per run of
    views. The oracle scores the ground-truth poses and encodes nothing.
    """
    if not samples:
        raise EmptyInput("no samples to evaluate")
    records = []
    previous_source, diameter, encoding = None, 0.0, None
    for s in samples:
        if not np.array_equal(s.source, previous_source):
            previous_source, diameter = s.source, model_diameter(s.source)
            encoding = None if oracle else encode_source(params, s.source, opts.normalization)
        if oracle:
            pose, matches, icp_iters, converged = s.gt_pose, (), 0, True
        else:
            result = register(params, s.source, s.target, opts, source=encoding)
            pose, matches = result.pose, result.matches
            icp_iters, converged = result.icp_iterations_used, result.converged
        add_mean, add_pass = add_score(s.source, pose, s.gt_pose, diameter)
        records.append(
            {
                "rotation_deg": rotation_error_deg(pose.rotation, s.gt_pose.rotation),
                "translation": translation_error(pose.translation, s.gt_pose.translation),
                "add_mean": add_mean,
                "add_pass": bool(add_pass),
                "pred_matches": len(matches),
                "true_inliers": count_true_inliers(
                    matches, s.source, s.target, s.gt_pose, inlier_thresh
                ),
                "converged": bool(converged),
                "icp_iterations": icp_iters,
                "shape_id": s.shape_id,
            }
        )
    return build_report(
        records, rot_thresholds, trans_thresholds,
        rotation_keys=rotation_keys, translation_keys=translation_keys,
    )


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train(
    cfg: TrainConfig,
    data: list[PairSample],
    params: NetParams,
    val_data: list[PairSample] | None = None,
    checkpoint_dir=None,
) -> tuple[NetParams, TrainLog]:
    """Adam on the mean batch NLL of the end-to-end matching pipeline.

    Deterministic for a fixed config and data; raises ``NaNLoss`` (with the
    iteration recorded) the moment a non-finite batch loss or batch gradient
    appears, before it reaches the parameters.
    """
    if not data:
        raise EmptyInput("no training samples")
    rng = np.random.default_rng(cfg.seed)
    state = init_adam(params)
    log = TrainLog(config={**asdict(cfg), "samples": len(data)})
    gt_cache: dict[int, object] = {}
    knn_cache: dict[int, list] = {}  # a sample's clouds never change, nor their graphs

    if checkpoint_dir is not None:
        Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)

    for it in range(1, cfg.iterations + 1):
        picks = rng.integers(0, len(data), size=cfg.batch_size)
        loss_sum = 0.0
        used = 0
        skipped = 0
        grad_sum: list[dict[str, NDArray[np.float64]]] | None = None
        batch_stats = []
        for i in map(int, picks):
            sample = data[i]
            gt = gt_cache.get(i)
            if gt is None:
                gt = build_gt_matrix(sample.source, sample.target, sample.gt_pose, cfg.gt_thresh)
                gt_cache[i] = gt
            try:
                res = end_to_end_gradient(
                    params, sample.source, sample.target, gt,
                    lam=cfg.lam, iters=cfg.sinkhorn_iters, alpha=cfg.alpha,
                    normalization=cfg.normalization, mode="train", knn=knn_cache.get(i),
                )
            except EmptyGroundTruth:
                skipped += 1
                continue
            knn_cache[i] = res.knn
            loss_sum += res.loss
            used += 1
            batch_stats.append(res.bn_batch_stats)
            if grad_sum is None:
                grad_sum = [{k: v.copy() for k, v in g.items()} for g in res.param_grads]
            else:
                for acc, g in zip(grad_sum, res.param_grads):
                    for k in acc:
                        acc[k] += g[k]
        if used == 0:
            log.records.append({"iteration": it, "loss": None, "skipped": skipped})
            continue
        batch_loss = loss_sum / used
        if not np.isfinite(batch_loss):
            raise NaNLoss(it)
        mean_grads = [{k: v / used for k, v in g.items()} for g in grad_sum]
        if not all(np.all(np.isfinite(v)) for g in mean_grads for v in g.values()):
            raise NaNLoss(it)
        params, state = adam_step(params, mean_grads, state, cfg)
        params = _fold_running_stats(params, batch_stats)
        log.records.append({"iteration": it, "loss": batch_loss, "skipped": skipped})

        if cfg.checkpoint_every > 0 and it % cfg.checkpoint_every == 0:
            if checkpoint_dir is not None:
                save_checkpoint(
                    Path(checkpoint_dir) / f"checkpoint_{it:06d}.json",
                    params,
                    normalization=cfg.normalization,
                )
            if val_data:
                report = evaluate_dataset(
                    params, val_data, eval_options(cfg), inlier_thresh=DEFAULT_INLIER_THRESHOLD
                )
                log.val_records.append(
                    {
                        "iteration": it,
                        "mean_rotation_deg": float(
                            np.mean([r["rotation_deg"] for r in report.per_sample])
                        ),
                        "mean_translation": float(
                            np.mean([r["translation"] for r in report.per_sample])
                        ),
                        "mean_pred_matches": report.mean_pred_matches,
                        "mean_true_inliers": report.mean_true_inliers,
                    }
                )
    return params, log


def eval_options(cfg: TrainConfig) -> RegisterOptions:
    return RegisterOptions(
        lam=cfg.lam,
        sinkhorn_iters=cfg.eval_sinkhorn_iters,
        tau=cfg.tau,
        alpha=cfg.alpha,
        normalization=cfg.normalization,
        use_icp=False,
    )


# ---------------------------------------------------------------------------
# Ablation
# ---------------------------------------------------------------------------

@dataclass
class AblationReport:
    mode_a: str
    mode_b: str
    report_a: MetricsReport
    report_b: MetricsReport

    def to_json_dict(self) -> dict:
        return {
            "mode_a": self.mode_a,
            "mode_b": self.mode_b,
            "report_a": self.report_a.to_json_dict(),
            "report_b": self.report_b.to_json_dict(),
        }


def ablate(
    cfg_a: TrainConfig,
    cfg_b: TrainConfig,
    train_data: list[PairSample],
    holdout: list[PairSample],
    params: NetParams,
    rot_thresholds=DEFAULT_ROTATION_THRESHOLDS_DEG,
    trans_thresholds=DEFAULT_TRANSLATION_THRESHOLDS_M,
    inlier_thresh: float = DEFAULT_INLIER_THRESHOLD,
) -> AblationReport:
    """Train twice, identical except the normalization stage, compare heads-up."""
    if replace(cfg_a, normalization=cfg_b.normalization) != cfg_b:
        raise ValueError("ablation configs must be identical except normalization")
    params_a, _ = train(cfg_a, train_data, params)
    params_b, _ = train(cfg_b, train_data, params)
    report_a = evaluate_dataset(
        params_a, holdout, eval_options(cfg_a),
        rot_thresholds, trans_thresholds, inlier_thresh,
    )
    report_b = evaluate_dataset(
        params_b, holdout, eval_options(cfg_b),
        rot_thresholds, trans_thresholds, inlier_thresh,
    )
    return AblationReport(
        mode_a=cfg_a.normalization, mode_b=cfg_b.normalization,
        report_a=report_a, report_b=report_b,
    )
