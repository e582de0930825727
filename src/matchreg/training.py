"""Training loop, Adam optimizer, evaluation helpers, and the ablation driver.

The batch gradient is the mean of per-sample end-to-end gradients; gradients
and batch-norm running statistics are reduced once per step, in draw order,
so a fixed seed reproduces parameters bitwise. ``train`` computes each
step's samples on ``min(CPUs, batch_size)`` worker processes, each with its
BLAS at one thread, and its results are byte-identical for any worker count.
The ``normalization`` switch is the ablation axis: shared source scale
(``match_norm``), one scale per cloud (``per_instance_norm``), or no instance
normalization at all.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import EmptyInput, NaNLoss
from .features import (
    NetParams,
    encode_source,
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
    check_thresholds,
    count_true_inliers,
    model_diameter,
    rotation_error_deg,
    translation_error,
)
from .solver import RegisterOptions, register
from .supervision import (
    DEFAULT_GT_THRESHOLD,
    EndToEndResult,
    build_gt_matrix,
    end_to_end_gradient,
)
from .synth import PairSample

LEARNABLE_FIELDS = ("weight", "bias", "bn_gamma", "bn_beta")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
BN_MOMENTUM = 0.9  # running = momentum * running + (1 - momentum) * batch


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
        if self.sinkhorn_iters < 1:
            raise ValueError("sinkhorn_iters must be >= 1")
        if self.eval_sinkhorn_iters < 1:
            raise ValueError("eval_sinkhorn_iters must be >= 1")
        if not self.gt_thresh > 0:
            raise ValueError(f"gt_thresh must be positive, got {self.gt_thresh}")
        eval_options(self)  # lam, tau, alpha and normalization, checked by RegisterOptions


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


def fold_running_stats(
    params: NetParams,
    per_sample_stats: list[list[tuple[NDArray[np.float64], NDArray[np.float64]]]],
) -> NetParams:
    """Momentum updates of each layer's running statistics, one per sample, in order."""
    layers = []
    for li, lp in enumerate(params.layers):
        mean, var = lp.bn_running_mean, lp.bn_running_var
        for stats in per_sample_stats:
            batch_mean, batch_var = stats[li]
            mean = BN_MOMENTUM * mean + (1 - BN_MOMENTUM) * batch_mean
            var = BN_MOMENTUM * var + (1 - BN_MOMENTUM) * batch_var
        layers.append(replace(lp, bn_running_mean=mean, bn_running_var=var))
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
    rotation_keys: list[str] | None = None,
    translation_keys: list[str] | None = None,
) -> MetricsReport:
    """Register every sample and aggregate the standard metric tables.

    A source equal to the previous sample's is not measured or encoded
    again: its diameter and its ``encode_source`` encoding are reused, so a
    dataset of many views of one model encodes the model once per run of
    views.
    """
    if not samples:
        raise EmptyInput("no samples to evaluate")
    check_thresholds(rot_thresholds, trans_thresholds)
    records = []
    previous_source, diameter, encoding = None, 0.0, None
    for s in samples:
        if not np.array_equal(s.source, previous_source):
            previous_source, diameter = s.source, model_diameter(s.source)
            encoding = encode_source(params, s.source, opts.normalization)
        result = register(params, s.source, s.target, opts, source=encoding)
        add_mean, add_pass = add_score(s.source, result.pose, s.gt_pose, diameter)
        records.append(
            {
                "rotation_deg": rotation_error_deg(result.pose.rotation, s.gt_pose.rotation),
                "translation": translation_error(result.pose.translation, s.gt_pose.translation),
                "add_mean": add_mean,
                "add_pass": bool(add_pass),
                "pred_matches": len(result.matches),
                "true_inliers": count_true_inliers(
                    result.matches, s.source, s.target, s.gt_pose, inlier_thresh
                ),
                "converged": bool(result.converged),
                "icp_iterations": result.icp_iterations_used,
                "shape_id": s.shape_id,
            }
        )
    return build_report(
        records, rot_thresholds, trans_thresholds,
        rotation_keys=rotation_keys, translation_keys=translation_keys,
    )


# ---------------------------------------------------------------------------
# Per-sample work, here or on worker processes
# ---------------------------------------------------------------------------

# numpy's OpenBLAS thread-count entry point, under the names its builds export
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


class _SampleGradients:
    """End-to-end results of a step's draws, in draw order.

    A drawn sample's ground truth and kNN graphs are built on its first draw
    and kept: a sample's clouds never change, nor their graphs.
    """

    def __init__(self, cfg: TrainConfig, data: list[PairSample]):
        self.cfg = cfg
        self.data = data
        self.gt_cache: dict[int, object] = {}
        self.knn_cache: dict[int, list] = {}

    def __call__(self, params: NetParams, draws: list[int]) -> list[EndToEndResult]:
        cfg, results = self.cfg, []
        for i in draws:
            s = self.data[i]
            if i not in self.gt_cache:
                self.gt_cache[i] = build_gt_matrix(s.source, s.target, s.gt_pose, cfg.gt_thresh)
            res = end_to_end_gradient(
                params, s.source, s.target, self.gt_cache[i],
                lam=cfg.lam, iters=cfg.sinkhorn_iters, alpha=cfg.alpha,
                normalization=cfg.normalization, mode="train", knn=self.knn_cache.get(i),
            )
            self.knn_cache[i] = res.knn
            results.append(res)
        return results


def _blas_thread_setter():
    """The function that sets the thread count of numpy's BLAS, or None."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):  # numpy 1.x, or no shared library to open
        return None
    for name in _BLAS_THREAD_SETTERS:
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return setter
    return None


# A worker process's own _SampleGradients, set by _start_worker; the parent
# never sets it.
_worker_samples: _SampleGradients | None = None


def _start_worker(set_blas_threads, cfg: TrainConfig, data: list[PairSample]) -> None:
    global _worker_samples
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is reported once, by the parent
    set_blas_threads(1)  # the workers share the CPUs; a second BLAS thread only spins
    _worker_samples = _SampleGradients(cfg, data)


def _worker_results(params: NetParams, draws: list[int]) -> list[EndToEndResult]:
    # the graphs stay in this worker's cache; only what the step reduces goes back
    return [replace(r, knn=None) for r in _worker_samples(params, draws)]


@contextlib.contextmanager
def _per_sample_results(cfg: TrainConfig, data: list[PairSample]):
    """Yield the function ``(params, draws) -> results`` a training run calls each step.

    With one worker it runs in this process. Otherwise a pool of forked
    workers lives as long as the ``with`` block: each step gives each worker
    one contiguous chunk of its draws and joins the chunks in order, so the
    step reduces the same results in the same order as with one worker.
    """
    set_blas_threads = _blas_thread_setter()
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # the platform has no sched_getaffinity
        cpus = 1
    # one worker per CPU this process may use, at most one per draw
    workers = min(cpus, cfg.batch_size) if set_blas_threads is not None else 1
    if workers == 1:
        yield _SampleGradients(cfg, data)
        return
    # fork: workers start with the data and the modules as they are, with no
    # pickling or re-import; the executor forks them all before its own thread
    with ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(set_blas_threads, cfg, data),
    ) as pool:
        def results(params: NetParams, draws: list[int]) -> list[EndToEndResult]:
            bounds = [len(draws) * k // workers for k in range(workers + 1)]
            chunks = [
                pool.submit(_worker_results, params, draws[a:b])
                for a, b in zip(bounds, bounds[1:])
            ]
            return [r for chunk in chunks for r in chunk.result()]

        yield results


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

    Deterministic for a fixed config and data, whatever the worker count;
    raises ``NaNLoss`` (with the iteration recorded) the moment a non-finite
    batch loss or batch gradient appears, before it reaches the parameters.
    No worker process outlives the call.
    """
    if not data:
        raise EmptyInput("no training samples")
    rng = np.random.default_rng(cfg.seed)
    state = init_adam(params)
    log = TrainLog(config={**asdict(cfg), "samples": len(data)})

    if checkpoint_dir is not None:
        Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)

    with _per_sample_results(cfg, data) as step_results:
        for it in range(1, cfg.iterations + 1):
            draws = [int(i) for i in rng.integers(0, len(data), size=cfg.batch_size)]
            results = step_results(params, draws)
            # One reduction per step, in draw order, whatever the worker count:
            # parameters and logs stay byte-identical.
            n = len(results)
            batch_loss = sum(r.loss for r in results) / n
            mean_grads = [
                {
                    k: functools.reduce(np.add, (r.param_grads[li][k] for r in results)) / n
                    for k in g
                }
                for li, g in enumerate(results[0].param_grads)
            ]
            values = [batch_loss, *(v for g in mean_grads for v in g.values())]
            if not all(np.all(np.isfinite(v)) for v in values):
                raise NaNLoss(it)
            params, state = adam_step(params, mean_grads, state, cfg)
            params = fold_running_stats(params, [r.bn_batch_stats for r in results])
            # "skipped" stays for the log format; every source row has a GT entry
            log.records.append({"iteration": it, "loss": batch_loss, "skipped": 0})

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
