"""Command-line front end.

Subcommands: ``gen`` (synthetic datasets), ``train``, ``register`` (one
pair), ``eval`` (batch metrics), ``ablate`` (normalization comparison), and
``probe-svd`` (gradient instability sweep). Config files are JSON with the
same keys as the flags; explicit flags win over file values, unknown keys
are rejected by name. Exit codes: 0 success, 1 runtime/IO failure, 2
usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, MatchregError
from .features import (
    DEFAULT_KNN_K,
    DEFAULT_WIDTHS,
    init_net_params,
    load_checkpoint,
    save_checkpoint,
)
from .fileio import read_json, read_ply
from .metrics import (
    DEFAULT_INLIER_THRESHOLD,
    DEFAULT_ROTATION_THRESHOLDS_DEG,
    DEFAULT_TRANSLATION_THRESHOLDS_M,
)
from .solver import RegisterOptions, register
from .supervision import svd_gradient_probe
from .synth import SHAPE_KINDS, SynthConfig, generate_dataset, read_dataset, write_dataset
from .training import TrainConfig, ablate, evaluate_dataset, train

NORMALIZATION_CHOICES = {
    "match-norm": "match_norm",
    "per-instance": "per_instance_norm",
    "none": "none",
}


def _load_config_file(path, allowed: dict):
    """JSON config with flag-name keys; unknown keys rejected by name."""
    try:
        doc = read_json(path, ConfigError)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r}", key=key)
    return doc


def _merged(args, parser_defaults: dict, file_values: dict, key: str):
    """Flag wins when explicitly given, then file value, then default."""
    flag_val = getattr(args, key)
    if flag_val is not None:
        return flag_val
    if key in file_values:
        return file_values[key]
    return parser_defaults[key]


def _typed(get, keys: dict, reshaped: tuple[str, ...]) -> dict:
    """Every key of ``keys`` not in ``reshaped``, merged by ``get`` and cast to its flag type."""
    return {key: kind(get(key)) for key, (kind, _) in keys.items() if key not in reshaped}


def _add_config_flags(p, keys: dict, defaults: dict, hidden: tuple[str, ...] = ()) -> None:
    """``--config`` and one flag per config key, typed and described by ``keys``.

    The flags default to None, so ``_merged`` can tell a flag given from one
    left to the file or to ``defaults``; the help states that default.
    """
    p.add_argument("--config", help="JSON config file (flags override it)")
    for key, (kind, text) in keys.items():
        if key in hidden:
            text = argparse.SUPPRESS
        elif defaults[key] is not None:
            text = f"{text} (default: {defaults[key]})"
        p.add_argument(
            "--" + key.replace("_", "-"), dest=key, type=kind, default=None,
            choices=sorted(NORMALIZATION_CHOICES) if key == "normalization" else None,
            help=text,
        )


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

# config key -> (type, help) of the gen flags
GEN_KEYS = {
    "count": (int, "number of pairs"),
    "seed": (int, "master seed"),
    "m": (int, "source cloud size"),
    "n": (int, "target cloud size"),
    "noise_sigma": (float, "Gaussian noise sigma in meters"),
    "outlier_fraction": (float, "fraction of target points replaced by outliers"),
    "outlier_bound": (float, "outlier box inflation in meters"),
    "rotation_max_deg": (float, "limit rotations to this angle; omit for full SO(3)"),
    "scale_min": (float, "minimum object scale"),
    "scale_max": (float, "maximum object scale"),
    "shapes": (str, "comma list of shapes"),
    "hpr_gamma": (float, "hidden-point-removal radius factor"),
    "translation_bound": (float, "uniform translation box half-width"),
}
# gen keys that SynthConfig takes in another form, or not at all
GEN_RESHAPED = ("count", "rotation_max_deg", "scale_min", "scale_max", "shapes")

_SYNTH = SynthConfig()
GEN_DEFAULTS = {
    **{key: getattr(_SYNTH, key) for key in GEN_KEYS if hasattr(_SYNTH, key)},
    "count": 100,
    "scale_min": _SYNTH.scale_range[0],
    "scale_max": _SYNTH.scale_range[1],
    "shapes": ",".join(_SYNTH.shapes),
}


def cmd_gen(args) -> int:
    file_values = _load_config_file(args.config, GEN_KEYS) if args.config else {}
    get = lambda key: _merged(args, GEN_DEFAULTS, file_values, key)
    try:
        count = int(get("count"))
    except ValueError as err:
        raise ConfigError(f"count must be an integer: {err}", key="count")
    if count < 1:
        raise ConfigError("count must be >= 1", key="count")
    shapes_raw = get("shapes")
    shapes = tuple(s.strip() for s in shapes_raw.split(",") if s.strip())
    for s in shapes:
        if s not in SHAPE_KINDS:
            raise ConfigError(f"unknown value for key 'shapes': {s!r}", key="shapes")
    rot_max = get("rotation_max_deg")
    try:
        cfg = SynthConfig(
            **_typed(get, GEN_KEYS, GEN_RESHAPED),
            rotation_max_deg=None if rot_max is None else float(rot_max),
            scale_range=(float(get("scale_min")), float(get("scale_max"))),
            shapes=shapes,
        )
    except ValueError as err:
        raise ConfigError(str(err))
    samples = generate_dataset(cfg, count)
    write_dataset(args.out, samples, cfg)
    print(f"wrote {count} samples to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

# config key -> (type, help) of the training flags that train and ablate share
TRAIN_KEYS = {
    "iterations": (int, "training iterations"),
    "learning_rate": (float, "Adam learning rate"),
    "batch_size": (int, "samples per iteration"),
    "lam": (float, "Sinkhorn regularization weight"),
    "sinkhorn_iters": (int, "Sinkhorn iterations during training"),
    "eval_sinkhorn_iters": (int, "Sinkhorn iterations at evaluation"),
    "normalization": (str, "feature normalization mode"),
    "seed": (int, "training seed"),
    "checkpoint_every": (int, "iterations between checkpoints and validation passes"),
    "gt_thresh": (float, "supervision distance threshold"),
    "alpha": (float, "outlier bin score"),
    "tau": (float, "match confidence threshold"),
    "knn_k": (int, "edge-feature neighborhood size"),
    "widths": (str, "comma list of layer widths"),
}
# training keys that TrainConfig takes in another form, or not at all
TRAIN_RESHAPED = ("normalization", "knn_k", "widths")

_TRAIN = TrainConfig()
TRAIN_DEFAULTS = {
    **{key: getattr(_TRAIN, key) for key in TRAIN_KEYS if hasattr(_TRAIN, key)},
    "normalization": next(
        cli for cli, mode in NORMALIZATION_CHOICES.items() if mode == _TRAIN.normalization
    ),
    "knn_k": DEFAULT_KNN_K,
    "widths": ",".join(str(w) for w in DEFAULT_WIDTHS),
}
# training keys that ablate accepts, so train and ablate share config files,
# but does not list: it sets the mode per arm and writes no checkpoints
ABLATE_HIDDEN = ("normalization", "checkpoint_every")


def _train_config_from(args, file_values) -> tuple[TrainConfig, int, tuple[int, ...]]:
    get = lambda key: _merged(args, TRAIN_DEFAULTS, file_values, key)
    norm_cli = get("normalization")
    if norm_cli not in NORMALIZATION_CHOICES:
        raise ConfigError(
            f"unknown value for key 'normalization': {norm_cli!r}", key="normalization"
        )
    raw_widths = str(get("widths"))
    try:
        widths = tuple(int(w) for w in raw_widths.split(",") if w.strip())
    except ValueError:
        widths = ()
    if not widths or min(widths) < 1:
        raise ConfigError(
            f"widths must be a comma list of positive integers, got {raw_widths!r}", key="widths"
        )
    try:
        cfg = TrainConfig(
            **_typed(get, TRAIN_KEYS, TRAIN_RESHAPED),
            normalization=NORMALIZATION_CHOICES[norm_cli],
        )
        knn_k = int(get("knn_k"))
    except ValueError as err:
        raise ConfigError(str(err))
    if knn_k < 1:
        raise ConfigError(f"knn_k must be >= 1, got {knn_k}", key="knn_k")
    return cfg, knn_k, widths


def cmd_train(args) -> int:
    file_values = _load_config_file(args.config, TRAIN_KEYS) if args.config else {}
    cfg, knn_k, widths = _train_config_from(args, file_values)
    samples, _ = read_dataset(args.data)
    val = None
    if args.val_data:
        val, _ = read_dataset(args.val_data)
    params = init_net_params(np.random.default_rng(cfg.seed), widths=widths, knn_k=knn_k)
    params, log = train(cfg, samples, params, val_data=val, checkpoint_dir=args.checkpoint_dir)
    save_checkpoint(args.out_model, params, normalization=cfg.normalization)
    if args.log:
        log.write_jsonl(args.log)
    final = [r["loss"] for r in log.records if r["loss"] is not None]
    if final:
        print(f"trained {cfg.iterations} iterations; final loss {final[-1]:.6f}")
    else:
        print(f"ran {cfg.iterations} iterations; no batch was trained (every sample skipped)")
    print(f"model written to {args.out_model}")
    return 0


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------

def _register_options(args) -> RegisterOptions:
    """The matching flags as ``RegisterOptions``, checked before any file is read.

    The normalization is the checkpoint's; it is filled in once that is loaded.
    """
    try:
        return RegisterOptions(
            lam=args.lam,
            sinkhorn_iters=args.sinkhorn_iters,
            tau=args.tau,
            alpha=args.alpha,
            use_icp=args.icp,
        )
    except ValueError as err:
        raise ConfigError(str(err))


def _check_inlier_thresh(value: float) -> None:
    if not value > 0:  # rejects NaN too
        raise ConfigError(f"inlier_thresh must be positive, got {value}", key="inlier_thresh")


def cmd_register(args) -> int:
    opts = _register_options(args)
    params, normalization = load_checkpoint(args.model)
    source = read_ply(args.source)
    target = read_ply(args.target)
    result = register(params, source, target, replace(opts, normalization=normalization))
    print(f"converged: {result.converged}")
    print(f"matches: {result.predicted_match_count}")
    print("rotation:")
    for row in result.pose.rotation:
        print("  " + " ".join(f"{v: .9f}" for v in row))
    print("translation: " + " ".join(f"{v: .9f}" for v in result.pose.translation))
    if args.icp:
        print(f"icp iterations: {result.icp_iterations_used}")
    if args.json_out:
        doc = {
            "pose": {
                "rotation": [[float(v) for v in row] for row in result.pose.rotation],
                "translation": [float(v) for v in result.pose.translation],
            },
            "matches": [[m.source, m.target, m.weight] for m in result.matches],
            "predicted_match_count": result.predicted_match_count,
            "converged": result.converged,
            "icp_iterations_used": result.icp_iterations_used,
        }
        Path(args.json_out).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _parse_thresholds(raw: str, key: str) -> tuple[list[str], list[float]]:
    """The comma list of flag ``key``; its values key the mAP tables, so none may repeat."""
    keys = [tok.strip() for tok in raw.split(",") if tok.strip()]
    try:
        values = [float(tok) for tok in keys]
    except ValueError:
        raise ConfigError(f"bad {key} list {raw!r}", key=key)
    if not values:
        raise ConfigError(f"{key} list is empty", key=key)
    if len(set(values)) < len(values):
        raise ConfigError(f"{key} list {raw!r} repeats a value", key=key)
    return keys, values


def cmd_eval(args) -> int:
    opts = _register_options(args)
    _check_inlier_thresh(args.inlier_thresh)
    rot_keys, rot_thresholds = _parse_thresholds(args.rot_thresholds, "rot_thresholds")
    trans_keys, trans_thresholds = _parse_thresholds(args.trans_thresholds, "trans_thresholds")
    params, normalization = load_checkpoint(args.model)
    samples, _ = read_dataset(args.data)
    if not samples:
        raise ConfigError("dataset is empty")
    report = evaluate_dataset(
        params,
        samples,
        replace(opts, normalization=normalization),
        rot_thresholds=rot_thresholds,
        trans_thresholds=trans_thresholds,
        inlier_thresh=args.inlier_thresh,
        oracle=args.oracle,
        rotation_keys=rot_keys,
        translation_keys=trans_keys,
    )
    print(f"samples: {report.sample_count}")
    print("rotation mAP:")
    for key, frac in zip(rot_keys, report.rotation_map.values()):
        print(f"  <= {key} deg: {frac:.4f}")
    print("translation mAP:")
    for key, frac in zip(trans_keys, report.translation_map.values()):
        print(f"  <= {key} m: {frac:.4f}")
    print(f"ADD pass rate: {report.add_rate:.4f}")
    print(f"mean predicted matches: {report.mean_pred_matches:.2f}")
    print(f"mean true inliers: {report.mean_true_inliers:.2f}")
    if args.json_out:
        report.write_json(args.json_out)
    return 0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def cmd_ablate(args) -> int:
    file_values = _load_config_file(args.config, TRAIN_KEYS) if args.config else {}
    cfg, knn_k, widths = _train_config_from(args, file_values)
    _check_inlier_thresh(args.inlier_thresh)
    for mode in (args.mode_a, args.mode_b):
        if mode not in NORMALIZATION_CHOICES:
            raise ConfigError(f"unknown normalization {mode!r}")
    cfg_a = replace(cfg, normalization=NORMALIZATION_CHOICES[args.mode_a])
    cfg_b = replace(cfg, normalization=NORMALIZATION_CHOICES[args.mode_b])
    rot_keys, rot_thresholds = _parse_thresholds(args.rot_thresholds, "rot_thresholds")
    _, trans_thresholds = _parse_thresholds(args.trans_thresholds, "trans_thresholds")
    train_samples, _ = read_dataset(args.data)
    holdout, _ = read_dataset(args.holdout)
    params = init_net_params(np.random.default_rng(cfg.seed), widths=widths, knn_k=knn_k)
    result = ablate(
        cfg_a, cfg_b, train_samples, holdout, params,
        rot_thresholds=rot_thresholds, trans_thresholds=trans_thresholds,
        inlier_thresh=args.inlier_thresh,
    )
    print(f"{'':24}{result.mode_a:>20}{result.mode_b:>20}")
    print(f"{'mean pred matches':24}{result.report_a.mean_pred_matches:>20.2f}{result.report_b.mean_pred_matches:>20.2f}")
    print(f"{'mean true inliers':24}{result.report_a.mean_true_inliers:>20.2f}{result.report_b.mean_true_inliers:>20.2f}")
    for key, thr in zip(rot_keys, rot_thresholds):
        fa = result.report_a.rotation_map[float(thr)]
        fb = result.report_b.rotation_map[float(thr)]
        print(f"{'rot mAP @ ' + key + ' deg':24}{fa:>20.4f}{fb:>20.4f}")
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(result.to_json_dict(), sort_keys=True, indent=1) + "\n"
        )
    return 0


# ---------------------------------------------------------------------------
# probe-svd
# ---------------------------------------------------------------------------

def cmd_probe_svd(args) -> int:
    try:
        gaps = [float(tok) for tok in args.gaps.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad gaps list {args.gaps!r}")
    if not gaps:
        raise ConfigError("gaps list is empty")
    if any(g <= 0 for g in gaps):
        raise ConfigError("all gaps must be positive")
    print("sigma_gap\tgradient_magnitude")
    for gap in gaps:
        print(f"{gap}\t{svd_gradient_probe(gap)}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_matching_flags(p) -> None:
    """The matching flags of register and eval, defaulting to ``RegisterOptions``."""
    opts = RegisterOptions()
    p.add_argument("--lam", type=float, default=opts.lam, help="Sinkhorn regularization weight")
    p.add_argument(
        "--sinkhorn-iters", dest="sinkhorn_iters", type=int, default=opts.sinkhorn_iters,
        help="Sinkhorn iterations",
    )
    p.add_argument("--tau", type=float, default=opts.tau, help="match confidence threshold")
    p.add_argument("--alpha", type=float, default=opts.alpha, help="outlier bin score")


def _add_metric_flags(p) -> None:
    """The metric thresholds of eval and ablate."""
    p.add_argument("--rot-thresholds", dest="rot_thresholds", default=",".join(str(t) for t in DEFAULT_ROTATION_THRESHOLDS_DEG), help="rotation thresholds in degrees")
    p.add_argument("--trans-thresholds", dest="trans_thresholds", default=",".join(str(t) for t in DEFAULT_TRANSLATION_THRESHOLDS_M), help="translation thresholds in meters")
    p.add_argument("--inlier-thresh", dest="inlier_thresh", type=float, default=DEFAULT_INLIER_THRESHOLD, help="true-inlier distance threshold")


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends each flag's default to its help, unless the flag has none."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchreg",
        description="Partial-to-whole point cloud registration for 6D object pose estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = _HelpFormatter

    p = sub.add_parser("gen", help="generate a synthetic dataset", formatter_class=fmt)
    p.add_argument("--out", required=True, help="output dataset directory")
    _add_config_flags(p, GEN_KEYS, GEN_DEFAULTS)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model on a dataset", formatter_class=fmt)
    p.add_argument("--data", required=True, help="training dataset directory")
    p.add_argument("--out-model", required=True, help="output checkpoint path")
    p.add_argument("--val-data", help="validation dataset directory")
    p.add_argument("--checkpoint-dir", help="directory for periodic checkpoints")
    p.add_argument("--log", help="training log path (JSON lines)")
    _add_config_flags(p, TRAIN_KEYS, TRAIN_DEFAULTS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("register", help="register one source/target PLY pair", formatter_class=fmt)
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--source", required=True, help="source PLY (full model cloud)")
    p.add_argument("--target", required=True, help="target PLY (observed cloud)")
    p.add_argument("--icp", action="store_true", help="refine the pose with ICP")
    p.add_argument("--json-out", dest="json_out", help="write the result as JSON")
    _add_matching_flags(p)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("eval", help="evaluate a model over a dataset", formatter_class=fmt)
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--icp", action="store_true", help="refine poses with ICP")
    p.add_argument("--json-out", dest="json_out", help="write the metrics report as JSON")
    _add_metric_flags(p)
    _add_matching_flags(p)
    p.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="compare normalization modes head to head", formatter_class=fmt)
    p.add_argument("--data", required=True, help="training dataset directory")
    p.add_argument("--holdout", required=True, help="held-out dataset directory")
    p.add_argument("--json-out", dest="json_out", help="write the comparison as JSON")
    p.add_argument("--mode-a", dest="mode_a", default="match-norm", help="first normalization mode")
    p.add_argument("--mode-b", dest="mode_b", default="per-instance", help="second normalization mode")
    _add_config_flags(p, TRAIN_KEYS, TRAIN_DEFAULTS, hidden=ABLATE_HIDDEN)
    _add_metric_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("probe-svd", help="gradient magnitude vs. singular value gap", formatter_class=fmt)
    p.add_argument("--gaps", default="1,0.1,0.01,0.001", help="comma list of singular value gaps")
    p.set_defaults(func=cmd_probe_svd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (MatchregError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
