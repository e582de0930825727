"""Command-line front end.

Subcommands: ``gen`` (synthetic datasets), ``train``, ``register`` (one
pair), ``eval`` (batch metrics), ``ablate`` (normalization comparison), and
``probe-svd`` (gradient instability sweep). Config files are JSON with the
same keys as the flags, each value read as its flag's text would be; flags
win over file values, unknown keys are rejected by name. Exit codes: 0
success, 1 runtime/IO failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigError, MatchregError
from .features import (
    DEFAULT_KNN_K,
    DEFAULT_WIDTHS,
    NetParams,
    init_net_params,
    load_checkpoint,
    save_checkpoint,
)
from .fileio import read_json, read_ply, write_json
from .metrics import (
    DEFAULT_INLIER_THRESHOLD,
    DEFAULT_ROTATION_THRESHOLDS_DEG,
    DEFAULT_TRANSLATION_THRESHOLDS_M,
    check_thresholds,
)
from .solver import RegisterOptions, register
from .supervision import svd_gradient_probe
from .synth import SynthConfig, generate_dataset, read_dataset, write_dataset
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
            raise ConfigError(f"unknown config key {key!r}")
    return doc


def _cast(key: str, kind, value):
    """``value`` read the way the text of flag ``key`` is read: ``kind(str(value))``.

    So a config-file value means what the same text given as the flag
    means: a JSON ``2.5``, ``2.0``, ``true`` or list is no integer.
    """
    try:
        return kind(str(value))
    except ValueError:
        raise ConfigError(f"{key} must be {kind.__name__}, got {json.dumps(value)}") from None


def _values(args, keys: dict, defaults: dict) -> dict:
    """Every key of ``keys``: the flag if given, else the config file's value, else the default.

    Each value is cast by ``_cast``; ``null`` stays only where the default is None.
    """
    file_values = _load_config_file(args.config, keys) if args.config else {}
    given = {key: value for key, value in vars(args).items() if key in keys}
    return {
        key: None if value is None and defaults[key] is None else _cast(key, keys[key][0], value)
        for key, value in {**defaults, **file_values, **given}.items()
    }


def _comma_list(key: str, raw: str, kind) -> tuple[list[str], list]:
    """The tokens of comma list ``raw`` and their values as ``kind``.

    An empty list, or a token ``kind`` cannot read, raises ``ConfigError``
    naming ``key``.
    """
    tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
    try:
        values = [kind(tok) for tok in tokens]
    except ValueError:
        values = []
    if not values:
        raise ConfigError(f"{key} must be a comma list of {kind.__name__} values, got {raw!r}")
    return tokens, values


def _config(check, *args, **kw):
    """``check(*args, **kw)``, whose ``ValueError`` on a bad value exits 2 as a ``ConfigError``."""
    try:
        return check(*args, **kw)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _mode(name: str) -> str:
    """The normalization mode of CLI name ``name``."""
    if name not in NORMALIZATION_CHOICES:
        raise ConfigError(f"unknown normalization {name!r}")
    return NORMALIZATION_CHOICES[name]


def _add_config_flags(p, keys: dict, defaults: dict, hidden: tuple[str, ...] = ()) -> None:
    """``--config`` and one flag per config key, typed and described by ``keys``.

    The flags have no default (``argparse.SUPPRESS``), so ``_values`` sees
    only the flags given; the help states the default of ``defaults``.
    """
    p.add_argument("--config", help="JSON config file (flags override it)")
    for key, (kind, text) in keys.items():
        if key in hidden:
            text = argparse.SUPPRESS
        elif defaults[key] is not None:
            text = f"{text} (default: {defaults[key]})"
        p.add_argument(
            "--" + key.replace("_", "-"), dest=key, type=kind, default=argparse.SUPPRESS,
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

_SYNTH = SynthConfig()
GEN_DEFAULTS = {
    **{key: getattr(_SYNTH, key) for key in GEN_KEYS if hasattr(_SYNTH, key)},
    "count": 100,
    "scale_min": _SYNTH.scale_range[0],
    "scale_max": _SYNTH.scale_range[1],
    "shapes": ",".join(_SYNTH.shapes),
}


def cmd_gen(args) -> int:
    values = _values(args, GEN_KEYS, GEN_DEFAULTS)
    count = values.pop("count")
    _, shapes = _comma_list("shapes", values.pop("shapes"), str)
    scale_range = (values.pop("scale_min"), values.pop("scale_max"))
    cfg = _config(SynthConfig, **values, scale_range=scale_range, shapes=tuple(shapes))
    samples = _config(generate_dataset, cfg, count)  # checks count
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


def _train_config_from(args) -> tuple[TrainConfig, NetParams]:
    """The training config and the initial network, both checked before any data is read."""
    values = _values(args, TRAIN_KEYS, TRAIN_DEFAULTS)
    _, widths = _comma_list("widths", values.pop("widths"), int)
    knn_k = values.pop("knn_k")
    normalization = _mode(values.pop("normalization"))
    cfg = _config(TrainConfig, **values, normalization=normalization)
    params = _config(init_net_params, np.random.default_rng(cfg.seed), widths=widths, knn_k=knn_k)
    return cfg, params


def cmd_train(args) -> int:
    cfg, params = _train_config_from(args)
    samples, _ = read_dataset(args.data)
    val = None
    if args.val_data:
        val, _ = read_dataset(args.val_data)
    params, log = train(cfg, samples, params, val_data=val, checkpoint_dir=args.checkpoint_dir)
    save_checkpoint(args.out_model, params, normalization=cfg.normalization)
    if args.log:
        log.write_jsonl(args.log)
    print(f"trained {cfg.iterations} iterations; final loss {log.records[-1]['loss']:.6f}")
    print(f"model written to {args.out_model}")
    return 0


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------

def _register_options(args) -> RegisterOptions:
    """The matching flags as ``RegisterOptions``, checked before any file is read.

    The normalization is the checkpoint's; it is filled in once that is loaded.
    """
    return _config(
        RegisterOptions,
        lam=args.lam,
        sinkhorn_iters=args.sinkhorn_iters,
        tau=args.tau,
        alpha=args.alpha,
        use_icp=args.icp,
    )


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
        write_json(args.json_out, doc)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _metric_thresholds(args) -> tuple[list[str], list[str]]:
    """The threshold texts of eval and ablate (their mAP keys), checked with ``--inlier-thresh``."""
    rot, _ = _comma_list("rot_thresholds", args.rot_thresholds, float)
    trans, _ = _comma_list("trans_thresholds", args.trans_thresholds, float)
    _config(check_thresholds, rot, trans, args.inlier_thresh)
    return rot, trans


def cmd_eval(args) -> int:
    opts = _register_options(args)
    rot_thresholds, trans_thresholds = _metric_thresholds(args)
    params, normalization = load_checkpoint(args.model)
    samples, _ = read_dataset(args.data)
    report = evaluate_dataset(
        params,
        samples,
        replace(opts, normalization=normalization),
        rot_thresholds=rot_thresholds,
        trans_thresholds=trans_thresholds,
        inlier_thresh=args.inlier_thresh,
    )
    print(f"samples: {report.sample_count}")
    print("rotation mAP:")
    for key, frac in report.rotation_map.items():
        print(f"  <= {key} deg: {frac:.4f}")
    print("translation mAP:")
    for key, frac in report.translation_map.items():
        print(f"  <= {key} m: {frac:.4f}")
    print(f"ADD pass rate: {report.add_rate:.4f}")
    print(f"mean predicted matches: {report.mean_pred_matches:.2f}")
    print(f"mean true inliers: {report.mean_true_inliers:.2f}")
    if args.json_out:
        write_json(args.json_out, report.to_json_dict())
    return 0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def cmd_ablate(args) -> int:
    cfg, params = _train_config_from(args)
    rot_thresholds, trans_thresholds = _metric_thresholds(args)
    cfg_a = replace(cfg, normalization=_mode(args.mode_a))
    cfg_b = replace(cfg, normalization=_mode(args.mode_b))
    train_samples, _ = read_dataset(args.data)
    holdout, _ = read_dataset(args.holdout)
    result = ablate(
        cfg_a, cfg_b, train_samples, holdout, params,
        rot_thresholds=rot_thresholds, trans_thresholds=trans_thresholds,
        inlier_thresh=args.inlier_thresh,
    )
    print(f"{'':24}{result.mode_a:>20}{result.mode_b:>20}")
    print(f"{'mean pred matches':24}{result.report_a.mean_pred_matches:>20.2f}{result.report_b.mean_pred_matches:>20.2f}")
    print(f"{'mean true inliers':24}{result.report_a.mean_true_inliers:>20.2f}{result.report_b.mean_true_inliers:>20.2f}")
    for key, fa in result.report_a.rotation_map.items():
        fb = result.report_b.rotation_map[key]
        print(f"{'rot mAP @ ' + key + ' deg':24}{fa:>20.4f}{fb:>20.4f}")
    if args.json_out:
        write_json(args.json_out, result.to_json_dict())
    return 0


# ---------------------------------------------------------------------------
# probe-svd
# ---------------------------------------------------------------------------

def cmd_probe_svd(args) -> int:
    _, gaps = _comma_list("gaps", args.gaps, float)
    if not all(0 < g < np.inf for g in gaps):  # rejects NaN too
        raise ConfigError("all gaps must be finite and positive")
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
