"""CLI behavior: exit codes, determinism, file outputs, help texts."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from matchreg.cli import ABLATE_HIDDEN, TRAIN_DEFAULTS, TRAIN_KEYS, build_parser, main
from matchreg.features import init_net_params, save_checkpoint
from matchreg.fileio import write_ply
from matchreg.synth import SynthConfig, generate_dataset, write_dataset


def run(argv):
    return main(argv)


def dir_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir())}


GEN_FAST = [
    "--m", "48", "--n", "24", "--scale-min", "1.0", "--scale-max", "1.0",
    "--hpr-gamma", "10000",
]


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    params = init_net_params(np.random.default_rng(0), widths=(8, 8), knn_k=4)
    save_checkpoint(path, params, normalization="match_norm")
    return str(path)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "ds"
    cfg = SynthConfig(m=48, n=24, scale_range=(1.0, 1.0), hpr_gamma=1e4, seed=5)
    write_dataset(root, generate_dataset(cfg, 4), cfg)
    return str(root)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_twice_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["gen", "--out", str(a), "--count", "5", "--seed", "7", *GEN_FAST]) == 0
    assert run(["gen", "--out", str(b), "--count", "5", "--seed", "7", *GEN_FAST]) == 0
    assert dir_bytes(a) == dir_bytes(b)


def test_gen_invalid_shape_in_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shapes": "box,pyramid"}))
    code = run(["gen", "--out", str(tmp_path / "d"), "--config", str(cfg), "--count", "2"])
    assert code == 2
    assert "shapes" in capsys.readouterr().err


def test_gen_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"numsamples": 3}))
    code = run(["gen", "--out", str(tmp_path / "d"), "--config", str(cfg)])
    assert code == 2
    assert "numsamples" in capsys.readouterr().err


def test_gen_zero_count(tmp_path, capsys):
    code = run(["gen", "--out", str(tmp_path / "d"), "--count", "0"])
    assert code == 2
    assert "count must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, key",
    [
        ("--noise-sigma", "-1", "noise_sigma"),
        ("--noise-sigma", "nan", "noise_sigma"),
        ("--hpr-gamma", "-1", "hpr_gamma"),
        ("--hpr-gamma", "0", "hpr_gamma"),
        ("--outlier-bound", "-5", "outlier_bound"),
        ("--outlier-bound", "nan", "outlier_bound"),
        ("--noise-sigma", "inf", "noise_sigma"),
        ("--outlier-bound", "inf", "outlier_bound"),
        ("--hpr-gamma", "inf", "hpr_gamma"),
        ("--translation-bound", "inf", "translation_bound"),
        ("--translation-bound", "nan", "translation_bound"),
        ("--translation-bound", "-1", "translation_bound"),
        ("--scale-max", "inf", "scale_range"),
        ("--rotation-max-deg", "nan", "rotation_max_deg"),
        # config file values, not flags: each means what its text as the flag means
        ("count", "x", "count"),
        ("count", [2], "count"),
        ("count", 2.5, "count"),
        ("m", [1], "m"),
        ("shapes", 5, "shapes"),
        ("scale_min", None, "scale_min"),
        ("--scale-max", "1e100", "scale_range"),
        ("--scale-max", "1e308", "scale_range"),
        ("--seed", "-1", "seed"),
    ],
)
def test_gen_bad_config_exits_2_before_writing(tmp_path, capsys, flag, value, key):
    # GEN_FAST as file values (a flag's text is a valid file value), so the value tested wins
    fast = {f[2:].replace("-", "_"): v for f, v in zip(GEN_FAST[::2], GEN_FAST[1::2])}
    file_values = {"count": 2, **fast}
    if flag.startswith("--"):
        extra = [flag, value]
    else:
        file_values[flag], extra = value, []
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_values))
    out = tmp_path / "d"
    code = run(["gen", "--out", str(out), "--config", str(cfg), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()


def test_gen_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": 2, "m": 48, "n": 24, "hpr_gamma": 10000.0,
                               "scale_min": 1.0, "scale_max": 1.0, "rotation_max_deg": None}))
    out = tmp_path / "d"
    assert run(["gen", "--out", str(out), "--config", str(cfg), "--count", "3"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["count"] == 3
    assert manifest["config"]["m"] == 48
    assert manifest["config"]["rotation_max_deg"] is None  # null keeps full SO(3)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_smoke_and_log_header(tmp_path, tiny_dataset):
    model = tmp_path / "model.json"
    log = tmp_path / "log.jsonl"
    code = run([
        "train", "--data", tiny_dataset, "--out-model", str(model), "--log", str(log),
        "--iterations", "3", "--batch-size", "2", "--sinkhorn-iters", "5",
        "--widths", "6,6", "--knn-k", "3", "--normalization", "per-instance",
    ])
    assert code == 0
    assert model.exists()
    header = json.loads(log.read_text().splitlines()[0])
    assert header["type"] == "config"
    assert header["normalization"] == "per_instance_norm"


@pytest.mark.parametrize(
    "flag, value, key",
    [
        ("--iterations", "0", "iterations"),
        ("--lam", "0", "lam"),
        ("--sinkhorn-iters", "0", "sinkhorn_iters"),
        ("--eval-sinkhorn-iters", "0", "eval_sinkhorn_iters"),
        ("--tau", "1.5", "tau"),
        ("--knn-k", "0", "knn_k"),
        ("--widths", ",", "widths"),
        ("--widths", "8,x", "widths"),
        ("--widths", "8,0", "widths"),
        ("--gt-thresh", "0", "gt_thresh"),
        ("--learning-rate", "-1", "learning_rate"),
        ("--learning-rate", "nan", "learning_rate"),
        # config file values, not flags: each means what its text as the flag means
        ("iterations", [1], "iterations"),
        ("iterations", None, "iterations"),
        ("seed", "abc", "seed"),
        ("knn_k", 2.7, "knn_k"),
        ("batch_size", 2.9, "batch_size"),
        ("batch_size", True, "batch_size"),
        ("--seed", "-1", "seed"),
        ("--checkpoint-every", "-3", "checkpoint_every"),
    ],
)
def test_train_bad_config_exits_2_before_loading_data(tmp_path, capsys, flag, value, key):
    # the dataset does not exist: only an up-front check can report the config;
    # ablate reads the same training flags and config files as train
    missing = str(tmp_path / "nope")
    if flag.startswith("--"):
        extra = [flag, value]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag: value}))
        extra = ["--config", str(cfg)]
    for inputs in (
        ["train", "--data", missing, "--out-model", str(tmp_path / "m.json")],
        ["ablate", "--data", missing, "--holdout", missing],
    ):
        assert run([*inputs, *extra]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err


def test_train_missing_dataset(tmp_path, capsys):
    code = run([
        "train", "--data", str(tmp_path / "nope"), "--out-model", str(tmp_path / "m.json"),
        "--iterations", "1",
    ])
    assert code == 1


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------

def test_register_self_pair_json(tmp_path, tiny_model):
    rng = np.random.default_rng(3)
    cloud = rng.standard_normal((40, 3))
    ply = tmp_path / "cloud.ply"
    write_ply(ply, cloud)
    out = tmp_path / "result.json"
    code = run([
        "register", "--model", tiny_model, "--source", str(ply), "--target", str(ply),
        "--tau", "0.2", "--json-out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {
        "pose", "matches", "predicted_match_count", "converged", "icp_iterations_used"
    }
    assert len(doc["pose"]["rotation"]) == 3
    assert doc["predicted_match_count"] == len(doc["matches"])


def test_register_self_pair_trained_model_accurate(tmp_path):
    # a briefly trained model registering a cloud against itself must land
    # within a few degrees of the identity
    ds = tmp_path / "ds"
    cfg = SynthConfig(m=64, n=48, scale_range=(1.0, 1.0), hpr_gamma=1e4,
                      rotation_max_deg=45.0, translation_bound=0.2, seed=21)
    write_dataset(ds, generate_dataset(cfg, 30), cfg)
    model = tmp_path / "model.json"
    assert run([
        "train", "--data", str(ds), "--out-model", str(model),
        "--iterations", "40", "--batch-size", "4", "--sinkhorn-iters", "10",
        "--widths", "16,16", "--knn-k", "6", "--seed", "2",
    ]) == 0
    ply = ds / "pair_00000_source.ply"
    out = tmp_path / "res.json"
    assert run([
        "register", "--model", str(model), "--source", str(ply), "--target", str(ply),
        "--tau", "0.2", "--json-out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    r = np.array(doc["pose"]["rotation"])
    angle = np.degrees(np.arccos(np.clip((np.trace(r) - 1) / 2, -1, 1)))
    assert angle < 5.0
    assert np.linalg.norm(doc["pose"]["translation"]) < 0.05


def test_register_malformed_ply(tmp_path, tiny_model, capsys):
    bad = tmp_path / "bad.ply"
    bad.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\n"
        "property double y\nproperty double z\nend_header\n0 0 0\n1 x 2\n"
    )
    code = run(["register", "--model", tiny_model, "--source", str(bad), "--target", str(bad)])
    assert code == 1
    assert ":9:" in capsys.readouterr().err  # line number in the message


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "command, flag, value, key",
    [
        ("eval", "--lam", "0", "lam"),
        ("eval", "--lam", "nan", "lam"),
        ("eval", "--sinkhorn-iters", "0", "sinkhorn_iters"),
        ("eval", "--tau", "1.5", "tau"),
        ("eval", "--tau", "0", "tau"),
        ("eval", "--inlier-thresh", "-1", "inlier_thresh"),
        ("eval", "--inlier-thresh", "nan", "inlier_thresh"),
        ("register", "--lam", "-1", "lam"),
        ("register", "--sinkhorn-iters", "0", "sinkhorn_iters"),
        ("register", "--tau", "1.5", "tau"),
        ("register", "--alpha", "nan", "alpha"),
        ("ablate", "--inlier-thresh", "0", "inlier_thresh"),
        ("eval", "--rot-thresholds", "abc", "rot_thresholds"),
        ("eval", "--rot-thresholds", "1,1.0,360", "rot_thresholds"),
        ("eval", "--trans-thresholds", "0.05,5e-2", "trans_thresholds"),
        ("ablate", "--rot-thresholds", "abc", "rot_thresholds"),
        ("ablate", "--trans-thresholds", "0.1,0.1", "trans_thresholds"),
    ],
)
def test_matching_flags_exit_2_before_reading_files(tmp_path, capsys, command, flag, value, key):
    # no input file exists, so a missing file would exit 1: only an
    # up-front check can exit 2 and name the flag
    missing = str(tmp_path / "nope")
    inputs = {
        "eval": ["--model", missing, "--data", missing],
        "register": ["--model", missing, "--source", missing, "--target", missing],
        "ablate": ["--data", missing, "--holdout", missing],
    }[command]
    assert run([command, *inputs]) == 1
    capsys.readouterr()
    assert run([command, *inputs, flag, value]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "ablate"])
@pytest.mark.parametrize(
    "rot, trans", [("7.5,30", "0.015,0.2"), ("5,10", "0.01,0.05")], ids=["7.5,30", "5,10"]
)
def test_eval_threshold_keys_echo_exactly(tmp_path, tiny_model, tiny_dataset, command, rot, trans):
    out = tmp_path / "report.json"
    inputs = {
        "eval": ["--model", tiny_model, "--data", tiny_dataset],
        "ablate": ["--data", tiny_dataset, "--holdout", tiny_dataset, "--iterations", "1",
                   "--batch-size", "1", "--widths", "6", "--knn-k", "3"],
    }[command]
    code = run([
        command, *inputs, "--json-out", str(out), "--rot-thresholds", rot, "--trans-thresholds", trans,
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    reports = [doc] if command == "eval" else [doc["report_a"], doc["report_b"]]
    for report in reports:
        assert sorted(report["rotation_map"]) == sorted(rot.split(","))
        assert sorted(report["translation_map"]) == sorted(trans.split(","))


def test_eval_empty_dataset_dir(tmp_path, tiny_model, capsys):
    code = run(["eval", "--model", tiny_model, "--data", str(tmp_path / "missing")])
    assert code == 1  # missing dataset is an IO error
    # a manifest of 0 samples is a runtime error too, the same for every command
    empty = tmp_path / "empty"
    write_dataset(empty, [], SynthConfig(m=48, n=24))
    for argv in (
        ["eval", "--model", tiny_model, "--data", str(empty)],
        ["train", "--data", str(empty), "--out-model", str(tmp_path / "m.json")],
        ["ablate", "--data", str(empty), "--holdout", str(empty)],
    ):
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no ") and "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_eval_reports_deterministic(tmp_path, tiny_model, tiny_dataset):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert run([
            "eval", "--model", tiny_model, "--data", tiny_dataset,
            "--json-out", str(out), "--tau", "0.2",
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "name, key_path, message",
    [
        ("model.json", None, "not a checkpoint file"),
        ("model.json", ("knn_k",), "missing key 'knn_k'"),
        ("model.json", ("layers", 0, "bias"), "layer 0: missing key 'bias'"),
        ("manifest.json", None, "expected a JSON object"),
        ("manifest.json", ("config",), "missing key 'config'"),
        ("manifest.json", ("samples", 1, "target"), "sample 1: missing key 'target'"),
        ("pair_00000_pose.json", ("rotation",), "missing key 'rotation'"),
        ("model.json", ("normalization",), "missing key 'normalization'"),
    ],
)
def test_eval_malformed_json_exits_1_naming_the_key(
    tmp_path, capsys, tiny_model, tiny_dataset, name, key_path, message
):
    # a checkpoint or dataset file that is not a JSON object (None) or
    # lacks the key at key_path gives one error line, not a traceback
    model, data, broken = copy_inputs(tmp_path, tiny_model, tiny_dataset, name)
    doc = json.loads(broken.read_text())
    if key_path is None:
        doc = [doc]
    else:
        parent = doc
        for key in key_path[:-1]:
            parent = parent[key]
        del parent[key_path[-1]]
    broken.write_text(json.dumps(doc))
    assert_eval_error_names(capsys, model, data, broken, message)


@pytest.mark.parametrize(
    "name, key_path, value, message",
    [
        ("model.json", ("layers",), 5, "key 'layers' must be a JSON array, got integer"),
        ("model.json", ("knn_k",), True, "key 'knn_k' must be a JSON integer, got boolean"),
        ("manifest.json", ("samples",), 5, "key 'samples' must be a JSON array, got integer"),
        ("manifest.json", ("samples", 0, "source"), 7,
         "sample 0: key 'source' must be a JSON string, got integer"),
        ("model.json", ("normalization",), 5,
         "key 'normalization' must be a JSON string, got integer"),
        # a string, but no normalization mode
        ("model.json", ("normalization",), "bogus", "unknown normalization 'bogus'"),
    ],
)
def test_eval_wrongly_typed_key_exits_1_naming_it(
    tmp_path, capsys, tiny_model, tiny_dataset, name, key_path, value, message
):
    model, data, broken = copy_inputs(tmp_path, tiny_model, tiny_dataset, name)
    doc = json.loads(broken.read_text())
    parent = doc
    for key in key_path[:-1]:
        parent = parent[key]
    parent[key_path[-1]] = value
    broken.write_text(json.dumps(doc))
    assert_eval_error_names(capsys, model, data, broken, message)


@pytest.mark.parametrize("name", ["model.json", "manifest.json", "pair_00000_pose.json"])
def test_eval_invalid_json_exits_1_naming_the_file(
    tmp_path, capsys, tiny_model, tiny_dataset, name
):
    model, data, broken = copy_inputs(tmp_path, tiny_model, tiny_dataset, name)
    broken.write_text("{not json")
    assert_eval_error_names(capsys, model, data, broken, "not valid JSON")


def copy_inputs(tmp_path, tiny_model, tiny_dataset, name):
    """Copies of the model and dataset, and the path of the file ``name`` among them."""
    model = tmp_path / "model.json"
    shutil.copy(tiny_model, model)
    data = tmp_path / "ds"
    shutil.copytree(tiny_dataset, data)
    return model, data, model if name == "model.json" else data / name


def assert_eval_error_names(capsys, model, data, broken, message):
    assert run(["eval", "--model", str(model), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {broken}: ") and message in err


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def test_ablate_smoke_json(tmp_path, tiny_dataset):
    out = tmp_path / "ablation.json"
    code = run([
        "ablate", "--data", tiny_dataset, "--holdout", tiny_dataset,
        "--iterations", "2", "--batch-size", "2", "--sinkhorn-iters", "5",
        "--widths", "6,6", "--knn-k", "3", "--tau", "0.2", "--json-out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["mode_a"] == "match_norm"
    assert doc["mode_b"] == "per_instance_norm"
    for key in ("report_a", "report_b"):
        assert "mean_true_inliers" in doc[key]
        assert "rotation_map" in doc[key]


# ---------------------------------------------------------------------------
# probe-svd
# ---------------------------------------------------------------------------

def test_probe_svd_tsv_monotone(capsys):
    assert run(["probe-svd", "--gaps", "1,0.1,0.01,0.001"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "sigma_gap\tgradient_magnitude"
    rows = [line.split("\t") for line in lines[1:]]
    mags = [float(r[1]) for r in rows]
    assert all(b >= a for a, b in zip(mags, mags[1:]))


def test_probe_svd_rejects_nonpositive(capsys):
    for gaps in ("1,-0.5", "1,x", "nan,1", "1,inf"):
        assert run(["probe-svd", "--gaps", gaps]) == 2
        assert "gaps" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# help
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cmd", ["gen", "train", "register", "eval", "ablate", "probe-svd"])
def test_help_lists_defaults(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        run([cmd, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "default" in text
    if cmd in ("train", "register", "eval"):
        assert "0.5" in text  # assignment temperature default
    flat = " ".join(text.split())
    # every default prints once, as argparse writes it, and never as None
    assert "(default " not in flat
    assert "(default: None)" not in flat
    if cmd in ("train", "ablate"):
        for key, value in TRAIN_DEFAULTS.items():
            if cmd == "ablate" and key in ABLATE_HIDDEN:
                continue  # accepted but not listed
            assert f"(default: {value})" in flat, key
        assert "(default: 2000)" in flat


TRAINING_ARGV = [
    "--iterations", "3", "--learning-rate", "0.01", "--batch-size", "2", "--lam", "0.4",
    "--sinkhorn-iters", "5", "--eval-sinkhorn-iters", "7", "--normalization", "none",
    "--seed", "9", "--checkpoint-every", "2", "--gt-thresh", "0.03", "--alpha", "0.8",
    "--tau", "0.3", "--knn-k", "4", "--widths", "6,6", "--config", "c.json",
]


def test_train_and_ablate_accept_the_same_training_flags(capsys):
    assert {flag.lstrip("-").replace("-", "_") for flag in TRAINING_ARGV[::2]} == {
        *TRAIN_KEYS, "config"
    }
    parser = build_parser()
    train_args = parser.parse_args(["train", "--data", "d", "--out-model", "m", *TRAINING_ARGV])
    ablate_args = parser.parse_args(["ablate", "--data", "d", "--holdout", "h", *TRAINING_ARGV])
    for key in (*TRAIN_KEYS, "config", "data"):
        assert getattr(train_args, key) == getattr(ablate_args, key), key
    # ablate writes no checkpoints, so its help does not offer the flag
    with pytest.raises(SystemExit):
        run(["ablate", "--help"])
    assert "--checkpoint-every" not in capsys.readouterr().out
