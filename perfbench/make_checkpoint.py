"""Regenerate the desk-trained checkpoint that register-gen and eval-views load.

    python3 perfbench/make_checkpoint.py           # rewrite desk_model.json
    python3 perfbench/make_checkpoint.py --check   # retrain, compare bytes

The configuration is acceptance criterion 6's (full-rotation trainability):
1000 clean 128/112 pairs of unit-scale shapes under full SO(3) rotations,
2000 Adam steps of batch 8 through 20 unrolled Sinkhorn iterations, Match
Normalization. Training is byte-deterministic, so the output is identical
on every run; it takes about five minutes on two cores.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import program

CHECKPOINT = Path(__file__).resolve().parent / "desk_model.json"

DESK_SYNTH = dict(
    m=128, n=112, noise_sigma=0.0, outlier_fraction=0.0, rotation_max_deg=None,
    scale_range=(1.0, 1.0), hpr_gamma=1e4, translation_bound=0.5, seed=42,
)
DESK_SAMPLES = 1000
DESK_TRAIN = dict(
    iterations=2000, batch_size=8, sinkhorn_iters=20, seed=1, checkpoint_every=0,
    tau=0.2, normalization="match_norm",
)
DESK_INIT_SEED = 0


def build(out: Path) -> None:
    import numpy as np
    from matchreg import features, synth, training

    data = synth.generate_dataset(synth.SynthConfig(**DESK_SYNTH), DESK_SAMPLES)
    params0 = features.init_net_params(np.random.default_rng(DESK_INIT_SEED))
    cfg = training.TrainConfig(**DESK_TRAIN)
    params, _ = training.train(cfg, data, params0)
    features.save_checkpoint(out, params, normalization=cfg.normalization)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="retrain into a temporary file and compare it with the checked-in one",
    )
    args = parser.parse_args(argv)
    program.load()
    if not args.check:
        build(CHECKPOINT)
        print(f"wrote {CHECKPOINT}")
        return 0
    work = CHECKPOINT.parent / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        fresh = Path(tmp) / CHECKPOINT.name
        build(fresh)
        same = fresh.read_bytes() == CHECKPOINT.read_bytes()
    print(f"{CHECKPOINT.name}: {'identical' if same else 'DIFFERS'} after retraining")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
