"""The benchmark's three workloads, each a closed loop with one caller.

A workload builds its inputs from the seed in ``setup`` (timed as set-up),
hands out one timed unit of work at a time (``next_unit`` prepares it
outside the timing, ``run`` is timed), checks each unit's output outside the
timing (``failed_ops``), and runs its independent checks after the loop
(``checks``). An operation is the thing a user waits for: a training step,
a ``register`` call, one evaluated observation.

The library is reached through module attributes at call time (for example
``solver.register``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from pathlib import Path

import numpy as np

import checks
from matchreg import (
    cli, errors, features, geometry, matching, metrics, solver, supervision, synth, training,
)

CHECKPOINT = Path(__file__).resolve().parent / "desk_model.json"


@dataclasses.dataclass
class Unit:
    inputs: object
    ops: int   # operations the unit performs


class Workload:
    name: str
    root: str             # tracer probe of the outermost call in ``run``
    samples_per_op: int   # samples one operation consumes

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def next_unit(self) -> Unit:
        raise NotImplementedError

    def run(self, unit: Unit):
        raise NotImplementedError

    def failed_ops(self, unit: Unit, output) -> list[str]:
        """Problems found in one unit's output; any problem fails the whole unit."""
        raise NotImplementedError

    def checks(self) -> list[str]:
        raise NotImplementedError

    def summary(self) -> dict[str, float]:
        """Figures worth printing that are not benchmark metrics."""
        return {}


# ---------------------------------------------------------------------------
# train-desk
# ---------------------------------------------------------------------------

# Criterion 7's ablation data: full SO(3), scales 0.5-2, 5 % outliers.
TRAIN_SYNTH = dict(
    m=128, n=112, noise_sigma=0.0, outlier_fraction=0.05, outlier_bound=0.5,
    rotation_max_deg=None, scale_range=(0.5, 2.0), hpr_gamma=1e4, translation_bound=0.5,
)
TRAIN_SAMPLES = 32
TRAIN_STEPS = 12
TRAIN_BATCH = 8
LOSS_WINDOW = 3  # logged steps averaged for the printed train_loss


class TrainDesk(Workload):
    name = "train-desk"
    root = "training.loop_self"
    samples_per_op = TRAIN_BATCH

    def setup(self, seed, workdir):
        self.data = synth.generate_dataset(synth.SynthConfig(**TRAIN_SYNTH, seed=seed), TRAIN_SAMPLES)
        self.params0 = features.init_net_params(np.random.default_rng(seed))
        self.cfg = training.TrainConfig(
            iterations=TRAIN_STEPS, batch_size=TRAIN_BATCH, sinkhorn_iters=20, seed=seed,
            checkpoint_every=0, tau=0.2, normalization="match_norm",
        )
        self.first_losses = None
        self.trained = None
        self.set_losses = None   # training-set loss before and after, from checks()

    def next_unit(self):
        return Unit(None, TRAIN_STEPS)

    def run(self, unit):
        return training.train(self.cfg, self.data, self.params0)

    def failed_ops(self, unit, output):
        params, log = output
        losses = [r["loss"] for r in log.records]
        if self.first_losses is None:
            self.first_losses = losses
            self.trained = params
        problems = []
        if len(losses) != TRAIN_STEPS or not all(
            loss is not None and np.isfinite(loss) for loss in losses
        ):
            problems.append("train: a logged loss is missing or not finite")
        if losses != self.first_losses:
            problems.append("train: a repeated run logged different losses")
        return problems

    def _set_loss(self, params) -> float:
        """Mean NLL over all training samples, computed as ``train`` computes a batch's.

        The final loss is compared with the first on this rather than on the
        logged batch losses: those average a few random batches of 8, and on
        some seeds (5 of 0-199 and 1000-1029) the last batches happen to be
        harder than the first although the network improved.
        """
        losses = []
        for sample in self.data:
            gt = supervision.build_gt_matrix(
                sample.source, sample.target, sample.gt_pose, self.cfg.gt_thresh
            )
            try:
                res = supervision.end_to_end_gradient(
                    params, sample.source, sample.target, gt, lam=self.cfg.lam,
                    iters=self.cfg.sinkhorn_iters, alpha=self.cfg.alpha,
                    normalization=self.cfg.normalization, mode="train",
                )
            except errors.EmptyGroundTruth:  # train() skips these samples too
                continue
            losses.append(res.loss)
        return float(np.mean(losses))

    def checks(self):
        problems = []
        if self.trained is None:
            problems.append("train: no run finished")
        else:
            self.set_losses = (self._set_loss(self.params0), self._set_loss(self.trained))
            if not self.set_losses[1] < self.set_losses[0]:
                problems.append(
                    "train: the training-set loss after training (%.6f) is not below "
                    "the loss before it (%.6f)" % self.set_losses[::-1]
                )
        sample = self.data[0]
        problems += checks.knn(features.knn_indices, sample.source, self.params0.knn_k)
        fx, fy, _ = features.extract_features(self.params0, sample.source, sample.target, mode="train")
        problems += checks.score_map(matching.score_map, fx, fy)
        aug = matching.augment_scores(matching.score_map(fx, fy), alpha=self.cfg.alpha)
        problems += checks.sinkhorn(matching.sinkhorn_log, aug, self.cfg.lam, self.cfg.sinkhorn_iters)
        gt = supervision.build_gt_matrix(sample.source, sample.target, sample.gt_pose, self.cfg.gt_thresh)
        kwargs = dict(lam=self.cfg.lam, iters=self.cfg.sinkhorn_iters, alpha=self.cfg.alpha, mode="train")
        problems += checks.gradient_fd(supervision.end_to_end_gradient, self.params0, sample, gt, kwargs)
        return problems

    def summary(self):
        if not self.first_losses:
            return {}
        figures = {"train_loss": float(np.mean(self.first_losses[-LOSS_WINDOW:]))}
        if self.set_losses is not None:
            figures["train_set_loss_before"], figures["train_set_loss_after"] = self.set_losses
        return figures


# ---------------------------------------------------------------------------
# register-gen
# ---------------------------------------------------------------------------

# The ``gen`` defaults (1024/768, scales 0.5-2, full SO(3)) with sensor noise
# and outliers.
REGISTER_SYNTH = synth.SynthConfig(m=1024, n=768, noise_sigma=0.005, outlier_fraction=0.05)
REGISTER_TAU = 0.2
REGISTER_POOL = 64   # pairs made during set-up; later calls make theirs untimed
EQUIVARIANCE_CALLS = 2
# Quality over a run's calls; see README.md for the figures they were set from.
REGISTER_MAX_FALLBACK_SHARE = 0.35
REGISTER_MIN_MEAN_MATCHES = 14.0


class RegisterGen(Workload):
    name = "register-gen"
    root = "solver.register_self"
    samples_per_op = 1

    def setup(self, seed, workdir):
        self.params, normalization = features.load_checkpoint(CHECKPOINT)
        self.opts = solver.RegisterOptions(
            sinkhorn_iters=50, tau=REGISTER_TAU, normalization=normalization, use_icp=True
        )
        self.seed = seed
        self.pool = [self._pair(i) for i in range(REGISTER_POOL)]
        self.index = 0
        self.kept = []   # the first pairs, for the equivariance check
        self.converged = []
        self.match_counts = []

    def _pair(self, i):
        return synth.generate_pair(REGISTER_SYNTH, np.random.default_rng([self.seed, i]))

    def next_unit(self):
        # each call gets a pair no earlier call has seen
        i = self.index
        self.index += 1
        return Unit(self.pool[i] if i < REGISTER_POOL else self._pair(i), 1)

    def run(self, unit):
        return solver.register(self.params, unit.inputs.source, unit.inputs.target, self.opts)

    def failed_ops(self, unit, output):
        if len(self.kept) < EQUIVARIANCE_CALLS:
            self.kept.append(unit.inputs)
        self.converged.append(output.converged)
        self.match_counts.append(len(output.matches))
        return checks.registration(output, REGISTER_SYNTH.m, REGISTER_SYNTH.n, REGISTER_TAU)

    def checks(self):
        problems = checks.match_quality(
            "register", self.converged, self.match_counts,
            REGISTER_MAX_FALLBACK_SHARE, REGISTER_MIN_MEAN_MATCHES,
        )
        pair = self.kept[0]
        problems += checks.knn(features.knn_indices, pair.source, self.params.knn_k)
        fx, fy, _ = features.extract_features(self.params, pair.source, pair.target, mode="eval")
        problems += checks.score_map(matching.score_map, fx, fy)
        aug = matching.augment_scores(matching.score_map(fx, fy), alpha=self.opts.alpha)
        problems += checks.sinkhorn(matching.sinkhorn_log, aug, self.opts.lam, self.opts.sinkhorn_iters)
        rng = np.random.default_rng([self.seed, 1 << 31])
        problems += checks.kabsch(solver.weighted_kabsch, matching.Match, pair.source, rng)
        # without ICP: its 50 iterations from a poor start amplify rounding
        # differences, so only the matching and Kabsch path is equivariant
        plain = dataclasses.replace(self.opts, use_icp=False)
        for pair in self.kept:
            shift = rng.uniform(-1.0, 1.0, 3)
            base = solver.register(self.params, pair.source, pair.target, plain)
            shifted = solver.register(self.params, pair.source, pair.target + shift, plain)
            problems += checks.translation_equivariance(base, shifted, shift, pair)
        return problems


# ---------------------------------------------------------------------------
# eval-views
# ---------------------------------------------------------------------------

# One CAD model (the chamfered box at unit scale), many depth frames of it.
EVAL_SHAPE = "box"
EVAL_M = 2048
EVAL_N = 512
EVAL_VIEWS = 4
EVAL_TAU = 0.2
EVAL_MAX_FALLBACK_SHARE = 0.15
EVAL_MIN_MEAN_MATCHES = 8.0
EVAL_SYNTH = synth.SynthConfig(
    m=EVAL_M, n=EVAL_N, noise_sigma=0.005, outlier_fraction=0.05,
    scale_range=(1.0, 1.0), shapes=(EVAL_SHAPE,),
)


def observe(source, cfg: synth.SynthConfig, rng) -> synth.PairSample:
    """One posed, partial, noisy view of a given ``source``.

    A copy of ``synth.generate_pair`` from the pose draw on (``_draw_pose``
    with full SO(3), the viewpoint retry loop, the subsampling and padding,
    noise and outliers), because ``generate_pair`` draws a new source cloud
    for every pair and eval-views needs one cloud shared by every view.
    Keep it in step with ``generate_pair`` when that changes.
    """
    gt_pose = geometry.Pose(
        geometry.random_rotation_uniform(rng),
        rng.uniform(-cfg.translation_bound, cfg.translation_bound, 3),
    )
    posed = geometry.apply_pose(gt_pose, source)

    center = posed.mean(axis=0)
    radius = float(np.linalg.norm(posed - center, axis=1).max())
    last_err = None
    visible = None
    for _ in range(10):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        viewpoint = center + cfg.viewpoint_distance_factor * radius * direction
        try:
            visible = geometry.hidden_point_removal(posed, viewpoint, gamma=cfg.hpr_gamma)
            break
        except errors.DegenerateView as err:
            last_err = err
    if visible is None:
        raise last_err
    vis_pts = posed[visible]

    if len(vis_pts) >= cfg.n:
        sel = rng.choice(len(vis_pts), cfg.n, replace=False)
    else:
        pad = rng.choice(len(vis_pts), cfg.n - len(vis_pts), replace=True)
        sel = np.concatenate([np.arange(len(vis_pts)), pad])
    target = geometry.add_noise_and_outliers(
        vis_pts[sel], cfg.noise_sigma, cfg.outlier_fraction, cfg.outlier_bound, rng
    )
    return synth.PairSample(source, target, gt_pose, EVAL_SHAPE, cfg.scale_range[0])


class EvalViews(Workload):
    name = "eval-views"
    root = "cli.eval_self"
    samples_per_op = 1

    def setup(self, seed, workdir):
        mesh = synth.make_shape(EVAL_SHAPE, EVAL_SYNTH.scale_range[0])
        self.source = geometry.sample_mesh_surface(mesh, EVAL_M, np.random.default_rng(seed))
        self.seed = seed
        self.data_dir = workdir / "views"
        self.report_path = workdir / "report.json"
        self.argv = [
            "eval", "--model", str(CHECKPOINT), "--data", str(self.data_dir),
            "--tau", str(EVAL_TAU), "--json-out", str(self.report_path),
        ]
        self.report = None
        self.index = 0
        self.converged = []
        self.match_counts = []
        self._write_views(0)

    def _write_views(self, i):
        """Dataset of unit i: EVAL_VIEWS fresh views, all of the same source array."""
        rng = np.random.default_rng([self.seed, i])
        self.samples = [observe(self.source, EVAL_SYNTH, rng) for _ in range(EVAL_VIEWS)]
        synth.write_dataset(self.data_dir, self.samples, EVAL_SYNTH)

    def next_unit(self):
        # set-up wrote unit 0's views; every later unit gets new ones
        if self.index > 0:
            self._write_views(self.index)
        self.index += 1
        return Unit(None, EVAL_VIEWS)

    def run(self, unit):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def failed_ops(self, unit, output):
        if output != 0:
            return [f"eval: exit code {output}"]
        self.report = json.loads(self.report_path.read_text())
        if self.report["sample_count"] != EVAL_VIEWS:
            return [f"eval: {self.report['sample_count']} samples reported"]
        self.converged += [r["converged"] for r in self.report["per_sample"]]
        self.match_counts += [r["pred_matches"] for r in self.report["per_sample"]]
        return []

    def checks(self):
        source = self.source
        params, normalization = features.load_checkpoint(CHECKPOINT)
        problems = checks.match_quality(
            "eval", self.converged, self.match_counts,
            EVAL_MAX_FALLBACK_SHARE, EVAL_MIN_MEAN_MATCHES,
        )
        problems += checks.knn(features.knn_indices, source, params.knn_k)
        problems += checks.diameter(metrics.model_diameter, source)
        if self.report is None:
            return problems + ["eval: no report was written"]
        problems += checks.report_tables(self.report)
        opts = solver.RegisterOptions(tau=EVAL_TAU, normalization=normalization)
        result = solver.register(params, source, self.samples[0].target, opts)
        problems += checks.report_sample(
            self.report["per_sample"][0], result.pose, result.matches, self.samples[0],
            metrics.DEFAULT_INLIER_THRESHOLD, metrics.ADD_PASS_DIAMETER_FRACTION,
        )
        return problems


WORKLOADS = {w.name: w for w in (TrainDesk, RegisterGen, EvalViews)}
