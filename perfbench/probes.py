"""Which library functions the traced run wraps, and the per-layer metrics.

Span names are ``<module>.<layer>``. A ``*_ms`` metric is the span's self
time per operation of the workload (training step, ``register`` call or
evaluated observation); callees that are not probed, such as
``augment_scores`` or the geometry helpers, count in their caller's self
time. ``*_peak_mb`` is the largest tracemalloc peak of one call above what
was allocated when it started. Counts are per operation, ratios are over
the calls they describe and read 0 where those calls never happen.
"""

from __future__ import annotations

import statistics
from collections import Counter

from matchreg import cli, features, matching, metrics, solver, supervision, synth, training
from tracer import Probe


def _count_matches(counts: Counter, matches) -> None:
    counts["matches"] += len(matches)


def _count_icp(counts: Counter, result) -> None:
    counts["icp_iterations"] += result.iterations
    counts["icp_converged"] += bool(result.converged)


def _count_fallbacks(counts: Counter, result) -> None:
    counts["fallbacks"] += not result.converged


def _count_skipped(counts: Counter, result) -> None:
    _, log = result
    counts["skipped"] += sum(r["skipped"] for r in log.records)
    counts["picked"] += log.config["batch_size"] * len(log.records)


PROBES = [
    Probe("features.knn", features, "knn_indices", peak=True),
    Probe("features.forward", features, "extract_features"),
    Probe("features.match_normalize", features, "match_normalize"),
    Probe("features.backward", features, "extract_features_backward"),
    Probe("features.load_checkpoint", features, "load_checkpoint"),
    Probe("matching.score_map", matching, "score_map"),
    Probe("matching.sinkhorn_forward", matching, "sinkhorn_log", peak=True),
    Probe("matching.sinkhorn_backward", matching, "sinkhorn_backward"),
    Probe("matching.extract_matches", matching, "extract_matches", on_result=_count_matches),
    Probe("supervision.gt_build", supervision, "build_gt_matrix", peak=True),
    Probe("supervision.nll", supervision, "nll_loss"),
    Probe("supervision.gradient_self", supervision, "end_to_end_gradient"),
    Probe("solver.kabsch", solver, "weighted_kabsch"),
    Probe("solver.icp", solver, "icp_refine", on_result=_count_icp),
    Probe("solver.register_self", solver, "register", on_result=_count_fallbacks),
    Probe("metrics.model_diameter", metrics, "model_diameter", peak=True),
    Probe("metrics.scoring", metrics, "add_score"),
    Probe("metrics.scoring", metrics, "count_true_inliers"),
    Probe("metrics.scoring", metrics, "rotation_error_deg"),
    Probe("metrics.scoring", metrics, "translation_error"),
    Probe("metrics.scoring", metrics, "build_report"),
    Probe("metrics.scoring", training, "evaluate_dataset"),
    Probe("training.adam", training, "adam_step"),
    Probe("training.loop_self", training, "train", on_result=_count_skipped),
    Probe("synth.generate_pair", synth, "generate_pair"),
    Probe("synth.read_dataset", synth, "read_dataset"),
    Probe("cli.eval_self", cli, "main"),
]


def layer_metrics(tracer, root: str, base, traced) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced segment; ``base`` is the untraced one."""
    ops = traced.attempted
    self_s = tracer.self_seconds()
    counts = tracer.counts

    def ms(span):
        return 1000 * self_s.get(span, 0.0) / ops, "ms"

    def mb(span):
        return tracer.peaks.get(span, 0) / 2**20, "MB"

    def per_op(key):
        return counts[key] / ops, "count"

    def ratio(part, whole):
        return (counts[part] / counts[whole] if counts[whole] else 0.0), "ratio"

    overhead = statistics.median(traced.op_ms()) / statistics.median(base.op_ms()) - 1
    coverage = tracer.self_seconds_under(root) / sum(traced.seconds)
    return {
        "features.knn_ms": ms("features.knn"),
        "features.forward_ms": ms("features.forward"),
        "features.match_normalize_ms": ms("features.match_normalize"),
        "features.backward_ms": ms("features.backward"),
        "features.knn_peak_mb": mb("features.knn"),
        "features.load_checkpoint_ms": ms("features.load_checkpoint"),
        "matching.score_map_ms": ms("matching.score_map"),
        "matching.sinkhorn_forward_ms": ms("matching.sinkhorn_forward"),
        "matching.sinkhorn_backward_ms": ms("matching.sinkhorn_backward"),
        "matching.extract_matches_ms": ms("matching.extract_matches"),
        "matching.sinkhorn_peak_mb": mb("matching.sinkhorn_forward"),
        "matching.matches_per_op": per_op("matches"),
        "supervision.gt_build_ms": ms("supervision.gt_build"),
        "supervision.gt_builds": per_op("supervision.gt_build.calls"),
        "supervision.gt_peak_mb": mb("supervision.gt_build"),
        "supervision.nll_ms": ms("supervision.nll"),
        "supervision.skipped_ratio": ratio("skipped", "picked"),
        "supervision.gradient_self_ms": ms("supervision.gradient_self"),
        "solver.kabsch_ms": ms("solver.kabsch"),
        "solver.kabsch_calls": per_op("solver.kabsch.calls"),
        "solver.icp_ms": ms("solver.icp"),
        "solver.icp_iterations": per_op("icp_iterations"),
        "solver.icp_converged_ratio": ratio("icp_converged", "solver.icp.calls"),
        "solver.register_self_ms": ms("solver.register_self"),
        "solver.fallback_ratio": ratio("fallbacks", "solver.register_self.calls"),
        "metrics.model_diameter_ms": ms("metrics.model_diameter"),
        "metrics.model_diameter_peak_mb": mb("metrics.model_diameter"),
        "metrics.scoring_ms": ms("metrics.scoring"),
        "training.adam_ms": ms("training.adam"),
        "training.loop_self_ms": ms("training.loop_self"),
        "synth.generate_pair_ms": ms("synth.generate_pair"),
        "synth.read_dataset_ms": ms("synth.read_dataset"),
        "cli.eval_self_ms": ms("cli.eval_self"),
        "trace.overhead_pct": (100 * overhead, "%"),
        "trace.coverage_pct": (100 * coverage, "%"),
    }
