"""Partial-to-whole point cloud registration for 6D object pose estimation.

The pipeline: an edge-feature network with Match Normalization produces
per-point descriptors for the full model cloud and the observed partial
cloud; descriptor inner products form a score map that a Sinkhorn layer
with outlier bins turns into a soft assignment; hard matches feed a weighted
Kabsch solve, optionally refined by ICP. The Sinkhorn layer iterates in the
scaling domain (matrix-vector products on exp(scores / lambda)); a guard
falls back to log-domain iterations when exp would under- or overflow.
Training minimizes the negative log-likelihood of the assignment at
ground-truth correspondences, end to end through the unrolled Sinkhorn
iterations.
"""

from .errors import MatchregError
from .features import (
    NetParams,
    LayerParams,
    SourceEncoding,
    encode_source,
    encode_target,
    extract_features,
    extract_features_backward,
    init_net_params,
    knn_indices,
    load_checkpoint,
    match_normalize,
    save_checkpoint,
)
from .geometry import (
    Pose,
    TriangleMesh,
    apply_pose,
    hidden_point_removal,
    random_rotation_uniform,
    sample_mesh_surface,
)
from .matching import (
    Match,
    augment_scores,
    extract_matches,
    score_map,
    sinkhorn_log,
)
from .metrics import (
    MetricsReport,
    add_score,
    count_true_inliers,
    map_aggregate,
    rotation_error_deg,
    translation_error,
)
from .solver import RegisterOptions, RegistrationResult, icp_refine, register, weighted_kabsch
from .supervision import (
    GtCorrespondence,
    build_gt_matrix,
    end_to_end_gradient,
    nll_loss,
    svd_gradient_probe,
)
from .synth import PairSample, SynthConfig, generate_dataset, generate_pair, make_shape
from .training import TrainConfig, ablate, evaluate_dataset, train

__version__ = "0.1.0"
