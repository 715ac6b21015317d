"""Deterministic numpy core for multispectral pedestrian detection.

The package covers four areas: bounding-box geometry (IoU, CIoU, hulls,
NMS, their pair kernels, and the columnar ``DetectionTable``),
the strip-convolution fusion block forward pass, cross-modal reliability
scoring with a KL-divergence alignment loss, and detection post-processing
plus log-average miss-rate evaluation.
"""

from .balance import (
    DEFAULT_TOP_N,
    ReliabilityReport,
    best_ciou_scores,
    corpus_reliability,
    cosine_matrix,
    kl_loss,
    kl_rowwise,
    modality_alignment_loss,
    relation_matrix,
    reliability,
    roi_align,
    thermal_reliability_percentage,
    total_loss,
)
from .containers import TENSORS_MAGIC, WEIGHTS_MAGIC, load_tensors, save_tensors
from .evaluation import (
    STANDARD_SETTINGS,
    EvalSetting,
    FrameRecord,
    GroundTruthBox,
    GroundTruthTable,
    MatchResult,
    apply_setting,
    as_truths,
    evaluate_matrix,
    log_average_miss_rate,
    match_frame,
    miss_rate_curve,
)
from .fusion import (
    FusionWeights,
    cascade_strip_mix,
    channel_mix,
    conv2d_same,
    deinterleave_rows,
    dws_conv,
    fusion_forward,
    gated_strip_mix,
    gelu,
    global_response_norm,
    interleave_rows,
    pointwise_affine,
    softmax,
    strip_conv,
    temporal_adaptive_conv,
    temporal_fuse,
)
from .geometry import (
    BBox,
    Detection,
    DetectionTable,
    as_table,
    boxes_array,
    ciou,
    ciou_pairs,
    convex_hull,
    iou,
    iou_pairs,
    nms,
)
from .ingest import (
    Manifest,
    RunConfig,
    attach_detections,
    format_results,
    ingest_detections,
    load_config,
    load_manifest,
    run_config_from_mapping,
    serialize_detections,
)
from .postprocess import FusedDetection, PostprocessConfig, fuse_scale, run_strategy

__version__ = "0.1.0"
