"""Cross-modal reliability scoring and KL-divergence feature alignment.

Reliability of each modality is the mean of its top-n CIoU scores against
ground truth; the more reliable modality anchors RoI feature extraction,
and a directed row-wise KL divergence between the two relation matrices
pushes the weaker feature distribution toward the stronger one.

One kernel scores a list of (detection, ground truth) pairs: one
``geometry.ciou_pairs`` call, then each detection's best score and overlap
test by ``reduceat``; a box without an aspect ratio raises, named with its
side, frame and scale. ``corpus_reliability`` joins detections to frames
by ``evaluation``'s one frame-id join, gives it every same-frame pair
(``geometry.segment_pairs`` order) and averages the top scores of all
(instance, modality) slices of one length as the rows of one sorted
matrix. ``best_ciou_scores`` gives it one instance's detections, each
paired with every ground truth, and ``reliability`` averages those through
the same top-n step, so every report is bit for bit what the per-instance
arithmetic (a sorted slice's ``.mean()``) gives.
Instances come in record order, then ``SCALES`` order; ties ``r_t == r_v``
go to visible.

``roi_align`` pools any number of boxes, given as ``BBox`` objects or as an
(N, 4) corner array, into the rows of one (N, 9 * F * C) array, gathering
the bilinear corners of every sample point in chunks of boxes sized to
the package's one 2 MiB budget (``geometry._block``); the alignment loss
calls it once per feature map with the scaled corners of the reference
modality's top detections.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .evaluation import FrameRecord, GroundTruthTable, _frame_index, as_truths
from .fusion import softmax
from .geometry import (
    MODALITIES,
    SCALES,
    BBox,
    Detection,
    DetectionTable,
    _block,
    as_table,
    boxes_array,
    check_corners,
    ciou_pairs,
    degenerate_rows,
    segment_pairs,
)

DEFAULT_TOP_N = 300


@dataclass(frozen=True)
class ReliabilityReport:
    """Per-instance modality reliabilities and the resulting reference.

    The reference is thermal exactly when r_t > r_v (strict); ties go to
    visible. ``n_used`` is the number of reference-modality boxes available
    for downstream RoI extraction.
    """

    r_v: float
    r_t: float
    reference_modality: str
    n_used: int


class _InputError(ValueError):
    # An error that one input is at fault for, so a caller can name the file
    # it came from: ``source`` is "detections", "truths" or "features", and
    # ``frame_id`` the frame of the box at fault, if one is.
    def __init__(self, message: str, source: str, frame_id: str | None = None) -> None:
        super().__init__(message)
        self.source, self.frame_id = source, frame_id


def _best_ciou(
    table: DetectionTable, rows, gt_corners, det, gt, instance=None
) -> tuple[np.ndarray, np.ndarray]:
    # The best CIoU of each detection rows[i] of ``table`` over its pairs
    # (rows[det[k]], gt_corners[gt[k]]), where det ascends and holds every
    # i, and which detections count: all of them, or, given their instance
    # codes, those of the instances where some detection overlaps a ground
    # truth (IoU > 0). The first counted pair that holds a box without an
    # aspect ratio raises, naming the detection before the ground truth.
    corners = table.corners[rows]
    overlap, score = ciou_pairs(corners, gt_corners, det, gt)
    first = np.flatnonzero(np.diff(det, prepend=-1))
    counted = np.ones(len(rows), dtype=bool)
    if instance is not None:
        counted = np.isin(instance, instance[np.logical_or.reduceat(overlap > 0.0, first)])
    flat, flat_gt = degenerate_rows(corners), degenerate_rows(gt_corners)
    bad = np.flatnonzero(counted[det] & (flat[det] | flat_gt[gt]))
    if bad.size:
        i, row = det[bad[0]], rows[det[bad[0]]]
        if flat[i]:
            side, box = f"{MODALITIES[table.modality_codes[row]]} detection", corners[i]
        else:
            side, box = "ground truth", gt_corners[gt[bad[0]]]
        frame_id = table.frame_ids[table.frame_codes[row]]
        scale = SCALES[table.scale_codes[row]]
        message = f"{side} {tuple(box.tolist())} of frame {frame_id!r} at scale {scale}"
        source = "detections" if flat[i] else "truths"
        raise _InputError(f"degenerate aspect ratio: {message}", source, frame_id)
    return np.maximum.reduceat(score, first), counted


def best_ciou_scores(dets: Sequence[Detection], gts: Sequence[BBox]) -> np.ndarray:
    """Best CIoU of each detection against any ground-truth box: every
    detection is paired with every ground truth and scored by the kernel
    ``corpus_reliability`` runs. A box without an aspect ratio raises,
    naming it, its frame and scale."""
    if not dets:
        return np.empty(0, dtype=np.float64)
    if not gts:
        raise ValueError("no reference objects")
    n, m = len(dets), len(gts)
    det, gt = np.repeat(np.arange(n), m), np.tile(np.arange(m), n)
    return _best_ciou(as_table(dets), np.arange(n), boxes_array(gts), det, gt)[0]


def _check_n_top(n_top) -> None:
    # n_top slices each modality's sorted scores: an integer, at least 1.
    if not isinstance(n_top, numbers.Integral):
        raise ValueError(f"n_top must be an integer, got {n_top}")
    if n_top < 1:
        raise ValueError(f"n_top must be >= 1, got {n_top}")


def _instance_reports(
    scores: np.ndarray, slices: np.ndarray, n_instances: int, n_top: int
) -> list[ReliabilityReport]:
    # One report per instance from its detections' best CIoU scores, where
    # slices[i] = 2 * instance + (1 if thermal else 0) ascends, so that each
    # (instance, modality) slice is one run of scores. Each modality
    # averages its n_top best scores (all of them when fewer exist, 0.0
    # when it has none). Slices of one length are sorted as the rows of one
    # matrix, and .mean(axis=1) of contiguous descending rows is the same
    # pairwise sum and division, bit for bit, as .mean() of each slice's
    # descending top scores.
    _check_n_top(n_top)
    count = np.bincount(slices, minlength=2 * n_instances)
    start = np.cumsum(count) - count
    means = np.zeros(2 * n_instances)
    for size in np.unique(count[count > 0]).tolist():
        which = np.flatnonzero(count == size)
        rows = -np.sort(-scores[start[which, None] + np.arange(size)], axis=1)
        means[which] = rows[:, :n_top].mean(axis=1)
    used = np.minimum(count, n_top).tolist()
    reports = []
    r_v_all, r_t_all = means[0::2].tolist(), means[1::2].tolist()
    for r_v, r_t, k_v, k_t in zip(r_v_all, r_t_all, used[0::2], used[1::2]):
        thermal_ref = r_t > r_v  # ties go to visible
        reports.append(
            ReliabilityReport(
                r_v=r_v,
                r_t=r_t,
                reference_modality="ir" if thermal_ref else "vis",
                n_used=k_t if thermal_ref else k_v,
            )
        )
    return reports


def reliability(
    vis_dets: Sequence[Detection],
    thermal_dets: Sequence[Detection],
    gt_boxes: Sequence[BBox],
    n_top: int = DEFAULT_TOP_N,
) -> ReliabilityReport:
    """Score both modalities against ground truth and pick the reference.

    Each detection is scored by its best CIoU over the ground-truth boxes;
    the top ``n_top`` scores per modality are averaged (all available ones
    when fewer exist; 0.0 for a modality with no detections).
    """
    return _score_modalities(vis_dets, thermal_dets, gt_boxes, n_top)[0]


def _score_modalities(
    vis_dets: Sequence[Detection],
    thermal_dets: Sequence[Detection],
    gt_boxes: Sequence[BBox],
    n_top: int,
) -> tuple[ReliabilityReport, np.ndarray]:
    # The reliability report of one instance, plus the rows of the reference
    # modality's top n_used detections in descending score order.
    if not gt_boxes:
        raise ValueError("no reference objects")
    scores_v = best_ciou_scores(vis_dets, gt_boxes)
    scores_t = best_ciou_scores(thermal_dets, gt_boxes)
    slices = np.repeat([0, 1], [len(scores_v), len(scores_t)])
    (report,) = _instance_reports(np.concatenate([scores_v, scores_t]), slices, 1, n_top)
    scores = scores_t if report.reference_modality == "ir" else scores_v
    return report, np.argsort(-scores, kind="stable")[: report.n_used]


def corpus_reliability(
    dets: Sequence[Detection],
    records: Sequence[FrameRecord] | GroundTruthTable,
    n_top: int = DEFAULT_TOP_N,
) -> list[tuple[str, str, Optional[ReliabilityReport]]]:
    """Reliability of every (record, scale) instance of a corpus.

    Each record with at least one non-ignored ground truth gives one entry
    per scale, in record order and then ``SCALES`` order: (frame id, scale,
    report), where the report is what ``reliability`` gives for the vis and
    ir detections of that frame and scale against those ground truths, or
    None when none of them overlaps a ground truth (IoU > 0). Detections of
    frames without a record, and fused ones, are ignored. A box without an
    aspect ratio raises only in an instance that is scored, with the error
    ``reliability`` gives for that instance.

    The whole corpus runs as one pass over the ground-truth columns of
    ``as_truths(records)``, so a ``GroundTruthTable`` is read as it is. The
    join ``miss_rate_curve`` uses gives each detection its record; one
    stable sort groups the rows by record, scale and modality;
    ``segment_pairs`` gives each row its record's ground truths;
    ``_best_ciou`` scores the pairs and takes each detection's best score;
    and the (instance, modality) slices of each length are sorted and
    averaged as the rows of one matrix. Each report equals the one
    ``reliability`` gives for its instance, bit for bit.
    """
    table = as_table(dets)
    truths = as_truths(records)
    # The non-ignored ground truths, and the records holding any, in order.
    kept = ~truths.ignore
    gt_corners = truths.corners[kept]
    scored_records, gt_record = np.unique(truths.frame[kept], return_inverse=True)
    frame_ids = [truths.frame_ids[i] for i in scored_records.tolist()]
    # Each row's scored record or -1 (frame index -1 reads the spare slot);
    # then the scored vis and ir rows by record, scale, modality and row.
    slot = np.full(len(truths.frame_ids) + 1, -1, dtype=np.intp)
    slot[scored_records] = np.arange(len(frame_ids))
    record = slot[_frame_index(truths, table)]
    key = (record * len(SCALES) + table.scale_codes) * len(MODALITIES)
    key += table.modality_codes
    rows = np.flatnonzero((record >= 0) & (table.modality_codes != MODALITIES.index("fused")))
    rows = rows[np.argsort(key[rows], kind="stable")]
    record = record[rows]
    # Each detection meets the ground truths of its record in one run of
    # pairs.
    det, gt = segment_pairs(record, gt_record)
    instance = record * len(SCALES) + table.scale_codes[rows]
    scores, keep = _best_ciou(table, rows, gt_corners, det, gt, instance)
    scored = np.zeros(len(frame_ids) * len(SCALES), dtype=bool)
    scored[instance[keep]] = True
    thermal = table.modality_codes[rows[keep]] == MODALITIES.index("ir")
    reports = _instance_reports(scores[keep], 2 * instance[keep] + thermal, len(scored), n_top)
    instances = [(frame_id, scale) for frame_id in frame_ids for scale in SCALES]
    return [
        (frame_id, scale, report if hit else None)
        for (frame_id, scale), report, hit in zip(instances, reports, scored.tolist())
    ]


# The RoIAlign grid of the paper: 3x3 bins of 2x2 bilinear samples each.
_ROI_BINS = 3
_ROI_SAMPLES = 2
# Sample positions along one axis in bin widths, bin-major: the quarter points.
_ROI_STEPS = np.array(
    [b + (i + 0.5) / _ROI_SAMPLES for b in range(_ROI_BINS) for i in range(_ROI_SAMPLES)]
)


def _sample_axis(lo: np.ndarray, extent: np.ndarray, size: int) -> tuple[np.ndarray, ...]:
    # Bilinear taps along one axis for every box: sample coordinates on the
    # half-pixel aligned lattice (the value of pixel i sits at i + 0.5),
    # ordered bin-major, then the low/high indices, their weights and which
    # samples fall inside [-1, size]; samples outside read as zero.
    coord = (lo - 0.5)[:, None] + _ROI_STEPS[None, :] * (extent / _ROI_BINS)[:, None]
    inside = (coord >= -1.0) & (coord <= size)
    # Clamping to the last pixel gives it full weight, as at the map edge.
    coord = np.clip(coord, 0.0, size - 1.0)
    low = coord.astype(np.int64)
    frac = coord - low
    return low, np.minimum(low + 1, size - 1), 1.0 - frac, frac, inside


def roi_align(feature_map: np.ndarray, boxes: Sequence[BBox] | np.ndarray) -> np.ndarray:
    """Quantization-free RoI pooling of a (F, C, H, W) map to a 3x3 grid.

    Each box, given in feature-map coordinates with positive area, is
    divided into 3x3 bins; each bin averages 2x2 bilinear samples placed
    at the bin's quarter points, using half-pixel-aligned coordinates. The
    grid is flattened row-major to a vector of length 9 * F * C.

    ``boxes`` is a sequence of boxes or an (N, 4) array of their corners;
    row i of the (N, 9 * F * C) result is the vector of box i. The boxes
    are pooled together, gathering the four bilinear corners of all their
    samples in chunks of boxes.
    """
    feature_map = np.asarray(feature_map, dtype=np.float64)
    if feature_map.ndim != 4 or 0 in feature_map.shape:
        shape = feature_map.shape
        raise ValueError(f"feature map: expected (F, C, H, W), no axis empty, got shape {shape}")
    corners = check_corners(boxes) if isinstance(boxes, np.ndarray) else boxes_array(boxes)
    area = (corners[:, 2] - corners[:, 0]) * (corners[:, 3] - corners[:, 1])
    degenerate = np.flatnonzero(area <= 0.0)
    if degenerate.size:
        shown = BBox(*corners[degenerate[0]].tolist())
        raise ValueError(f"RoI box must have positive area, got {shown!r}")
    f, c, height, width = feature_map.shape
    n = len(corners)
    ys = _sample_axis(corners[:, 1], corners[:, 3] - corners[:, 1], height)
    xs = _sample_axis(corners[:, 0], corners[:, 2] - corners[:, 0], width)
    # Channels last, so each gathered corner is one contiguous F * C row.
    pixels = np.ascontiguousarray(feature_map.transpose(2, 3, 0, 1))
    pixels = pixels.reshape(height, width, f * c)
    samples = _ROI_BINS * _ROI_SAMPLES
    out = np.empty((n, _ROI_BINS, _ROI_BINS, f * c))
    chunk = _block(4 * samples * samples * f * c * 8)  # a box's four gathered corners
    for start in range(0, n, chunk):
        part = slice(start, start + chunk)
        y_lo, y_hi, hy, ly, y_in = (a[part, :, None] for a in ys)
        x_lo, x_hi, hx, lx, x_in = (a[part, None, :] for a in xs)
        value = (hy * hx)[..., None] * pixels[y_lo, x_lo]
        value += (hy * lx)[..., None] * pixels[y_lo, x_hi]
        value += (ly * hx)[..., None] * pixels[y_hi, x_lo]
        value += (ly * lx)[..., None] * pixels[y_hi, x_hi]
        value[~(y_in & x_in)] = 0.0
        value = value.reshape(-1, _ROI_BINS, _ROI_SAMPLES, _ROI_BINS, _ROI_SAMPLES, f * c)
        acc = np.zeros((len(value), _ROI_BINS, _ROI_BINS, f * c))
        for iy in range(_ROI_SAMPLES):
            for ix in range(_ROI_SAMPLES):
                acc += value[:, :, iy, :, ix]
        out[part] = acc / (_ROI_SAMPLES * _ROI_SAMPLES)
    # (N, by, bx, F * C) -> rows flattened as (F, C, by, bx).
    flat = out.reshape(n, _ROI_BINS * _ROI_BINS, f * c).transpose(0, 2, 1)
    return flat.reshape(n, -1)


def cosine_matrix(features: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities of the feature vectors: the rows of an
    (N, D) array, such as ``roi_align`` returns, or a sequence of vectors.

    The result is symmetric with a unit diagonal (both enforced exactly
    against round-off). A non-finite or zero-norm vector is an error naming
    its index.
    """
    if len(features) < 1:
        raise ValueError("need at least one RoI feature")
    vectors = np.asarray(features, dtype=np.float64).reshape(len(features), -1)
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite RoI feature at index {bad[0]}")
    scaled = np.abs(vectors)
    largest = scaled.max(axis=1, initial=0.0)
    zero = np.flatnonzero(largest == 0.0)
    if zero.size:
        raise ValueError(f"zero-norm RoI feature at index {zero[0]}")
    # Each row times the power of two that puts its largest magnitude in
    # [0.5, 1): exact, and neither the norms nor the Gram product can then
    # overflow or underflow. The norms are np.linalg.norm's arithmetic,
    # squaring in place, so the one buffer serves all three steps.
    np.ldexp(vectors, -np.frexp(largest)[1][:, None], out=scaled)
    gram = scaled @ scaled.T
    norms = np.sqrt(np.add.reduce(np.multiply(scaled, scaled, out=scaled), axis=1))
    cos = gram / np.outer(norms, norms)
    cos = (cos + cos.T) / 2.0
    np.fill_diagonal(cos, 1.0)
    return cos


def relation_matrix(cos: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a similarity matrix (``fusion.softmax``).

    Every row of the result sums to 1 and every entry lies in (0, 1).
    """
    cos = np.asarray(cos, dtype=np.float64)
    if cos.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {cos.shape}")
    if not np.all(np.isfinite(cos)):
        raise ValueError("similarity matrix has non-finite entries")
    return softmax(cos, axis=1)


def kl_rowwise(p: np.ndarray, q: np.ndarray) -> float:
    """Sum over rows of KL(p_i || q_i) with natural logarithms.

    Zero entries of p contribute nothing (0 * ln 0 = 0 convention); p must
    be finite and non-negative, q finite and strictly positive, which
    row-softmax output guarantees.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    if not (np.isfinite(p).all() and (p >= 0.0).all()):
        raise ValueError("p entries must be finite and non-negative")
    if not (np.isfinite(q).all() and (q > 0.0).all()):
        raise ValueError("q entries must be strictly positive and finite")
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def kl_loss(report: ReliabilityReport, m_v: np.ndarray, m_t: np.ndarray) -> float:
    """Directed alignment loss: KL from the reliable relation matrix to the
    other one. Thermal reference (r_t > r_v) gives KL(M_t || M_v), otherwise
    KL(M_v || M_t)."""
    m_v = np.asarray(m_v, dtype=np.float64)
    m_t = np.asarray(m_t, dtype=np.float64)
    if m_v.shape != m_t.shape:
        raise ValueError(f"dimension mismatch: {m_v.shape} vs {m_t.shape}")
    if report.r_t > report.r_v:
        return kl_rowwise(m_t, m_v)
    return kl_rowwise(m_v, m_t)


def total_loss(
    l_reg_v: float,
    l_reg_t: float,
    l_obj_v: float,
    l_obj_t: float,
    l_kl: float,
    beta: float,
) -> float:
    """Total training objective: the four detector losses plus beta * l_kl.

    The detector losses are opaque scalars produced elsewhere.
    """
    terms = (l_reg_v, l_reg_t, l_obj_v, l_obj_t, l_kl)
    if not all(math.isfinite(t) for t in terms):
        raise ValueError("loss terms must be finite")
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    return l_reg_v + l_reg_t + l_obj_v + l_obj_t + beta * l_kl


def modality_alignment_loss(
    vis_dets: Sequence[Detection],
    thermal_dets: Sequence[Detection],
    gt_boxes: Sequence[BBox],
    vis_features: np.ndarray,
    thermal_features: np.ndarray,
    n_top: int = DEFAULT_TOP_N,
    stride: float = 1.0,
) -> tuple[ReliabilityReport, float]:
    """Full single-scale alignment pipeline.

    Scores reliability, takes the reference modality's top boxes, scales
    them by ``stride`` into feature-map coordinates, extracts RoI features
    from both maps, builds the relation matrices and returns the directed
    KL loss together with the reliability report. The two maps must have
    one shape; an error in pooling or comparing the features of one map
    names that map and the reference modality, whose boxes are indexed
    best first.
    """
    if not (math.isfinite(stride) and stride > 0.0):
        raise ValueError(f"stride must be positive and finite, got {stride}")
    if np.shape(vis_features) != np.shape(thermal_features):
        raise ValueError(
            f"feature map shape mismatch: vis {np.shape(vis_features)} "
            f"vs ir {np.shape(thermal_features)}"
        )
    report, top = _score_modalities(vis_dets, thermal_dets, gt_boxes, n_top)
    ref = report.reference_modality
    reference = as_table(thermal_dets if ref == "ir" else vis_dets)
    if not reference:
        raise _InputError(f"no reference detections: no {ref} detection to pool", "detections")
    scaled = reference.corners[top] / stride
    relations = []
    for name, feature_map in (("vis", vis_features), ("ir", thermal_features)):
        try:
            relations.append(relation_matrix(cosine_matrix(roi_align(feature_map, scaled))))
        except ValueError as err:
            message = f"{name} feature map, {ref} reference boxes: {err}"
            raise _InputError(message, "features") from None
    return report, kl_loss(report, *relations)


def thermal_reliability_percentage(
    reports: Iterable[Optional[ReliabilityReport]],
) -> float:
    """Share of valid instances where the thermal modality won.

    ``reports`` holds one entry per image and scale; None marks instances
    where neither modality overlapped ground truth, which are excluded.
    The visible percentage is the complement (100 minus the result).
    """
    valid = 0
    thermal = 0
    for report in reports:
        if report is None:
            continue
        valid += 1
        if report.r_t > report.r_v:
            thermal += 1
    if valid == 0:
        raise ValueError("no valid instances")
    return 100.0 * thermal / valid
