"""Cross-modal detection fusion at each feature-map scale.

Implements the late-fusion post-processing: confidence filtering per
modality, all-pairs IoU matching between the filtered visible and thermal
boxes of each frame, convex-hull boxes with averaged confidences for the
matches, and the four output strategies (single-modality NMS, joint NMS,
or pair fusion followed by joint NMS).

Both public functions run on ``DetectionTable`` columns. Pair fusion takes
the same-frame visible x thermal pairs of every frame at once from
``geometry.segment_pairs``, scores them with one ``iou_pairs`` call, and
builds the hulls and confidences elementwise; they equal ``convex_hull``
and the scalar mean exactly. NMS runs every frame of one table at once
(``nms`` suppresses each frame on its own as a wavefront of one IoU call
per round). Given tables, both functions return tables and build no
``Detection`` object; given lists, they convert them once, run the same
array code, and return ``FusedDetection`` and ``Detection`` lists.

Ordering contract: fused pairs (IoU ``>=`` the threshold) keep the pair
order of ``geometry.segment_pairs`` over the frame-sorted visible rows
(frames ascending, visible-major, thermal-minor; see ``geometry``), and a
hull tie keeps the visible corner, signed zeros included; algo1 pools
the scales in sorted scale-id order before NMS, which visits rows in a
stable ``-score`` order and suppresses on IoU strictly above its threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    MODALITIES,
    SCALES,
    BBox,
    Detection,
    DetectionTable,
    as_table,
    iou_pairs,
    nms,
    segment_pairs,
)

STRATEGIES = ("vis", "ir", "both", "algo1")


@dataclass(frozen=True)
class PostprocessConfig:
    """Thresholds and strategy selection for detection post-processing."""

    conf_threshold_v: float = 0.2
    conf_threshold_t: float = 0.2
    iou_thres: float = 0.5
    nms_threshold: float = 0.45
    strategy: str = "algo1"

    def __post_init__(self) -> None:
        for name in ("conf_threshold_v", "conf_threshold_t", "iou_thres", "nms_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass(frozen=True)
class FusedDetection:
    """A matched visible/thermal pair: hull box and averaged confidence.

    ``parent_v`` and ``parent_t`` are the indices of the parents in the
    visible and thermal input lists handed to :func:`fuse_scale`.
    """

    box: BBox
    f_conf: float
    parent_v: int
    parent_t: int
    scale_id: str
    frame_id: str

    @property
    def center_form(self) -> tuple[float, float, float, float]:
        """(x_c, y_c, w, h) of the fused box."""
        return self.box.to_center()


def fuse_scale(
    vis: Sequence[Detection],
    ir: Sequence[Detection],
    cfg: PostprocessConfig,
) -> list[FusedDetection] | DetectionTable:
    """All-pairs cross-modal fusion of one feature-map scale.

    Frames are processed independently in sorted frame-id order. Within a
    frame both modalities are confidence filtered; a frame where either
    filtered set is empty contributes nothing. Every cross-modal pair with
    IoU >= cfg.iou_thres (many-to-many) emits a fused detection whose box is
    the convex hull of the pair and whose confidence is the mean of the two
    scores, appended in visible-major, thermal-minor order.

    Two tables give a table of the fused detections (modality ``fused``);
    other sequences give ``FusedDetection`` objects that name their parents.
    """
    both = DetectionTable.concat([as_table(vis), as_table(ir)])  # one frame-id space
    scales = sorted({SCALES[c] for c in np.unique(both.scale_codes).tolist()})
    if len(scales) > 1:
        raise ValueError(f"mixed scale_id in fuse_scale inputs: {scales}")
    v, t = both[: len(vis)], both[len(vis) :]
    rows = np.flatnonzero(v.scores >= cfg.conf_threshold_v)
    rows = rows[np.argsort(v.frame_codes[rows], kind="stable")]
    cols = np.flatnonzero(t.scores >= cfg.conf_threshold_t)
    pair_v, pair_t = segment_pairs(v.frame_codes[rows], t.frame_codes[cols])
    rows, cols = rows[pair_v], cols[pair_t]
    hit = iou_pairs(v.corners[rows], t.corners[cols]) >= cfg.iou_thres
    rows, cols = rows[hit], cols[hit]
    pv, pt = v.corners[rows], t.corners[cols]
    # Ties keep the visible corner, as convex_hull does.
    hulls = np.concatenate(
        [np.where(pt[:, :2] < pv[:, :2], pt[:, :2], pv[:, :2]),
         np.where(pt[:, 2:] > pv[:, 2:], pt[:, 2:], pv[:, 2:])],
        axis=1,
    )
    confs = (v.scores[rows] + t.scores[cols]) / 2.0
    fused = DetectionTable(
        hulls,
        confs,
        v.frame_codes[rows],
        both.frame_ids,
        np.full(len(rows), MODALITIES.index("fused")),
        v.scale_codes[rows],
    )
    if isinstance(vis, DetectionTable) and isinstance(ir, DetectionTable):
        return fused
    return [
        FusedDetection(
            box=d.box, f_conf=d.score, parent_v=r, parent_t=c,
            scale_id=d.scale_id, frame_id=d.frame_id,
        )
        for d, r, c in zip(fused, rows.tolist(), cols.tolist())
    ]


def run_strategy(
    vis: Sequence[Detection],
    ir: Sequence[Detection],
    cfg: PostprocessConfig,
) -> list[Detection] | DetectionTable:
    """Produce final detections under the configured output strategy.

    vis / ir run NMS on a single modality; both runs joint NMS over the
    pooled modalities; algo1 fuses cross-modal pairs per scale first and
    then runs joint NMS over the pooled fused boxes only. NMS is applied
    per frame at cfg.nms_threshold. The rows carry no record of the
    strategy: the caller holds ``cfg``. Two tables give a table; other
    sequences give a list.
    """
    table_v, table_t = as_table(vis), as_table(ir)
    if cfg.strategy == "vis":
        kept = nms(table_v, cfg.nms_threshold)
    elif cfg.strategy == "ir":
        kept = nms(table_t, cfg.nms_threshold)
    elif cfg.strategy == "both":
        kept = nms(DetectionTable.concat([table_v, table_t]), cfg.nms_threshold)
    else:  # algo1: scales in sorted name order, as the pooled order
        codes = set(table_v.scale_codes.tolist()) | set(table_t.scale_codes.tolist())
        pooled = [
            fuse_scale(table_v.subset(scale_id=scale), table_t.subset(scale_id=scale), cfg)
            for scale in sorted(SCALES[c] for c in codes)
        ]
        kept = nms(DetectionTable.concat(pooled) if pooled else table_v[:0], cfg.nms_threshold)
    if isinstance(vis, DetectionTable) and isinstance(ir, DetectionTable):
        return kept
    return list(kept)
