"""Cross-modal detection fusion at each feature-map scale.

Implements the late-fusion post-processing: confidence filtering per
modality, all-pairs IoU matching between the filtered visible and thermal
boxes of each frame, convex-hull boxes with averaged confidences for the
matches, and the four output strategies (single-modality NMS, joint NMS,
or pair fusion followed by joint NMS).

Pair fusion scores each frame's visible x thermal pairs with one
``iou_matrix`` call; the hulls and confidences are elementwise numpy over
the matched pairs and equal ``convex_hull`` and the scalar mean exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .geometry import BBox, Detection, boxes_array, iou_matrix, nms

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
) -> list[FusedDetection]:
    """All-pairs cross-modal fusion of one feature-map scale.

    Frames are processed independently in sorted frame-id order. Within a
    frame both modalities are confidence filtered; a frame where either
    filtered set is empty contributes nothing. Every cross-modal pair with
    IoU >= cfg.iou_thres (many-to-many) emits a fused detection whose box is
    the convex hull of the pair and whose confidence is the mean of the two
    scores, appended in visible-major, thermal-minor order.
    """
    scales = {d.scale_id for d in vis} | {d.scale_id for d in ir}
    if len(scales) > 1:
        raise ValueError(f"mixed scale_id in fuse_scale inputs: {sorted(scales)}")
    vis_by_frame: dict[str, list[tuple[int, Detection]]] = {}
    for i, d in enumerate(vis):
        if d.score >= cfg.conf_threshold_v:
            vis_by_frame.setdefault(d.frame_id, []).append((i, d))
    ir_by_frame: dict[str, list[tuple[int, Detection]]] = {}
    for j, d in enumerate(ir):
        if d.score >= cfg.conf_threshold_t:
            ir_by_frame.setdefault(d.frame_id, []).append((j, d))
    fused: list[FusedDetection] = []
    frames = sorted({d.frame_id for d in vis} | {d.frame_id for d in ir})
    for frame in frames:
        vis_kept = vis_by_frame.get(frame, [])
        ir_kept = ir_by_frame.get(frame, [])
        if not vis_kept or not ir_kept:
            continue
        box_v = boxes_array(d.box for _, d in vis_kept)
        box_t = boxes_array(d.box for _, d in ir_kept)
        # Row-major nonzero keeps the pairs in visible-major order.
        rows, cols = np.nonzero(iou_matrix(box_v, box_t) >= cfg.iou_thres)
        pv, pt = box_v[rows], box_t[cols]
        # Ties keep the visible corner, as convex_hull does.
        hulls = np.concatenate(
            [np.where(pt[:, :2] < pv[:, :2], pt[:, :2], pv[:, :2]),
             np.where(pt[:, 2:] > pv[:, 2:], pt[:, 2:], pv[:, 2:])],
            axis=1,
        )
        score_v = np.array([d.score for _, d in vis_kept])
        score_t = np.array([d.score for _, d in ir_kept])
        confs = (score_v[rows] + score_t[cols]) / 2.0
        for r, c, hull, conf in zip(rows.tolist(), cols.tolist(), hulls.tolist(), confs.tolist()):
            fused.append(
                FusedDetection(
                    box=BBox(*hull),
                    f_conf=conf,
                    parent_v=vis_kept[r][0],
                    parent_t=ir_kept[c][0],
                    scale_id=vis_kept[r][1].scale_id,
                    frame_id=frame,
                )
            )
    return fused


def _as_detection(fused: FusedDetection) -> Detection:
    return Detection(
        box=fused.box,
        score=fused.f_conf,
        modality="fused",
        scale_id=fused.scale_id,
        frame_id=fused.frame_id,
    )


def _nms_per_frame(dets: Sequence[Detection], threshold: float) -> list[Detection]:
    by_frame: dict[str, list[Detection]] = {}
    for d in dets:
        by_frame.setdefault(d.frame_id, []).append(d)
    out: list[Detection] = []
    for frame in sorted(by_frame):
        out.extend(nms(by_frame[frame], threshold))
    return out


def run_strategy(
    vis: Sequence[Detection],
    ir: Sequence[Detection],
    cfg: PostprocessConfig,
) -> list[Detection]:
    """Produce final detections under the configured output strategy.

    vis / ir run NMS on a single modality; both runs joint NMS over the
    pooled modalities; algo1 fuses cross-modal pairs per scale first and
    then runs joint NMS over the pooled fused boxes only. NMS is applied
    per frame at cfg.nms_threshold; outputs are tagged with the strategy.
    """
    if cfg.strategy == "vis":
        kept = _nms_per_frame(vis, cfg.nms_threshold)
    elif cfg.strategy == "ir":
        kept = _nms_per_frame(ir, cfg.nms_threshold)
    elif cfg.strategy == "both":
        kept = _nms_per_frame(list(vis) + list(ir), cfg.nms_threshold)
    else:  # algo1
        pooled: list[Detection] = []
        scales = sorted({d.scale_id for d in vis} | {d.scale_id for d in ir})
        for scale in scales:
            vis_s = [d for d in vis if d.scale_id == scale]
            ir_s = [d for d in ir if d.scale_id == scale]
            pooled.extend(_as_detection(f) for f in fuse_scale(vis_s, ir_s, cfg))
        kept = _nms_per_frame(pooled, cfg.nms_threshold)
    return [replace(d, strategy=cfg.strategy) for d in kept]
