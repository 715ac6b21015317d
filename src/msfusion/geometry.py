"""Axis-aligned bounding-box algebra: IoU, CIoU, convex hulls, greedy NMS.

Boxes are stored in corner form (x_min, y_min, x_max, y_max); the center
form (x_c, y_c, w, h) is a derived view. All operations are pure functions
over immutable inputs and are safe to call concurrently.

Two forms of the pairwise measures exist. ``iou`` and ``ciou`` score one
pair of ``BBox`` in pure Python. ``iou_matrix`` and ``ciou_matrix`` score
every pair of two (N, 4) corner arrays (built by ``boxes_array``) in one
numpy pass; the pairwise callers (NMS, pair fusion, matching, reliability)
use them. ``iou_matrix`` repeats the operations of ``iou`` in the same
order, so its entries equal ``iou`` bit for bit; ``ciou_matrix`` differs
from ``ciou`` only by the last-place rounding of numpy's arctangent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MODALITIES = ("vis", "ir", "fused")
SCALES = ("s80", "s40", "s20")


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in corner form, in pixel units.

    Corners must be finite with x_min <= x_max and y_min <= y_max.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        # Chained comparisons also reject NaN and infinite corners.
        if not (
            -math.inf < self.x_min <= self.x_max < math.inf
            and -math.inf < self.y_min <= self.y_max < math.inf
        ):
            raise ValueError(f"invalid box corners: {self!r}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def to_center(self) -> tuple[float, float, float, float]:
        """Center-form view (x_c, y_c, w, h)."""
        return (
            (self.x_min + self.x_max) / 2.0,
            (self.y_min + self.y_max) / 2.0,
            self.width,
            self.height,
        )

    @classmethod
    def from_center(cls, x_c: float, y_c: float, w: float, h: float) -> "BBox":
        """Build a box from center form."""
        return cls(x_c - w / 2.0, y_c - h / 2.0, x_c + w / 2.0, y_c + h / 2.0)

    def contains(self, other: "BBox") -> bool:
        return (
            self.x_min <= other.x_min
            and self.y_min <= other.y_min
            and self.x_max >= other.x_max
            and self.y_max >= other.y_max
        )


@dataclass(frozen=True)
class Detection:
    """One detector output: box, confidence, and provenance tags.

    ``strategy`` is set by post-processing to record which output strategy
    produced the detection; raw detector outputs leave it None.
    """

    box: BBox
    score: float
    modality: str
    scale_id: str
    frame_id: str
    strategy: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        if self.scale_id not in SCALES:
            raise ValueError(f"unknown scale_id {self.scale_id!r}")


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes.

    Returns a value in [0, 1]; 0.0 for disjoint boxes and, by convention,
    when the union is empty (two degenerate boxes).
    """
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = iw * ih if (iw > 0.0 and ih > 0.0) else 0.0
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def boxes_array(boxes: Iterable[BBox]) -> np.ndarray:
    """(N, 4) float64 array of the corners (x_min, y_min, x_max, y_max)."""
    corners = [(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes]
    return np.array(corners, dtype=np.float64).reshape(len(corners), 4)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every pair of rows of two (N, 4) and (M, 4) corner arrays.

    Entry (i, j) equals ``iou`` of box i of ``a`` and box j of ``b`` bit
    for bit: the same operations run in the same order, and an empty
    union gives 0.0.
    """
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def convex_hull(a: BBox, b: BBox) -> BBox:
    """Smallest axis-aligned box containing both inputs."""
    return BBox(
        min(a.x_min, b.x_min),
        min(a.y_min, b.y_min),
        max(a.x_max, b.x_max),
        max(a.y_max, b.y_max),
    )


def ciou(pred: BBox, gt: BBox) -> float:
    """Complete IoU between a predicted box and a reference box.

    IoU penalized by the squared center distance over the squared enclosing
    diagonal and by an aspect-ratio consistency term:

        ciou = iou - rho2 / c2 - alpha * v
        v = (4 / pi^2) * (atan(w_gt / h_gt) - atan(w_pred / h_pred))^2
        alpha = v / ((1 - iou) + v)

    Both boxes need positive width and height for the aspect-ratio term.
    Identical boxes score exactly 1.0; the result never exceeds the IoU.
    """
    if min(pred.width, pred.height, gt.width, gt.height) <= 0.0:
        raise ValueError("degenerate aspect ratio")
    overlap = iou(pred, gt)
    hull = convex_hull(pred, gt)
    dx = (pred.x_min + pred.x_max - gt.x_min - gt.x_max) / 2.0
    dy = (pred.y_min + pred.y_max - gt.y_min - gt.y_max) / 2.0
    rho2 = dx * dx + dy * dy
    c2 = hull.width * hull.width + hull.height * hull.height
    v = (4.0 / math.pi**2) * (
        math.atan(gt.width / gt.height) - math.atan(pred.width / pred.height)
    ) ** 2
    # v == 0 makes (1 - iou) + v vanish only for identical shapes at iou 1,
    # where the whole term is zero anyway.
    aspect_term = v * v / ((1.0 - overlap) + v) if v > 0.0 else 0.0
    return overlap - rho2 / c2 - aspect_term


def ciou_matrix(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """CIoU of every predicted box (rows of ``pred``, (N, 4)) against every
    reference box (rows of ``gt``, (M, 4)), as an (N, M) matrix.

    The formula and operation order are those of ``ciou``; entries agree
    with it to within the rounding of the arctangent (1e-15). Any box with
    non-positive width or height raises, as ``ciou`` would for its pairs.
    """
    w_p, h_p = pred[:, 2] - pred[:, 0], pred[:, 3] - pred[:, 1]
    w_g, h_g = gt[:, 2] - gt[:, 0], gt[:, 3] - gt[:, 1]
    if len(pred) and len(gt) and min(w_p.min(), h_p.min(), w_g.min(), h_g.min()) <= 0.0:
        raise ValueError("degenerate aspect ratio")
    overlap = iou_matrix(pred, gt)
    hull_w = np.maximum(pred[:, None, 2], gt[None, :, 2]) - np.minimum(
        pred[:, None, 0], gt[None, :, 0]
    )
    hull_h = np.maximum(pred[:, None, 3], gt[None, :, 3]) - np.minimum(
        pred[:, None, 1], gt[None, :, 1]
    )
    dx = ((pred[:, 0] + pred[:, 2])[:, None] - gt[None, :, 0] - gt[None, :, 2]) / 2.0
    dy = ((pred[:, 1] + pred[:, 3])[:, None] - gt[None, :, 1] - gt[None, :, 3]) / 2.0
    rho2 = dx * dx + dy * dy
    c2 = hull_w * hull_w + hull_h * hull_h
    v = (4.0 / math.pi**2) * (
        np.arctan(w_g / h_g)[None, :] - np.arctan(w_p / h_p)[:, None]
    ) ** 2
    aspect_term = np.divide(v * v, (1.0 - overlap) + v, out=np.zeros_like(v), where=v > 0.0)
    return overlap - rho2 / c2 - aspect_term


def nms(dets: Sequence[Detection], iou_threshold: float = 0.45) -> list[Detection]:
    """Greedy class-agnostic non-maximum suppression.

    Detections are visited in descending score order (ties keep the input
    order); a detection is suppressed when its IoU with an already kept,
    higher-scoring detection strictly exceeds ``iou_threshold``. The result
    is sorted by descending score and rerunning on its own output is the
    identity.

    Each kept box scores the boxes still alive after it with one IoU row,
    so memory stays O(n); no n x n matrix is built.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    ordered = sorted(dets, key=lambda d: -d.score)
    corners = boxes_array(d.box for d in ordered)
    alive = np.arange(len(ordered))
    kept: list[Detection] = []
    while alive.size:
        first, rest = alive[0], alive[1:]
        kept.append(ordered[first])
        if not rest.size:
            break
        overlap = iou_matrix(corners[first : first + 1], corners[rest])[0]
        alive = rest[~(overlap > iou_threshold)]
    return kept
