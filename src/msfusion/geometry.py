"""Axis-aligned bounding-box algebra: IoU, CIoU, convex hulls, greedy NMS,
and the columnar detection table the pipeline runs on.

Boxes are stored in corner form (x_min, y_min, x_max, y_max); the center
form (x_c, y_c, w, h) is a derived view. All operations are pure functions
over immutable inputs and are safe to call concurrently.

Two forms of the pairwise measures exist. ``iou`` and ``ciou`` score one
pair of ``BBox`` in pure Python. ``iou_pairs`` scores matching rows of two
corner arrays, with numpy broadcasting over their leading axes (so one row
against many, or every pair of two arrays on a grid), and ``ciou_pairs`` a
list of (row, row) pairs of two corner arrays, so that the pairs of a
whole corpus (each detection with the ground truths of its own frame) take
one call. ``segment_pairs`` builds every such list: the rows of two arrays
carry segment codes (a frame, a record), and it pairs each row of one with
the rows of the other that share its code. The pairwise callers (NMS, pair
fusion, matching, reliability) use them. ``iou_pairs`` repeats the
operations of ``iou`` in the same order, so its entries equal ``iou`` bit
for bit; ``ciou_pairs`` takes the arctangent once per box and differs from
``ciou`` only by the last-place rounding of numpy's arctangent.

NMS suppresses each frame on its own and runs all frames at once as a
wavefront: each round keeps the best live row of every frame and scores the frame's
other live rows against it in one ``iou_pairs`` call, so the rounds number
the most rows any one frame keeps, not the sum over frames. Once one frame
is left, it is walked in blocks of B live rows, the block layout of GPU
NMS kernels: one call settles the block on itself, one more scores only
its kept rows against the live rows after it. B starts at 16, doubles
when a block keeps more than half its rows and halves otherwise, within
256 and 2**18 // live rows, so memory is O(B * live rows) with at most
2**18 IoU values per call (for frames of up to 2**18 rows). That cap, the
8,192 pairs of a ``ciou_pairs`` chunk and every other chunk of the package
come from ``_block``: one 2 MiB budget, the L2 cache of one core.

``DetectionTable`` holds many detections as columns: the corners as an
(N, 4) float64 array, the scores as a float64 array, and integer codes for
frame, modality and scale. Frame codes index ``frame_ids``,
which is kept in Python ``str`` sort order, so sorting rows by frame code
sorts them by frame id (no numpy string array holds them: it would drop
trailing NUL characters). The table is itself a ``Sequence[Detection]``:
``len``, indexing and iteration build ``Detection`` rows on demand, and a
slice is a table. ``Detection`` objects are built only there: the library's
list API converts a list into a table once and runs the same array code.

Ordering contract, kept by every array path: frames are visited in sorted
frame-id order; NMS visits rows in a stable ``-score`` order and suppresses
on IoU strictly above the threshold, and per-frame NMS returns the frames
in sorted frame-id order. ``segment_pairs`` lists its pairs (i, j) with i
ascending and, for each i, j ascending. So a first side sorted by segment
gives its pairs segment by segment, and every row's partners form one run
in the second side's order: pair fusion's pairs come frames ascending,
visible-major and thermal-minor, and each detection meets the ground
truths of its record in record order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable

import numpy as np

MODALITIES = ("vis", "ir", "fused")
SCALES = ("s80", "s40", "s20")

# The L2 cache of one core. Every chunked kernel sizes its blocks to it, so
# a temporary is one block long rather than the size of its whole input.
_L2_BYTES = 2 << 20


def _block(item_bytes: int) -> int:
    # Items per block of about _L2_BYTES: at least one, also for empty items.
    return max(1, _L2_BYTES // max(item_bytes, 1))


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


@dataclass(frozen=True)
class Detection:
    """One detector output: box, confidence, and provenance tags."""

    box: BBox
    score: float
    modality: str
    scale_id: str
    frame_id: str

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


def _overlap(iw, ih, area_a, area_b) -> np.ndarray:
    # IoU from the intersection sides and the two areas, in ``iou``'s order.
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    union = area_a + area_b - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of matching rows of two corner arrays of shape (..., 4), with
    numpy broadcasting over the leading axes.

    Each entry equals ``iou`` of its two boxes bit for bit: the same
    operations run in the same order, and an empty union gives 0.0.
    """
    return _overlap(
        np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0]),
        np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1]),
        (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1]),
        (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1]),
    )


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


def degenerate_rows(corners: np.ndarray) -> np.ndarray:
    """Which rows of an (N, 4) corner array have zero width or height, and
    so no aspect ratio for CIoU."""
    return (corners[:, 2] - corners[:, 0] <= 0.0) | (corners[:, 3] - corners[:, 1] <= 0.0)


def _ciou_columns(corners: np.ndarray) -> np.ndarray:
    # The per-box terms of CIoU as the rows of one (8, N) array: the four
    # corners, the area, the doubled centre (x_min + x_max, y_min + y_max)
    # and the arctangent of the aspect ratio, computed once per box. A box
    # with zero height gets a meaningless arctangent, without a warning.
    x0, y0, x1, y1 = corners.T
    w, h = x1 - x0, y1 - y0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.stack([x0, y0, x1, y1, w * h, x0 + x1, y0 + y1, np.arctan(w / h)])


def _ciou_terms(p: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # IoU and CIoU of predicted and reference boxes given as ``_ciou_columns``
    # columns gathered per pair; the operations and their order
    # are those of ``ciou``. Degenerate pairs give meaningless CIoU silently.
    px0, py0, px1, py1, p_area, p_sx, p_sy, p_atan = p
    gx0, gy0, gx1, gy1, g_area, _, _, g_atan = g
    overlap = _overlap(
        np.minimum(px1, gx1) - np.maximum(px0, gx0),
        np.minimum(py1, gy1) - np.maximum(py0, gy0),
        p_area,
        g_area,
    )
    hull_w = np.maximum(px1, gx1) - np.minimum(px0, gx0)
    hull_h = np.maximum(py1, gy1) - np.minimum(py0, gy0)
    dx = (p_sx - gx0 - gx1) / 2.0
    dy = (p_sy - gy0 - gy1) / 2.0
    rho2 = dx * dx + dy * dy
    c2 = hull_w * hull_w + hull_h * hull_h
    v = (4.0 / math.pi**2) * (g_atan - p_atan) ** 2
    aspect_term = np.divide(v * v, (1.0 - overlap) + v, out=np.zeros_like(v), where=v > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return overlap, overlap - rho2 / c2 - aspect_term


def ciou_pairs(
    pred: np.ndarray, gt: np.ndarray, pred_rows: np.ndarray, gt_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """IoU and CIoU of the pairs (``pred[pred_rows[k]]``, ``gt[gt_rows[k]]``)
    of two (N, 4) and (M, 4) corner arrays.

    The per-box terms, arctangent included, are computed once per box and
    gathered per pair as 1-D columns; the formula and operation order are
    those of ``ciou``, so entries agree with it to within the rounding of
    the arctangent (1e-15), and the IoU equals ``iou_pairs``. Boxes are not checked: a
    pair with a zero-width or zero-height box gets a meaningless CIoU (its
    IoU stays exact), so callers reject such boxes first (``degenerate_rows``).
    """
    p_columns, g_columns = _ciou_columns(pred), _ciou_columns(gt)
    overlap, score = np.empty(len(pred_rows)), np.empty(len(pred_rows))
    step = _block(32 * 8)  # per pair: 16 gathered columns, 16 temporaries
    for start in range(0, len(pred_rows), step):
        part = slice(start, start + step)
        # np.take along axis 1 keeps each gathered column contiguous.
        overlap[part], score[part] = _ciou_terms(
            np.take(p_columns, pred_rows[part], axis=1),
            np.take(g_columns, gt_rows[part], axis=1),
        )
    return overlap, score


def segment_pairs(seg_a, seg_b) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (i, j) with ``seg_a[i] == seg_b[j]``, as two index arrays
    in (i, j) order: i ascending, and the j of each i ascending.

    Segment codes are non-negative integers and ``seg_a`` need not be
    sorted. A code found on one side only, or an empty side, gives no pairs.
    """
    seg_a = np.asarray(seg_a, dtype=np.intp)
    seg_b = np.asarray(seg_b, dtype=np.intp)
    count_b = np.bincount(seg_b, minlength=seg_a.max(initial=-1) + 1)
    per_a = count_b[seg_a]
    rows_a = np.repeat(np.arange(len(seg_a)), per_a)
    # Pair k of row i is the (k - first pair of i)-th row of its segment
    # in seg_b's stable sort order.
    shift = (np.cumsum(count_b) - count_b)[seg_a] - (np.cumsum(per_a) - per_a)
    order_b = np.argsort(seg_b, kind="stable")
    return rows_a, order_b[np.arange(len(rows_a)) + np.repeat(shift, per_a)]


def _invalid_corners(corners: np.ndarray) -> np.ndarray:
    # Rows BBox rejects; the comparisons are false for NaN, as in BBox.
    x0, y0, x1, y1 = corners.T
    return ~(
        (-np.inf < x0) & (x0 <= x1) & (x1 < np.inf)
        & (-np.inf < y0) & (y0 <= y1) & (y1 < np.inf)
    )


def _invalid_rows(corners: np.ndarray, scores: np.ndarray) -> np.ndarray:
    # Rows BBox or Detection rejects: bad corners, or a score outside [0, 1].
    return _invalid_corners(corners) | ~((0.0 <= scores) & (scores <= 1.0))


def check_corners(corners) -> np.ndarray:
    """``corners`` as an (N, 4) float64 array whose every row is a valid
    ``BBox``; the first invalid row raises ``BBox``'s own error."""
    corners = np.asarray(corners, dtype=np.float64)
    if corners.ndim != 2 or corners.shape[1] != 4:
        raise ValueError(f"expected (N, 4) corners, got shape {corners.shape}")
    bad = np.flatnonzero(_invalid_corners(corners))
    if bad.size:
        BBox(*corners[bad[0]].tolist())  # raises
    return corners


_MODALITY_CODES = {m: i for i, m in enumerate(MODALITIES)}
_SCALE_CODES = {s: i for i, s in enumerate(SCALES)}


def _codes(values, n: int, size: int, name: str) -> np.ndarray:
    codes = np.asarray(values)
    if codes.shape != (n,) or (n and codes.dtype.kind not in "iu"):
        raise ValueError(f"{name}: expected {n} integer codes, got shape {codes.shape}")
    codes = codes.astype(np.intp, copy=False)
    if n and not (0 <= codes.min() and codes.max() < size):
        raise ValueError(f"{name}: codes must lie in [0, {size})")
    return codes


def _recode(vocab: tuple, codes: np.ndarray, lookup: dict) -> np.ndarray:
    # Codes into ``vocab`` rewritten as codes into the vocabulary ``lookup`` indexes.
    return np.array([lookup[v] for v in vocab], dtype=np.intp)[codes]


class DetectionTable(Sequence):
    """Detections as columns (struct of arrays).

    ``corners`` is (N, 4) float64 in corner form and ``scores`` is (N,)
    float64. ``frame_codes`` index ``frame_ids`` (unique, in Python ``str``
    sort order), ``modality_codes`` index ``MODALITIES`` and
    ``scale_codes`` index ``SCALES``. Every row is a valid detection; the
    constructor checks it and raises the error ``Detection`` would raise
    for the first invalid row.

    A table is a ``Sequence[Detection]``: indexing and iteration build
    ``Detection`` rows, a slice is a table sharing the columns, and a table
    equals any sequence holding equal detections in the same order. Tables
    share columns with their slices, so the columns are read, never written.
    """

    __slots__ = (
        "corners", "scores", "frame_codes", "frame_ids", "modality_codes", "scale_codes",
    )

    def __init__(
        self,
        corners,
        scores,
        frame_codes,
        frame_ids: Sequence[str],
        modality_codes,
        scale_codes,
    ) -> None:
        corners = np.asarray(corners, dtype=np.float64)
        n = len(corners)
        if corners.shape != (n, 4):
            raise ValueError(f"corners: expected shape (N, 4), got {corners.shape}")
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (n,):
            raise ValueError(f"scores: expected shape ({n},), got {scores.shape}")
        frame_ids = tuple(frame_ids)
        if not all(isinstance(f, str) for f in frame_ids) or any(
            a >= b for a, b in zip(frame_ids, frame_ids[1:])
        ):
            raise ValueError("frame_ids must be unique strings in sorted order")
        self._set(
            corners,
            scores,
            _codes(frame_codes, n, len(frame_ids), "frame_codes"),
            frame_ids,
            _codes(modality_codes, n, len(MODALITIES), "modality_codes"),
            _codes(scale_codes, n, len(SCALES), "scale_codes"),
        )
        bad = np.flatnonzero(_invalid_rows(corners, scores))
        if bad.size:
            try:
                self[int(bad[0])]
            except ValueError as err:
                raise ValueError(f"row {bad[0]}: {err}") from None

    def _set(self, *columns) -> "DetectionTable":
        for name, value in zip(self.__slots__, columns):
            setattr(self, name, value)
        return self

    @classmethod
    def _make(cls, *columns) -> "DetectionTable":
        # Columns already known valid: a subset, reordering or merge of tables.
        return object.__new__(cls)._set(*columns)

    @classmethod
    def from_detections(cls, dets: Iterable[Detection]) -> "DetectionTable":
        """The table holding ``dets`` in order."""
        dets = list(dets)
        frame_ids = tuple(sorted({d.frame_id for d in dets}))
        frame_lookup = {f: i for i, f in enumerate(frame_ids)}
        corners = [(d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max) for d in dets]
        return cls._make(
            np.array(corners, dtype=np.float64).reshape(len(dets), 4),
            np.array([d.score for d in dets], dtype=np.float64),
            np.array([frame_lookup[d.frame_id] for d in dets], dtype=np.intp),
            frame_ids,
            np.array([_MODALITY_CODES[d.modality] for d in dets], dtype=np.intp),
            np.array([_SCALE_CODES[d.scale_id] for d in dets], dtype=np.intp),
        )

    @classmethod
    def concat(cls, tables: Sequence["DetectionTable"]) -> "DetectionTable":
        """Rows of every table in order, over the union of their frame ids.
        Needs at least one table."""
        frame_ids = tables[0].frame_ids
        frames = [t.frame_codes for t in tables]
        if any(t.frame_ids != frame_ids for t in tables):
            frame_ids = tuple(sorted(set().union(*(t.frame_ids for t in tables))))
            lookup = {f: i for i, f in enumerate(frame_ids)}
            frames = [_recode(t.frame_ids, t.frame_codes, lookup) for t in tables]
        return cls._make(
            np.concatenate([t.corners for t in tables]),
            np.concatenate([t.scores for t in tables]),
            np.concatenate(frames),
            frame_ids,
            np.concatenate([t.modality_codes for t in tables]),
            np.concatenate([t.scale_codes for t in tables]),
        )

    def take(self, index) -> "DetectionTable":
        """The rows at ``index`` (an index array, a boolean mask or a
        slice), in that order; a slice shares the columns."""
        return self._make(
            self.corners[index],
            self.scores[index],
            self.frame_codes[index],
            self.frame_ids,
            self.modality_codes[index],
            self.scale_codes[index],
        )

    def subset(
        self,
        frame_id: str | None = None,
        modality: str | None = None,
        scale_id: str | None = None,
    ) -> "DetectionTable":
        """The rows matching every given tag, in order."""
        keep = np.ones(len(self), dtype=bool)
        if frame_id is not None:
            code = self.frame_ids.index(frame_id) if frame_id in self.frame_ids else -1
            keep &= self.frame_codes == code
        if modality is not None:
            if modality not in _MODALITY_CODES:
                raise ValueError(f"unknown modality {modality!r}")
            keep &= self.modality_codes == _MODALITY_CODES[modality]
        if scale_id is not None:
            if scale_id not in _SCALE_CODES:
                raise ValueError(f"unknown scale_id {scale_id!r}")
            keep &= self.scale_codes == _SCALE_CODES[scale_id]
        return self.take(np.flatnonzero(keep))

    def by_frame(self) -> list[tuple[str, np.ndarray]]:
        """(frame id, row indices) for every frame with rows, in sorted
        frame-id order; each frame's indices ascend."""
        codes, counts = np.unique(self.frame_codes, return_counts=True)
        runs = np.split(np.argsort(self.frame_codes, kind="stable"), np.cumsum(counts)[:-1])
        return [(self.frame_ids[code], rows) for code, rows in zip(codes.tolist(), runs)]

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self.take(key)
        n = len(self)
        i = key + n if -n <= key < 0 else key
        if not 0 <= i < n:
            raise IndexError(f"detection index {key} out of range for {n} rows")
        return next(iter(self.take(slice(i, i + 1))))

    def __iter__(self):
        frame_ids = self.frame_ids
        for corners, score, frame, modality, scale in zip(
            self.corners.tolist(),
            self.scores.tolist(),
            self.frame_codes.tolist(),
            self.modality_codes.tolist(),
            self.scale_codes.tolist(),
        ):
            yield Detection(
                BBox(*corners), score, MODALITIES[modality], SCALES[scale], frame_ids[frame]
            )

    def __eq__(self, other) -> bool:
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"DetectionTable({len(self)} detections, {len(self.frame_ids)} frame ids)"


def as_table(dets: Iterable[Detection]) -> DetectionTable:
    """``dets`` itself when it is a table, else the table holding it."""
    if isinstance(dets, DetectionTable):
        return dets
    return DetectionTable.from_detections(dets)


# Bounds on the rows B of a walk block; _block also caps B * live rows.
_BLOCK_MIN, _BLOCK_MAX = 16, 256


def _segmented_nms(
    corners: np.ndarray, scores: np.ndarray, segments: np.ndarray, iou_threshold: float
) -> np.ndarray:
    # Rows kept by greedy NMS run separately within every segment (rows of
    # equal ``segments`` code), segments ascending, each in descending score
    # order. The segments run as a wavefront: every round keeps the first
    # live row of each segment and scores the segment's other live rows
    # against it in one ``iou_pairs`` call, so there are as many rounds as
    # the largest segment keeps rows. Once one segment is left, it is walked
    # in blocks of B rows (see the module docstring): one (B, B) call settles
    # a block, one more scores its kept rows against the rows after it. The
    # earlier row is always ``a``, so the IoU bits are those of a row walk.
    alive = np.lexsort((-scores, segments))  # stable: ties keep row order
    kept = [alive[:0]]  # an empty run, so the concatenation never lacks one
    while alive.size and segments[alive[0]] != segments[alive[-1]]:
        segment = segments[alive]
        head = np.empty(alive.size, dtype=bool)
        head[0] = True
        np.not_equal(segment[1:], segment[:-1], out=head[1:])
        heads = alive[head]
        kept.append(heads)
        owner = heads[np.cumsum(head)[~head] - 1]
        alive = alive[~head]
        if alive.size:
            alive = alive[~(iou_pairs(corners[owner], corners[alive]) > iou_threshold)]
    size = _BLOCK_MIN
    while alive.size:
        size = min(max(size, _BLOCK_MIN), _BLOCK_MAX, _block(8 * alive.size))
        head, alive = alive[:size], alive[size:]
        block = corners[head]
        over = np.triu(iou_pairs(block[:, None], block[None]) > iou_threshold, 1)
        keep = np.ones(head.size, dtype=bool)
        for i in range(head.size):
            if keep[i]:
                keep &= ~over[i]
        kept.append(head[keep])
        if alive.size:
            over = iou_pairs(block[keep][:, None], corners[alive][None]) > iou_threshold
            alive = alive[~over.any(axis=0)]
        size = size * 2 if 2 * np.count_nonzero(keep) > head.size else size // 2
    kept = np.concatenate(kept)
    return kept[np.argsort(segments[kept], kind="stable")]


def nms(dets: Sequence[Detection], iou_threshold: float = 0.45) -> Sequence[Detection]:
    """Greedy class-agnostic non-maximum suppression within each frame.

    Every frame is suppressed on its own. Within a frame, detections are
    visited in descending score order (ties keep the input order); a
    detection is suppressed when its IoU with an already kept,
    higher-scoring detection of its frame strictly exceeds
    ``iou_threshold``. The result holds the frames in sorted frame-id
    order, each in descending score order, and rerunning on its own output
    is the identity. A table gives a table; any other sequence gives a list
    of its own detection objects.

    All frames run together as a wavefront (``_segmented_nms``), one IoU
    call per round; the last frame left is walked in blocks of B <= 256
    rows, two IoU calls per block, so memory is O(B * live rows), at most
    2**18 values per call, and no n x n matrix is built.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    table = as_table(dets)
    index = _segmented_nms(table.corners, table.scores, table.frame_codes, iou_threshold)
    if isinstance(dets, DetectionTable):
        return dets.take(index)
    return [dets[i] for i in index.tolist()]
